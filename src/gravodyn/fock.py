"""Truncated bosonic occupation-number spaces.

A model state is a product configuration ``|{n_alpha}> |{n_beta}>`` of
occupation numbers over a finite list of matter modes and a finite list of
gravonon modes, each occupation truncated at ``n_max``.  This module
enumerates such configurations (optionally restricted to fixed total
occupation per family) and applies single-mode ladder operators with the
bosonic amplitudes sqrt(n+1) / sqrt(n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DEFAULT_CONFIG_CAP, ModeOverflowError, SizeLimitError

MATTER = "matter"
GRAV = "grav"


@dataclass(frozen=True)
class ModeSpace:
    """Defines a truncated product Fock space.

    Parameters
    ----------
    n_matter_modes, n_gravonon_modes : int
        How many modes of each family the space carries.
    n_max : int
        Per-mode occupation truncation (occupations run 0..n_max).
    sector : int or None
        If given, restrict to configurations whose *matter* occupations sum
        to this value.
    grav_sector : int or None
        If given, restrict the total *gravonon* occupation likewise.  The
        unrestricted gravonon space grows as ``(n_max+1)**n_gravonon_modes``
        and is unusable already for a few tens of band modes, while the
        dynamics of interest conserve the total gravonon quanta; fixing the
        sector keeps the basis linear in the band size.
    config_cap : int
        Hard limit on how many configurations enumeration may produce.
    """

    n_matter_modes: int
    n_gravonon_modes: int
    n_max: int
    sector: int | None = None
    grav_sector: int | None = None
    config_cap: int = DEFAULT_CONFIG_CAP

    def __post_init__(self):
        if self.n_matter_modes < 0 or self.n_gravonon_modes < 0:
            raise ValueError("mode counts must be non-negative")
        if self.n_max < 0:
            raise ValueError("n_max must be non-negative")
        for name in ("sector", "grav_sector"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative when given")
        if self.config_cap <= 0:
            raise ValueError("config_cap must be positive")


@dataclass(frozen=True)
class OccupationConfig:
    """One occupation-number configuration ``|{n_alpha}> |{n_beta}>``."""

    matter_occ: tuple[int, ...]
    grav_occ: tuple[int, ...]

    def occupation(self, family, index):
        occ = self.matter_occ if family == MATTER else self.grav_occ
        return occ[index]


def _bounded_tuples(n_modes, n_max, total):
    """Yield occupation tuples in ascending lexicographic order.

    With ``total is None`` this is the full product ``{0..n_max}**n_modes``;
    otherwise only tuples summing to ``total`` are produced. Iterative, so
    the number of modes is not bounded by the recursion limit.
    """
    if total is None:
        yield from itertools.product(range(n_max + 1), repeat=n_modes)
        return
    if total > n_max * n_modes:
        return
    occ = [0] * n_modes
    pos, rest = -1, total
    while True:
        # the smallest suffix after ``pos`` holding ``rest`` quanta packs
        # them to the right: ..., 0, r, n_max, ..., n_max
        width = n_modes - 1 - pos
        full, r = divmod(rest, n_max) if n_max else (0, 0)
        if full < width:
            occ[pos + 1:] = [0] * (width - full - 1) + [r] + [n_max] * full
        else:
            occ[pos + 1:] = [n_max] * width
        yield tuple(occ)
        # advance the rightmost mode that can take one quantum from its suffix
        rest = 0
        for pos in range(n_modes - 1, -1, -1):
            if rest and occ[pos] < n_max:
                break
            rest += occ[pos]
        else:
            return
        occ[pos] += 1
        rest -= 1


def enumerate_configs(space):
    """List every configuration of ``space`` in lexicographic order.

    The order is ascending lexicographic on the concatenated occupation
    vector (matter modes first, then gravonon modes).  Raises
    :class:`SizeLimitError` as soon as the count would exceed
    ``space.config_cap``.
    """
    configs = []
    for m in _bounded_tuples(space.n_matter_modes, space.n_max, space.sector):
        for g in _bounded_tuples(space.n_gravonon_modes, space.n_max, space.grav_sector):
            if len(configs) >= space.config_cap:
                raise SizeLimitError(
                    f"configuration count exceeds cap of {space.config_cap}"
                )
            configs.append(OccupationConfig(m, g))
    return configs


def apply_ladder(config, family, index, kind, n_max):
    """Apply a single creation/annihilation operator to a configuration.

    Parameters
    ----------
    config : OccupationConfig
    family : 'matter' or 'grav'
    index : int
        Mode index within the family.
    kind : 'raise' or 'lower'
    n_max : int
        Truncation of the ambient space.

    Returns
    -------
    (OccupationConfig or None, float)
        The resulting configuration and the bosonic amplitude
        (sqrt(n+1) on raising, sqrt(n) on lowering).  Lowering an empty
        mode returns ``(None, 0.0)``.  Raising a mode already at ``n_max``
        raises :class:`ModeOverflowError` rather than silently truncating.
    """
    if family not in (MATTER, GRAV):
        raise ValueError(f"unknown mode family {family!r}")
    if kind not in ("raise", "lower"):
        raise ValueError(f"unknown ladder kind {kind!r}")
    occ = config.matter_occ if family == MATTER else config.grav_occ
    if not 0 <= index < len(occ):
        raise ValueError(f"mode index {index} out of range for family {family!r}")
    n = occ[index]
    if kind == "lower":
        if n == 0:
            return None, 0.0
        new_n, amp = n - 1, math.sqrt(n)
    else:
        if n == n_max:
            raise ModeOverflowError(
                f"raising {family} mode {index} past n_max={n_max}"
            )
        new_n, amp = n + 1, math.sqrt(n + 1)
    new_occ = occ[:index] + (new_n,) + occ[index + 1:]
    if family == MATTER:
        return OccupationConfig(new_occ, config.grav_occ), amp
    return OccupationConfig(config.matter_occ, new_occ), amp


def apply_ladder_string(config, ops, n_max):
    """Apply a sequence of ladder operators, with exact amplitude arithmetic.

    Parameters
    ----------
    config : OccupationConfig
    ops : sequence of (family, index, kind)
        Applied in the order given: the first entry acts first on the ket.
    n_max : int

    Returns
    -------
    (OccupationConfig or None, float)
        Resulting configuration and total amplitude.  Any annihilation of
        an empty mode collapses the whole string to the zero-result.

    Notes
    -----
    Each single-operator amplitude is the square root of an integer, so the
    squared total amplitude is accumulated as an exact Python integer and
    rooted once at the end.  Number-conserving strings such as b b⁺ or
    b⁺ b therefore come out with exactly integer amplitudes, keeping the
    commutation relation [b, b⁺] = 1 free of rounding noise.
    """
    amp_sq = 1
    current = config
    for family, index, kind in ops:
        occ_before = current.occupation(family, index)
        current, amp = apply_ladder(current, family, index, kind, n_max)
        if current is None:
            return None, 0.0
        amp_sq *= occ_before + 1 if kind == "raise" else occ_before
    return current, math.sqrt(amp_sq)
