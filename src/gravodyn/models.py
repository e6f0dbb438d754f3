"""Real-symmetric Hamiltonian assembly.

Two builders share one matrix representation:

* ``build_chooser`` — the source/screen/projection/band level scheme
  (a discrete state |Q0> coupled through |R0> and a projected band state
  |Kproj> into a flat band of N levels),
* ``build_telegraph`` — one site of a two-site adsorbate model, where
  each ``TelegraphSite`` carries a core state, a locally distorted
  resonance, one local gravonon mode and a finite gravonon continuum.
  Nothing couples the sites, so in the sector of one matter quantum and
  one gravonon quantum the model is the block of each site alone: that
  site's matter pair times that site's gravonon modes.

Every coupling is real and every off-diagonal element is written into a
zeroed float64 array in lockstep with its transposed partner, so the stored
matrix is real symmetric exactly, which is exact Hermiticity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolationError


@dataclass(frozen=True)
class ChooserParams:
    """Parameters of the band-coupled level scheme.

    ``v`` couples the source state |Q0> to the screen state |R0>; ``w``
    couples |R0> to the projected band state |Kproj|; each of the ``n_band``
    band levels couples to |Kproj> with the flat strength ``u/sqrt(n_band)``.
    Band energies are ``n_band`` evenly spaced values spanning
    [-delta/2, +delta/2]; ``alpha`` is a real diagonal shift on |Kproj>.
    """

    v: float
    w: float
    n_band: int
    delta: float = 0.0
    u: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.n_band < 0:
            raise ValueError("n_band must be non-negative")
        if self.n_band > 0 and self.delta <= 0:
            raise ValueError("delta must be positive when the band is non-empty")
        for name in ("v", "w", "u", "alpha", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def band_energies(self):
        """Evenly spaced band levels spanning [-delta/2, +delta/2]."""
        if self.n_band == 0:
            return np.empty(0)
        return np.linspace(-self.delta / 2, self.delta / 2, self.n_band)


@dataclass(frozen=True)
class TelegraphSite:
    """One site of the two-site adsorbate model.

    A core level (energy ``e_g``), a locally distorted resonance (``e_w``)
    reachable by the hopping ``v_loc``, a local gravonon mode (``eps_grav``)
    and a finite gravonon continuum (``band``, its mode energies in any
    order: no observable depends on it). ``v_gw`` couples the local gravonon
    to each continuum mode, times n_w.
    ``keys`` are the config keys of these six fields, for an error to name;
    they take no part in comparing sites.
    """

    e_g: float
    e_w: float
    v_loc: float
    eps_grav: float
    band: tuple[float, ...] = ()
    v_gw: float = 0.0
    keys: tuple[str, ...] = field(
        default=("e_g", "e_w", "v_loc", "eps_grav", "band", "v_gw"), compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "band", tuple(map(float, self.band)))
        if not all(map(math.isfinite, self.band)):
            raise ValueError("band entries must be finite")


_ROWS = 128  # rows per block of the exact-Hermiticity comparison


def _hermitian(entries):
    """Whether a real square ``entries`` equals its transpose exactly, compared
    ``_ROWS`` rows at a time, so no dim × dim mask is formed: a NaN anywhere
    fails, +0 and −0 compare equal."""
    return all(
        np.array_equal(entries[s:s + _ROWS], entries[:, s:s + _ROWS].T)
        for s in range(0, len(entries), _ROWS)
    )


@dataclass
class HamiltonianMatrix:
    """Dense real-symmetric matrix, the one place exact Hermiticity is checked.

    ``entries`` are stored, frozen, as float64; a complex array is taken as
    its real part when its imaginary part is exactly zero, and refused
    otherwise. An infinite entry (a sum of energy scales that overflowed) is
    then a ConfigError, found by the same row blocks.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if np.iscomplexobj(entries) and entries.imag.any():
            raise ContractViolationError("matrix is not real symmetric")
        self.entries = np.ascontiguousarray(entries.real, dtype=float)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ContractViolationError("matrix must be square")
        if not _hermitian(self.entries):  # a NaN fails here
            raise ContractViolationError("matrix is not Hermitian entrywise")
        blocks = range(0, self.dim, _ROWS)
        if not all(np.isfinite(self.entries[s:s + _ROWS]).all() for s in blocks):
            raise ConfigError("a matrix entry is not finite: its energy scales overflow")
        self.entries.flags.writeable = False

    @property
    def dim(self):
        return len(self.entries)


def build_chooser(p: ChooserParams) -> HamiltonianMatrix:
    """Assemble the (3 + n_band)-state level-scheme Hamiltonian.

    Basis order is [|Q0>, |R0>, |Kproj>, |Kband 1> ... |Kband N>].
    <Q0|H|R0> = v, <R0|H|Kproj> = w, <Kproj|H|Kband k> = u/sqrt(N) for
    every band level; the diagonal is (0, 0, alpha, eps_1 ... eps_N).
    |Q0> couples to the band only indirectly.
    """
    n = p.n_band
    dim = 3 + n
    h = np.zeros((dim, dim))
    h[0, 1] = h[1, 0] = p.v
    h[1, 2] = h[2, 1] = p.w
    h[2, 2] = p.alpha
    if n > 0:
        h[2, 3:] = h[3:, 2] = p.u / math.sqrt(n)
        np.fill_diagonal(h[3:, 3:], p.band_energies())
    return HamiltonianMatrix(h)


# ---------------------------------------------------------------------------
# telegraph model


def build_telegraph(site: TelegraphSite) -> HamiltonianMatrix:
    """Assemble the block of one site of the two-site adsorbate.

    In the sector of one matter quantum in (g1, w1, g2, w2) and one gravonon
    quantum in the modes of both sites, the model

        H = sum_i [ E_g_i n_g_i + E_w_i n_w_i + V_loc_i (a+_g_i a_w_i + h.c.)
                    + eps_grav_i b+_grav_i b_grav_i + sum_k eps_k_i b+_k_i b_k_i
                    + V_gw_i n_w_i sum_k (b+_grav_i b_k_i + h.c.) ]

    couples no state of site i's block to a state outside it. The block's
    basis is matter (w, g) times gravonon (band descending, local), the
    order in which ``fock.enumerate_configs`` lists these states.
    """
    n = 1 + len(site.band)
    h_matter = np.array([[site.e_w, site.v_loc], [site.v_loc, site.e_g]])
    # h[a, b, a', b'] = <a b|H|a' b'>; accumulating into zeros keeps every
    # element the sum the ladder-operator expansion gives, signed zeros too
    h = np.zeros((2, n, 2, n))
    with np.errstate(over="ignore"):  # HamiltonianMatrix refuses a sum that overflows
        h[[0, 1], :, [0, 1], :] += np.diag([*site.band[::-1], site.eps_grav])
        grav = np.arange(n)
        h[:, grav, :, grav] += h_matter
        h[0, -1, 0, :-1] += site.v_gw  # the local mode is last
        h[0, :-1, 0, -1] += site.v_gw
    return HamiltonianMatrix(h.reshape(2 * n, 2 * n))
