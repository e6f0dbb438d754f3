"""Hermitian Hamiltonian assembly.

Three builders share one matrix representation:

* ``build_chooser`` — the source/screen/projection/band level scheme
  (a discrete state |Q0> coupled through |R0> and a projected band state
  |Kproj> into a flat band of N levels),
* ``build_telegraph`` — a two-site adsorbate model where each site carries
  a core state, a locally distorted resonance, one local gravonon mode and
  a finite gravonon continuum,
* ``build_generic_ci`` — arbitrary one- and two-family ladder-operator
  term lists over a truncated occupation basis.

All builders produce matrices that are Hermitian entrywise exactly as
stored: conjugate matrix elements are accumulated in lockstep, so the
floating-point sums for H[i, j] and H[j, i] are conjugates operation by
operation. A matrix whose entries are all real is stored as float64, where
exact Hermiticity is exact symmetry, so the spectral layer can stay in
real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, ModeOverflowError
from .fock import (
    GRAV,
    MATTER,
    ModeSpace,
    apply_ladder_string,
    enumerate_configs,
    index_map,
)

# term kinds for build_generic_ci
KIND_MATTER = "a+a"
KIND_GRAV = "b+b"
KIND_MATTER_GRAV = "a+a b+b"


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
class TelegraphParams:
    """Two-site adsorbate model parameters.

    Each site i carries a core level (energy ``e_g_i``), a locally distorted
    resonance (``e_w_i``) reachable by the hopping ``v_loc_i``, a local
    gravonon mode (``eps_grav_i``) and a finite gravonon continuum
    (``band_i``, ascending energies).  ``v_gw_i`` couples the local gravonon
    to each continuum mode, gated by occupation of the distorted resonance
    (the coupling multiplies n_w_i).
    """

    e_g1: float
    e_g2: float
    e_w1: float
    e_w2: float
    v_loc_1: float
    v_loc_2: float
    eps_grav_1: float
    eps_grav_2: float
    band_1: tuple[float, ...] = ()
    band_2: tuple[float, ...] = ()
    v_gw_1: float = 0.0
    v_gw_2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "band_1", tuple(float(e) for e in self.band_1))
        object.__setattr__(self, "band_2", tuple(float(e) for e in self.band_2))
        for name in ("band_1", "band_2"):
            band = getattr(self, name)
            if any(not math.isfinite(e) for e in band):
                raise ValueError(f"{name} entries must be finite")
            if list(band) != sorted(band):
                raise ValueError(f"{name} must be sorted ascending")

    @property
    def n_grav_modes(self):
        return 2 + len(self.band_1) + len(self.band_2)


def _real_if_exact(entries):
    """``entries`` as float64 when no imaginary part is nonzero, else complex."""
    entries = np.asarray(entries)
    if np.iscomplexobj(entries) and entries.imag.any():
        return entries.astype(complex, copy=False)
    return np.ascontiguousarray(entries.real, dtype=float)


@dataclass
class HamiltonianMatrix:
    """Dense Hermitian matrix with labeled basis states.

    ``entries`` are stored as float64 when their imaginary part is exactly
    zero everywhere (a real-symmetric matrix) and as complex otherwise;
    the exact-Hermiticity check runs in that stored arithmetic.
    ``basis_labels`` identifies each basis position (a named state or an
    occupation-configuration label); ``configs`` keeps the underlying
    configurations when the basis came from a ModeSpace.
    """

    dim: int
    entries: np.ndarray
    basis_labels: tuple[str, ...]
    configs: tuple | None = None

    def __post_init__(self):
        self.entries = _real_if_exact(self.entries)
        if self.entries.shape != (self.dim, self.dim):
            raise ContractViolationError("entries shape does not match dim")
        if len(self.basis_labels) != self.dim:
            raise ContractViolationError("basis label count does not match dim")
        if not np.array_equal(self.entries, self.entries.conj().T):
            raise ContractViolationError("matrix is not Hermitian entrywise")
        self.entries.flags.writeable = False


def band_label(i):
    return f"Kband{i:04d}"


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
        w_band = p.u / math.sqrt(n)
        eps = p.band_energies()
        for k in range(n):
            h[2, 3 + k] = h[3 + k, 2] = w_band
            h[3 + k, 3 + k] = eps[k]
    labels = ("Q0", "R0", "Kproj") + tuple(band_label(i + 1) for i in range(n))
    return HamiltonianMatrix(dim=dim, entries=h, basis_labels=labels)


# ---------------------------------------------------------------------------
# generic CI assembly


@dataclass(frozen=True)
class CITerm:
    """One ladder-operator product term.

    kind 'a+a'      : indices (i, j) -> coeff * a+_i a_j          (matter)
    kind 'b+b'      : indices (i, j) -> coeff * b+_i b_j          (gravonon)
    kind 'a+a b+b'  : indices (i, j, k, l) -> coeff * a+_i a_j b+_k b_l

    The Hermitian conjugate of every non-self-adjoint term is added
    automatically; self-adjoint terms (pure number operators) are added
    once and must carry a real coefficient.
    """

    kind: str
    indices: tuple[int, ...]
    coefficient: complex

    def conjugate_indices(self):
        if self.kind in (KIND_MATTER, KIND_GRAV):
            i, j = self.indices
            return (j, i)
        i, j, k, l = self.indices
        return (j, i, l, k)

    def is_self_adjoint(self):
        return self.indices == self.conjugate_indices()

    def ladder_ops(self):
        """Operator string acting on a ket, annihilations first."""
        if self.kind == KIND_MATTER:
            i, j = self.indices
            return [(MATTER, j, "lower"), (MATTER, i, "raise")]
        if self.kind == KIND_GRAV:
            i, j = self.indices
            return [(GRAV, j, "lower"), (GRAV, i, "raise")]
        i, j, k, l = self.indices
        return [
            (MATTER, j, "lower"),
            (GRAV, l, "lower"),
            (MATTER, i, "raise"),
            (GRAV, k, "raise"),
        ]


def _validate_term(term, space):
    if term.kind not in (KIND_MATTER, KIND_GRAV, KIND_MATTER_GRAV):
        raise ValueError(f"unknown term kind {term.kind!r}")
    expected = 4 if term.kind == KIND_MATTER_GRAV else 2
    if len(term.indices) != expected:
        raise ValueError(
            f"term kind {term.kind!r} takes {expected} indices, got {len(term.indices)}"
        )
    if term.kind == KIND_MATTER:
        limits = [space.n_matter_modes] * 2
    elif term.kind == KIND_GRAV:
        limits = [space.n_gravonon_modes] * 2
    else:
        limits = [space.n_matter_modes] * 2 + [space.n_gravonon_modes] * 2
    for idx, limit in zip(term.indices, limits):
        if not 0 <= idx < limit:
            raise ValueError(f"mode index {idx} out of range for term {term.kind!r}")
    if term.is_self_adjoint() and complex(term.coefficient).imag != 0.0:
        raise ValueError("self-adjoint term requires a real coefficient")


def build_generic_ci(space: ModeSpace, terms) -> HamiltonianMatrix:
    """Assemble a Hamiltonian from ladder-operator terms over ``space``.

    Each term and its Hermitian conjugate are applied to every basis
    configuration; results landing outside the truncated space (occupation
    past n_max or outside the fixed sector) are projected away, which is
    exactly the restriction of the operator to the enumerated basis.
    The matrix is accumulated in float64 when every coefficient is real.
    """
    terms = [t if isinstance(t, CITerm) else CITerm(**t) for t in terms]
    for t in terms:
        _validate_term(t, space)
    configs = enumerate_configs(space)
    idx = index_map(configs)
    dim = len(configs)
    real = not any(complex(t.coefficient).imag for t in terms)
    h = np.zeros((dim, dim), dtype=float if real else complex)
    for t in terms:
        coeff = complex(t.coefficient)
        if real:
            coeff = coeff.real
        pairs = [(t.ladder_ops(), coeff)]
        if not t.is_self_adjoint():
            conj = CITerm(t.kind, t.conjugate_indices(), coeff.conjugate())
            pairs.append((conj.ladder_ops(), conj.coefficient))
        for col, ket in enumerate(configs):
            for ops, c in pairs:
                try:
                    result, amp = apply_ladder_string(ket, ops, space.n_max)
                except ModeOverflowError:
                    continue
                if result is None:
                    continue
                row = idx.get(result)
                if row is None:
                    continue
                h[row, col] += c * amp
    labels = tuple(c.label() for c in configs)
    return HamiltonianMatrix(dim=dim, entries=h, basis_labels=labels, configs=tuple(configs))


# ---------------------------------------------------------------------------
# telegraph model

# matter mode layout: (g1, w1, g2, w2)
G1, W1, G2, W2 = 0, 1, 2, 3


def telegraph_grav_layout(p: TelegraphParams):
    """Gravonon mode indices: local mode then band for site 1, then site 2."""
    n1 = len(p.band_1)
    site1_local = 0
    site1_band = list(range(1, 1 + n1))
    site2_local = 1 + n1
    site2_band = list(range(2 + n1, 2 + n1 + len(p.band_2)))
    return site1_local, site1_band, site2_local, site2_band


def telegraph_terms(p: TelegraphParams):
    """Ladder-operator term list realizing the two-site Hamiltonian.

    H = sum_i [ E_g_i n_g_i + E_w_i n_w_i
                + V_loc_i (a+_g_i a_w_i + h.c.)
                + eps_grav_i b+_grav_i b_grav_i
                + sum_k eps_k_i b+_k_i b_k_i
                + V_gw_i n_w_i sum_k (b+_grav_i b_k_i + h.c.) ]
    """
    s1_loc, s1_band, s2_loc, s2_band = telegraph_grav_layout(p)
    terms = [
        CITerm(KIND_MATTER, (G1, G1), p.e_g1),
        CITerm(KIND_MATTER, (W1, W1), p.e_w1),
        CITerm(KIND_MATTER, (G2, G2), p.e_g2),
        CITerm(KIND_MATTER, (W2, W2), p.e_w2),
        CITerm(KIND_MATTER, (G1, W1), p.v_loc_1),
        CITerm(KIND_MATTER, (G2, W2), p.v_loc_2),
        CITerm(KIND_GRAV, (s1_loc, s1_loc), p.eps_grav_1),
        CITerm(KIND_GRAV, (s2_loc, s2_loc), p.eps_grav_2),
    ]
    for k, eps in zip(s1_band, p.band_1):
        terms.append(CITerm(KIND_GRAV, (k, k), eps))
    for k, eps in zip(s2_band, p.band_2):
        terms.append(CITerm(KIND_GRAV, (k, k), eps))
    for k in s1_band:
        terms.append(CITerm(KIND_MATTER_GRAV, (W1, W1, s1_loc, k), p.v_gw_1))
    for k in s2_band:
        terms.append(CITerm(KIND_MATTER_GRAV, (W2, W2, s2_loc, k), p.v_gw_2))
    return terms


def build_telegraph(p: TelegraphParams, space: ModeSpace) -> HamiltonianMatrix:
    """Assemble the two-site adsorbate Hamiltonian over ``space``.

    ``space`` must carry 4 matter modes in the order (g1, w1, g2, w2) and
    ``2 + len(band_1) + len(band_2)`` gravonon modes laid out as
    (local 1, band 1 ..., local 2, band 2 ...).
    """
    if space.n_matter_modes != 4:
        raise ValueError(
            f"space has {space.n_matter_modes} matter modes; the two-site model needs 4"
        )
    if space.n_gravonon_modes != p.n_grav_modes:
        raise ValueError(
            f"space has {space.n_gravonon_modes} gravonon modes; "
            f"parameters require {p.n_grav_modes}"
        )
    if space.n_max < 1:
        raise ValueError("space must allow at least single occupation")
    return build_generic_ci(space, telegraph_terms(p))
