"""Exact-diagonalization time evolution.

The solution of i dΨ/dt = HΨ is evaluated as the spectral sum
Ψ(t) = Σ_k e^{−iλ_k t} v_k ⟨v_k|Ψ(0)⟩ over the full eigendecomposition,
on every basis row or only on the rows a reduction reads.
All model bases here are at most a few thousand states, so full
diagonalization is cheaper and more accurate than step integration
(a small-step integrator survives only as a test oracle).

A matrix whose imaginary part is exactly zero stays real throughout: it is
decomposed by real ``eigh``, its contracts (exact symmetry, residual,
orthonormality) are checked in real arithmetic, and ``evolve`` applies the
real eigenvectors with real matrix products. Complex input takes the same
steps in complex arithmetic. States are complex either way.

Everything is deterministic: there is no random number generator anywhere
in this package, and repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .models import HamiltonianMatrix, _real_if_exact

NORM_TOL = 1e-10
ORTHO_TOL = 1e-12
RESIDUAL_TOL = 1e-10


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a Hermitian matrix: ascending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return len(self.eigenvalues)


@dataclass
class TimeSeries:
    """Sampled named channels over a common ascending time grid."""

    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name, values in self.channels.items():
            values = np.asarray(values)
            if values.shape != self.times.shape:
                raise ValueError(
                    f"channel {name!r} length {values.shape} does not match time grid"
                )
            self.channels[name] = values


def diagonalize(h: HamiltonianMatrix | np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, verifying the spectral contract.

    Input with no nonzero imaginary part is decomposed as a real-symmetric
    matrix (real eigenvectors); the contracts are checked in the input's
    own arithmetic. Raises ContractViolationError if the input is not
    Hermitian (symmetric, when real) entrywise, if eigenvector residuals
    exceed 1e-10 times the spectral norm, or if the eigenbasis is not
    orthonormal to 1e-12.
    """
    entries = h.entries if isinstance(h, HamiltonianMatrix) else _real_if_exact(h)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ContractViolationError("matrix must be square")
    if not np.array_equal(entries, entries.conj().T):
        raise ContractViolationError("matrix is not Hermitian entrywise")
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    residual = entries @ eigenvectors - eigenvectors * eigenvalues
    max_residual = float(np.max(np.linalg.norm(residual, axis=0))) if len(eigenvalues) else 0.0
    if max_residual > RESIDUAL_TOL * max(scale, 1e-300):
        raise ContractViolationError(
            f"eigenpair residual {max_residual:.3e} exceeds {RESIDUAL_TOL:.0e}·‖H‖"
        )
    gram = eigenvectors.conj().T @ eigenvectors
    ortho_defect = float(np.max(np.abs(gram - np.eye(len(eigenvalues)))))
    if ortho_defect > ORTHO_TOL:
        raise ContractViolationError(
            f"eigenbasis orthonormality defect {ortho_defect:.3e} exceeds {ORTHO_TOL:.0e}"
        )
    return SpectralDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _check_normalized(psi0):
    psi0 = np.asarray(psi0, dtype=complex)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > NORM_TOL:
        raise ContractViolationError(f"initial state norm {norm} is not 1 within {NORM_TOL:.0e}")
    return psi0


def evolve(d: SpectralDecomposition, psi0, times, rows=None) -> np.ndarray:
    """Propagate: rows are states Ψ(t) on the supplied time grid.

    Ψ(t) = Σ_k e^{−iλ_k t} v_k ⟨v_k|Ψ(0)⟩ on the basis rows ``rows`` (all if
    None); the initial state must be normalized (contract violation
    otherwise). The full state keeps the norm ‖Ψ(0)‖ up to the eigenbasis
    orthonormality defect (``--check`` measures it), so the other rows hold
    ‖Ψ(0)‖² minus the weight on ``rows``. The states are complex also when
    the eigenvectors are real.
    """
    psi0 = _check_normalized(psi0)
    times = np.asarray(times, dtype=float)
    vectors = d.eigenvectors
    coeff = vectors.conj().T @ psi0
    phases = np.outer(-1j * d.eigenvalues, times)
    np.exp(phases, out=phases)
    phases *= coeff[:, np.newaxis]
    if rows is not None:
        vectors = vectors[rows]
    if np.iscomplexobj(vectors):
        return (vectors @ phases).T
    # A C-ordered complex (dim, times) block read as float64 is the real
    # (dim, 2·times) block of interleaved real and imaginary parts, so one
    # real product applies V to both parts.
    return (vectors @ phases.view(float)).view(complex).T


def total_norms(states) -> np.ndarray:
    """Total norm Σ_i |Ψ_i|² at each sampled time."""
    return np.sum(np.abs(np.asarray(states)) ** 2, axis=1)
