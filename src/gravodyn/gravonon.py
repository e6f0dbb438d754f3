"""Matter-induced localized-mode structure.

A set of atomic cores at positions x_i each carries a normalized Gaussian
envelope g_i(x).  The interaction matrix

    Omega_ij = theta^2 * V_i * V_j * <g_i| (-d^2/dx^2 / (2 m_g) + V_o) |g_j>

defines a collection of coupled oscillators; diagonalizing it
(``propagator.diagonalize``, which takes it as it is: it is exactly
symmetric) yields the independent-mode spectrum.

The envelopes are g_i(x) = (pi sigma^2)^{-1/4} exp(-(x-x_i)^2 / (2 sigma^2)),
so all matrix elements have closed forms:

    <g_i|g_j>                    = exp(-d^2/(4 sigma^2)),   d = x_i - x_j
    <g_i| -d^2/dx^2/(2m) |g_j>   = exp(-d^2/(4 sigma^2)) *
                                   (1/(4 m sigma^2)) * (1 - d^2/(2 sigma^2))

which a grid-quadrature assembly must reproduce (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SiteBasis:
    """Localized-envelope basis: positions, width, couplings, mass, potential."""

    positions: tuple[float, ...]
    envelope_width: float
    vgrav_values: tuple[float, ...]
    theta: float = 1.0
    m_g: float = 1.0
    v_o: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        object.__setattr__(self, "vgrav_values", tuple(float(v) for v in self.vgrav_values))
        if self.envelope_width <= 0:
            raise ValueError("envelope_width must be positive")
        if self.m_g <= 0:
            raise ValueError("m_g must be positive")
        if len(self.vgrav_values) != len(self.positions):
            raise ValueError("one coupling value per site required")
        diffs = np.diff(self.positions)
        if len(diffs) and not np.all(diffs > 0):
            raise ValueError("positions must be strictly increasing")

    @property
    def n_sites(self):
        return len(self.positions)

    def envelope(self, i, x):
        """Normalized Gaussian g_i(x) centered on site i."""
        sigma = self.envelope_width
        u = (np.asarray(x, dtype=float) - self.positions[i]) / sigma
        return (math.pi * sigma * sigma) ** (-0.25) * np.exp(-0.5 * u * u)


def build_omega(basis: SiteBasis) -> np.ndarray:
    """Assemble the real symmetric mode matrix by closed-form integrals."""
    sigma = basis.envelope_width
    x = np.asarray(basis.positions)
    v = np.asarray(basis.vgrav_values)
    d = x[:, None] - x[None, :]
    overlap = np.exp(-(d * d) / (4 * sigma * sigma))
    kinetic = (1.0 / (4.0 * basis.m_g * sigma * sigma)) * (1.0 - (d * d) / (2 * sigma * sigma))
    omega = basis.theta**2 * np.outer(v, v) * overlap * (kinetic + basis.v_o)
    # symmetrize exactly: the formula is symmetric, but floating evaluation
    # of x_i - x_j and x_j - x_i can differ in the last bit
    return 0.5 * (omega + omega.T)


def build_omega_quadrature(basis: SiteBasis, n_points=20001, pad=12.0) -> np.ndarray:
    """Trapezoid-rule assembly of the same matrix (reference route).

    The kinetic part is evaluated as <g_i|T|g_j> with the analytic second
    derivative of the Gaussian envelope, integrated on a uniform grid
    covering all sites plus ``pad`` widths on both ends.
    """
    sigma = basis.envelope_width
    lo = min(basis.positions) - pad * sigma
    hi = max(basis.positions) + pad * sigma
    x = np.linspace(lo, hi, n_points)
    n = basis.n_sites
    g = np.array([basis.envelope(i, x) for i in range(n)])
    # second derivative of exp(-u^2/2)/norm: (u^2 - 1)/sigma^2 * g
    u = (x[None, :] - np.asarray(basis.positions)[:, None]) / sigma
    g_xx = (u * u - 1.0) / (sigma * sigma) * g
    omega = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            integrand = g[i] * (-g_xx[j] / (2.0 * basis.m_g) + basis.v_o * g[j])
            omega[i, j] = (
                basis.theta**2
                * basis.vgrav_values[i]
                * basis.vgrav_values[j]
                * np.trapezoid(integrand, x)
            )
    return 0.5 * (omega + omega.T)
