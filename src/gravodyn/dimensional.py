"""Order-of-magnitude machinery: compactification, mode densities, masses.

Everything here is desk arithmetic in Hartree atomic units (energies in
Hartree, lengths in bohr, masses in electron masses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Newton constant and light speed in Hartree atomic units."""

    G: float = 1e-40
    c: float = 137.036

    def __post_init__(self):
        if self.G <= 0 or self.c <= 0:
            raise ValueError("constants must be positive")


def g11_from_compactification(G, a):
    """Higher-dimensional coupling (2*a*pi)^7 * G for compactification radius a.

    Matching the ten-space-dimension law -G11*M/(pi^7 r^8) to the Newtonian
    -G*M/r fixes G11 = (2 a pi)^7 G; their ratio is then (2a/r)^7, so the
    two laws agree exactly at r = 2a and the short-range enhancement at
    r = 1 bohr is (2a)^7. Raises ValueError unless a > 0 and G11 is finite.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    try:
        g11 = (2.0 * a * math.pi) ** 7 * G
    except OverflowError:
        g11 = math.inf
    if not math.isfinite(g11):
        raise ValueError(f"G11 = (2*a*pi)^7 * G overflows at a = {a:g}")
    return g11


def k_space_density(d, L, a):
    """Mode density in k-space: (L/pi) per macroscopic axis (up to 3), (a/pi) per hidden axis."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return (L / math.pi) ** min(d, 3) * (a / math.pi) ** max(d - 3, 0)


def mode_density(E, c, d, L, a=1.0):
    """Boson mode density (states per energy) in d spatial k-space dimensions.

    d = 1 is the line density L/(pi c); for d >= 2 the spherical-shell form
    (pi^{d/2}/Gamma(1 + d/2)) * rho_k^d * E^{d-1}/c^d is used, which at
    d = 10 reduces to (E^9/c^10) (pi^5/5!) (L/pi)^3 (a/pi)^7.
    """
    if E <= 0:
        raise ValueError("E must be positive")
    if int(d) != d or d < 1:
        raise ValueError("dimension must be a positive integer")
    d = int(d)
    if d == 1:
        return L / (math.pi * c)
    angular = math.pi ** (d / 2.0) / math.gamma(1.0 + d / 2.0)
    return angular * k_space_density(d, L, a) * E ** (d - 1) / c**d


def rho_2d(M, L):
    """Density of states 2*M*L^2/pi for free planar motion of a mass-M particle."""
    if M <= 0 or L <= 0:
        raise ValueError("M and L must be positive")
    return 2.0 * M * L * L / math.pi


def density_ratio(E, c, L, a, M):
    """Full quotient mode_density(E, d=10) / rho_2d(M, L)."""
    return mode_density(E, c, 10, L, a) / rho_2d(M, L)


def gravonon_mass(k, c):
    """Mass k/c of the low-frequency mode emerging at wavenumber k."""
    if k <= 0:
        raise ValueError("k must be positive")
    return k / c


def g11_table(constants: PhysicalConstants, radii=(1e4, 1e3, 1e2, 10.0)):
    """Rows (a, G11, G11/pi^7) for a list of compactification radii."""
    rows = []
    for a in radii:
        g11 = g11_from_compactification(constants.G, a)
        rows.append((a, g11, g11 / math.pi**7))
    return rows
