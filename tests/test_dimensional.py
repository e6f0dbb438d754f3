"""Tests for the order-of-magnitude estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravodyn.dimensional import (
    PhysicalConstants,
    density_ratio,
    g11_from_compactification,
    g11_table,
    gravonon_mass,
    mode_density,
    rho_2d,
)
from gravodyn.meanfield import GridState, kinetic_hamiltonian


GRID = np.linspace(1.0, 512.0, 512)  # r = 1, 2, ..., 512 bohr exactly


def gravity_well(g, d_spatial, x=GRID):
    """The mean-field gravity well -g / r^(D-2) on grid ``x``, unsoftened.

    It is the diagonal of the matter-field Hamiltonian with zeta = 0, less
    the kinetic constant 1/(m dx^2). The matter mass is so large that this
    constant lies below the last bit of the well, so the difference is the
    well exactly.
    """
    m = 1e100
    s = GridState(
        x_min=x[0], x_max=x[-1], n_points=len(x),
        psi=np.zeros(len(x)), zeta=np.zeros(len(x)),
        m=m, g_newton=g, d_spatial=d_spatial, softening=0.0,
    )
    assert np.array_equal(s.x, x)
    two_kin = 2.0 * (1.0 / (2.0 * m * s.dx * s.dx))
    return np.diag(kinetic_hamiltonian(s, "psi")) - two_kin


def newtonian(G, M, r):
    """-G M / r: the three-space-dimension well at distance r (an integer on GRID)."""
    return gravity_well(G * M, 3)[r - 1]


def ten_dimensional(g11, M, r):
    """-G11 M / (pi^7 r^8): the ten-space-dimension well at distance r."""
    return gravity_well(g11 * M / math.pi**7, 10)[r - 1]


class TestPotentials:
    # the wells are ~1e-37 a.u., far below approx's default abs tolerance,
    # so comparisons of well values set abs=0
    def test_newtonian_value(self):
        assert newtonian(1e-40, 1e4, 6) == pytest.approx(-1.6667e-37, rel=1e-3, abs=0)

    def test_newtonian_zero_mass(self):
        assert newtonian(1e-40, 0.0, 2) == 0.0

    def test_newtonian_scaling(self):
        v1 = newtonian(1e-40, 1e4, 3)
        v2 = newtonian(1e-40, 1e4, 6)
        assert v2 == pytest.approx(v1 / 2, rel=1e-14, abs=0)

    def test_requires_positive_r(self):
        # an unsoftened grid through r = 0 has no finite well there
        x = np.linspace(-2.0, 2.0, 17)
        with pytest.raises(ValueError, match="softening"):
            gravity_well(1e-36, 3, x)
        with pytest.raises(ValueError, match="softening"):
            gravity_well(1e-10, 10, x)

    def test_higher_dimensional_selection_scale(self):
        g11 = 1e-18 * math.pi**7
        v = ten_dimensional(g11, 1e4, 6)
        assert v == pytest.approx(-1e-14 / 6.0**8, rel=1e-12, abs=0)
        assert -1e-20 < v < -1e-21  # the required ~1e-20 a.u. ballpark

    def test_inverse_eighth_power(self):
        v1 = ten_dimensional(1e-10, 1e4, 2)
        v2 = ten_dimensional(1e-10, 1e4, 4)
        assert v1 / v2 == pytest.approx(256.0, rel=1e-12)

    def test_laws_agree_at_twice_compactification_radius(self):
        G, a, M = 1e-40, 123, 5e3
        g11 = g11_from_compactification(G, a)
        r = 2 * a
        assert ten_dimensional(g11, M, r) == pytest.approx(newtonian(G, M, r), rel=1e-12, abs=0)
        # and the ratio elsewhere is (2a/r)^7
        for r in (10, 500, 4 * a):
            ratio = ten_dimensional(g11, M, r) / newtonian(G, M, r)
            assert ratio == pytest.approx((2 * a / r) ** 7, rel=1e-12)


class TestCompactification:
    def test_table_row_1e4(self):
        g11 = g11_from_compactification(1e-40, 1e4)
        assert g11 / math.pi**7 == pytest.approx(1.28e-10, rel=1e-3)

    def test_table_row_10(self):
        g11 = g11_from_compactification(1e-40, 10.0)
        assert g11 / math.pi**7 == pytest.approx(1.28e-31, rel=1e-3)

    def test_doubling_radius(self):
        g1 = g11_from_compactification(1e-40, 50.0)
        g2 = g11_from_compactification(1e-40, 100.0)
        assert g2 / g1 == pytest.approx(128.0, rel=1e-12)

    def test_full_table_orders(self):
        rows = g11_table(PhysicalConstants())
        expected_orders = (1e-10, 1e-17, 1e-24, 1e-31)
        for (a, g11, scaled), order in zip(rows, expected_orders):
            assert order / 10 < scaled < order * 10

    def test_enhancement_factor(self):
        """At r = 1 bohr the ten-dimensional well is (2a)^7 times the Newtonian one."""
        G, M = 1e-40, 2.0
        for a in (1e3, 1e4):
            g11 = g11_from_compactification(G, a)
            ratio = ten_dimensional(g11, M, 1) / newtonian(G, M, 1)
            assert ratio == pytest.approx((2 * a) ** 7, rel=1e-12)


class TestModeDensity:
    def test_line_density(self):
        c = 137.036
        assert mode_density(1.0, c, 1, 1e7) == pytest.approx(1e7 / (math.pi * c), rel=1e-14)

    def test_ten_dimensional_closed_form(self):
        E, c, L, a = 1370.36, 137.036, 1e7, 1e4
        value = mode_density(E, c, 10, L, a)
        expected = (
            (E**9 / c**10)
            * (math.pi**5 / 120.0)
            * (L / math.pi) ** 3
            * (a / math.pi) ** 7
        )
        assert value == pytest.approx(expected, rel=1e-14)
        # direct arithmetic puts this near 2e51 states/Hartree
        assert 1e51 < value < 3e51

    def test_power_law_in_energy(self):
        c, L, a = 137.036, 1e7, 1e4
        r = mode_density(2.0, c, 10, L, a) / mode_density(1.0, c, 10, L, a)
        assert r == pytest.approx(2.0**9, rel=1e-12)

    def test_requires_positive_energy(self):
        with pytest.raises(ValueError):
            mode_density(0.0, 137.036, 10, 1e7, 1e4)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            mode_density(1.0, 137.036, 0, 1e7, 1e4)

    @settings(max_examples=40, deadline=None)
    @given(
        e=st.floats(1.0, 1e4),
        factor=st.floats(1.01, 10.0),
        which=st.sampled_from(["E", "L", "a"]),
    )
    def test_monotone_for_d10(self, e, factor, which):
        c, L, a = 137.036, 1e6, 1e3
        base = mode_density(e, c, 10, L, a)
        if which == "E":
            bigger = mode_density(e * factor, c, 10, L, a)
        elif which == "L":
            bigger = mode_density(e, c, 10, L * factor, a)
        else:
            bigger = mode_density(e, c, 10, L, a * factor)
        assert bigger > base


class TestDensityRatio:
    def test_planar_density_proton(self):
        assert rho_2d(1836.0, 1e7) == pytest.approx(1.2e17, rel=0.03)

    def test_quoted_ratio_within_one_order(self):
        c = 137.036
        E = 10.0 * c  # wavenumber 10/bohr
        ratio = density_ratio(E, c, 1e7, 1e4, 2000.0)
        assert 1e33 < ratio < 1e35

    def test_ratio_doubles_with_a7(self):
        c = 137.036
        E = 10.0 * c
        r1 = density_ratio(E, c, 1e7, 1e4, 2000.0)
        r2 = density_ratio(E, c, 1e7, 1e4 * 2 ** (1 / 7), 2000.0)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-10)


class TestGravononMass:
    def test_k10(self):
        m = gravonon_mass(10.0, 137.036)
        assert m == pytest.approx(0.073, rel=0.01)

    def test_k_equals_c(self):
        assert gravonon_mass(137.036, 137.036) == 1.0

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            gravonon_mass(0.0, 137.036)


class TestConstants:
    def test_defaults(self):
        c = PhysicalConstants()
        assert c.G == 1e-40
        assert c.c == 137.036

    def test_positivity(self):
        with pytest.raises(ValueError):
            PhysicalConstants(G=0.0)
