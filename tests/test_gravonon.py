"""Tests for localized-mode assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravodyn.gravonon import SiteBasis, build_omega, build_omega_quadrature
from gravodyn.propagator import diagonalize


def chain_basis(n_sites, spacing, sigma=1.0, v=1.0, theta=1.0, m_g=1.0, v_o=0.0):
    return SiteBasis(
        positions=tuple(i * spacing for i in range(n_sites)),
        envelope_width=sigma,
        vgrav_values=(v,) * n_sites,
        theta=theta,
        m_g=m_g,
        v_o=v_o,
    )


class TestBuildOmega:
    def test_single_site_closed_form(self):
        sigma, m_g, v_o, v, theta = 0.7, 2.3, -0.4, 1.6, 0.9
        basis = SiteBasis(
            positions=(0.0,),
            envelope_width=sigma,
            vgrav_values=(v,),
            theta=theta,
            m_g=m_g,
            v_o=v_o,
        )
        omega = build_omega(basis)
        expected = theta**2 * v**2 * (1.0 / (4 * m_g * sigma**2) + v_o)
        assert omega.shape == (1, 1)
        assert omega[0, 0] == pytest.approx(expected, rel=1e-14)
        # quadrature agrees with the closed form on a single site too
        quad = build_omega_quadrature(basis)
        assert quad[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_far_sites_decouple(self):
        basis = chain_basis(2, spacing=25.0, sigma=1.0, v_o=0.3)
        omega = build_omega(basis)
        assert abs(omega[0, 1]) < 1e-12 * abs(omega[0, 0])

    def test_envelope_normalized(self):
        basis = chain_basis(1, spacing=1.0, sigma=0.37)
        x = np.linspace(-8, 8, 40001)
        g = basis.envelope(0, x)
        assert np.trapezoid(g * g, x) == pytest.approx(1.0, rel=1e-10)

    def test_five_site_chain_matches_quadrature(self):
        basis = chain_basis(5, spacing=1.3, sigma=0.8, v=1.2, theta=0.7, m_g=1.9, v_o=0.25)
        analytic = build_omega(basis)
        quadrature = build_omega_quadrature(basis)
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - quadrature)) < 1e-6 * scale

    def test_symmetric(self):
        basis = chain_basis(4, spacing=0.9, sigma=0.6, v_o=-0.1)
        omega = build_omega(basis)
        assert np.array_equal(omega, omega.T)

    @settings(max_examples=20, deadline=None)
    @given(
        n_sites=st.integers(1, 8),
        spacing=st.floats(0.5, 3.0),
        sigma=st.floats(0.3, 1.5),
        m_g=st.floats(0.2, 5.0),
        v_o=st.floats(-1.0, 1.0),
    )
    def test_quadrature_agreement_property(self, n_sites, spacing, sigma, m_g, v_o):
        basis = chain_basis(n_sites, spacing=spacing, sigma=sigma, m_g=m_g, v_o=v_o)
        analytic = build_omega(basis)
        quadrature = build_omega_quadrature(basis)
        scale = max(np.max(np.abs(analytic)), 1e-12)
        assert np.max(np.abs(analytic - quadrature)) < 1e-6 * scale

    def test_positions_must_increase(self):
        with pytest.raises(ValueError):
            SiteBasis(positions=(1.0, 0.5), envelope_width=1.0, vgrav_values=(1.0, 1.0))


class TestDiagonalizeModes:
    """The frequencies are ``diagonalize``'s eigenvalues of the mode matrix."""

    def test_identical_decoupled_sites_degenerate(self):
        basis = chain_basis(2, spacing=30.0)
        frequencies = diagonalize(build_omega(basis)).eigenvalues
        assert frequencies[0] == pytest.approx(frequencies[1], rel=1e-12)

    def test_coupled_pair_splitting(self):
        a, c = 1.0, 0.23
        frequencies = diagonalize(np.array([[a, c], [c, a]])).eigenvalues
        assert frequencies[1] - frequencies[0] == pytest.approx(2 * c, rel=1e-12)

    def test_permutation_invariant_spectrum(self):
        basis = chain_basis(5, spacing=1.1, sigma=0.9, v_o=0.4)
        omega = build_omega(basis)
        reference = np.sort(diagonalize(omega).eigenvalues)
        rng = np.random.default_rng(5)
        for _ in range(4):
            perm = rng.permutation(5)
            shuffled = omega[np.ix_(perm, perm)]
            freqs = np.sort(diagonalize(shuffled).eigenvalues)
            assert np.max(np.abs(freqs - reference)) < 1e-12


class TestCouplingFunction:
    """The site envelope g_i(x): the spatial profile of each site's coupling."""

    def test_peak_value(self):
        sigma = 0.6
        basis = chain_basis(3, spacing=1.0, sigma=sigma)
        peak = basis.envelope(2, basis.positions[2])
        assert peak == pytest.approx((math.pi * sigma**2) ** (-0.25), rel=1e-14)
        # independent quadrature: the envelope really is unit-normalized,
        # so the peak is fixed by the Gaussian normalization constant
        x = np.linspace(-4, 8, 20001)
        g = basis.envelope(2, x)
        assert np.trapezoid(g * g, x) == pytest.approx(1.0, rel=1e-10)
        assert x[np.argmax(g)] == pytest.approx(basis.positions[2], abs=1e-12)

    def test_symmetric_about_site(self):
        basis = chain_basis(2, spacing=2.0, sigma=0.5)
        for de in (0.1, 0.5, 1.3):
            left = basis.envelope(1, basis.positions[1] - de)
            right = basis.envelope(1, basis.positions[1] + de)
            assert left == pytest.approx(right, rel=1e-14)
