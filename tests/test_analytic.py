"""Tests for the closed-form chooser results and the laws the chooser model obeys."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravodyn.analytic import (
    _band_quadrature,
    _bound_states,
    band_weight,
    finite_band_weight,
    gamma_from,
    self_consistent_width,
    zero_state_coeffs,
)
from gravodyn.models import ChooserParams, build_chooser
from gravodyn.propagator import diagonalize, evolve


class TestGamma:
    def test_unit_case(self):
        assert gamma_from(1.0, math.pi) == pytest.approx(1.0, abs=1e-15)

    def test_zero_coupling(self):
        assert gamma_from(0.0, 2.0) == 0.0

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            gamma_from(1.0, 0.0)

    def test_self_consistency_forces_gamma_equal_u(self):
        u = 3.7e-4
        gamma, delta = self_consistent_width(u)
        assert gamma == pytest.approx(u, rel=1e-15)
        assert delta == pytest.approx(math.pi * u, rel=1e-15)
        # fixed point: recomputing gamma from (u, delta) returns gamma
        assert gamma_from(u, delta) == pytest.approx(gamma, rel=1e-12)


class TestGreen:
    """Line shape of |Kproj> coupled to a wide flat band, from ``build_chooser``.

    In the eigenbasis of the |Kproj> + band block, the |Kproj> weights per
    unit energy sample the Lorentzian (gamma/pi)/(E^2 + gamma^2), i.e.
    -Im G(E)/pi of the resonance Green function 1/(E + i*gamma); level
    discreteness lowers each weight by a fraction spacing/(pi*gamma) ~ 1.6%.
    """

    GAMMA = 1e-3
    DELTA = 50.0 * GAMMA
    N_BAND = 1000

    @pytest.fixture(scope="class")
    def kproj_lines(self):
        u = math.sqrt(self.GAMMA * self.DELTA / math.pi)
        params = ChooserParams(v=0.0, w=0.0, n_band=self.N_BAND, delta=self.DELTA, u=u)
        d = diagonalize(build_chooser(params).entries[2:, 2:])
        return d.eigenvalues, d.eigenvectors[0] ** 2

    def test_spectral_density_peak(self, kproj_lines):
        energies, weights = kproj_lines
        spacing = self.DELTA / (self.N_BAND - 1)
        on_resonance = int(np.argmin(np.abs(energies)))
        assert abs(energies[on_resonance]) < 1e-15
        density = weights[on_resonance] / spacing
        assert density == pytest.approx(1.0 / (math.pi * self.GAMMA), rel=0.02)

    def test_lorentzian_symmetry(self, kproj_lines):
        energies, weights = kproj_lines
        assert np.max(np.abs(energies + energies[::-1])) < 1e-15
        assert np.max(np.abs(weights - weights[::-1])) < 1e-13

    def test_lorentzian_normalization(self, kproj_lines):
        """Half the Lorentzian's weight lies within gamma of the resonance."""
        energies, weights = kproj_lines
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weights[np.abs(energies) < self.GAMMA].sum() == pytest.approx(0.5, abs=0.015)


class TestEigenvaluesAndZeroState:
    def test_zero_couplings(self):
        h = build_chooser(ChooserParams(v=0.0, w=0.0, n_band=0))
        assert np.array_equal(np.linalg.eigvalsh(h.entries), np.zeros(3))

    def test_345(self):
        h = build_chooser(ChooserParams(v=3.0, w=4.0, n_band=0))
        assert np.allclose(np.linalg.eigvalsh(h.entries), [-5.0, 0.0, 5.0], rtol=0, atol=1e-14)

    def test_matches_numeric_grid(self):
        """The 3-state spectrum is (-r, 0, +r) with r = sqrt(v^2 + w^2)."""
        for v in np.linspace(0.0, 1.0, 20):
            for w in np.linspace(0.0, 1.0, 20):
                h = build_chooser(ChooserParams(v=float(v), w=float(w), n_band=0))
                numeric = np.linalg.eigvalsh(h.entries)
                r = math.hypot(v, w)
                assert np.max(np.abs(numeric - np.array([-r, 0.0, r]))) < 1e-12

    def test_zero_state_equal_couplings(self):
        c_q0, c_r0, c_k = zero_state_coeffs(1.0, 1.0)
        assert c_q0 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert c_r0 == 0.0
        # the projected-band component carries the opposite sign: the
        # printed-coefficient form (w, 0, v)/r is not annihilated by the
        # 3-state matrix, (w, 0, -v)/r is
        assert c_k == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_zero_state_is_actual_null_vector(self):
        v, w = 0.8, 0.3
        h = build_chooser(ChooserParams(v=v, w=w, n_band=0)).entries
        vec = np.array(zero_state_coeffs(v, w))
        assert np.max(np.abs(h @ vec)) < 1e-15

    def test_zero_state_small_w_limit(self):
        c_q0, c_r0, c_k = zero_state_coeffs(1.0, 1e-12)
        assert c_q0 == pytest.approx(0.0, abs=1e-11)
        assert c_r0 == 0.0
        assert abs(c_k) == pytest.approx(1.0, abs=1e-15)

    def test_zero_state_degenerate_input(self):
        with pytest.raises(ValueError):
            zero_state_coeffs(0.0, 0.0)

    def test_zero_state_matches_numeric_eigenvector(self):
        v, w = 0.6, 0.25
        h = build_chooser(ChooserParams(v=v, w=w, n_band=0))
        eigenvalues, eigenvectors = np.linalg.eigh(h.entries)
        k = int(np.argmin(np.abs(eigenvalues)))
        numeric = eigenvectors[:, k]
        analytic = np.array(zero_state_coeffs(v, w))
        phase = numeric[np.argmax(np.abs(numeric))] / analytic[np.argmax(np.abs(numeric))]
        assert np.max(np.abs(numeric - phase * analytic)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        v=st.floats(1e-6, 10.0),
        w=st.floats(0.0, 10.0),
    )
    def test_zero_state_invariants(self, v, w):
        c_q0, c_r0, c_k = zero_state_coeffs(v, w)
        assert c_r0 == 0.0
        assert c_q0**2 + c_k**2 == pytest.approx(1.0, abs=1e-12)


class TestDecayLaws:
    @staticmethod
    def kproj_amplitudes(times, gamma=1e-3, n_band=800):
        """Exact |Kproj> amplitude, started in |Kproj>, for a band 300*gamma wide.

        The recurrence time 2*pi*n_band/delta is 1.7e4, beyond 10/gamma.
        """
        delta = 300.0 * gamma
        u = math.sqrt(gamma * delta / math.pi)
        params = ChooserParams(v=0.0, w=0.0, n_band=n_band, delta=delta, u=u)
        psi0 = np.zeros(3 + n_band)
        psi0[2] = 1.0
        return np.abs(evolve(diagonalize(build_chooser(params)), psi0, times)[:, 2])

    def test_kproj_long_time(self):
        assert self.kproj_amplitudes([1e4])[0] < 1e-4

    def test_kproj_halving_time(self):
        gamma = 1e-3
        t_half = math.log(2) / gamma
        a0, a1 = self.kproj_amplitudes([1.0 / gamma, 1.0 / gamma + t_half], gamma)
        assert a1 == pytest.approx(a0 / 2, rel=5e-3)

    def test_r0_zero_w(self):
        # w = 0: the zero state is pure |Kproj>, and |R0> couples only to |Q0>
        u, v, delta, n_band = 1e-3, 1e-2, 1e-2, 200
        params = ChooserParams(v=v, w=0.0, n_band=n_band, delta=delta, u=u)
        psi0 = np.zeros(3 + n_band)
        psi0[:3] = zero_state_coeffs(v, 0.0)
        times = np.linspace(0.0, 5.0 / gamma_from(u, delta), 32)
        states = evolve(diagonalize(build_chooser(params)), psi0, times)
        assert np.max(np.abs(states[:, :2])) < 1e-12

    def test_band_weight_plateau(self):
        u, w, gamma = 1e-3, 1e-4, 1e-3
        assert band_weight(1e7, u, w, gamma) == pytest.approx(1 - (w / u) ** 2, rel=1e-12)

    def test_band_weight_t0_w0(self):
        assert band_weight(0.0, 1e-3, 0.0, 1e-3) == 0.0

    def test_band_weight_at_3_over_gamma(self):
        value = band_weight(3e3, 1.0, 0.1, 1e-3)
        assert value == pytest.approx(0.9875, abs=1e-4)

    def test_band_weight_requires_u(self):
        with pytest.raises(ValueError):
            band_weight(1.0, 0.0, 0.1, 1e-3)

class TestFiniteBandWeight:
    """Continuum flat-band curve; criterion-03 parameters unless stated."""

    U, V, W = 1e-3, 1e-2, 1e-4
    DELTA = math.pi * U  # self-consistent: gamma = u

    def exact_band_weight(self, n_band, times):
        params = ChooserParams(
            v=self.V, w=self.W, n_band=n_band, delta=self.DELTA, u=self.U
        )
        psi0 = np.zeros(3 + n_band, dtype=complex)
        psi0[:3] = zero_state_coeffs(self.V, self.W)
        states = evolve(diagonalize(build_chooser(params)), psi0, times)
        return (np.abs(states[:, 3:]) ** 2).sum(axis=1)

    @pytest.mark.parametrize(
        "v, w, delta, alpha",
        [(1e-2, 1e-4, math.pi * 1e-3, 0.0), (5e-4, 3e-4, 1e-2, -2e-3),
         (0.0, 0.0, math.pi * 1e-3, 3e-3)],
    )
    def test_zero_at_t0(self, v, w, delta, alpha):
        # bound-state residues plus the band integral restore psi0 exactly
        weight = finite_band_weight(0.0, self.U, v, w, delta, alpha)
        assert abs(weight) <= 1e-10

    def test_pure_resonance_wide_band_limit(self):
        gamma = 1e-3
        delta = 300.0 * gamma
        u = math.sqrt(gamma * delta / math.pi)
        times = np.linspace(1.0 / gamma, 5.0 / gamma, 64)
        weight = finite_band_weight(times, u, 0.0, 0.0, delta)
        assert np.max(np.abs(weight - (1.0 - np.exp(-2.0 * gamma * times)))) <= 1e-3

    def test_exact_trace_converges_as_one_over_n_band(self):
        gamma = gamma_from(self.U, self.DELTA)
        times = np.linspace(0.0, 5.0 / gamma, 256)
        curve = finite_band_weight(times, self.U, self.V, self.W, self.DELTA)
        gap_200 = np.max(np.abs(self.exact_band_weight(200, times) - curve))
        gap_400 = np.max(np.abs(self.exact_band_weight(400, times) - curve))
        assert gap_200 < 2.5e-3
        assert gap_400 / gap_200 == pytest.approx(0.5, abs=0.05)

    def test_lags_plain_exponential_at_self_consistent_width(self):
        gamma = gamma_from(self.U, self.DELTA)
        times = np.linspace(1.0 / gamma, 5.0 / gamma, 256)
        curve = finite_band_weight(times, self.U, self.V, self.W, self.DELTA)
        plain = band_weight(times, self.U, self.W, gamma)
        assert np.max(np.abs(curve - plain)) == pytest.approx(0.18, abs=0.01)

    def test_uncoupled_source_keeps_its_weight(self):
        # v = 0: the zero state is |Q0>, which nothing couples to
        times = np.linspace(0.0, 5e3, 8)
        weight = finite_band_weight(times, self.U, 0.0, self.W, self.DELTA)
        assert np.array_equal(weight, np.zeros(8))

    def direct_band_weight(self, times, alpha=0.0):
        """1 - sum |exp(-iEt) A|^2 over the poles and quadrature nodes, one phase at a time."""
        psi0 = zero_state_coeffs(self.V, self.W)
        args = (self.U, self.V, self.W, self.DELTA, alpha, psi0)
        poles, bound = _bound_states(*args)
        nodes, band = _band_quadrature(*args, np.max(np.abs(times)))
        energies = np.concatenate([poles, nodes])
        amplitudes = np.concatenate([bound, band])
        core = np.exp(-1j * np.outer(times, energies)) @ amplitudes
        return 1.0 - np.sum(np.abs(core) ** 2, axis=1)

    @pytest.mark.parametrize("alpha", [0.0, -2e-3])
    def test_factored_phase_sum_matches_the_direct_sum(self, alpha):
        times = np.linspace(0.0, 5.0 / gamma_from(self.U, self.DELTA), 2048)
        curve = finite_band_weight(times, self.U, self.V, self.W, self.DELTA, alpha)
        assert np.max(np.abs(curve - self.direct_band_weight(times, alpha))) <= 1e-14

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_times_keep_their_shape(self, shape):
        weight = finite_band_weight(np.zeros(shape), self.U, self.V, self.W, self.DELTA)
        assert weight.shape == shape

    @pytest.mark.parametrize(
        "t, u, delta",
        [(1.0, 0.0, DELTA), (1.0, U, 0.0), ([0.0, 1.0, 3.0], U, DELTA)],
    )
    def test_rejects_degenerate_inputs(self, t, u, delta):
        with pytest.raises(ValueError):
            finite_band_weight(t, u, self.V, self.W, delta)
