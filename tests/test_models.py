"""Tests for Hamiltonian assembly."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ladder_oracle import ladder_reference, occupied

from gravodyn import models
from gravodyn.errors import ContractViolationError
from gravodyn.models import (
    ChooserParams,
    HamiltonianMatrix,
    TelegraphSite,
    build_chooser,
    build_telegraph,
)
from gravodyn.propagator import diagonalize


def charpoly_coefficients(a):
    """Faddeev–LeVerrier recursion: coefficients of det(λI − A), leading 1."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def eigenvalues_via_charpoly(a):
    """Independent eigenvalue route: polynomial root finding."""
    return np.sort(np.roots(charpoly_coefficients(a)).real)


class TestChooser:
    def test_n0_matrix_and_eigenvalues(self):
        p = ChooserParams(v=0.3, w=0.7, n_band=0)
        h = build_chooser(p)
        assert h.dim == 3
        expected = np.array(
            [[0, 0.3, 0], [0.3, 0, 0.7], [0, 0.7, 0]], dtype=complex
        )
        assert np.array_equal(h.entries, expected)
        eig = np.linalg.eigvalsh(h.entries)
        r = math.hypot(0.3, 0.7)
        assert np.allclose(eig, [-r, 0.0, r], atol=1e-14)

    def test_n0_zero_couplings(self):
        h = build_chooser(ChooserParams(v=0.0, w=0.0, n_band=0))
        assert np.array_equal(h.entries, np.zeros((3, 3)))

    def test_n0_characteristic_polynomial(self):
        v, w = 0.42, 1.3
        h = build_chooser(ChooserParams(v=v, w=w, n_band=0))
        coeffs = charpoly_coefficients(h.entries)
        # E^3 - (v^2 + w^2) E
        assert np.allclose(coeffs.real, [1.0, 0.0, -(v * v + w * w), 0.0], atol=1e-14)
        assert np.allclose(coeffs.imag, 0.0, atol=1e-14)

    def test_5x5_eigenvalues_match_charpoly_roots(self):
        p = ChooserParams(v=1.0, w=1.0, n_band=2, delta=2.0, u=1.0)
        h = build_chooser(p)
        assert h.dim == 5
        numeric = np.linalg.eigvalsh(h.entries)
        oracle = eigenvalues_via_charpoly(h.entries)
        assert np.allclose(numeric, oracle, atol=1e-10)

    def test_band_structure(self):
        p = ChooserParams(v=0.1, w=0.2, n_band=5, delta=1.0, u=0.3)
        h = build_chooser(p)
        eps = p.band_energies()
        assert eps[0] == -0.5 and eps[-1] == 0.5
        assert np.allclose(np.diff(eps), 0.25)
        w_band = 0.3 / math.sqrt(5)
        assert np.allclose(h.entries[2, 3:], w_band)
        assert np.allclose(np.diag(h.entries)[3:], eps)
        assert h.entries[0, 2] == 0.0  # no direct source-band coupling
        assert np.array_equal(h.entries[0, 3:], np.zeros(5))

    def test_band_requires_positive_delta(self):
        with pytest.raises(ValueError):
            ChooserParams(v=0.1, w=0.1, n_band=3, delta=0.0, u=0.1)

    @settings(max_examples=30, deadline=None)
    @given(
        v=st.floats(0, 1),
        w=st.floats(0, 1),
        u=st.floats(0, 1),
        scale=st.floats(0.1, 10),
    )
    # a coupling whose square underflows: values-only LAPACK (eigvalsh)
    # returns +-2.0817 instead of +-2 here, while eigh with vectors is right
    @example(v=3.94e-162, w=1.0, u=0.0, scale=2.0)
    def test_eigenvalue_scaling(self, v, w, u, scale):
        """Scaling all couplings and energies by s scales eigenvalues by s."""
        p1 = ChooserParams(v=v, w=w, n_band=3, delta=1.0, u=u)
        p2 = ChooserParams(
            v=scale * v, w=scale * w, n_band=3, delta=scale * 1.0, u=scale * u
        )
        e1 = diagonalize(build_chooser(p1)).eigenvalues
        e2 = diagonalize(build_chooser(p2)).eigenvalues
        assert np.allclose(e2, scale * e1, atol=1e-12 * max(1.0, scale))


class TestHamiltonianMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            HamiltonianMatrix(np.array([[0, 1], [2, 0]], dtype=complex))

    @pytest.mark.parametrize("entries", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
    def test_rejects_non_square(self, entries):
        with pytest.raises(ContractViolationError, match="square"):
            HamiltonianMatrix(entries)

    def test_entries_frozen(self):
        h = build_chooser(ChooserParams(v=1, w=1, n_band=0))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_real_parameters_store_float64(self):
        chooser = build_chooser(
            ChooserParams(v=0.1, w=0.2, n_band=4, delta=1.0, u=0.3, alpha=0.05)
        )
        site_1 = TelegraphSite(e_g=0.11, e_w=0.17, v_loc=0.023, eps_grav=0.031,
                               band=(0.01, 0.02), v_gw=0.041)
        site_2 = TelegraphSite(e_g=0.13, e_w=0.19, v_loc=0.029, eps_grav=0.037,
                               band=(0.015, 0.025), v_gw=0.043)
        for h in (chooser, build_telegraph(site_1), build_telegraph(site_2)):
            assert h.entries.dtype == np.float64
            assert np.array_equal(h.entries, h.entries.T)

    @pytest.mark.parametrize(
        "dtype", [np.int64, np.float32, np.float64, np.complex64, np.complex128]
    )
    def test_zero_imaginary_part_stored_real(self, dtype):
        entries = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=dtype)
        h = HamiltonianMatrix(entries)
        assert h.entries.dtype == np.float64
        assert np.array_equal(h.entries, entries.real)

    @staticmethod
    def symmetric(dim, dtype=float, seed=7):
        # complex storage with an imaginary part of exactly zero is taken as real
        a = np.random.default_rng(seed).normal(size=(dim, dim))
        return (a + a.T).astype(dtype)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_a_nan_in_the_last_row_block(self, dtype):
        # the rows are compared a block at a time: the last, partial block counts too
        dim = 3 * models._ROWS + 5
        entries = self.symmetric(dim, dtype)
        entries[dim - 2, dim - 2] = np.nan  # its own mirror: only the NaN is wrong
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            HamiltonianMatrix(entries)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rejects_a_pair_that_straddles_two_row_blocks(self, dtype):
        dim = 2 * models._ROWS + 3
        entries = self.symmetric(dim, dtype)
        i, j = models._ROWS - 1, models._ROWS  # the last row of block 0, the first of block 1
        entries[i, j] = 0.5
        entries[j, i] = entries[i, j] + 1e-16  # one ulp apart
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            HamiltonianMatrix(entries)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_signed_zeros_across_row_blocks_compare_equal(self, dtype):
        dim = 2 * models._ROWS + 3
        entries = self.symmetric(dim, dtype)
        i, j = 1, 2 * models._ROWS + 1
        entries[i, j], entries[j, i] = 0.0, -0.0
        assert np.array_equal(HamiltonianMatrix(entries).entries, entries)

    def test_hermiticity_check_forms_no_dim_squared_mask(self):
        dim = 8 * models._ROWS
        entries = self.symmetric(dim)
        tracemalloc.start()
        try:
            HamiltonianMatrix(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # per entry of one row block: its 1-byte mask (measured 1.5 bytes);
        # compared whole, the mask alone is dim² bytes
        assert peak <= 3 * models._ROWS * dim


energies = st.floats(-10, 10)
bands = st.lists(energies, max_size=4).map(sorted)


class TestTelegraph:
    @settings(max_examples=60, deadline=None)
    @given(scalars=st.lists(energies, min_size=10, max_size=10), band_1=bands, band_2=bands)
    @example(scalars=[-0.0] * 10, band_1=[-0.0], band_2=[])
    def test_matches_ladder_reference_bytes(self, scalars, band_1, band_2):
        """Each site block is the ladder-operator oracle's sub-block to the
        byte, and the oracle couples no block state to a state outside it."""
        # scalars alternate site 1, site 2 through (e_g, e_w, v_loc, eps_grav, v_gw)
        site_1 = TelegraphSite(*scalars[0:8:2], band=band_1, v_gw=scalars[8])
        site_2 = TelegraphSite(*scalars[1:8:2], band=band_2, v_gw=scalars[9])
        configs, full = ladder_reference(site_1, site_2)
        position = {occupied(c): i for i, c in enumerate(configs)}
        n1 = 1 + len(band_1)
        sites = [  # site, (w_i, g_i), local mode, band modes
            (site_1, (1, 0), 0, range(1, n1)),
            (site_2, (3, 2), n1, range(n1 + 1, n1 + 1 + len(band_2))),
        ]
        for site, matter, loc, band in sites:
            index = [position[a, k] for a in matter for k in (*reversed(band), loc)]
            assert index == sorted(index)  # the block keeps the oracle's order
            h = build_telegraph(site)
            assert h.dim == len(index)
            assert h.entries.tobytes() == full[np.ix_(index, index)].tobytes()
            outside = np.setdiff1d(np.arange(len(configs)), index)
            assert not full[np.ix_(index, outside)].any()
            assert not full[np.ix_(outside, index)].any()

    def test_zero_couplings_diagonal(self):
        for e_g, e_w, e_loc, band in ((1.0, 3.0, 0.5, (0.1, 0.2)),
                                      (2.0, 4.0, 0.6, (0.3, 0.4))):
            site = TelegraphSite(e_g=e_g, e_w=e_w, v_loc=0.0, eps_grav=e_loc,
                                 band=band, v_gw=0.0)
            h = build_telegraph(site).entries
            # basis: (w_i, g_i) times (band_i descending, local_i)
            expected = [e + eps for e in (e_w, e_g) for eps in (*band[::-1], e_loc)]
            np.testing.assert_allclose(np.diag(h), expected, rtol=0.0, atol=1e-15)
            assert np.array_equal(h, np.diag(np.diag(h)))

    def test_single_site_two_level_block(self):
        block = build_telegraph(TelegraphSite(e_g=0.2, e_w=-0.1, v_loc=0.05, eps_grav=0.0))
        assert block.dim == 2  # (w, g) times the local mode
        eig = np.linalg.eigvalsh(block.entries)
        mean = (0.2 - 0.1) / 2
        split = math.sqrt(((0.2 + 0.1) / 2) ** 2 + 0.05**2)
        assert np.allclose(eig, [mean - split, mean + split], atol=1e-14)

    def test_band_must_be_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            TelegraphSite(e_g=0, e_w=0, v_loc=0, eps_grav=0, band=(0.2, 0.1))
