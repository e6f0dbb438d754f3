"""Tests for Hamiltonian assembly."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravodyn.errors import ContractViolationError
from gravodyn.fock import ModeSpace, OccupationConfig
from gravodyn.models import (
    KIND_GRAV,
    KIND_MATTER,
    KIND_MATTER_GRAV,
    ChooserParams,
    CITerm,
    HamiltonianMatrix,
    TelegraphParams,
    build_chooser,
    build_generic_ci,
    build_telegraph,
    telegraph_grav_layout,
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

    def test_labels(self):
        h = build_chooser(ChooserParams(v=0, w=0, n_band=2, delta=1.0, u=0))
        assert h.basis_labels[:3] == ("Q0", "R0", "Kproj")
        assert len(h.basis_labels) == 5

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
            HamiltonianMatrix(
                dim=2,
                entries=np.array([[0, 1], [2, 0]], dtype=complex),
                basis_labels=("a", "b"),
            )

    def test_entries_frozen(self):
        h = build_chooser(ChooserParams(v=1, w=1, n_band=0))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_real_parameters_store_float64(self):
        chooser = build_chooser(
            ChooserParams(v=0.1, w=0.2, n_band=4, delta=1.0, u=0.3, alpha=0.05)
        )
        p = TelegraphParams(
            e_g1=0.11, e_g2=0.13, e_w1=0.17, e_w2=0.19,
            v_loc_1=0.023, v_loc_2=0.029,
            eps_grav_1=0.031, eps_grav_2=0.037,
            band_1=(0.01, 0.02), band_2=(0.015, 0.025),
            v_gw_1=0.041, v_gw_2=0.043,
        )
        telegraph = build_telegraph(p, make_space(p, sector=1, grav_sector=1))
        for h in (chooser, telegraph):
            assert h.entries.dtype == np.float64
            assert np.array_equal(h.entries, h.entries.T)

    def test_zero_imaginary_part_stored_real(self):
        entries = np.array([[1.0, 2.0 + 0j], [2.0 - 0j, -1.0]])
        h = HamiltonianMatrix(dim=2, entries=entries, basis_labels=("a", "b"))
        assert h.entries.dtype == np.float64
        assert np.array_equal(h.entries, entries.real)

    def test_complex_hermitian_stays_complex(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = HamiltonianMatrix(dim=6, entries=a + a.conj().T, basis_labels=tuple("abcdef"))
        assert h.entries.dtype == np.complex128


class TestGenericCI:
    def test_single_hopping_term(self):
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=0, n_max=1, sector=1)
        h = build_generic_ci(space, [CITerm(KIND_MATTER, (0, 1), 0.25)])
        # basis order: (0,1), (1,0); a+_0 a_1 maps (0,1) -> (1,0)
        expected = np.array([[0, 0], [0.25, 0]], dtype=complex)
        expected = expected + expected.conj().T
        assert np.array_equal(h.entries, expected)

    def test_empty_terms_zero_matrix(self):
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=1, n_max=1)
        h = build_generic_ci(space, [])
        assert np.array_equal(h.entries, np.zeros((h.dim, h.dim)))

    def test_number_operator_diagonal(self):
        space = ModeSpace(n_matter_modes=1, n_gravonon_modes=1, n_max=2)
        h = build_generic_ci(
            space,
            [CITerm(KIND_MATTER, (0, 0), 1.5), CITerm(KIND_GRAV, (0, 0), -0.5)],
        )
        for i, c in enumerate(h.configs):
            assert h.entries[i, i] == 1.5 * c.matter_occ[0] - 0.5 * c.grav_occ[0]
        off = h.entries - np.diag(np.diag(h.entries))
        assert np.array_equal(off, np.zeros_like(off))

    def test_out_of_range_index(self):
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=0, n_max=1)
        with pytest.raises(ValueError):
            build_generic_ci(space, [CITerm(KIND_MATTER, (0, 2), 1.0)])

    def test_self_adjoint_term_needs_real_coefficient(self):
        space = ModeSpace(n_matter_modes=1, n_gravonon_modes=0, n_max=1)
        with pytest.raises(ValueError):
            build_generic_ci(space, [CITerm(KIND_MATTER, (0, 0), 1j)])

    def test_complex_coupling_hermitian(self):
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=0, n_max=1, sector=1)
        h = build_generic_ci(space, [CITerm(KIND_MATTER, (0, 1), 0.3 + 0.4j)])
        assert np.array_equal(h.entries, h.entries.conj().T)
        assert h.entries[1, 0] == 0.3 + 0.4j
        assert h.entries.dtype == np.complex128

    def test_bosonic_amplitudes(self):
        # a+_0 a_1 between |0,2> and |1,1>: amplitude sqrt(2)*sqrt(1)
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=0, n_max=2, sector=2)
        h = build_generic_ci(space, [CITerm(KIND_MATTER, (0, 1), 1.0)])
        i02 = h.configs.index(OccupationConfig((0, 2), ()))
        i11 = h.configs.index(OccupationConfig((1, 1), ()))
        assert h.entries[i11, i02] == pytest.approx(math.sqrt(2), abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
        seed=st.integers(0, 10_000),
    )
    def test_random_term_lists_exactly_hermitian(self, coeffs, seed):
        rng = np.random.default_rng(seed)
        space = ModeSpace(n_matter_modes=3, n_gravonon_modes=2, n_max=2)
        terms = []
        for c in coeffs:
            kind = rng.choice([KIND_MATTER, KIND_GRAV, KIND_MATTER_GRAV])
            if kind == KIND_MATTER:
                idx = tuple(rng.integers(0, 3, size=2))
            elif kind == KIND_GRAV:
                idx = tuple(rng.integers(0, 2, size=2))
            else:
                idx = tuple(rng.integers(0, 3, size=2)) + tuple(rng.integers(0, 2, size=2))
            t = CITerm(kind, tuple(int(i) for i in idx), complex(c))
            if t.is_self_adjoint():
                t = CITerm(t.kind, t.indices, complex(c).real)
            terms.append(t)
        h = build_generic_ci(space, terms)
        assert np.array_equal(h.entries, h.entries.conj().T)


def make_space(p, n_max=1, sector=1, grav_sector=None):
    return ModeSpace(
        n_matter_modes=4,
        n_gravonon_modes=p.n_grav_modes,
        n_max=n_max,
        sector=sector,
        grav_sector=grav_sector,
    )


class TestTelegraph:
    def test_zero_couplings_diagonal(self):
        p = TelegraphParams(
            e_g1=1.0, e_g2=2.0, e_w1=3.0, e_w2=4.0,
            v_loc_1=0.0, v_loc_2=0.0,
            eps_grav_1=0.5, eps_grav_2=0.6,
            band_1=(0.1, 0.2), band_2=(0.3, 0.4),
            v_gw_1=0.0, v_gw_2=0.0,
        )
        space = make_space(p, sector=1, grav_sector=1)
        h = build_telegraph(p, space)
        s1_loc, s1_band, s2_loc, s2_band = telegraph_grav_layout(p)
        grav_energies = {s1_loc: 0.5, s2_loc: 0.6}
        grav_energies.update(dict(zip(s1_band, p.band_1)))
        grav_energies.update(dict(zip(s2_band, p.band_2)))
        matter_energies = [1.0, 3.0, 2.0, 4.0]  # layout (g1, w1, g2, w2)
        for i, c in enumerate(h.configs):
            expected = sum(n * e for n, e in zip(c.matter_occ, matter_energies))
            expected += sum(n * grav_energies[k] for k, n in enumerate(c.grav_occ))
            assert h.entries[i, i] == pytest.approx(expected, abs=1e-15)
        off = h.entries - np.diag(np.diag(h.entries))
        assert np.array_equal(off, np.zeros_like(off))

    def test_single_site_two_level_block(self):
        p = TelegraphParams(
            e_g1=0.2, e_g2=0.0, e_w1=-0.1, e_w2=0.0,
            v_loc_1=0.05, v_loc_2=0.0,
            eps_grav_1=0.0, eps_grav_2=0.0,
        )
        space = make_space(p, sector=1, grav_sector=0)
        h = build_telegraph(p, space)
        labels = [c.label() for c in h.configs]
        ig = labels.index("1000|00")
        iw = labels.index("0100|00")
        block = h.entries[np.ix_([ig, iw], [ig, iw])]
        eig = np.linalg.eigvalsh(block)
        mean = (0.2 - 0.1) / 2
        split = math.sqrt(((0.2 + 0.1) / 2) ** 2 + 0.05**2)
        assert np.allclose(eig, [mean - split, mean + split], atol=1e-14)

    def test_matches_manual_term_list(self):
        """Entrywise agreement with an independently written term list."""
        p = TelegraphParams(
            e_g1=0.11, e_g2=0.13, e_w1=0.17, e_w2=0.19,
            v_loc_1=0.023, v_loc_2=0.029,
            eps_grav_1=0.031, eps_grav_2=0.037,
            band_1=(0.01, 0.02, 0.03), band_2=(0.015, 0.025),
            v_gw_1=0.041, v_gw_2=0.043,
        )
        space = make_space(p, sector=1, grav_sector=2)
        h = build_telegraph(p, space)

        # hand-written: matter layout (g1, w1, g2, w2); gravonon layout
        # (local1, band1 x3, local2, band2 x2)
        terms = [
            {"kind": "a+a", "indices": (0, 0), "coefficient": 0.11},
            {"kind": "a+a", "indices": (1, 1), "coefficient": 0.17},
            {"kind": "a+a", "indices": (2, 2), "coefficient": 0.13},
            {"kind": "a+a", "indices": (3, 3), "coefficient": 0.19},
            {"kind": "a+a", "indices": (0, 1), "coefficient": 0.023},
            {"kind": "a+a", "indices": (2, 3), "coefficient": 0.029},
            {"kind": "b+b", "indices": (0, 0), "coefficient": 0.031},
            {"kind": "b+b", "indices": (1, 1), "coefficient": 0.01},
            {"kind": "b+b", "indices": (2, 2), "coefficient": 0.02},
            {"kind": "b+b", "indices": (3, 3), "coefficient": 0.03},
            {"kind": "b+b", "indices": (4, 4), "coefficient": 0.037},
            {"kind": "b+b", "indices": (5, 5), "coefficient": 0.015},
            {"kind": "b+b", "indices": (6, 6), "coefficient": 0.025},
            {"kind": "a+a b+b", "indices": (1, 1, 0, 1), "coefficient": 0.041},
            {"kind": "a+a b+b", "indices": (1, 1, 0, 2), "coefficient": 0.041},
            {"kind": "a+a b+b", "indices": (1, 1, 0, 3), "coefficient": 0.041},
            {"kind": "a+a b+b", "indices": (3, 3, 4, 5), "coefficient": 0.043},
            {"kind": "a+a b+b", "indices": (3, 3, 4, 6), "coefficient": 0.043},
        ]
        h2 = build_generic_ci(space, terms)
        assert np.max(np.abs(h.entries - h2.entries)) <= 1e-14

    def test_space_mismatch(self):
        p = TelegraphParams(
            e_g1=0, e_g2=0, e_w1=0, e_w2=0, v_loc_1=0, v_loc_2=0,
            eps_grav_1=0, eps_grav_2=0, band_1=(0.1,), band_2=(0.1,),
        )
        bad = ModeSpace(n_matter_modes=3, n_gravonon_modes=4, n_max=1)
        with pytest.raises(ValueError, match="matter"):
            build_telegraph(p, bad)
        bad2 = ModeSpace(n_matter_modes=4, n_gravonon_modes=3, n_max=1)
        with pytest.raises(ValueError, match="gravonon"):
            build_telegraph(p, bad2)

    def test_band_must_be_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            TelegraphParams(
                e_g1=0, e_g2=0, e_w1=0, e_w2=0, v_loc_1=0, v_loc_2=0,
                eps_grav_1=0, eps_grav_2=0, band_1=(0.2, 0.1),
            )

    def test_hermitian_full_model(self):
        p = TelegraphParams(
            e_g1=0.0, e_g2=0.0, e_w1=0.01, e_w2=0.01,
            v_loc_1=0.002, v_loc_2=0.002,
            eps_grav_1=0.005, eps_grav_2=0.005,
            band_1=tuple(np.linspace(0.0, 0.01, 20)),
            band_2=tuple(np.linspace(0.0, 0.01, 20)),
            v_gw_1=0.001, v_gw_2=0.001,
        )
        space = make_space(p, sector=1, grav_sector=2)
        h = build_telegraph(p, space)
        assert np.array_equal(h.entries, h.entries.conj().T)
        # 4 single-particle matter configs x C(42, 2) two-quanta gravonon configs
        assert h.dim == 4 * math.comb(42, 2)
