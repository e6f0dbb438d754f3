"""Tests for spectral time evolution."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gravodyn import propagator
from gravodyn.errors import ConfigError, ContractViolationError
from gravodyn.models import ChooserParams, build_chooser
from gravodyn.propagator import (
    ORTHO_TOL,
    RESIDUAL_TOL,
    SpectralDecomposition,
    diagonalize,
    evolve,
    total_norms,
)


def rk4_evolve(h, psi0, times):
    """Independent oracle: explicit 4th-order stepping of i dpsi/dt = H psi."""
    def deriv(psi):
        return -1j * (h @ psi)

    out = []
    psi = np.asarray(psi0, dtype=complex).copy()
    t = 0.0
    scale = max(np.max(np.abs(np.linalg.eigvalsh(h))), 1e-12)
    dt_target = 1e-3 / scale
    for t_next in times:
        span = t_next - t
        n_sub = max(1, int(math.ceil(abs(span) / dt_target)))
        dt = span / n_sub
        for _ in range(n_sub):
            k1 = deriv(psi)
            k2 = deriv(psi + 0.5 * dt * k1)
            k3 = deriv(psi + 0.5 * dt * k2)
            k4 = deriv(psi + dt * k3)
            psi = psi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t_next
        out.append(psi.copy())
    return np.array(out)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def random_symmetric(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    h = a + a.T
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))  # eigenvalues in [-1, 1]


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def on_rows(d, psi0, rows):
    """The rows ``rows`` of ``d``'s eigenvectors as a decomposition, and
    ``psi0`` put on them: zero elsewhere and normalized (full, and on rows)."""
    psi0 = np.where(np.isin(np.arange(d.dim), rows), psi0, 0.0)
    psi0 /= np.linalg.norm(psi0)
    return SpectralDecomposition(d.eigenvalues, d.eigenvectors[rows]), psi0, psi0[rows]


class TestDiagonalize:
    def test_diagonal_matrix(self):
        h = np.diag([3.0, -1.0, 2.0]).astype(complex)
        d = diagonalize(h)
        assert np.allclose(d.eigenvalues, [-1.0, 2.0, 3.0])
        # eigenvectors are unit coordinate vectors up to phase/order
        assert np.allclose(np.abs(d.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_chooser_345(self):
        h = build_chooser(ChooserParams(v=3.0, w=4.0, n_band=0))
        d = diagonalize(h)
        assert np.allclose(d.eigenvalues, [-5.0, 0.0, 5.0], atol=1e-13)

    def test_reconstruction(self):
        h = random_hermitian(6, seed=7)
        d = diagonalize(h)
        rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-10 * np.max(np.abs(d.eigenvalues))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ContractViolationError):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_orthonormal_columns(self):
        d = diagonalize(random_hermitian(12, seed=3))
        gram = d.eigenvectors.conj().T @ d.eigenvectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-12


class TestEvolve:
    def test_t0_returns_initial(self):
        h = random_hermitian(5, seed=1)
        psi0 = random_state(5, seed=2)
        states = evolve(diagonalize(h), psi0, [0.0])
        assert np.allclose(states[0], psi0, atol=1e-13)

    def test_zero_hamiltonian(self):
        d = diagonalize(np.zeros((4, 4), dtype=complex))
        psi0 = random_state(4, seed=5)
        states = evolve(d, psi0, np.linspace(0.0, 7.3, 4))
        for s in states:
            assert np.allclose(s, psi0, atol=1e-14)

    def test_rabi_two_level(self):
        v = 0.37
        h = np.array([[0.0, v], [v, 0.0]], dtype=complex)
        d = diagonalize(h)
        times = np.linspace(0, 20, 101)
        states = evolve(d, np.array([1.0, 0.0], dtype=complex), times)
        occ2 = np.abs(states[:, 1]) ** 2
        assert np.allclose(occ2, np.sin(v * times) ** 2, atol=1e-12)

    def test_requires_normalized_input(self):
        d = diagonalize(np.zeros((3, 3), dtype=complex))
        with pytest.raises(ContractViolationError):
            evolve(d, np.array([1.0, 1.0, 0.0]), [0.0])

    @pytest.mark.parametrize(
        "times",
        [[0.0, 1.0, 7.3], [0.0, 1.0, 2.0, 3.1], [0.0, math.nan], [math.nan], [0.0, math.inf]],
    )
    def test_rejects_a_non_uniform_or_non_finite_grid(self, times):
        d = diagonalize(random_hermitian(3, seed=6))
        with pytest.raises(ValueError, match="uniform time grid"):
            evolve(d, random_state(3, seed=7), times)

    @pytest.mark.parametrize("scale, t_final", [(1e308, 2.0), (2.0, 1e308), (1e200, -1e200)])
    def test_rejects_phases_that_overflow(self, monkeypatch, scale, t_final):
        d = diagonalize(scale * np.diag([1.0, -1.0, 0.5]).astype(complex))
        monkeypatch.setattr(np, "exp", lambda *_: pytest.fail("a phase was formed"))
        with pytest.raises(ConfigError, match="phases lambda\\*t overflow"):
            evolve(d, random_state(3, seed=7), np.linspace(0.0, t_final, 5))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        real=st.booleans(),
        t0=st.floats(-50, 50),
        t_final=st.floats(-50, 50),
        n=st.integers(1, 2100),
        rows=st.none() | st.lists(st.integers(0, 11), min_size=1, max_size=3, unique=True),
    )
    # a subnormal span: its step is rounded to whole subnormal units
    @example(seed=0, real=False, t0=0.0, t_final=6.780773377419546e-308, n=96, rows=None)
    def test_factored_phases_match_the_spectral_sum(self, seed, real, t0, t_final, n, rows):
        h = random_symmetric(12, seed) if real else random_hermitian(12, seed)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h)))  # eigenvalues in [-1, 1]
        psi0 = random_state(12, seed + 1)
        full = diagonalize(h)
        d, given = full, psi0
        if rows is not None:  # the decomposition's rows, with psi0 on them
            d, psi0, given = on_rows(full, psi0, rows)
        times = np.linspace(t0, t_final, n)
        coeff = full.eigenvectors.conj().T @ psi0
        direct = d.eigenvectors @ (np.exp(-1j * np.outer(d.eigenvalues, times)) * coeff[:, None])
        # each phase λ·t is rounded at |λ·t| <= 50 in both: ~1e-14 per term
        assert np.max(np.abs(evolve(d, given, times) - direct.T)) <= 1e-12

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_beyond_one_block_match_the_spectral_sum(self, real):
        # 300 rows: brackets of 128, 128 and 44 rows, one fine block for all
        h = random_symmetric(300, 51) if real else random_hermitian(300, 51)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h)))
        psi0 = random_state(300, 52)
        d = diagonalize(h)
        times = np.linspace(0.0, 40.0, 97)
        coeff = d.eigenvectors.conj().T @ psi0
        direct = d.eigenvectors @ (np.exp(-1j * np.outer(d.eigenvalues, times)) * coeff[:, None])
        assert np.max(np.abs(evolve(d, psi0, times) - direct.T)) <= 1e-12

    def test_empty_grid(self):
        d = diagonalize(random_hermitian(4, seed=8))
        psi0 = random_state(4, seed=9)
        assert evolve(d, psi0, []).shape == (0, 4)
        subset, _, on = on_rows(d, psi0, [1, 3])
        assert evolve(subset, on, []).shape == (0, 2)

    def test_against_rk4_oracle(self):
        h = random_hermitian(10, seed=11)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h)))  # eigenvalues in [-1, 1]
        psi0 = random_state(10, seed=12)
        times = np.linspace(0.0, 10.0, 6)
        exact = evolve(diagonalize(h), psi0, times)
        oracle = rk4_evolve(h, psi0, times)
        assert np.max(np.abs(exact - oracle)) < 1e-6

    def test_norm_conserved(self):
        h = random_hermitian(8, seed=21)
        psi0 = random_state(8, seed=22)
        states = evolve(diagonalize(h), psi0, np.linspace(0, 50, 200))
        norms = total_norms(states)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_energy_conserved(self):
        h = random_hermitian(8, seed=31)
        psi0 = random_state(8, seed=32)
        states = evolve(diagonalize(h), psi0, np.linspace(0, 30, 100))
        energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), h, states))
        ref = energies[0]
        assert np.max(np.abs(energies - ref)) < 1e-9 * max(abs(ref), 1.0)

    def test_time_reversal(self):
        h = random_hermitian(7, seed=41)
        psi0 = random_state(7, seed=42)
        d = diagonalize(h)
        t = 13.7
        psi_t = evolve(d, psi0, [t])[0]
        back = evolve(d, psi_t / np.linalg.norm(psi_t), [-t])[0]
        assert np.max(np.abs(back - psi0)) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), t=st.floats(0, 100))
    def test_unitarity_property(self, seed, t):
        h = random_hermitian(5, seed=seed)
        psi0 = random_state(5, seed=seed + 1)
        state = evolve(diagonalize(h), psi0, [t])[0]
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestRealPath:
    """Real-symmetric input stays real; complex input takes the complex path."""

    def test_real_input_decomposed_in_float64(self):
        h = random_symmetric(50, seed=101)
        for d in (diagonalize(h), diagonalize(h.astype(complex))):
            assert d.eigenvectors.dtype == np.float64
            assert np.max(np.abs(d.eigenvalues - np.linalg.eigvalsh(h.astype(complex)))) < 1e-13

    def test_complex_input_stays_complex(self):
        assert diagonalize(random_hermitian(6, seed=102)).eigenvectors.dtype == np.complex128

    @pytest.mark.parametrize(
        "h",
        [
            np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]),  # real, not symmetric
            np.array([[0.0, 1j], [1j, 0.0]]),  # complex symmetric, not Hermitian
        ],
    )
    def test_rejects_asymmetric_in_either_arithmetic(self, h):
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            diagonalize(h)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bare_array_stays_writable_and_unchanged(self, dtype):
        h = random_symmetric(6, seed=105).astype(dtype)
        before = h.copy()
        diagonalize(h)
        assert h.flags.writeable
        assert h.dtype == dtype and np.array_equal(h, before)

    def test_real_evolve_matches_complex_path_and_oracle(self):
        h = random_symmetric(50, seed=103)
        psi0 = random_state(50, seed=104)
        times = np.linspace(0.0, 10.0, 6)
        real = evolve(diagonalize(h), psi0, times)
        eigenvalues, eigenvectors = np.linalg.eigh(h.astype(complex))
        complex_path = evolve(SpectralDecomposition(eigenvalues, eigenvectors), psi0, times)
        assert real.dtype == np.complex128
        assert np.max(np.abs(real - complex_path)) < 1e-12
        assert np.max(np.abs(real - rk4_evolve(h, psi0, times))) < 1e-12


class TestRows:
    """``evolve`` of a decomposition's rows is the full evolution read on them."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 24),
        seed=st.integers(0, 1000),
        real=st.booleans(),
        t0=st.floats(0, 50),
        t_final=st.floats(0, 50),
        n=st.integers(1, 5),
    )
    def test_rows_match_the_full_state_and_the_rest_of_the_norm(
        self, data, dim, seed, real, t0, t_final, n
    ):
        times = np.linspace(t0, t_final, n)
        h = random_symmetric(dim, seed) if real else random_hermitian(dim, seed)
        h = h / np.max(np.abs(np.linalg.eigvalsh(h)))  # eigenvalues in [-1, 1]
        rows = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True))
        d = diagonalize(h)
        subset, psi0, on = on_rows(d, random_state(dim, seed + 1), rows)
        full = evolve(d, psi0, times)
        heads = evolve(subset, on, times)
        assert heads.shape == (len(times), len(rows))
        assert np.max(np.abs(heads - full[:, rows])) <= 1e-14
        rest = np.vdot(psi0, psi0).real - np.sum(np.abs(heads) ** 2, axis=1)
        others = np.sum(np.abs(np.delete(full, rows, axis=1)) ** 2, axis=1)
        assert np.max(np.abs(rest - others)) <= 1e-14

    def test_rows_allocate_no_states_by_times_block(self):
        p = ChooserParams(v=0.0, w=0.0, n_band=1024, delta=0.02, u=1e-3)
        d = diagonalize(p)
        psi0 = np.zeros(d.dim, dtype=complex)
        psi0[2] = 1.0
        times = np.linspace(0.0, 5e4, 2048)
        block = 16 * d.dim * len(times)  # one complex (dim × n_times) array: 33.6 MB
        heads = SpectralDecomposition(d.eigenvalues, d.eigenvectors[:3])
        tracemalloc.start()
        try:
            evolve(heads, psi0[:3], times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block / 4

    def test_all_rows_hold_no_dim_by_dim_bracket(self):
        # every row of a dim-1027 decomposition, as --check evolves it: the
        # brackets go 128 rows at a time, so none is a complex dim × dim array
        p = ChooserParams(v=1e-4, w=1e-5, n_band=1024, delta=0.02, u=1e-3)
        d = diagonalize(p)
        psi0 = np.zeros(d.dim, dtype=complex)
        psi0[0] = 1.0
        times = np.linspace(0.0, 5e4, 8)
        square = 16 * d.dim * d.dim  # one complex dim × dim array: 16.9 MB
        tracemalloc.start()
        try:
            states = evolve(d, psi0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (len(times), d.dim)
        assert np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)) <= 1e-10
        assert peak < square / 4


@st.composite
def chooser_models(draw):
    """Chooser parameters with the cases the star solver must deflate or
    iterate on: zero couplings (v = 0 makes the Q0–R0 pair's poles
    coincide), v on a band level, odd n_band (a level at 0), n_band = 0,
    alpha != 0, strong coupling u >> delta, and n_band around one and two
    blocks of the solver's O(N²) kernels."""
    coupling = st.just(0.0) | st.floats(0.01, 3.0) | st.floats(-3.0, -0.01)
    block = propagator._BLOCK  # deflated leaves and rotations inside and across blocks
    n_band = draw(
        st.integers(0, 40)
        | st.integers(block - 3, block + 3)
        | st.sampled_from([2 * block - 1, 2 * block + 1])
    )
    delta = draw(st.floats(0.05, 4.0))
    v, w, u, alpha = (draw(coupling) for _ in range(4))
    case = draw(st.sampled_from(["drawn", "v on a level", "strong"]))
    if case == "v on a level" and n_band:
        v = float(draw(st.sampled_from(list(np.linspace(-delta / 2, delta / 2, n_band)))))
    if case == "strong":
        u = 50.0 * delta
    return ChooserParams(v=v, w=w, n_band=n_band, delta=delta, u=u, alpha=alpha)


class TestStar:
    """``diagonalize(ChooserParams)`` solves the chooser as a star."""

    @settings(max_examples=150, deadline=None)
    @given(p=chooser_models())
    @example(p=ChooserParams(v=0.0, w=0.0, n_band=40, delta=0.02, u=1e-3))
    @example(p=ChooserParams(v=0.0, w=0.0, n_band=3, delta=1.0, u=0.0, alpha=0.5))
    @example(p=ChooserParams(v=0.0, w=0.5, n_band=5, delta=2.0, u=1.0))  # v = 0 on level 0
    @example(p=ChooserParams(v=0.5, w=0.5, n_band=3, delta=1.0, u=0.4, alpha=0.1))
    @example(p=ChooserParams(v=3.0, w=4.0, n_band=0))
    # λ only to ~ε‖H‖ near a pole: orthogonal through the Löwner weights
    @example(p=ChooserParams(v=-2.4511, w=7.5593, n_band=5, delta=0.1324, u=0.0189))
    # the two models alternate in a wide gap: bisection breaks the cycle
    @example(
        p=ChooserParams(v=1.4624, w=-0.3161, n_band=39, delta=0.0565, u=-0.1843, alpha=1.4693)
    )
    # roots ~1e-22 from poles of weight ~1e-12, beside poles of weight ~1
    @example(p=ChooserParams(v=0.3, w=1e-4, n_band=3, delta=0.02, u=1e-12))
    @example(p=ChooserParams(v=0.0, w=1.0, n_band=7, delta=0.02, u=1e-12))
    # ±v on the 3rd and 62nd of 64 levels: two rotations, the roots of the
    # 64 kept leaves fill one block and one more
    @example(p=ChooserParams(v=float(np.linspace(-0.5, 0.5, 64)[61]), w=0.3, n_band=64,
                             delta=1.0, u=0.5))
    # v = 0 on the middle level of 129: a rotation in the second block
    @example(p=ChooserParams(v=0.0, w=0.7, n_band=129, delta=1.0, u=0.2, alpha=0.1))
    def test_matches_the_dense_decomposition(self, p):
        star, dense = diagonalize(p), diagonalize(build_chooser(p))
        for d in (star, dense):
            assert 0.0 <= d.residual <= RESIDUAL_TOL
            assert 0.0 <= d.ortho_defect <= ORTHO_TOL
        norm = max(np.max(np.abs(dense.eigenvalues)), 1e-300)
        assert np.max(np.abs(star.eigenvalues - dense.eigenvalues)) <= 1e-12 * norm
        assert np.all(np.diff(star.eigenvalues) >= 0.0)
        psi0 = np.zeros(3 + p.n_band, dtype=complex)
        psi0[[0, 2]] = 0.6, -0.8
        times = np.linspace(0.0, 20.0 / norm, 9)
        # a run's head readout from each: the Q0, R0, Kproj rows and the rest of the norm
        readouts = []
        for d in (star, dense):
            rows = SpectralDecomposition(d.eigenvalues, d.eigenvectors[[0, 1, 2]])
            weights = np.abs(evolve(rows, psi0[[0, 1, 2]], times)) ** 2
            readouts.append((weights, np.vdot(psi0, psi0).real - weights.sum(axis=1)))
        (heads, rest), (dense_heads, dense_rest) = readouts
        assert np.max(np.abs(heads - dense_heads)) <= 1e-12
        assert np.max(np.abs(rest - dense_rest)) <= 1e-12

    def test_solve_holds_no_dim_squared_array_but_the_eigenvectors(self):
        p = ChooserParams(v=0.0, w=0.0, n_band=1024, delta=0.02, u=1e-3)
        diagonalize(p)  # warm up: lazy imports and caches are not the solve's
        tracemalloc.start()
        try:
            d = diagonalize(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.235: the eigenvectors, then the workspace or a Gram block
        assert peak <= 1.3 * d.eigenvectors.nbytes  # 8·dim²

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_checks_hold_a_few_column_blocks(self, dtype):
        dim = 5 * propagator._CHECK_BLOCK
        h = random_symmetric(dim, seed=3) if dtype is float else random_hermitian(dim, seed=3)
        eigenvalues, eigenvectors = np.linalg.eigh(h)
        tracemalloc.start()
        try:
            residual = propagator.dense_residual(h, eigenvalues, eigenvectors)
            propagator._verified(eigenvalues, eigenvectors, residual)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 2.2 blocks of (dim × _CHECK_BLOCK); whole, H·V and VᴴV are 5 each
        assert peak <= 3 * eigenvectors.itemsize * dim * propagator._CHECK_BLOCK

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("dim", [5, 3 * propagator._CHECK_BLOCK + 5])
    def test_eigenvectors_holding_a_nan_fail_the_orthonormality_contract(self, dtype, dim):
        # at dim > 3 blocks, in the last block of Gram rows (and the column
        # of every block before it): no block's NaN may be dropped
        vectors = np.eye(dim, dtype=dtype)
        vectors[3, dim - 4] = np.nan
        with pytest.raises(ContractViolationError, match="orthonormality defect nan"):
            propagator._verified(np.arange(float(dim)), vectors, 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("first", [127, 382])
    def test_a_non_orthogonal_pair_fails_across_and_inside_blocks(self, dtype, first):
        # columns 127 and 128 straddle the first two blocks of Gram rows;
        # 382 and 383 are the last block's
        assert propagator._CHECK_BLOCK == 128
        dim = 3 * propagator._CHECK_BLOCK
        s = 1e-6
        vectors = np.eye(dim, dtype=dtype)
        vectors[first, first + 1] = s * (1j if dtype is complex else 1.0)
        vectors[first + 1, first + 1] = math.sqrt(1.0 - s * s)
        with pytest.raises(ContractViolationError, match="orthonormality defect 1.000e-06"):
            propagator._verified(np.arange(float(dim)), vectors, 0.0)

    # the parent's kernels, kept as byte references: an np.ix_ scatter of the
    # rows and a full pass, then a masked pass, over each block of ratios
    @staticmethod
    def _scatter_root_rows(d, weights, origins, tau, vectors, roots, columns, work):
        n = len(d)
        for s, e in propagator._blocks(len(tau)):
            block = propagator._block(work, 0, e - s, n)
            diff = propagator._differences(d, origins[s:e], tau[s:e], block)
            leaves = np.divide(weights, diff, out=diff)
            norm = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", leaves, leaves))
            vectors[roots[s:e], 2] = -norm
            leaves *= norm[:, np.newaxis]
            vectors[np.ix_(roots[s:e], columns)] = leaves

    @staticmethod
    def _masked_lowner_weights(d, origins, tau, work):
        n = len(d)
        product = np.ones(n)
        for s, e in propagator._blocks(n - 1):
            ratio = propagator._block(work, 1, e - s + 1, n)
            ratio[0] = product
            np.subtract(d, d[s:e, np.newaxis], out=ratio[1:])
            below = np.arange(n) < np.arange(s + 1, e + 1)[:, np.newaxis]
            np.subtract(d, d[s + 1:e + 1, np.newaxis], out=ratio[1:], where=below)
            diff = propagator._differences(
                d, origins[s + 1:e + 1], tau[s + 1:e + 1], propagator._block(work, 0, e - s, n)
            )
            np.divide(diff, ratio[1:], out=ratio[1:])
            np.prod(ratio, axis=0, out=product)
        ends = propagator._differences(d, origins[[0, n]], tau[[0, n]], np.empty((2, n)))
        return np.sqrt(np.abs(product * ends[0] * ends[1]))

    @pytest.mark.parametrize(
        "p, columns",
        [
            # ±v one ulp off the 3rd and 62nd of 64 levels: both levels deflated
            (ChooserParams(v=math.nextafter(float(np.linspace(-0.5, 0.5, 64)[61]), 1.0),
                           w=0.3, n_band=64, delta=1.0, u=0.5), "gaps"),
            # ±v inside the band: the pair's columns 0 and 1 sit among the band's
            (ChooserParams(v=0.13, w=0.5, n_band=300, delta=2.0, u=0.3, alpha=-0.2), "permuted"),
            # every leaf deflated (alpha at the float limit): no leaf column
            (ChooserParams(v=0.0, w=0.0, n_band=32, delta=1.0, u=1e-3,
                           alpha=-1.7976931348623157e308), "empty"),
        ],
    )
    def test_row_writes_and_lowner_weights_match_their_references_bytewise(
        self, monkeypatch, p, columns
    ):
        seen = []
        root_rows, lowner_weights = propagator._root_rows, propagator._lowner_weights

        def checked_rows(d, weights, origins, tau, vectors, roots, cols, work):
            reference = vectors.copy()
            self._scatter_root_rows(d, weights, origins, tau, reference, roots, cols, work.copy())
            root_rows(d, weights, origins, tau, vectors, roots, cols, work)
            assert vectors.tobytes() == reference.tobytes()
            seen.append(cols)

        def checked_weights(d, origins, tau, work):
            reference = self._masked_lowner_weights(d, origins, tau, work.copy())
            weights = lowner_weights(d, origins, tau, work)
            assert weights.tobytes() == reference.tobytes()
            return weights

        monkeypatch.setattr(propagator, "_root_rows", checked_rows)
        monkeypatch.setattr(propagator, "_lowner_weights", checked_weights)
        diagonalize(p)
        (cols,) = seen
        steps = np.diff(cols)
        cases = {"gaps": np.any(steps > 1), "permuted": np.any(steps < 0), "empty": not cols.size}
        assert cases[columns]

    def test_dense_margins_are_kept(self):
        d = diagonalize(random_hermitian(12, seed=5))
        assert 0.0 < d.residual <= RESIDUAL_TOL
        assert 0.0 < d.ortho_defect <= ORTHO_TOL

    @pytest.mark.parametrize("power", [-900, 1000])
    def test_dense_residual_is_the_same_at_any_scale(self, power):
        # unscaled, its squares would underflow to 0 or overflow to inf
        h = random_hermitian(12, seed=5)
        d = diagonalize(h)
        margin = propagator.dense_residual(h, d.eigenvalues, d.eigenvectors)
        unit = math.ldexp(1.0, power)
        scaled = propagator.dense_residual(h * unit, d.eigenvalues * unit, d.eigenvectors)
        assert scaled == margin > 0.0

    @pytest.mark.parametrize(
        "p, sweeps",
        [
            # chooser_collapse: the roots between the band edges and ±v
            (ChooserParams(v=1e-2, w=1e-4, n_band=200, delta=math.pi * 1e-3, u=1e-3), 6),
            # chooser_demo: the roots outside the band
            (ChooserParams(v=1e-4, w=1e-5, n_band=200, delta=math.pi * 1e-3, u=1e-3), 6),
            # a sweep_decay point: no root leaves the two-pole model
            (ChooserParams(v=0.0, w=0.0, n_band=1024, delta=0.02, u=1e-3), 4),
        ],
    )
    def test_roots_beside_a_wide_gap_converge_in_few_sweeps(self, monkeypatch, p, sweeps):
        calls = []
        sums = propagator._sums

        def counting(*args):  # one call per sweep
            calls.append(None)
            return sums(*args)

        monkeypatch.setattr(propagator, "_sums", counting)
        d = diagonalize(p)
        assert len(calls) == sweeps
        assert d.residual <= RESIDUAL_TOL and d.ortho_defect <= ORTHO_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        far=st.sampled_from([-math.inf, -2.0, 0.5, math.inf]),
        beyond=st.floats(0.01, 3.0),
        weights=st.lists(st.floats(1e-8, 10.0), min_size=3, max_size=3),
        rho=st.floats(-10.0, 10.0),
        start=st.floats(0.01, 0.99),
    )
    def test_three_pole_root_is_the_models_root(self, far, beyond, weights, rho, start):
        # poles: the origin 0, one beyond it and, if finite, ``far``; without a
        # far pole a slope takes its place, as for a root outside all poles
        side = math.copysign(1.0, far)
        poles = [0.0, -side * beyond] + ([far] if math.isfinite(far) else [])
        slope = 0.0 if math.isfinite(far) else weights[2]
        x = propagator._three_pole_root(
            rho, slope, poles, weights[: len(poles)], far, start * (far if math.isfinite(far) else side)
        )
        lo, hi = sorted((0.0, far))
        assert lo < x < hi

        def g(eta):  # G rises on (lo, hi)
            return rho + slope * eta + sum(w / (p - eta) for p, w in zip(poles, weights))

        h = 1e-10 * abs(x)
        assert g(x - h) <= 0.0 <= g(x + h)

    def test_unconverged_roots_are_a_contract_violation(self, monkeypatch):
        monkeypatch.setattr(propagator, "_MAX_SWEEPS", 1)
        with pytest.raises(ContractViolationError, match="did not converge in 1 sweeps"):
            diagonalize(ChooserParams(v=0.0, w=0.0, n_band=40, delta=0.02, u=1e-3))

