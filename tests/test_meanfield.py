"""Tests for the coupled grid-field solver."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_banded

from gravodyn import meanfield
from gravodyn.errors import ContractViolationError
from gravodyn.meanfield import (
    GridState,
    TimeSeries,
    check_stability,
    free_spread_width,
    gaussian_packet,
    kinetic_hamiltonian,
    packet_moments,
    run,
    step,
)
from gravodyn.propagator import diagonalize, evolve


def free_state(n_points=1401, half_width=35.0, sigma0=1.0, m=1.0):
    x = np.linspace(-half_width, half_width, n_points)
    psi = gaussian_packet(x, 0.0, sigma0)
    zeta = np.zeros(n_points, dtype=complex)
    return GridState(
        x_min=-half_width,
        x_max=half_width,
        n_points=n_points,
        psi=psi,
        zeta=zeta,
        m=m,
        g_newton=0.0,
    )


class TestTimeSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.array([0.0, 1.0]), channels={"x": np.array([1.0])})


class TestStability:
    def test_oversized_step_rejected(self):
        s = free_state(n_points=64, half_width=8.0)
        with pytest.raises(ContractViolationError, match="stability"):
            step(s, dt=10.0)

    def test_bound_formula(self):
        s = free_state(n_points=64, half_width=8.0)
        bound = s.dx * s.dx * min(s.m, s.m_g)
        check_stability(s, bound)  # exactly at the bound passes
        with pytest.raises(ContractViolationError):
            check_stability(s, bound * 1.01)

    @pytest.mark.parametrize("where", ["psi", "zeta"])
    def test_non_finite_values_stop_the_solve(self, where):
        # values that overflow during a run reach the solve as inf/nan
        s = free_state(n_points=64, half_width=8.0)
        getattr(s, where)[20] = np.inf
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            step(s, dt=1e-3)


class TestFreePacket:
    def test_width_law(self):
        sigma0, m = 1.0, 1.0
        width0 = sigma0 / math.sqrt(2)  # r.m.s. width of the initial density
        s = free_state(n_points=2801, sigma0=sigma0, m=m)
        dt = 6e-4
        t_final = 4.0 * m * width0**2 * 2  # = 4 m sigma0^2
        n_steps = int(round(t_final / dt))
        series = run(s, dt, n_steps, sample_every=n_steps // 8)
        for t, w in zip(series.times, series.channels["width_psi"]):
            expected = free_spread_width(t, m, width0)
            assert abs(w - expected) <= 1e-3 * expected

    def test_norm_drift(self):
        s = free_state(n_points=401, half_width=20.0)
        series = run(s, dt=5e-3, n_steps=1000, sample_every=100)
        norms = series.channels["norm_psi"]
        assert np.max(np.abs(norms - norms[0])) < 1e-6

    def test_reversibility(self):
        s = free_state(n_points=257, half_width=16.0)
        dt = 3e-3
        forward = step(s, dt)
        back = step(forward, -dt)
        assert np.max(np.abs(back.psi - s.psi)) < 1e-8

    def test_matches_spectral_evolution(self):
        s = free_state(n_points=257, half_width=16.0)
        h = kinetic_hamiltonian(s, which="psi")
        dx = s.dx
        psi0 = s.psi / (np.linalg.norm(s.psi))
        d = diagonalize(h.astype(complex))
        t_final = 0.5
        dt = 5e-4
        state = s
        for _ in range(int(round(t_final / dt))):
            state = step(state, dt)
        spectral = evolve(d, psi0, [t_final])[0] * np.linalg.norm(s.psi)
        assert np.max(np.abs(state.psi - spectral)) < 1e-6


class TestStationaryState:
    def test_ground_state_is_stationary(self):
        n = 257
        half_width = 20.0
        x = np.linspace(-half_width, half_width, n)
        s = GridState(
            x_min=-half_width,
            x_max=half_width,
            n_points=n,
            psi=gaussian_packet(x, 0.0, 2.0),
            zeta=np.zeros(n, dtype=complex),
            m=1.0,
            g_newton=1.0,
            d_spatial=3,
            softening=1.0,
        )
        h = kinetic_hamiltonian(s, which="psi")
        _, vectors = np.linalg.eigh(h)
        ground = vectors[:, 0].astype(complex)
        ground /= math.sqrt(np.sum(np.abs(ground) ** 2) * s.dx)
        s.psi = ground
        series = run(s, dt=1e-3, n_steps=2000, sample_every=200)
        overlap = series.channels["overlap_psi0"]
        # overlap channel is normalized by the discrete norm of psi0
        norm0 = np.sum(np.abs(ground) ** 2) * s.dx
        assert np.min(overlap / norm0) >= 1.0 - 1e-6


class TestCoupledRuns:
    def make_coupled(self, n=257, half_width=16.0):
        x = np.linspace(-half_width, half_width, n)
        return GridState(
            x_min=-half_width,
            x_max=half_width,
            n_points=n,
            psi=gaussian_packet(x, 0.0, 1.0),
            zeta=gaussian_packet(x, 0.0, 2.0),
            m=1.0,
            m_g=0.5,
            g_newton=0.2,
            d_spatial=3,
        )

    def test_both_norms_conserved(self):
        s = self.make_coupled()
        series = run(s, dt=2e-3, n_steps=500, sample_every=50)
        assert np.max(np.abs(series.channels["norm_psi"] - series.channels["norm_psi"][0])) < 1e-6
        assert np.max(np.abs(series.channels["norm_zeta"] - series.channels["norm_zeta"][0])) < 1e-6

    def test_attractive_coupling_slows_spreading(self):
        # with the matter-density attraction active on zeta and back-reaction
        # on psi, the packet spreads slower than free
        n, half_width = 513, 24.0
        x = np.linspace(-half_width, half_width, n)
        sigma0 = 1.0
        base = dict(
            x_min=-half_width, x_max=half_width, n_points=n,
            psi=gaussian_packet(x, 0.0, sigma0),
            m=1.0, m_g=1.0, d_spatial=3,
        )
        free = GridState(zeta=np.zeros(n, dtype=complex), g_newton=0.0, **base)
        # strong distortion background pulls psi toward the origin
        coupled = GridState(
            zeta=3.0 * gaussian_packet(x, 0.0, 1.5), g_newton=0.0, **base
        )
        dt, n_steps = 2e-3, 800
        free_series = run(free, dt, n_steps, sample_every=n_steps)
        coupled_series = run(coupled, dt, n_steps, sample_every=n_steps)
        assert (
            coupled_series.channels["width_psi"][-1]
            < free_series.channels["width_psi"][-1]
        )

    def test_decoupled_zeta_phase_evolution(self):
        # psi = 0 and no gravity: zeta evolves under kinetic + V_o only
        n, half_width = 257, 16.0
        x = np.linspace(-half_width, half_width, n)
        s = GridState(
            x_min=-half_width, x_max=half_width, n_points=n,
            psi=np.zeros(n, dtype=complex),
            zeta=gaussian_packet(x, 0.0, 2.0),
            v_o=0.3, m_g=1.0,
        )
        h = kinetic_hamiltonian(s, which="zeta")
        zeta0 = s.zeta / np.linalg.norm(s.zeta)
        d = diagonalize(h.astype(complex))
        t_final = 0.4
        state = s
        dt = 5e-4
        for _ in range(int(round(t_final / dt))):
            state = step(state, dt)
        spectral = evolve(d, zeta0, [t_final])[0] * np.linalg.norm(s.zeta)
        assert np.max(np.abs(state.zeta - spectral)) < 1e-6

    def test_grid_refinement_second_order(self):
        # moving packet in a soft attractive well; halving dx and dt must
        # shrink the change in final mean position by about 4x
        def final_mean(n_points, dt, n_steps):
            half_width = 16.0
            x = np.linspace(-half_width, half_width, n_points)
            s = GridState(
                x_min=-half_width, x_max=half_width, n_points=n_points,
                psi=gaussian_packet(x, -2.0, 1.0, momentum=1.0),
                zeta=np.zeros(n_points, dtype=complex),
                m=1.0, g_newton=0.6, d_spatial=3, softening=1.5,
            )
            series = run(s, dt, n_steps, sample_every=n_steps)
            return series.channels["mean_x_psi"][-1]

        # dt0 is chosen so the finest level still satisfies dt <= dx^2 m
        t_final = 1.5
        coarse = final_mean(161, 1e-2, int(t_final / 1e-2))
        medium = final_mean(321, 5e-3, int(t_final / 5e-3))
        fine = final_mean(641, 2.5e-3, int(t_final / 2.5e-3))
        change1 = abs(medium - coarse)
        change2 = abs(fine - medium)
        assert change1 < 4.0 * change2

    def make_moving_pair(self):
        # both fields live, moving through each other in a gravity well
        n, half_width = 257, 16.0
        x = np.linspace(-half_width, half_width, n)
        return GridState(
            x_min=-half_width, x_max=half_width, n_points=n,
            psi=gaussian_packet(x, -1.0, 1.0, momentum=1.0),
            zeta=1.5 * gaussian_packet(x, 1.0, 1.3, momentum=-0.8),
            m=1.0, m_g=0.5, g_newton=1.0, d_spatial=3, softening=1.0, v_o=0.1,
        )

    def test_coupled_step_is_second_order_in_dt(self):
        # at fixed dx, halving dt must shrink the change in both final fields
        # by about 4x; a coupling frozen at the step's start gives about 2x
        s, t_final = self.make_moving_pair(), 0.5

        def final_fields(dt):
            n_steps = round(t_final / dt)
            *_, (_, psi, zeta) = meanfield.stepper(s, dt)(s.psi, s.zeta, n_steps, n_steps)
            return psi, zeta

        coarse, medium, fine = (final_fields(dt) for dt in (4e-3, 2e-3, 1e-3))
        for k in range(2):
            change1 = np.linalg.norm(medium[k] - coarse[k])
            change2 = np.linalg.norm(fine[k] - medium[k])
            assert 3.5 < change1 / change2 < 4.5

    def test_sampling_does_not_change_the_trajectory(self):
        # a sample reads zeta by a half step that is not fed back
        s, dt, n_steps = self.make_moving_pair(), 2e-3, 40
        every, last = run(s, dt, n_steps, sample_every=1), run(s, dt, n_steps, sample_every=n_steps)
        assert len(every.times) == n_steps + 1 and len(last.times) == 2
        for name, values in every.channels.items():
            assert values[-1].tobytes() == last.channels[name][-1].tobytes(), name


class TestPotentials:
    def test_packet_moments(self):
        s = free_state(n_points=801, half_width=20.0, sigma0=1.3)
        mean, width = packet_moments(s)
        assert mean == pytest.approx(0.0, abs=1e-10)
        assert width == pytest.approx(1.3 / math.sqrt(2), rel=1e-6)

    def test_requires_min_points(self):
        with pytest.raises(ValueError):
            GridState(
                x_min=0, x_max=1, n_points=8,
                psi=np.zeros(8, dtype=complex), zeta=np.zeros(8, dtype=complex),
            )


def reference_substep(field_values, coeffs, other, mass, dx, dt):
    """Crank–Nicolson sub-step as a banded solve: the oracle for the stepper.

    (1 + i dt/2 H) x = (1 - i dt/2 H) f is solved as (1 + i dt/2 H) y = 2f,
    x = y - f, with H = -(1/2m) D2 + U and U = c0 + c1·|other|²
    (``coeffs`` = (c0, c1)); the diagonal's imaginary part is
    (dt/2)(2 kin + c0) + (dt/2) c1·|other|².
    """
    n = len(field_values)
    kin = 1.0 / (2.0 * mass * dx * dx)
    c0, c1 = coeffs
    half = 0.5 * dt
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = 0.5j * dt * (-kin * np.ones(n - 1))
    ab[1, :] = 1.0 + 1j * (half * (2.0 * kin + c0) + half * c1 * np.abs(other) ** 2)
    return solve_banded((1, 1), ab, 2.0 * field_values) - field_values


def reference_potentials(s):
    """(c0, c1) of U_psi = c0 + c1·|zeta|² and U_zeta = c0 + c1·|psi|²,
    the module docstring's potentials gathered by powers of the density."""
    grav = s.g_newton / s.softened_r() ** (s.d_spatial - 2)
    c1 = 0.25 * grav - 0.5 * s.m
    return {"psi": (-grav, c1), "zeta": (s.v_o, c1)}


def reference_solver(s):
    """``solve(field, f, other, dt)``: a reference sub-step of either field."""
    coeffs = reference_potentials(s)
    masses = {"psi": s.m, "zeta": s.m_g}

    def solve(field, f, other, dt):
        return reference_substep(f, coeffs[field], other, masses[field], s.dx, dt)

    return solve


def reference_step(s, dt):
    """One staggered step by banded solves: zeta half, psi full, zeta half.

    A field that is exactly zero stays zero, so the other field's potential
    is fixed and its one full step is the whole step.
    """
    solve = reference_solver(s)
    psi, zeta = s.psi, s.zeta
    if not zeta.any():
        psi = solve("psi", psi, zeta, dt)
    elif not psi.any():
        zeta = solve("zeta", zeta, psi, dt)
    else:
        zeta = solve("zeta", zeta, psi, 0.5 * dt)
        psi = solve("psi", psi, zeta, dt)
        zeta = solve("zeta", zeta, psi, 0.5 * dt)
    return GridState(**{**vars(s), "psi": psi, "zeta": zeta})


def reference_samples(s, dt, n_steps, sample_every):
    """Sample times and states of a run, by banded solves.

    Coupled, zeta is kept half a step ahead of psi: one half step at the
    start, then psi full and zeta full per step, and zeta read at a sample
    by a half step that is not fed back. With a zero field the run is
    ``reference_step`` repeated.
    """
    solve = reference_solver(s)
    times, samples = [0.0], [s]
    coupled = s.psi.any() and s.zeta.any()
    psi, zeta, state = s.psi, s.zeta, s
    if coupled:
        zeta = solve("zeta", zeta, psi, 0.5 * dt)
    for index in range(1, n_steps + 1):
        if coupled:
            psi = solve("psi", psi, zeta, dt)
            read = solve("zeta", zeta, psi, 0.5 * dt)
            state = GridState(**{**vars(s), "psi": psi, "zeta": read})
            zeta = solve("zeta", zeta, psi, dt)
        else:
            state = reference_step(state, dt)
        if index % sample_every == 0 or index == n_steps:
            times.append(index * dt)
            samples.append(state)
    return times, samples


def coupled_state(zero=(), n=129, half_width=12.0, psi_center=-1.0):
    """Both fields live and g ≠ 0, on 129 points unless given, or exactly
    zero where ``zero`` names them."""
    x = np.linspace(-half_width, half_width, n)
    fields = {
        "psi": gaussian_packet(x, psi_center, 1.0, momentum=0.7),
        "zeta": 0.8 * gaussian_packet(x, 1.5, 1.3, momentum=-0.4),
    }
    for name in zero:
        fields[name] = np.zeros(n, dtype=complex)
    return GridState(
        x_min=-half_width, x_max=half_width, n_points=n, **fields,
        m=1.0, m_g=0.7, g_newton=0.4, d_spatial=3, softening=0.8,
        v_o=0.05,
    )


ZERO_FIELDS = [(), ("zeta",), ("psi",), ("psi", "zeta")]


class TestReferenceStepper:
    """The stepper gives the bytes of the banded-solve reference above,
    also when a field is exactly zero and its solves are skipped."""

    @pytest.mark.parametrize("zero", ZERO_FIELDS)
    @pytest.mark.parametrize("dt", [0.01, -0.01])
    def test_step_matches_reference_bytes(self, dt, zero):
        s = coupled_state(zero)
        got, want = step(s, dt), reference_step(s, dt)
        assert got.psi.tobytes() == want.psi.tobytes()
        assert got.zeta.tobytes() == want.zeta.tobytes()
        assert not np.shares_memory(got.psi, s.psi) and not np.shares_memory(got.zeta, s.zeta)

    # coupled: a start half step, 5 psi steps, 4 zeta steps and 5 sample reads
    @pytest.mark.parametrize("zero, solves", zip(ZERO_FIELDS, [15, 5, 5, 0]))
    def test_a_zero_field_is_not_solved(self, monkeypatch, zero, solves):
        calls = []
        substep = meanfield._Kernel.substep

        def counting(kernel, field, dt):
            solve = substep(kernel, field, dt)

            def counted(f, other=None):
                calls.append(field)
                return solve(f, other)

            return counted

        monkeypatch.setattr(meanfield._Kernel, "substep", counting)
        s = coupled_state(zero)
        run(s, 0.01, 5)
        assert len(calls) == solves
        assert not set(calls) & set(zero)

    @pytest.mark.parametrize("zero", ZERO_FIELDS)
    def test_run_matches_reference_bytes(self, zero):
        s = coupled_state(zero)
        dt, n_steps, sample_every = 0.01, 25, 6
        series = run(s, dt, n_steps, sample_every=sample_every)
        times, samples = reference_samples(s, dt, n_steps, sample_every)
        expected = {
            "norm_psi": [x.norm_psi() for x in samples],
            "norm_zeta": [x.norm_zeta() for x in samples],
            "mean_x_psi": [packet_moments(x)[0] for x in samples],
            "width_psi": [packet_moments(x)[1] for x in samples],
            "overlap_psi0": [abs(np.sum(np.conj(s.psi) * x.psi) * s.dx) for x in samples],
        }
        assert series.times.tobytes() == np.array(times).tobytes()
        assert list(series.channels) == list(expected)
        for name, values in expected.items():
            assert series.channels[name].tobytes() == np.array(values).tobytes(), name

    def test_potentials_and_hamiltonian_match_reference_bytes(self):
        s = coupled_state()
        coeffs = reference_potentials(s)
        for which, mass, other in (("psi", s.m, s.zeta), ("zeta", s.m_g, s.psi)):
            c0, c1 = coeffs[which]
            u = c0 + c1 * np.abs(other) ** 2
            kin = 1.0 / (2.0 * mass * s.dx * s.dx)
            off = np.full(s.n_points - 1, -kin)
            dense = np.diag(2.0 * kin + u) + np.diag(off, 1) + np.diag(off, -1)
            assert kinetic_hamiltonian(s, which).tobytes() == dense.tobytes()


EPS = np.finfo(float).eps


def window_budget(tau):
    """Per-solve distance from a full-grid solve, relative to max|f|: the
    window's 17·tau (``_Kernel.substep``) plus 8 eps of rounding, the
    residual ``TestCrankNicolsonRelation`` holds each sub-step to."""
    return 17.0 * tau + 8.0 * EPS


@pytest.fixture
def solved_lengths(monkeypatch):
    """The length of every tridiagonal system solved by a stepper built
    from now on."""
    lengths = []
    real = scipy.linalg.get_lapack_funcs

    def counting(names, arrays):
        gtsv, = real(names, arrays)

        def counted(dl, d, du, b, **kwargs):
            lengths.append(len(d))
            return gtsv(dl, d, du, b, **kwargs)

        return (counted,)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    return lengths


class TestSupportWindow:
    """Each solve runs on its field's support window, against the full-grid
    banded-solve reference."""

    @pytest.mark.parametrize("psi_center, n_steps", [(-1.0, 400), (-52.0, 40)])
    def test_a_coupled_run_matches_the_full_grid_reference(
        self, solved_lengths, psi_center, n_steps
    ):
        # a grid much wider than the packets; psi at -52 reaches the left
        # edge, so its windows start there
        s = coupled_state(n=1201, half_width=60.0, psi_center=psi_center)
        dt, sample_every = 0.005, n_steps // 8
        states, solves = [(s.psi, s.zeta)], [0]
        for _, psi, zeta in meanfield.stepper(s, dt)(s.psi, s.zeta, n_steps, sample_every):
            states.append((psi, zeta))
            solves.append(len(solved_lengths))
        assert max(solved_lengths) < s.n_points  # no solve took the full grid
        _, samples = reference_samples(s, dt, n_steps, sample_every)
        top = max(np.max(np.abs(f)) for pair in states for f in pair)
        for (psi, zeta), want, count in zip(states, samples, solves):
            bound = count * window_budget(meanfield.TAU) * top  # unitary steps add up
            assert np.max(np.abs(psi - want.psi)) <= bound
            assert np.max(np.abs(zeta - want.zeta)) <= bound

    def test_each_solve_is_within_the_bound_at_a_raised_tau(self, monkeypatch):
        # at TAU = 1e-8 the window's error shows above rounding; a box has its
        # full height at the support's edge, so only the margin holds the leak
        tau = 1e-8
        monkeypatch.setattr(meanfield, "TAU", tau)
        s = coupled_state(n=601, half_width=30.0)
        box = np.where(np.abs(s.x) <= 3.0, np.exp(0.7j * s.x), 0.0)
        support = np.flatnonzero(box)
        kernel, reference = meanfield._Kernel(s), reference_solver(s)
        for field, other in (("psi", s.zeta), ("zeta", s.psi), ("psi", None)):
            mass = s.m if field == "psi" else s.m_g
            for dt in (0.005, 0.0025):
                rho = dt / (2.0 * mass * s.dx * s.dx)
                margin = math.ceil(math.log(tau) / math.log(rho))
                got = kernel.substep(field, dt)(box, other)
                want = reference(field, box, 0.0 * box if other is None else other, dt)
                assert np.max(np.abs(got - want)) <= window_budget(tau), (field, dt)
                solved = np.flatnonzero(got)  # exactly 0 outside the window
                assert solved[0] >= support[0] - margin and solved[-1] <= support[-1] + margin

    def test_packets_across_the_grid_get_the_full_grid_solve(self, solved_lengths):
        s = coupled_state()  # both supports reach both edges of ±12
        run(s, 0.01, 5)
        assert solved_lengths == [s.n_points] * 15

    def test_a_meanfield_grid_like_run_solves_under_half_the_grid(self, solved_lengths):
        # perfbench's meanfield_grid config, for 20 of its 2000 steps
        n, half_width = 2801, 70.0
        x = np.linspace(-half_width, half_width, n)
        s = GridState(
            x_min=-half_width, x_max=half_width, n_points=n,
            psi=gaussian_packet(x, -5.0, 1.0, momentum=0.5),
            zeta=gaussian_packet(x, 5.0, 1.5, momentum=-0.5),
            m=1.0, m_g=1.0, g_newton=0.5, d_spatial=3, softening=1.0,
        )
        run(s, 6e-4, 20, sample_every=10)
        assert len(solved_lengths) == 2 * 20 + 2
        assert max(solved_lengths) < n // 2

    # psi at -1 is f; its window ends near x = 16 at dt = 0.005, so index 315
    # (x = 1.5, zeta's center) is inside it and index 550 (x = 25) outside
    @pytest.mark.parametrize("where, index, value", [
        ("f", 290, np.inf), ("f", 290, np.nan),
        ("other", 315, np.inf), ("other", 315, np.nan),
        ("other", 550, np.inf), ("other", 550, np.nan),
        ("other", 550, 1e200),  # finite, but |other|² overflows
    ])
    def test_a_non_finite_solve_is_refused_inside_or_outside_the_window(
        self, where, index, value
    ):
        s = coupled_state(n=601, half_width=30.0)
        solve = meanfield._Kernel(s).substep("psi", 0.005)
        clean = solve(s.psi, s.zeta)
        assert clean[315] != 0 and clean[550] == 0  # inside and outside the window
        f, other = s.psi.copy(), s.zeta.copy()
        (f if where == "f" else other)[index] = value
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="Crank–Nicolson diagonal or right-hand side is not finite"
        ):
            solve(f, other)


def docstring_potentials(s):
    """U_psi(|zeta|²) and U_zeta(|psi|²) as the module docstring writes them."""
    r_power = s.softened_r() ** (s.d_spatial - 2)
    zeta_abs2, psi_abs2 = np.abs(s.zeta) ** 2, np.abs(s.psi) ** 2
    u_psi = -(s.g_newton / r_power) * (1.0 - zeta_abs2 / 4) - (s.m / 2) * zeta_abs2
    u_zeta = -(s.m / 2) * psi_abs2 + (s.g_newton / (4 * r_power)) * psi_abs2 + s.v_o
    return {"psi": u_psi, "zeta": u_zeta}


class TestCrankNicolsonRelation:
    """The stepper against the scheme itself, by dense numpy algebra."""

    EPS = np.finfo(float).eps

    def scaled_hamiltonian(self, s, field, dt):
        """S = (dt/2) H of ``field``'s equation, H = -(1/2m) D2 + U (dense)."""
        mass = s.m if field == "psi" else s.m_g
        kin = 1.0 / (2.0 * mass * s.dx * s.dx)
        off = np.full(s.n_points - 1, -kin)
        h = np.diag(2.0 * kin + docstring_potentials(s)[field]) + np.diag(off, 1) + np.diag(off, -1)
        return 0.5 * dt * h

    def residual(self, s, field, dt, before, after):
        """‖(I + iS) after − (I − iS) before‖ over ‖before‖."""
        a = 1j * self.scaled_hamiltonian(s, field, dt)
        r = after + a @ after - (before - a @ before)
        return np.linalg.norm(r) / np.linalg.norm(before)

    @pytest.mark.parametrize("dt", [0.01, -0.01])
    def test_coupled_step_solves_each_crank_nicolson_relation(self, dt):
        # one step is zeta(0) -> zeta(dt/2) under |psi(0)|², psi(0) -> psi(dt)
        # under |zeta(dt/2)|², zeta(dt/2) -> zeta(dt) under |psi(dt)|²; zeta(dt/2)
        # is recovered from zeta(dt) by inverting the last relation densely
        s = coupled_state()
        got = step(s, dt)
        with_psi1 = GridState(**{**vars(s), "psi": got.psi})
        a = 1j * self.scaled_hamiltonian(with_psi1, "zeta", 0.5 * dt)
        eye = np.eye(s.n_points)
        zeta_mid = np.linalg.solve(eye - a, (eye + a) @ got.zeta)
        with_zeta_mid = GridState(**{**vars(s), "zeta": zeta_mid})
        checks = [
            (s, "zeta", 0.5 * dt, s.zeta, zeta_mid),
            (with_zeta_mid, "psi", dt, s.psi, got.psi),
        ]
        for state, field, sub_dt, before, after in checks:
            assert self.residual(state, field, sub_dt, before, after) <= 8 * self.EPS, field

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_affine_potentials_match_the_docstring(self, scale):
        s = coupled_state()
        s.psi, s.zeta = scale * s.psi, scale * s.zeta
        kernel = meanfield._Kernel(s)
        for field, want in docstring_potentials(s).items():
            got = kernel.potential(field, s.zeta if field == "psi" else s.psi)
            assert np.max(np.abs(got - want)) <= 4 * self.EPS * np.max(np.abs(want)), field
