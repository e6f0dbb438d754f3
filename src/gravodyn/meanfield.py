"""Coupled mean-field propagation of a matter field and a distortion field.

Two complex fields live on a shared 1D grid and obey coupled effective
Schrödinger equations:

    i dpsi/dt  = [ -(1/2m)    d²/dx² + U_psi(x; |zeta|²) ] psi
    i dzeta/dt = [ -(1/2m_g)  d²/dx² + U_zeta(x; |psi|²) ] zeta

with

    U_psi  = -(g / r^{D-2}) (1 - |zeta|²/4) - (m/2) |zeta|²
    U_zeta = -(m/2) |psi|² + (g / (4 r^{D-2})) |psi|² + V_o - (k c / 2) h00

where g bundles the gravitational coupling (G^(D) m M_ext), r is the
distance from the grid origin softened as sqrt(x² + r0²), and h00 is a
static background profile (off unless supplied).

Each step advances both fields with Crank–Nicolson sub-steps whose coupling
potentials are frozen at predictor half-step values: a predictor CN half
step estimates |psi|², |zeta|² at t + dt/2, then both fields take the full
CN step using those frozen profiles.  Each linear sub-step is unitary up to
the tridiagonal solve tolerance, so per-field norms drift only at the
1e-10/step level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_banded

from .errors import ContractViolationError
from .propagator import TimeSeries


@dataclass
class GridState:
    """Two complex fields and their couplings on a uniform 1D grid."""

    x_min: float
    x_max: float
    n_points: int
    psi: np.ndarray
    zeta: np.ndarray
    m: float = 1.0
    m_g: float = 1.0
    g_newton: float = 0.0
    d_spatial: int = 3  # space dimensions; 3 gives the Newtonian 1/r well
    v_o: float = 0.0
    k: float = 0.0
    c: float = 137.036
    h00_background: np.ndarray | None = None
    softening: float | None = None  # distance floor; defaults to one grid spacing

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError("n_points must be at least 16")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.m <= 0 or self.m_g <= 0:
            raise ValueError("masses must be positive")
        self.psi = np.asarray(self.psi, dtype=complex)
        self.zeta = np.asarray(self.zeta, dtype=complex)
        if self.psi.shape != (self.n_points,) or self.zeta.shape != (self.n_points,):
            raise ValueError("field arrays must match n_points")
        if self.h00_background is not None:
            self.h00_background = np.asarray(self.h00_background, dtype=float)
            if self.h00_background.shape != (self.n_points,):
                raise ValueError("h00 background must match n_points")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self):
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def softened_r(self):
        r0 = self.dx if self.softening is None else self.softening
        return np.sqrt(self.x**2 + r0 * r0)

    def norm_psi(self):
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx)

    def norm_zeta(self):
        return float(np.sum(np.abs(self.zeta) ** 2) * self.dx)


def gaussian_packet(x, center, width, momentum=0.0):
    """Normalized Gaussian wave packet (unit L2 norm on the continuum)."""
    x = np.asarray(x, dtype=float)
    env = (math.pi * width * width) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (2 * width * width)
    )
    return env * np.exp(1j * momentum * x)


def free_spread_width(t, m, width0):
    """Analytic free-packet dispersion width0*sqrt(1 + (t/(2 m width0^2))^2).

    ``width0`` is the r.m.s. width of the initial probability density
    (for ``gaussian_packet(width=s)`` that is s/sqrt(2)); the law then
    gives the density r.m.s. width at time t.
    """
    return width0 * math.sqrt(1.0 + (t / (2.0 * m * width0 * width0)) ** 2)


def potential_psi(s: GridState, zeta_abs2):
    """Matter-field effective potential for a given |zeta|² profile."""
    grav = -s.g_newton / s.softened_r() ** (s.d_spatial - 2)
    return grav * (1.0 - 0.25 * zeta_abs2) - 0.5 * s.m * zeta_abs2


def potential_zeta(s: GridState, psi_abs2):
    """Distortion-field effective potential for a given |psi|² profile."""
    grav = s.g_newton / s.softened_r() ** (s.d_spatial - 2)
    u = -0.5 * s.m * psi_abs2 + 0.25 * grav * psi_abs2 + s.v_o
    if s.h00_background is not None:
        u = u - 0.5 * s.k * s.c * s.h00_background
    return u


def _cn_substep(field_values, potential, mass, dx, dt):
    """One Crank–Nicolson step of i df/dt = (-(1/2m) d²/dx² + U) f.

    Dirichlet boundaries (fields are required to be negligible at the
    edges). Returns the advanced field.
    """
    n = len(field_values)
    kin = 1.0 / (2.0 * mass * dx * dx)
    # H = -(1/2m) D2 + U; D2 f = (f[i-1] - 2 f[i] + f[i+1]) / dx^2
    diag = 2.0 * kin + potential
    off = -kin * np.ones(n - 1)
    # (1 + i dt/2 H) f_new = (1 - i dt/2 H) f_old
    z = 0.5j * dt
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = z * off
    ab[1, :] = 1.0 + z * diag
    ab[2, :-1] = z * off
    rhs = (1.0 - z * diag) * field_values
    rhs[:-1] -= z * off * field_values[1:]
    rhs[1:] -= z * off * field_values[:-1]
    return solve_banded((1, 1), ab, rhs)


def check_stability(s: GridState, dt):
    """Documented step-size heuristic: dt must not exceed dx² · min(m, m_g)."""
    bound = s.dx * s.dx * min(s.m, s.m_g)
    if dt > bound:
        raise ContractViolationError(
            f"time step {dt:.3e} exceeds the stability heuristic "
            f"dx²·min(m, m_g) = {bound:.3e}"
        )


def step(s: GridState, dt) -> GridState:
    """Advance both fields by one coupled predictor-corrector step."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    check_stability(s, abs(dt))
    dx = s.dx
    # predictor: half step with couplings frozen at current values
    psi_half = _cn_substep(s.psi, potential_psi(s, np.abs(s.zeta) ** 2), s.m, dx, 0.5 * dt)
    zeta_half = _cn_substep(s.zeta, potential_zeta(s, np.abs(s.psi) ** 2), s.m_g, dx, 0.5 * dt)
    # corrector: full step with couplings frozen at the half-step profiles
    u_psi = potential_psi(s, np.abs(zeta_half) ** 2)
    u_zeta = potential_zeta(s, np.abs(psi_half) ** 2)
    psi_new = _cn_substep(s.psi, u_psi, s.m, dx, dt)
    zeta_new = _cn_substep(s.zeta, u_zeta, s.m_g, dx, dt)
    return replace(s, psi=psi_new, zeta=zeta_new)


def packet_moments(s: GridState):
    """Mean position and r.m.s. width of the matter field."""
    density = np.abs(s.psi) ** 2
    total = float(np.sum(density) * s.dx)
    if total == 0:
        return 0.0, 0.0
    x = s.x
    mean = float(np.sum(x * density) * s.dx / total)
    var = float(np.sum((x - mean) ** 2 * density) * s.dx / total)
    return mean, math.sqrt(max(var, 0.0))


def run(s: GridState, dt, n_steps, sample_every=1) -> TimeSeries:
    """Propagate and sample norms, packet moments, and initial-state overlap."""
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    psi0 = s.psi.copy()
    dx = s.dx
    times = [0.0]
    mean0, width0 = packet_moments(s)
    channels = {
        "norm_psi": [s.norm_psi()],
        "norm_zeta": [s.norm_zeta()],
        "mean_x_psi": [mean0],
        "width_psi": [width0],
        "overlap_psi0": [abs(np.sum(np.conj(psi0) * s.psi) * dx)],
    }
    state = s
    for step_index in range(1, n_steps + 1):
        state = step(state, dt)
        if step_index % sample_every == 0 or step_index == n_steps:
            mean, width = packet_moments(state)
            times.append(step_index * dt)
            channels["norm_psi"].append(state.norm_psi())
            channels["norm_zeta"].append(state.norm_zeta())
            channels["mean_x_psi"].append(mean)
            channels["width_psi"].append(width)
            channels["overlap_psi0"].append(abs(np.sum(np.conj(psi0) * state.psi) * dx))
    return TimeSeries(
        times=np.array(times),
        channels={k: np.array(v) for k, v in channels.items()},
    )


def kinetic_hamiltonian(s: GridState, which="psi") -> np.ndarray:
    """Dense grid Hamiltonian -(1/2m) D2 + U at the current coupling profiles.

    Useful for preparing stationary states: the ground eigenvector of this
    matrix is stationary under ``step`` when the couplings it was built
    from do not change.
    """
    n = s.n_points
    dx = s.dx
    if which == "psi":
        mass = s.m
        u = potential_psi(s, np.abs(s.zeta) ** 2)
    else:
        mass = s.m_g
        u = potential_zeta(s, np.abs(s.psi) ** 2)
    kin = 1.0 / (2.0 * mass * dx * dx)
    h = np.diag(2.0 * kin + u) + np.diag(-kin * np.ones(n - 1), 1) + np.diag(
        -kin * np.ones(n - 1), -1
    )
    return h
