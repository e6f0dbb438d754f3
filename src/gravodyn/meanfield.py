"""Coupled mean-field propagation of a matter field and a distortion field.

Two complex fields live on a shared 1D grid and obey coupled effective
Schrödinger equations:

    i dpsi/dt  = [ -(1/2m)    d²/dx² + U_psi(x; |zeta|²) ] psi
    i dzeta/dt = [ -(1/2m_g)  d²/dx² + U_zeta(x; |psi|²) ] zeta

with

    U_psi  = -(g / r^{D-2}) (1 - |zeta|²/4) - (m/2) |zeta|²
    U_zeta = -(m/2) |psi|² + (g / (4 r^{D-2})) |psi|² + V_o

where g bundles the gravitational coupling (G^(D) m M_ext) and r is the
distance from the grid origin softened as sqrt(x² + r0²).

The two fields are coupled by a staggered step (field-wise Strang splitting,
G. Strang, SIAM J. Numer. Anal. 5 (1968) 506, with adjacent half steps
merged): zeta is kept half a step ahead of psi. A run first takes zeta(0)
to zeta(dt/2) by one Crank–Nicolson half step under U_zeta(|psi(0)|²);
each step then takes psi(t) to psi(t + dt) under U_psi(|zeta(t + dt/2)|²),
followed by zeta(t + dt/2) to zeta(t + 3dt/2) under U_zeta(|psi(t + dt)|²).
The zeta step after the last psi step is skipped. A sample at time t reads
zeta(t) by one forward half step from zeta(t - dt/2) under U_zeta(|psi(t)|²);
that value is not fed back, so the trajectory does not depend on the
sampling. A run of n steps with k samples after t = 0 thus makes 2n + k
solves. The scheme is second order in dt, and each linear sub-step is
unitary up to the tridiagonal solve tolerance, so per-field norms drift
only at the 1e-10/step level.

Each equation is linear and homogeneous in its own field, so a field that
is exactly zero stays exactly zero, and the other field's potential is then
fixed. This is decided once per run (a NaN counts as nonzero): with one
field zero a step is the other field's one full-step solve, and the zero
field is returned as the same array; with both zero nothing is solved. A
free packet (``zeta_width = auto``) thus costs one solve per step; the zero
field's equation, whose solve would give zero, is then not formed or
checked.

What does not change between steps is built once per run: the gravity
profile (rejected with key ``softening`` if it is not finite) and each
field's kinetic diagonal and off-diagonal. Each sub-step is then one LAPACK
``gtsv`` solve on bare arrays, after a finiteness check of its diagonal and
right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolationError


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


@dataclass
class TimeSeries:
    """Sampled named channels over a common ascending time grid."""

    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name, values in self.channels.items():
            values = np.asarray(values)
            if values.shape != self.times.shape:
                raise ValueError(
                    f"channel {name!r} length {values.shape} does not match time grid"
                )
            self.channels[name] = values


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


class _Kernel:
    """Both field equations on one grid, with their static parts built once.

    The gravity profiles and each field's kinetic constant and off-diagonal
    do not change between steps. ``kinetic_hamiltonian``, ``step`` and
    ``run`` all evaluate the equations through this one place.
    """

    def __init__(self, s: GridState):
        with np.errstate(all="ignore"):
            r_power = s.softened_r() ** (s.d_spatial - 2)
            self.grav_psi = -s.g_newton / r_power
            grav_zeta = s.g_newton / r_power
        if not np.isfinite(grav_zeta).all():
            raise ConfigError(
                "the gravity profile g / r^(D-2) is not finite on the grid: "
                "r = sqrt(x² + softening²) comes too close to 0 for this g and D",
                key="softening",
            )
        self.quarter_grav = 0.25 * grav_zeta
        self.half_m = 0.5 * s.m
        self.v_o = s.v_o
        dx = s.dx
        # H = -(1/2m) D2 + U; D2 f = (f[i-1] - 2 f[i] + f[i+1]) / dx^2
        self.bands = {}  # field -> (2 kin, off-diagonal)
        for field, mass in (("psi", s.m), ("zeta", s.m_g)):
            kin = 1.0 / (2.0 * mass * dx * dx)
            self.bands[field] = (2.0 * kin, -kin * np.ones(s.n_points - 1))

    def u_psi(self, zeta_abs2):
        return self.grav_psi * (1.0 - 0.25 * zeta_abs2) - self.half_m * zeta_abs2

    def u_zeta(self, psi_abs2):
        return -self.half_m * psi_abs2 + self.quarter_grav * psi_abs2 + self.v_o

    def substep(self, field, dt):
        """One field's Crank–Nicolson sub-step of length dt, as ``solve(f, U)``.

        Solves (1 + i dt/2 H) f_new = (1 - i dt/2 H) f_old, H = -(1/2m) D2 + U,
        with Dirichlet boundaries (fields must be negligible at the edges) by
        one LAPACK ``gtsv`` call. The diagonal and right-hand side are formed
        by the same expressions, in the same order, as the banded form kept
        in the tests, so the solution is the same to the byte.
        """
        two_kin, off = self.bands[field]
        z = 0.5j * dt
        zoff = z * off
        if not np.isfinite(zoff).all():
            raise ValueError("Crank–Nicolson off-diagonal is not finite")
        from scipy.linalg import get_lapack_funcs  # only grid runs pay its import
        gtsv, = get_lapack_funcs(("gtsv",), (zoff,))

        def solve(f, u):
            zd = z * (two_kin + u)
            d = 1.0 + zd
            rhs = (1.0 - zd) * f
            rhs[:-1] -= zoff * f[1:]
            rhs[1:] -= zoff * f[:-1]
            if not (np.isfinite(d).all() and np.isfinite(rhs).all()):
                raise ValueError(
                    "Crank–Nicolson diagonal or right-hand side is not finite"
                )
            # gtsv leaves its LU factors in dl and du, so the shared zoff goes
            # in as a copy; d and rhs are this call's own temporaries
            _, _, _, x, info = gtsv(
                zoff, d, zoff, rhs,
                overwrite_dl=0, overwrite_d=1, overwrite_du=0, overwrite_b=1,
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"tridiagonal solve failed (gtsv info {info})")
            return x

        return solve


def check_stability(s: GridState, dt):
    """Documented step-size heuristic: dt must not exceed dx² · min(m, m_g)."""
    bound = s.dx * s.dx * min(s.m, s.m_g)
    if dt > bound:
        raise ContractViolationError(
            f"time step {dt:.3e} exceeds the stability heuristic "
            f"dx²·min(m, m_g) = {bound:.3e}"
        )


def stepper(s: GridState, dt):
    """The staggered coupled scheme for a fixed dt, on bare arrays.

    Checks dt and the stability bound once and builds everything that does
    not change between steps once; returns ``march(psi, zeta, n_steps,
    sample_every=1)``, a generator of ``(index, psi, zeta)`` after every
    ``sample_every``-th step and after the last, with zeta read at the
    sample time (see the module docstring). Coupled, n steps with k
    samples make 2n + k solves; with one field zero, n. ``--check`` builds
    it too, so it fails where a run would.
    """
    if dt == 0:
        raise ConfigError("dt must be nonzero", key="dt")
    check_stability(s, abs(dt))
    kernel = _Kernel(s)
    u_psi, u_zeta = kernel.u_psi, kernel.u_zeta
    psi_full, zeta_full = kernel.substep("psi", dt), kernel.substep("zeta", dt)
    zeta_half = kernel.substep("zeta", 0.5 * dt)

    def march(psi, zeta, n_steps, sample_every=1):
        psi_live, zeta_live = psi.any(), zeta.any()  # NaN counts as nonzero
        if not (psi_live and zeta_live):
            # a zero field stays zero, so the live field's potential is fixed
            # and its full step is the whole step
            if psi_live:
                u = u_psi(np.abs(zeta) ** 2)
            elif zeta_live:
                u = u_zeta(np.abs(psi) ** 2)
            for index in range(1, n_steps + 1):
                if psi_live:
                    psi = psi_full(psi, u)
                elif zeta_live:
                    zeta = zeta_full(zeta, u)
                if index % sample_every == 0 or index == n_steps:
                    yield index, psi, zeta
            return
        if n_steps:
            zeta = zeta_half(zeta, u_zeta(np.abs(psi) ** 2))  # zeta(dt/2)
        for index in range(1, n_steps + 1):
            psi = psi_full(psi, u_psi(np.abs(zeta) ** 2))
            u = u_zeta(np.abs(psi) ** 2)
            if index % sample_every == 0 or index == n_steps:
                yield index, psi, zeta_half(zeta, u)
            if index < n_steps:
                zeta = zeta_full(zeta, u)

    return march


def step(s: GridState, dt) -> GridState:
    """Advance both fields by one step: a zeta half step, the psi step and a
    zeta half step (one full step of the live field if the other is zero)."""
    # copies: a zero field comes back as the array it was given
    _, psi, zeta = next(stepper(s, dt)(s.psi.copy(), s.zeta.copy(), 1))
    return replace(s, psi=psi, zeta=zeta)


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
    """Propagate and sample norms, packet moments, and initial-state overlap.

    The step is built once (``stepper``), so dt, the stability bound and the
    gravity profile are checked before the first step even when n_steps = 0.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    march = stepper(s, dt)
    psi0 = s.psi.copy()
    dx = s.dx
    times, rows = [], []

    def sample(t, state):
        times.append(t)
        rows.append((
            state.norm_psi(),
            state.norm_zeta(),
            *packet_moments(state),
            abs(np.sum(np.conj(psi0) * state.psi) * dx),
        ))

    sample(0.0, s)
    for step_index, psi, zeta in march(s.psi, s.zeta, n_steps, sample_every):
        sample(step_index * dt, replace(s, psi=psi, zeta=zeta))
    names = ("norm_psi", "norm_zeta", "mean_x_psi", "width_psi", "overlap_psi0")
    return TimeSeries(times=np.array(times), channels=dict(zip(names, np.array(rows).T)))


def kinetic_hamiltonian(s: GridState, which="psi") -> np.ndarray:
    """Dense grid Hamiltonian -(1/2m) D2 + U at the current coupling profiles.

    Useful for preparing stationary states: the ground eigenvector of this
    matrix is stationary under ``step`` when the couplings it was built
    from do not change.
    """
    kernel = _Kernel(s)
    if which == "psi":
        two_kin, off = kernel.bands["psi"]
        u = kernel.u_psi(np.abs(s.zeta) ** 2)
    else:
        two_kin, off = kernel.bands["zeta"]
        u = kernel.u_zeta(np.abs(s.psi) ** 2)
    return np.diag(two_kin + u) + np.diag(off, 1) + np.diag(off, -1)
