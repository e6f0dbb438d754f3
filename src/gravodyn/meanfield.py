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
profile (rejected with key ``softening`` if it is not finite), the
coefficients of each potential, which is affine in the other field's
density (U = c0 + c1·|other|²), and each field's kinetic diagonal and
off-diagonal. A sub-step f -> (I + iS)⁻¹(I - iS) f, S = (dt/2) H, equals
2 (I + iS)⁻¹ f - f (the Cayley form), so it is one LAPACK ``gtsv`` solve
with right-hand side 2f on bare arrays, in place in the result, and one
subtraction. A diagonal or 2f that is not finite is refused.

Each solve runs only on a window where its field lives: the support
{|f| > TAU·max|f|}, TAU = 1e-30, widened by m points on each side, where
m = ⌈log TAU / log ρ⌉ and ρ = dt·kin ≤ 1/2 (m = 33 at ρ = 0.12, the full
step of a 2 801-point grid on ±70 at dt = 6e-4). Outside the window the
result is exactly 0. The inverse of the banded CN matrix decays
geometrically off its diagonal (Demko, Moss & Smith, Math. Comp. 43 (1984)
491), so each entry is within 17·TAU·max|f| of the full-grid solve's
(``_Kernel.substep`` derives it): ≤ 7.6e-27 of ‖f‖ per solve up to the
200 000-point cap. The sub-steps are unitary, so over a run's 2n + k solves
these add up to ≤ 1.6e-26·(2n + k) of each norm: below
``propagator.NORM_TOL`` = 1e-10, and below half a unit of the 12 printed
digits (5e-13), for any run shorter than 3e13 solves. Where the fields are
coupled, this error moves the other field's potential as rounding does,
and rounding is ~1e10 times larger per solve. A window that reaches both
grid edges is the full-grid solve; so is the solve of a field whose max|f|
is not finite, which the finiteness check then refuses.

A solve reads only windows. A run carries each field's window from the
solve that gave it (the whole grid for an initial field), and the field is
exactly 0 off it. So the support scan runs over that window alone, and the
bound on the diagonal, which needs Σ|other|², over the other field's.
Zeros are never in the support, so each window is the one a scan of the
whole grid finds. A solve off the full grid checks no entry for finiteness:
that bound keeps every |im| at or below a quarter of the float limit, and
2f is finite where 2·max|f| is. A full-grid solve, or one where 2·max|f|
overflows, checks every entry of im and 2f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ContractViolationError

# a sub-step treats |f| ≤ TAU·max|f| as zero and solves on a window around the
# rest (see ``_Kernel.substep`` for the bound this gives)
TAU = 1e-30


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

    Each potential is affine in the other field's density,
    U = c0 + c1·|other|²: U_psi has c0 = -g/r^(D-2), U_zeta has c0 = V_o,
    and both have c1 = g/(4 r^(D-2)) - m/2. These coefficient arrays and
    each field's kinetic constant and off-diagonal do not change between
    steps. ``kinetic_hamiltonian``, ``step`` and ``run`` all evaluate the
    equations through this one place.
    """

    def __init__(self, s: GridState):
        with np.errstate(all="ignore"):
            grav = s.g_newton / s.softened_r() ** (s.d_spatial - 2)
        if not np.isfinite(grav).all():
            raise ConfigError(
                "the gravity profile g / r^(D-2) is not finite on the grid: "
                "r = sqrt(x² + softening²) comes too close to 0 for this g and D",
                key="softening",
            )
        c1 = 0.25 * grav - 0.5 * s.m
        self.coeffs = {"psi": (-grav, c1), "zeta": (np.full(s.n_points, s.v_o), c1)}
        dx = s.dx
        # H = -(1/2m) D2 + U; D2 f = (f[i-1] - 2 f[i] + f[i+1]) / dx^2
        self.bands = {}  # field -> (2 kin, off-diagonal)
        for field, key, mass in (("psi", "m", s.m), ("zeta", "m_g", s.m_g)):
            kin = 1.0 / (2.0 * mass * dx * dx)
            if not math.isfinite(kin):
                raise ConfigError(f"the kinetic scale 1/(2 {key} dx^2) overflows", key=key)
            self.bands[field] = (2.0 * kin, -kin * np.ones(s.n_points - 1))

    def potential(self, field, other):
        """U of ``field``'s equation, given the other field."""
        c0, c1 = self.coeffs[field]
        return c0 + c1 * np.abs(other) ** 2

    def substep(self, field, dt):
        """One field's Crank–Nicolson sub-step of length dt, as a ``solve`` (below).

        The step f -> (I + iS)⁻¹(I - iS) f, S = (dt/2) H, H = -(1/2m) D2 + U,
        with Dirichlet boundaries (fields must be negligible at the edges),
        is 2 (I + iS)⁻¹ f - f: one LAPACK ``gtsv`` solve of (I + iS) y = 2f
        (doubling is exact), then x = y - f. The diagonal of I + iS is
        1 + i·im with the real im = base + slope·|other|², where
        base = (dt/2)(2 kin + c0) and slope = (dt/2) c1 are built here.
        ``other`` is the other field, or None when it is exactly zero: then
        im = base for every solve.

        Only the window W = [lo, hi) is solved: the support
        T = {|f| > TAU·M}, M = max|f|, widened by m = ⌈log TAU / log ρ⌉
        points on each side, with ρ = 2|zoff| = dt·kin; x is exactly 0 off W.
        The bound: I + iS = D + E with |d_j| ≥ 1 (Re d_j = 1) and
        ‖D⁻¹E‖∞ ≤ ρ, so a Neumann series gives
        |((I + iS)⁻¹)_ij| ≤ ρ^|i−j| / (1 − ρ), and the same on W alone;
        ``check_stability`` keeps ρ ≤ 1/2, so zoff is finite (``_Kernel``
        refuses a kinetic scale that is not). Off W every point is at least
        m + 1 points from T, and |f| ≤ TAU·M off T, so the full-grid y has
        |y_j| ≤ 2·TAU·M·(1 + 2ρ)/(1 − ρ)² ≤ 16·TAU·M there (ρ^m ≤ TAU), and
        its x_j = y_j − f_j is within 17·TAU·M of 0. On W the two solves
        differ by W's inverse applied to the leak zoff·y across W's edges:
        at most ρ/(1 − ρ)·16·TAU·M ≤ 16·TAU·M. A window that reaches both
        grid edges is the full-grid solve. So is every solve where the full
        grid could refuse what the window does not form: an empty support
        (max|f| is 0, inf or NaN), or an im off W that might not be finite
        (|base| + |slope|·Σ|other|² above a quarter of the float limit; the
        sum is 0 when ``other`` is None).

        ``solve(f, other=None, span=(0, n), other_span=(0, n))`` returns
        ``(x, (lo, hi))``. f must be exactly 0 off ``span`` and ``other``
        off ``other_span``, as each x is off its [lo, hi): the scan for T
        reads f on ``span`` only, and Σ|other|² reads ``other`` on
        ``other_span`` only. Off the full grid no entry of im or 2f is
        checked for finiteness: the bound above keeps every |im| within a
        quarter of the float limit, and |Re f_j|, |Im f_j| ≤ M, so 2f is
        finite when 2M is. A full-grid solve, or one with 2M above the
        float limit, checks each entry and refuses one that is not finite.
        """
        two_kin, off = self.bands[field]
        z = 0.5j * dt
        zoff = z * off
        from scipy.linalg import get_lapack_funcs  # only grid runs pay its import
        gtsv, = get_lapack_funcs(("gtsv",), (zoff,))
        c0, c1 = self.coeffs[field]
        with np.errstate(all="ignore"):  # a solve refuses a non-finite im
            base = 0.5 * dt * (two_kin + c0)
            slope = 0.5 * dt * c1
            # Python floats, so 0·inf below is NaN with no numpy warning; a NaN
            # or inf here sends every solve to the full grid
            base_max, slope_max = float(np.max(np.abs(base))), float(np.max(np.abs(slope)))
        n = len(base)
        rho = 2.0 * abs(zoff[0])  # dt·kin, at most 1/2 under check_stability
        margin = math.ceil(math.log(TAU) / math.log(rho)) if 0.0 < rho < 1.0 else n
        im_limit = 0.25 * np.finfo(float).max
        half_limit = 0.5 * np.finfo(float).max

        def solve(f, other=None, span=(0, n), other_span=(0, n)):
            # f is exactly 0 off span, other off other_span
            a, b = span
            mag = np.abs(f[a:b])
            top = mag.max()
            live = mag > TAU * top  # all False if max|f| is 0, inf or NaN
            first = int(live.argmax())
            # every |other_j|² ≤ Σ|other|², so this bounds |im| on the whole grid
            mass = 0.0
            if other is not None:
                carried = other[other_span[0]:other_span[1]]
                mass = float(np.vdot(carried, carried).real)
            if live[first] and base_max + slope_max * mass <= im_limit:
                lo = max(a + first - margin, 0)
                hi = min(b - int(live[::-1].argmax()) + margin, n)
            else:
                lo, hi = 0, n
            x = np.zeros(n, dtype=complex)
            fw, rhs = f[lo:hi], x[lo:hi]
            np.add(fw, fw, out=rhs)
            if other is None:
                im = base[lo:hi]
            else:
                im = np.abs(other[lo:hi])
                im *= im
                im *= slope[lo:hi]
                im += base[lo:hi]
            # off the full grid the guard bounds |im|, and 2f is finite where
            # 2·max|f| is; elsewhere each entry is checked
            if (hi - lo == n or not top <= half_limit) and not (
                np.isfinite(im).all() and np.isfinite(rhs.view(float)).all()
            ):
                raise ValueError(
                    "Crank–Nicolson diagonal or right-hand side is not finite"
                )
            d = np.empty(hi - lo, dtype=complex)
            d.real = 1.0
            d.imag = im
            # gtsv leaves its LU factors in dl and du, so the shared zoff goes
            # in as a copy; it solves in place, in x's window
            dl = zoff[lo:hi - 1]
            info = gtsv(
                dl, d, dl, rhs,
                overwrite_dl=0, overwrite_d=1, overwrite_du=0, overwrite_b=1,
            )[-1]
            if info != 0:
                raise np.linalg.LinAlgError(f"tridiagonal solve failed (gtsv info {info})")
            rhs -= fw
            return x, (lo, hi)

        return solve


def check_stability(s: GridState, dt):
    """Documented step-size heuristic: dt must not exceed dx² · min(m, m_g)."""
    bound = s.dx * s.dx * min(s.m, s.m_g)
    if not dt <= bound:  # a NaN dt fails too
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
    samples make 2n + k solves; with one field zero, n. ``--check`` takes
    a run's first step through it, so it fails where that step would.
    """
    if dt == 0:
        raise ConfigError("dt must be nonzero", key="dt")
    check_stability(s, abs(dt))
    kernel = _Kernel(s)
    psi_full, zeta_full = kernel.substep("psi", dt), kernel.substep("zeta", dt)
    zeta_half = kernel.substep("zeta", 0.5 * dt)

    def march(psi, zeta, n_steps, sample_every=1):
        psi_live, zeta_live = psi.any(), zeta.any()  # NaN counts as nonzero
        # each field carries the window it is exactly 0 off: the grid at the
        # start, then that of the solve that gave it
        psi_span = zeta_span = (0, s.n_points)
        if not (psi_live and zeta_live):
            # a zero field stays zero, so the live field's potential is fixed
            # and its full step is the whole step
            for index in range(1, n_steps + 1):
                if psi_live:
                    psi, psi_span = psi_full(psi, None, psi_span)
                elif zeta_live:
                    zeta, zeta_span = zeta_full(zeta, None, zeta_span)
                if index % sample_every == 0 or index == n_steps:
                    yield index, psi, zeta
            return
        if n_steps:
            zeta, zeta_span = zeta_half(zeta, psi, zeta_span, psi_span)  # zeta(dt/2)
        for index in range(1, n_steps + 1):
            psi, psi_span = psi_full(psi, zeta, psi_span, zeta_span)
            if index % sample_every == 0 or index == n_steps:
                yield index, psi, zeta_half(zeta, psi, zeta_span, psi_span)[0]
            if index < n_steps:
                zeta, zeta_span = zeta_full(zeta, psi, zeta_span, psi_span)

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
    two_kin, off = kernel.bands[which]
    u = kernel.potential(which, s.zeta if which == "psi" else s.psi)
    return np.diag(two_kin + u) + np.diag(off, 1) + np.diag(off, -1)
