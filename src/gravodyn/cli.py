"""Scenario runner: parse a config, run the model, emit CSV and reports.

All outputs are assembled in memory and written together at the end, so a
failing run never leaves partial files behind. Reruns of the same config
produce bit-identical bytes (there is no randomness anywhere in the package
and float formatting is fixed to 12 significant digits).

Each scenario has one record in ``_SCENARIOS``: its run, its ``--check``
and, for the sweep bases, a point's independent model parts (telegraph:
its two sites), one part's reduction of its solve, which ``--check`` runs
too, and a block of points' reduction. All share one model builder per
scenario, so they always see the same model.

Exit codes: 0 success, 2 config error, 3 numerical-contract violation,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analytic, dimensional, meanfield
from .config import SITE_KEYS, ScenarioConfig, load_config
from .errors import (
    DEFAULT_MEMORY_CAP,
    ConfigError,
    ContractViolationError,
    SizeLimitError,
)
from .gravonon import SiteBasis, build_omega
from .models import ChooserParams, TelegraphSite, build_chooser
from .propagator import (
    NORM_TOL, RESIDUAL_TOL, SpectralDecomposition, dense_residual, diagonalize, evolve,
    total_norms,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_RESOURCE = 4

_FLOAT_FMT = "%.11e"  # 12 significant digits, scientific


def _out(prefix: Path, ext: str) -> Path:
    return Path(str(prefix) + ext)


def _csv(header, columns):
    """CSV text of equal-length columns through one row format: an int
    column as %d, a float column as %.11e and a column of None (a statistic
    the sweep's base does not have) as empty fields."""
    formats, values = [], []
    for column in map(np.asarray, columns):
        if column.dtype == object:
            formats.append("")
        else:
            formats.append("%d" if column.dtype.kind in "iu" else _FLOAT_FMT)
            values.append(column.tolist())
    rows = map(",".join(formats).__mod__, zip(*values))
    return "\n".join([",".join(header), *rows]) + "\n"


def _largest_key(part):
    """The key of a model part's largest energy scale, which sizes its
    eigenvalues λ: a chooser's |alpha|, |v|, |w|, |u| or delta/2 (the band
    edges), a telegraph site's |e_g|, |e_w|, |v_loc|, |eps_grav|, max|band|
    or |v_gw| under that site's key."""
    if isinstance(part, ChooserParams):
        scales = {name: abs(getattr(part, name)) for name in ("alpha", "v", "w", "u")}
        scales["delta"] = 0.5 * part.delta
    else:
        band = max(map(abs, part.band), default=0.0)
        values = (part.e_g, part.e_w, part.v_loc, part.eps_grav, band, part.v_gw)
        scales = dict(zip(part.keys, map(abs, values)))
    return max(scales, key=scales.get)


def _diagonalize(part):
    """``diagonalize`` of a model part; if its entries or eigenvalues
    overflow, the ConfigError names the part's largest energy key."""
    try:
        return diagonalize(part)
    except ConfigError as exc:  # only entries or eigenvalues that overflow raise it
        raise ConfigError(str(exc), key=_largest_key(part)) from None


def _evolve(part, dec, psi0, times):
    """``evolve`` of ``dec``, the decomposition of ``part``. If its phases
    λ·t overflow or keep too few digits, the ConfigError names ``t_final``
    when the times are the larger factor, else the part's largest energy key."""
    try:
        return evolve(dec, psi0, times)
    except ConfigError as exc:  # only the phase bounds raise it
        times_larger = times[-1] > np.max(np.abs(dec.eigenvalues))
        key = "t_final" if times_larger else _largest_key(part)
        raise ConfigError(str(exc), key=key) from None


def _check_parts(parts, sampling, solve):
    """Check lines for the independent model parts a run solves (a chooser
    model, solved as a star; telegraph sites, each a dense block), each
    admitted first for this extra work (``_part_bytes``, ``dense``) and
    diagonalized once: the contracts ``diagonalize`` enforces, a star
    solve's dense residual against the chooser's matrix, then the run's own
    reduction of that solve, ``solve(part, _head_rows(part, dec), sampling)``,
    with every refusal it makes, and last unitary norm conservation of the
    full state the run evolves, over the run's time span."""
    for part in parts:
        _admit(part, sampling["n_times"], dense=True)
        dec = _diagonalize(part)  # a telegraph block: measures the dense residual
        if isinstance(part, ChooserParams):
            dense = build_chooser(part).entries
            residual = dense_residual(dense, dec.eigenvalues, dec.eigenvectors)
            del dense  # before the evolve below, whose peak it would add to
            if not residual <= RESIDUAL_TOL:
                raise ContractViolationError(
                    f"dense eigenpair residual exceeds {RESIDUAL_TOL:.0e}·‖H‖"
                )
            t_final = _chooser_times(part, sampling)[1][-1]
        else:
            t_final = sampling["t_final"]
        solve(part, _head_rows(part, dec), sampling)
        states = _evolve(part, dec, _initial_state(part)[0], _time_grid(t_final, 8))
        norms = np.sqrt(total_norms(states))
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise ContractViolationError(f"norm not conserved to {NORM_TOL:.0e}")
    return [
        "check: exact Hermiticity ok",
        "check: spectral decomposition residuals ok",
        "check: unitary norm conservation ok",
    ]


def _part_bytes(part, n_times, dense=False):
    """Estimated peak bytes of solving one model part over ``n_times`` samples.

    A chooser model (dim 3 + n_band) is solved as a star: 8·dim² for the
    eigenvectors, the one dim × dim array of the solve, two 65-row blocks of
    workspace and its per-root arrays (counted as 25 rows more); the
    orthonormality check's 128-row Gram block comes after them and is
    smaller. ``dense`` (``--check``) adds the dense matrix, 8·dim², and the
    residual's two (dim × 128) blocks with the small arrays around them
    (counted as 136 rows); the Hermiticity check's 128-row blocks are
    smaller. A telegraph site's block (dim 2·(1 + len(band))) goes through
    dense ``eigh``: ~2.3 × 8·dim² under tracemalloc, and 4.4–4.7 × 8·dim² of
    resident growth with LAPACK's workspace, so 5 are counted. A
    gravonon-modes basis of n sites (``SiteBasis``, ``n_times`` 0) is built
    into its n × n frequency matrix (``build_omega``, 5.0 × 8·n² under
    tracemalloc) and diagonalized densely; a run or ``--check`` of 1 500 and
    2 500 sites grew resident by 5.4 and 5.2 × 8·n², so 6 are counted.

    ``evolve``'s phase blocks (16·3·dim·B, B ≈ √(4·n_times)) come after the
    solve in a run, which keeps only the eigenvector rows it reads
    (``_head_rows``), and on top of the eigenvectors in ``--check``.
    ~400 bytes per sample are added for the weights and the CSV; a sweep's
    block of 16 telegraph points (``_POINT_BLOCK``) stacks 256 of them.
    """
    if isinstance(part, ChooserParams):
        dim = 3 + part.n_band
        entry, work = (16, 136) if dense else (8, 90)  # bytes per dim², rows of 16·dim
    elif isinstance(part, SiteBasis):
        dim, entry, work = part.n_sites, 48, 0
    else:
        dim, entry, work = 2 * (1 + len(part.band)), 40, 0
    fine = math.isqrt(4 * n_times - 1) + 1 if n_times else 1
    solve, phases = entry * dim * dim + 16 * dim * work, 16 * dim * 3 * fine
    return (solve + phases if dense else max(solve, phases)) + 400 * n_times


def _admit(part, n_times, dense=False):
    """``part``, or a SizeLimitError naming its size key if it is over the cap."""
    need = _part_bytes(part, n_times, dense)
    if need > DEFAULT_MEMORY_CAP:
        if isinstance(part, TelegraphSite):
            key = part.keys[4]
        else:
            key = "n_band" if isinstance(part, ChooserParams) else "positions"
        raise SizeLimitError(
            f"[key '{key}'] estimated memory of {need} bytes exceeds cap of "
            f"{DEFAULT_MEMORY_CAP} bytes"
        )
    return part


def _overflows(start, stop, n):
    """Whether ``np.linspace(start, stop, n)`` overflows on the way (numpy
    warns): its last product (n − 1)·((stop − start)/(n − 1)) is not finite."""
    steps = max(n - 1, 1)
    return not math.isfinite((stop - start) / steps * steps)


def _time_grid(t_final, n_times):
    """The sample times ``np.linspace(0, t_final, n_times)``, or a ConfigError
    naming ``t_final`` if they overflow (``evolve`` would name no key)."""
    if _overflows(0.0, t_final, n_times):
        raise ConfigError(
            f"the time grid overflows: t_final = {t_final!r} is within rounding "
            "of the float limit",
            key="t_final",
        )
    return np.linspace(0.0, t_final, n_times)


# ---------------------------------------------------------------------------
# chooser


def _chooser_params(p, sampling):
    """The chooser model of a config, admitted for a run before anything is built."""
    delta = p["delta"]
    if delta is None:
        _, delta = analytic.self_consistent_width(p["u"])
        if not 0.0 < delta < math.inf:
            raise ConfigError("delta = auto (pi*|u|) needs a finite u != 0", key="u")
    params = ChooserParams(
        v=p["v"], w=p["w"], n_band=p["n_band"], delta=delta, u=p["u"], alpha=p["alpha"]
    )
    return _admit(params, sampling["n_times"])


def _width_key(params: ChooserParams):
    """``delta`` or ``u``: the factor of 1/gamma = delta/(pi*u^2) further from 1."""
    return "delta" if abs(math.log(params.delta)) >= abs(2.0 * math.log(abs(params.u))) else "u"


def _chooser_times(params: ChooserParams, sampling):
    """Decay width gamma and the time grid; t_final = auto is 5/gamma. If
    5/gamma overflows, the ConfigError names ``_width_key``; if gamma
    underflows to 0 for u != 0, it names ``u``."""
    gamma = analytic.gamma_from(params.u, params.delta)
    t_final = sampling["t_final"]
    if gamma == 0.0:
        if params.u != 0.0:
            raise ConfigError("the decay width gamma = pi*u^2/delta underflows to 0", key="u")
        if t_final is None:
            raise ConfigError("t_final = auto needs u != 0", key="t_final")
        raise ConfigError("the time windows in units of 1/gamma need u != 0", key="u")
    if not math.isfinite(gamma):
        raise ConfigError("the decay width gamma = pi*u^2/delta overflows", key="u")
    if t_final is None:
        t_final = 5.0 / gamma
        if not math.isfinite(t_final):  # before linspace: its steps would be NaN
            raise ConfigError(
                f"t_final = auto (5/gamma) overflows: gamma = pi*u^2/delta = {gamma:.3e}",
                key=_width_key(params),
            )
    return gamma, _time_grid(t_final, sampling["n_times"])


def _report_grid(params: ChooserParams, sampling):
    """Width, time grid and dark-state residue (w/u)² of a chooser run's
    report, once the report can be formed: its deviation window t >= 1/gamma
    holds a sample and the residue is finite. A run and its ``--check``
    both call this."""
    gamma, times = _chooser_times(params, sampling)
    if times.size == 0 or times[-1] < 1.0 / gamma:
        t_final = sampling["t_final"]
        short = t_final is not None and t_final < 1.0 / gamma
        raise ConfigError(
            "the report's deviation window t >= 1/gamma holds no sample",
            key="t_final" if short else "n_times",
        )
    ratio = params.w / params.u
    residue = ratio * ratio
    if not math.isfinite(residue):
        raise ConfigError("the dark-state residue (w/u)^2 overflows", key="u")
    return gamma, times, residue


def _fit_grid(params: ChooserParams, sampling):
    """Time grid and decay-rate fit window [0.5/gamma, 2.5/gamma] of a
    chooser sweep point, once the window holds 2 samples whose times the
    fit can square. ``np.polyfit`` scales them by √Σt², so each t² must be
    a normal float, t ≥ √(2.2e-308) = 1.5e-154, and n·max(t)² at most the
    float limit 1.8e308; otherwise the ConfigError names ``_width_key``. A
    sweep's run and its ``--check`` both call this."""
    gamma, times = _chooser_times(params, sampling)
    fit_window = (times >= 0.5 / gamma) & (times <= 2.5 / gamma)
    if np.count_nonzero(fit_window) < 2:
        raise ConfigError(
            "the decay-rate fit needs 2 samples in [0.5/gamma, 2.5/gamma]",
            key="n_times",
        )
    fit_times = times[fit_window]
    first, last = float(fit_times[0]), float(fit_times[-1])
    if not (first * first >= sys.float_info.min and len(fit_times) * last * last < math.inf):
        raise ConfigError(
            f"the decay-rate fit's times {first:.3e} to {last:.3e} cannot be squared "
            "as normal floats",
            key=_width_key(params),
        )
    return times, fit_window


def _initial_state(part):
    """The state a run evolves a model part from and the rows it reads (the
    heads): a chooser's zero state and its |Q0>, |R0>, |Kproj>, or a telegraph
    site's warp resonance with its local mode occupied and that mode under w, g."""
    if isinstance(part, ChooserParams):
        psi0 = np.zeros(3 + part.n_band, dtype=complex)
        psi0[:3] = analytic.zero_state_coeffs(part.v, part.w)
        return psi0, [0, 1, 2]
    n_grav = 1 + len(part.band)  # basis: (w, g) times (band..., local)
    psi0 = np.zeros(2 * n_grav)
    psi0[n_grav - 1] = 1.0
    return psi0, [n_grav - 1, 2 * n_grav - 1]


def _head_rows(part, dec):
    """``dec``, the decomposition of ``part``, cut to the eigenvector rows of
    its heads (``_initial_state``), on which ψ0 lies. A run passes
    ``_head_rows(part, _diagonalize(part))``, so the full eigenvectors are
    freed before ``evolve`` forms its phase blocks."""
    return SpectralDecomposition(dec.eigenvalues, dec.eigenvectors[_initial_state(part)[1]])


def _head_weights(part, heads, times):
    """Weights of a model part's heads (rows: times) evolved from its
    initial state by ``heads`` (``_head_rows``), and the rest of the
    conserved norm, ‖ψ0‖² − Σ heads, which the other rows hold."""
    psi0, rows = _initial_state(part)
    weights = np.abs(_evolve(part, heads, psi0[rows], times)) ** 2
    return weights, np.vdot(psi0, psi0).real - weights.sum(axis=1)


def _plateau(times, w_band):
    """A chooser run's band plateau: the mean band weight over the last 20 %
    of its times."""
    return float(np.mean(w_band[times >= times[-1] * 0.8]))


def _run_chooser(p, sampling, prefix: Path):
    params = _chooser_params(p, sampling)
    gamma, times, residue = _report_grid(params, sampling)
    weights, w_band = _head_weights(params, _head_rows(params, _diagonalize(params)), times)
    csv_text = _csv(["t", "w_Q0", "w_R0", "w_Kproj", "w_band"], (times, *weights.T, w_band))

    analytic_band = analytic.band_weight(times, params.u, params.w, gamma)
    window = times >= 1.0 / gamma
    deviation = float(np.max(np.abs(w_band[window] - analytic_band[window])))
    plateau = _plateau(times, w_band)
    target = 1.0 - residue
    report = "scenario = chooser\n" + "".join(
        f"{key} = {_FLOAT_FMT % value}\n"
        for key, value in (
            ("gamma", gamma),
            ("delta", params.delta),
            ("max_abs_deviation_from_band_weight_t_ge_1_over_gamma", deviation),
            ("plateau_band_weight_last_20_percent", plateau),
            ("analytic_plateau", target),
        )
    )
    return {
        _out(prefix, ".csv"): csv_text,
        _out(prefix, "_report.txt"): report,
    }


def _check_chooser(p, sampling):
    """Check lines for the star solve a run uses; first its report grid."""
    params = _chooser_params(p, sampling)
    times = _report_grid(params, sampling)[1]
    return _check_parts([params], sampling, lambda part, rows, _: _head_weights(part, rows, times))


_NO_KPROJ = (
    "[key 'v'] w_Kproj <= 0 in the decay-rate fit window "
    "[0.5/gamma, 2.5/gamma] (v = 0 starts in the uncoupled |Q0>)"
)


def _chooser_part(p, sampling):
    """A chooser sweep point's one part, its whole model, once its fit
    window holds the samples the solve needs."""
    params = _chooser_params(p, sampling)
    _fit_grid(params, sampling)
    return (params,)


def _solve_chooser(params, heads, sampling):
    """A chooser point's row statistics: a row depends on its one part alone,
    and reducing it here keeps no (times x dim) weights alive across the sweep.
    Its |Kproj> weight must stay positive in the fit window."""
    times, fit_window = _fit_grid(params, sampling)
    weights, w_band = _head_weights(params, heads, times)
    w_kproj = weights[fit_window, 2]
    if np.any(w_kproj <= 0.0):
        raise ContractViolationError(_NO_KPROJ)
    slope, _ = np.polyfit(times[fit_window], np.log(w_kproj), 1)
    return _plateau(times, w_band), float(-slope), None


# ---------------------------------------------------------------------------
# telegraph


def telegraph_params_from(p, sampling):
    """Sites 1 and 2 of a telegraph config, each admitted for solving over
    the config's samples before anything is built."""
    return tuple(
        _admit(TelegraphSite(*(p[key] for key in keys), keys=keys), sampling["n_times"])
        for keys in SITE_KEYS
    )


def telegraph_channels(sites, weight_site1, times):
    """Site-resolved gravonon weights (w_band 1, w_band 2, w_loc 1, w_loc 2).

    The initial state holds the matter quantum in the warp resonance of each
    site (amplitudes sqrt(w) / sqrt(1-w), w = weight_site1) and the gravonon
    quantum in that site's local mode. Nothing couples the sites, so the
    channels are (w·P1, (1-w)·P2, w·L1, (1-w)·L2): the "switching" is the
    crossings of two independently weighted site decays.
    """
    (loc_1, band_1), (loc_2, band_2) = (
        _head_weights(site, _head_rows(site, _diagonalize(site)), times) for site in sites
    )
    site_1, site_2 = _weigh(
        weight_site1, np.array([band_1, loc_1.sum(axis=1)]), np.array([band_2, loc_2.sum(axis=1)])
    )
    return site_1[0], site_2[0], site_1[1], site_2[1]


def _weigh(weight_site1, site_1, site_2):
    """w·site_1 and (1-w)·site_2, w = ``weight_site1``, for two new stacks of
    the sites' channels, weighed in place; w is a number or a column over
    the stacked rows."""
    site_1 *= weight_site1
    site_2 *= 1.0 - weight_site1
    return site_1, site_2


SWITCH_TIE = 1e-12  # |channel_1 - channel_2| at or below this is a tie


def crossings(channel_1, channel_2):
    """Sample indices just past each sign change of channel_1 - channel_2.

    Ties carry no sign: a sign change is counted between the samples on
    either side of them, so roundoff at a tie neither adds nor drops one.
    """
    diff = np.asarray(channel_1) - np.asarray(channel_2)
    kept = np.flatnonzero(np.abs(diff) > SWITCH_TIE)
    sign = np.sign(diff[kept])
    return kept[1:][sign[1:] != sign[:-1]]


def switching_count(channel_1, channel_2):
    """Number of dominance alternations (see ``crossings``)."""
    return len(crossings(channel_1, channel_2))


def _run_telegraph(p, sampling, prefix: Path):
    sites = telegraph_params_from(p, sampling)  # admitted first, as in --check
    times = _time_grid(sampling["t_final"], sampling["n_times"])
    channels = telegraph_channels(sites, p["weight_site1"], times)
    csv_text = _csv(
        ["t", "w_band_site1", "w_band_site2", "w_loc_site1", "w_loc_site2"],
        (times, *channels),
    )
    return {_out(prefix, ".csv"): csv_text}


def _check_telegraph(p, sampling):
    return _check_parts(telegraph_params_from(p, sampling), sampling, _solve_telegraph)


def _solve_telegraph(site, heads, sampling):
    """Band and local-mode weights (P, L) of one site evolved alone from its
    warp resonance and local mode."""
    times = _time_grid(sampling["t_final"], sampling["n_times"])
    local, band = _head_weights(site, heads, times)
    return band, local.sum(axis=1)


def _points_telegraph(points, solutions):
    """Row statistics of a block of points at once: each point's w·P1 and
    (1-w)·P2 (``telegraph_channels``) stacked into two (points x times)
    arrays, one 95th percentile of the rows and one ``switching_count`` per row."""
    band_1, band_2 = _weigh(
        np.array([[p["weight_site1"]] for p in points]),
        np.array([site_1[0] for site_1, _ in solutions]),
        np.array([site_2[0] for _, site_2 in solutions]),
    )
    plateaus = np.percentile(band_1, 95, axis=1).tolist()
    return [(q, None, switching_count(b_1, b_2)) for q, b_1, b_2 in zip(plateaus, band_1, band_2)]


# ---------------------------------------------------------------------------
# gravonon-modes


def _omega(p):
    """The frequency matrix of a gravonon-modes config, once it is finite
    (θ² first: ``build_omega`` raises if it overflows) and admitted against
    the memory cap (``_admit``, naming ``positions``). A run and its
    ``--check`` both call this."""
    basis = SiteBasis(
        positions=tuple(p["positions"]),
        envelope_width=p["envelope_width"],
        vgrav_values=tuple(p["vgrav"]),
        theta=p["theta"], m_g=p["m_g"], v_o=p["v_o"],
    )
    sigma = basis.envelope_width  # as build_omega evaluates it
    if sigma * sigma == 0.0:
        raise ConfigError("envelope_width squared underflows to 0", key="envelope_width")
    scale = 4.0 * basis.m_g * sigma * sigma  # underflows to 0 where 1/scale overflows
    kinetic = 1.0 / scale if scale else math.inf
    if not math.isfinite(kinetic):
        raise ConfigError("the kinetic scale 1/(4 m_g sigma^2) overflows", key="m_g")
    if not math.isfinite(basis.theta * basis.theta):
        raise ConfigError("theta^2 overflows", key="theta")
    _admit(basis, 0)
    with np.errstate(all="ignore"):
        omega = build_omega(basis)
    if not np.isfinite(omega).all():  # a potential above the kinetic scale is to blame
        key = "v_o" if abs(basis.v_o) > kinetic else "vgrav"
        raise ConfigError("the frequency matrix is not finite", key=key)
    return omega


def _run_gravonon_modes(p, sampling, prefix: Path):
    frequencies = diagonalize(_omega(p)).eigenvalues
    columns = (np.arange(len(frequencies)), frequencies)
    return {_out(prefix, ".csv"): _csv(["mode_index", "frequency"], columns)}


def _check_gravonon_modes(p, sampling):
    diagonalize(_omega(p))  # exact symmetry, residual and orthonormality
    return ["check: frequency-matrix symmetry ok", "check: mode diagonalization ok"]


# ---------------------------------------------------------------------------
# meanfield

# largest |grid norm - 1| of an initial packet: the norm-drift bound a run is
# held to; a resolved packet well inside the grid is off by ~1e-13
PACKET_NORM_TOL = 1e-6


def _packet(p, x, field):
    """Gaussian of ``field`` ("packet" or "zeta") whose grid norm is its
    continuum norm 1 within ``PACKET_NORM_TOL``."""
    key = field + "_width"
    with np.errstate(all="ignore"):
        try:
            packet = meanfield.gaussian_packet(
                x, p[field + "_center"], p[key], p[field + "_momentum"]
            )
        except ZeroDivisionError:  # (pi w^2)^(-1/4) once w^2 underflows to 0
            packet = np.zeros_like(x)
        norm = np.sum(np.abs(packet) ** 2) * (x[1] - x[0])
    if not abs(norm - 1.0) <= PACKET_NORM_TOL:  # NaN fails too
        raise ConfigError(
            f"the packet's grid norm {norm:.6g} differs from 1 by more than "
            f"{PACKET_NORM_TOL:g} (width too narrow for the grid spacing or too "
            "wide for the grid, or centred off or near its edge)",
            key=key,
        )
    return packet


def _grid_state(p):
    """Initial fields on the grid; zeta_width = auto leaves zeta at zero."""
    if p["x_max"] <= p["x_min"]:
        raise ConfigError("x_max must exceed x_min", key="x_max")
    if _overflows(p["x_min"], p["x_max"], p["n_points"]):
        raise ConfigError("the x grid from x_min to x_max overflows", key="x_max")
    x = np.linspace(p["x_min"], p["x_max"], p["n_points"])
    psi = _packet(p, x, "packet")
    zeta = np.zeros_like(psi) if p["zeta_width"] is None else _packet(p, x, "zeta")
    return meanfield.GridState(
        x_min=p["x_min"], x_max=p["x_max"], n_points=p["n_points"],
        psi=psi, zeta=zeta, m=p["m"], m_g=p["m_g"], g_newton=p["g_newton"],
        d_spatial=p["d_spatial"], v_o=p["v_o"], softening=p["softening"],
    )


def _run_meanfield(p, sampling, prefix: Path):
    series = meanfield.run(
        _grid_state(p), sampling["dt"], sampling["n_steps"],
        sample_every=sampling["sample_every"],
    )
    columns = (series.times, *series.channels.values())
    return {_out(prefix, ".csv"): _csv(["t", *series.channels], columns)}


def _check_meanfield(p, sampling):
    """Check line for dt, the profiles and the run's first step (if any)."""
    state = _grid_state(p)
    march = meanfield.stepper(state, sampling["dt"])
    list(march(state.psi, state.zeta, min(sampling["n_steps"], 1)))
    return ["check: step-size stability bound ok"]


# ---------------------------------------------------------------------------
# dimensional


def _g11_rows(p):
    constants = dimensional.PhysicalConstants(G=p["g_newton"])
    try:
        return dimensional.g11_table(constants, radii=tuple(p["radii"]))
    except ValueError as exc:
        raise ConfigError(str(exc), key="radii") from None


def _run_dimensional(p, sampling, prefix: Path):
    columns = zip(*_g11_rows(p))
    return {_out(prefix, ".csv"): _csv(["a", "g11", "g11_over_pi7"], columns)}


def _check_dimensional(p, sampling):
    _g11_rows(p)
    return ["check: constants positive ok"]


# ---------------------------------------------------------------------------
# scenario table


class _Scenario(NamedTuple):
    run: Callable  # (parameters, sampling, prefix) -> {path: text}
    check: Callable  # (parameters, sampling) -> check lines
    # sweep bases: points that share an independent part of their model share
    # its solve; building a point's parts runs every check that precedes it
    parts: Callable | None = None  # (parameters, sampling) -> hashable parts
    solve: Callable | None = None  # (part, its solve's ``_head_rows``, sampling) -> solution
    # (a block of points' parameters, each one's parts' solutions) -> their row
    # statistics; ``_run_sweep`` passes at most ``_POINT_BLOCK`` points at once
    points: Callable | None = None


_SCENARIOS = {
    "chooser": _Scenario(
        _run_chooser, _check_chooser,
        _chooser_part, _solve_chooser, lambda points, solutions: [s[0] for s in solutions],
    ),
    "telegraph": _Scenario(
        _run_telegraph, _check_telegraph,
        telegraph_params_from, _solve_telegraph, _points_telegraph,
    ),
    "gravonon-modes": _Scenario(_run_gravonon_modes, _check_gravonon_modes),
    "meanfield": _Scenario(_run_meanfield, _check_meanfield),
    "dimensional": _Scenario(_run_dimensional, _check_dimensional),
}


# ---------------------------------------------------------------------------
# sweep


def _grid(cfg: ScenarioConfig):
    """Axis names, each grid point's parameters in a fixed order, and each
    point's parts, admitted for a run. A sweep's run and its ``--check``
    both call this.

    A point's parameters are the sweep's fixed keys with that point's axis
    values on top. ``grid_cap`` is checked on the axis lengths before any
    point is built, and building a point's parts runs every check that
    precedes its solve; ``--check`` then solves every distinct part once.
    """
    names = sorted(cfg.sweep_axes)
    size = math.prod(len(cfg.sweep_axes[name]) for name in names)
    cap = cfg.parameters["grid_cap"]
    if size > cap:
        raise SizeLimitError(
            f"sweep grid has {size} points, exceeding grid_cap={cap}"
        )
    combos = itertools.product(*(cfg.sweep_axes[name] for name in names))
    points = [{**cfg.parameters, **dict(zip(names, c))} for c in combos]
    base = _SCENARIOS[cfg.parameters["base"]]
    return names, points, [base.parts(p, cfg.sampling) for p in points]


_POINT_BLOCK = 16  # grid points reduced at once: 2 arrays of 8 B per sample each


def _run_sweep(cfg: ScenarioConfig, prefix: Path, threads: int):
    """CSV of a sweep: one row of statistics per grid point, in grid order.

    Each distinct part is solved once, for this sweep only: on the calling
    thread for one worker, else in a pool of ``threads`` workers, clamped to
    the parts, the CPUs and the memory cap of parts held at once. Either way
    the first part that raises, in grid order, ends the run. The base's
    ``points`` then reduces the rows ``_POINT_BLOCK`` points at a time,
    within the bytes per sample ``_part_bytes`` counts.
    """
    names, points, parts = _grid(cfg)
    base = _SCENARIOS[cfg.parameters["base"]]
    distinct = list(dict.fromkeys(itertools.chain.from_iterable(parts)))
    per_worker = max((_part_bytes(p, cfg.sampling["n_times"]) for p in distinct), default=1)
    workers = max(1, min(
        threads, len(distinct), os.cpu_count() or 1, DEFAULT_MEMORY_CAP // per_worker
    ))

    def solve(part):  # the full eigenvectors go before the reduction's evolve
        return base.solve(part, _head_rows(part, _diagonalize(part)), cfg.sampling)

    if workers == 1:
        solved = dict(zip(distinct, map(solve, distinct)))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            solved = dict(zip(distinct, pool.map(solve, distinct)))
    stats = []
    for s in range(0, len(points), _POINT_BLOCK):
        block = slice(s, s + _POINT_BLOCK)
        stats += base.points(points[block], [[solved[p] for p in ps] for ps in parts[block]])

    header = ["grid_index"] + names + ["plateau", "decay_rate", "switching_count"]
    columns = [
        range(len(points)),
        *([p[name] for p in points] for name in names),
        *([stat[k] for stat in stats] for k in range(3)),
    ]
    return {_out(prefix, ".csv"): _csv(header, columns)}


# ---------------------------------------------------------------------------
# entry point


def _check(cfg: ScenarioConfig):
    """Invariant suite on the configured model (a sweep: every point's
    parameters and time window, then each distinct part its run solves,
    reduced as the run reduces it)."""
    if cfg.scenario == "sweep":
        parts = _grid(cfg)[2]
        if not parts:
            return ["check: sweep grid is empty, nothing to check"]
        distinct = dict.fromkeys(itertools.chain.from_iterable(parts))
        return _check_parts(distinct, cfg.sampling, _SCENARIOS[cfg.parameters["base"]].solve)
    return _SCENARIOS[cfg.scenario].check(cfg.parameters, cfg.sampling)


def run_scenario(cfg: ScenarioConfig, out_prefix=None, threads=1):
    """Execute a validated scenario; returns {path: text} of outputs."""
    prefix = out_prefix if out_prefix is not None else cfg.output_prefix
    if prefix is None:
        raise ConfigError(
            "no output prefix: provide [output] prefix or --out", key="prefix"
        )
    prefix = Path(prefix)
    if cfg.scenario == "sweep":
        return _run_sweep(cfg, prefix, threads)
    return _SCENARIOS[cfg.scenario].run(cfg.parameters, cfg.sampling, prefix)


def _write_outputs(outputs):
    for path, text in outputs.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravodyn",
        description="Run a configured quantum-dynamics scenario and write CSV.",
    )
    parser.add_argument("config", help="path to a scenario config file")
    parser.add_argument("--out", help="output path prefix (overrides [output])")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweep grids (default 1)")
    parser.add_argument("--check", action="store_true",
                        help="run the invariant suite on the configured model "
                             "and exit without writing outputs")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.check:
            for line in _check(cfg):
                print(line)
            return EXIT_OK
        outputs = run_scenario(cfg, out_prefix=args.out, threads=args.threads)
        _write_outputs(outputs)
        for path in sorted(outputs):
            print(f"wrote {path}")
        return EXIT_OK
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ContractViolationError as exc:
        print(f"numerical contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
