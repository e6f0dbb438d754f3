"""Scenario runner: parse a config, run the model, emit CSV and reports.

All outputs are assembled in memory and written together at the end, so a
failing run never leaves partial files behind. Reruns of the same config
produce bit-identical bytes (there is no randomness anywhere in the package
and float formatting is fixed to 12 significant digits).

Exit codes: 0 success, 2 config error, 3 numerical-contract violation,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analytic, dimensional, meanfield
from .config import ScenarioConfig, load_config
from .errors import ConfigError, ContractViolationError, SizeLimitError
from .fock import ModeSpace
from .gravonon import SiteBasis, build_omega, diagonalize_modes
from .models import (
    ChooserParams,
    TelegraphParams,
    build_chooser,
    build_telegraph,
    telegraph_grav_layout,
)
from .propagator import diagonalize, evolve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONTRACT = 3
EXIT_RESOURCE = 4

_FLOAT_FMT = "%.11e"  # 12 significant digits, scientific


def _out(prefix: Path, ext: str) -> Path:
    return Path(str(prefix) + ext)


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return _FLOAT_FMT % float(value)


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# chooser


def _chooser_params(p):
    delta = p["delta"]
    if delta is None:
        delta = math.pi * abs(p["u"])  # self-consistent band width pi*gamma
    return ChooserParams(
        v=p["v"], w=p["w"], n_band=p["n_band"], delta=delta, u=p["u"],
        alpha=p["alpha"],
    )


def _chooser_series(params: ChooserParams, sampling):
    gamma = analytic.gamma_from(params.u, params.delta)
    t_final = sampling["t_final"]
    if t_final is None:
        if gamma == 0.0:
            raise ConfigError("t_final = auto needs u != 0", key="t_final")
        t_final = 5.0 / gamma
    times = np.linspace(0.0, t_final, sampling["n_times"])
    ham = build_chooser(params)
    dec = diagonalize(ham)
    psi0 = np.zeros(ham.dim, dtype=complex)
    if params.v == 0.0 and params.w == 0.0:
        # w = 0 limit of the zero eigenvector: all weight on the projected
        # band state; lets decay-rate studies start from a pure resonance.
        psi0[2] = 1.0
    else:
        psi0[0], psi0[1], psi0[2] = analytic.zero_state_coeffs(
            params.v, params.w
        )
    states = evolve(dec, psi0, times)
    weights = np.abs(states) ** 2
    w_q0 = weights[:, 0]
    w_r0 = weights[:, 1]
    w_kproj = weights[:, 2]
    w_band = weights[:, 3:].sum(axis=1)
    return gamma, times, w_q0, w_r0, w_kproj, w_band


def _run_chooser(cfg: ScenarioConfig, prefix: Path):
    params = _chooser_params(cfg.parameters)
    gamma, times, w_q0, w_r0, w_kproj, w_band = _chooser_series(
        params, cfg.sampling
    )
    rows = zip(times, w_q0, w_r0, w_kproj, w_band)
    csv_text = _csv(["t", "w_Q0", "w_R0", "w_Kproj", "w_band"], rows)

    analytic_band = analytic.band_weight(times, params.u, params.w, gamma)
    window = times >= 1.0 / gamma
    deviation = float(np.max(np.abs(w_band[window] - analytic_band[window])))
    tail = times >= times[-1] * 0.8
    plateau = float(np.mean(w_band[tail]))
    target = 1.0 - (params.w / params.u) ** 2
    report = "scenario = chooser\n" + "".join(
        f"{key} = {_fmt(value)}\n"
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


# ---------------------------------------------------------------------------
# telegraph


def telegraph_params_from(p):
    return TelegraphParams(
        e_g1=p["e_g1"], e_g2=p["e_g2"], e_w1=p["e_w1"], e_w2=p["e_w2"],
        v_loc_1=p["v_loc_1"], v_loc_2=p["v_loc_2"],
        eps_grav_1=p["eps_grav_1"], eps_grav_2=p["eps_grav_2"],
        band_1=list(p["band_1"]), band_2=list(p["band_2"]),
        v_gw_1=p["v_gw_1"], v_gw_2=p["v_gw_2"],
    )


def telegraph_channels(params: TelegraphParams, weight_site1, times):
    """Site-resolved gravonon-band weights for the two-site superposition.

    The initial state holds the matter quantum in the warp resonance of each
    site (amplitudes sqrt(weight) / sqrt(1-weight)) and the gravonon quantum
    in the corresponding local mode; the channels sum the squared amplitudes
    of configurations whose gravonon quantum sits in each site's band.
    """
    if not 0.0 <= weight_site1 <= 1.0:
        raise ConfigError("weight_site1 must lie in [0, 1]", key="weight_site1")
    n_grav = 2 + len(params.band_1) + len(params.band_2)
    space = ModeSpace(
        n_matter_modes=4, n_gravonon_modes=n_grav, n_max=1,
        sector=1, grav_sector=1,
    )
    ham = build_telegraph(params, space)
    s1_loc, s1_band, s2_loc, s2_band = telegraph_grav_layout(params)
    w1_mode, w2_mode = 1, 3  # matter layout [g1, w1, g2, w2]

    def locate(matter_idx, grav_idx):
        for i, c in enumerate(ham.configs):
            if c.matter_occ[matter_idx] == 1 and c.grav_occ[grav_idx] == 1:
                return i
        raise ContractViolationError("configuration space lacks initial state")

    psi0 = np.zeros(ham.dim, dtype=complex)
    psi0[locate(w1_mode, s1_loc)] = math.sqrt(weight_site1)
    psi0[locate(w2_mode, s2_loc)] = math.sqrt(1.0 - weight_site1)
    group_1 = [i for i, c in enumerate(ham.configs)
               if any(c.grav_occ[k] for k in s1_band)]
    group_2 = [i for i, c in enumerate(ham.configs)
               if any(c.grav_occ[k] for k in s2_band)]
    loc_1 = [i for i, c in enumerate(ham.configs) if c.grav_occ[s1_loc] == 1]
    loc_2 = [i for i, c in enumerate(ham.configs) if c.grav_occ[s2_loc] == 1]

    dec = diagonalize(ham)
    states = evolve(dec, psi0, times)
    weights = np.abs(states) ** 2
    return (
        weights[:, group_1].sum(axis=1),
        weights[:, group_2].sum(axis=1),
        weights[:, loc_1].sum(axis=1),
        weights[:, loc_2].sum(axis=1),
    )


def switching_count(channel_1, channel_2):
    """Number of dominance alternations: sign changes of channel_1-channel_2."""
    sign = np.sign(channel_1 - channel_2)
    return int(np.sum(sign[1:] * sign[:-1] < 0))


def _run_telegraph(cfg: ScenarioConfig, prefix: Path):
    params = telegraph_params_from(cfg.parameters)
    times = np.linspace(0.0, cfg.sampling["t_final"], cfg.sampling["n_times"])
    band_1, band_2, loc_1, loc_2 = telegraph_channels(
        params, cfg.parameters["weight_site1"], times
    )
    rows = zip(times, band_1, band_2, loc_1, loc_2)
    csv_text = _csv(
        ["t", "w_band_site1", "w_band_site2", "w_loc_site1", "w_loc_site2"], rows
    )
    return {_out(prefix, ".csv"): csv_text}


# ---------------------------------------------------------------------------
# gravonon-modes


def _run_gravonon_modes(cfg: ScenarioConfig, prefix: Path):
    p = cfg.parameters
    basis = SiteBasis(
        positions=tuple(p["positions"]),
        envelope_width=p["envelope_width"],
        vgrav_values=tuple(p["vgrav"]),
        theta=p["theta"], m_g=p["m_g"], v_o=p["v_o"],
    )
    spectrum = diagonalize_modes(build_omega(basis))
    rows = [(i, f) for i, f in enumerate(spectrum.frequencies)]
    return {_out(prefix, ".csv"): _csv(["mode_index", "frequency"], rows)}


# ---------------------------------------------------------------------------
# meanfield


def _run_meanfield(cfg: ScenarioConfig, prefix: Path):
    p = cfg.parameters
    x = np.linspace(p["x_min"], p["x_max"], p["n_points"])
    psi = meanfield.gaussian_packet(
        x, p["packet_center"], p["packet_width"], p["packet_momentum"]
    )
    if p["zeta_width"] is None:
        zeta = np.zeros_like(psi)
    else:
        zeta = meanfield.gaussian_packet(
            x, p["zeta_center"], p["zeta_width"], p["zeta_momentum"]
        )
    state = meanfield.GridState(
        x_min=p["x_min"], x_max=p["x_max"], n_points=p["n_points"],
        psi=psi, zeta=zeta, m=p["m"], m_g=p["m_g"], g_newton=p["g_newton"],
        d_spatial=p["d_spatial"], v_o=p["v_o"], k=p["k"],
        softening=p["softening"],
    )
    series = meanfield.run(
        state, cfg.sampling["dt"], cfg.sampling["n_steps"],
        sample_every=cfg.sampling["sample_every"],
    )
    names = list(series.channels)
    rows = [
        (t,) + tuple(series.channels[name][i] for name in names)
        for i, t in enumerate(series.times)
    ]
    return {_out(prefix, ".csv"): _csv(["t"] + names, rows)}


# ---------------------------------------------------------------------------
# dimensional


def _run_dimensional(cfg: ScenarioConfig, prefix: Path):
    p = cfg.parameters
    constants = dimensional.PhysicalConstants(G=p["g_newton"], c=p["c"])
    rows = dimensional.g11_table(constants, radii=tuple(p["radii"]))
    return {
        _out(prefix, ".csv"): _csv(["a", "g11", "g11_over_pi7"], rows)
    }


# ---------------------------------------------------------------------------
# sweep


def _grid_points(axes: dict):
    """Cartesian product of sweep axes; deterministic row order."""
    names = sorted(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return names, [dict(zip(names, combo)) for combo in combos]


def _sweep_point_chooser(parameters, sampling, overrides):
    merged = dict(parameters)
    merged.update(overrides)
    merged.pop("base", None)
    merged.pop("grid_cap", None)
    params = _chooser_params(merged)
    gamma, times, _, _, w_kproj, w_band = _chooser_series(params, sampling)
    if gamma == 0.0:
        raise ConfigError("the decay-rate fit window needs u != 0", key="u")
    tail = times >= times[-1] * 0.8
    plateau = float(np.mean(w_band[tail]))
    fit_window = (times >= 0.5 / gamma) & (times <= 2.5 / gamma)
    slope, _ = np.polyfit(
        times[fit_window], np.log(w_kproj[fit_window]), 1
    )
    return plateau, float(-slope), None


def _sweep_point_telegraph(parameters, sampling, overrides):
    merged = dict(parameters)
    merged.update(overrides)
    merged.pop("base", None)
    merged.pop("grid_cap", None)
    weight = merged.pop("weight_site1")
    params = telegraph_params_from(merged)
    times = np.linspace(0.0, sampling["t_final"], sampling["n_times"])
    band_1, band_2, _, _ = telegraph_channels(params, weight, times)
    plateau = float(np.percentile(band_1, 95))
    return plateau, None, switching_count(band_1, band_2)


def _run_sweep(cfg: ScenarioConfig, prefix: Path, threads: int):
    base = cfg.parameters["base"]
    names, points = _grid_points(cfg.sweep_axes)
    cap = cfg.parameters["grid_cap"]
    if len(points) > cap:
        raise SizeLimitError(
            f"sweep grid has {len(points)} points, exceeding grid_cap={cap}"
        )
    worker = (
        _sweep_point_chooser if base == "chooser" else _sweep_point_telegraph
    )

    def run_point(overrides):
        return worker(cfg.parameters, cfg.sampling, overrides)

    if points:
        with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
            stats = list(pool.map(run_point, points))
    else:
        stats = []

    header = ["grid_index"] + names + ["plateau", "decay_rate", "switching_count"]
    rows = [
        (i, *(point[name] for name in names), *stat)
        for i, (point, stat) in enumerate(zip(points, stats))
    ]
    return {_out(prefix, ".csv"): _csv(header, rows)}


# ---------------------------------------------------------------------------
# --check: invariant suite on the configured model


def _check(cfg: ScenarioConfig):
    lines = []
    if cfg.scenario in ("chooser", "telegraph", "sweep"):
        if cfg.scenario == "sweep":
            # check the base model at the first grid point
            names, points = _grid_points(cfg.sweep_axes)
            merged = dict(cfg.parameters)
            if points:
                merged.update(points[0])
            merged.pop("base", None)
            merged.pop("grid_cap", None)
            if cfg.parameters["base"] == "chooser":
                ham = build_chooser(_chooser_params(merged))
            else:
                merged.pop("weight_site1", None)
                params = telegraph_params_from(merged)
                n_grav = 2 + len(params.band_1) + len(params.band_2)
                ham = build_telegraph(
                    params,
                    ModeSpace(4, n_grav, 1, sector=1, grav_sector=1),
                )
        elif cfg.scenario == "chooser":
            ham = build_chooser(_chooser_params(cfg.parameters))
        else:
            params = telegraph_params_from(cfg.parameters)
            n_grav = 2 + len(params.band_1) + len(params.band_2)
            ham = build_telegraph(
                params, ModeSpace(4, n_grav, 1, sector=1, grav_sector=1)
            )
        if not np.array_equal(ham.entries, ham.entries.conj().T):
            raise ContractViolationError("Hamiltonian is not exactly Hermitian")
        lines.append("check: exact Hermiticity ok")
        dec = diagonalize(ham)  # enforces residual/orthonormality contracts
        lines.append("check: spectral decomposition residuals ok")
        psi0 = np.zeros(ham.dim, dtype=complex)
        psi0[0] = 1.0
        times = np.linspace(0.0, 1.0, 8)
        states = evolve(dec, psi0, times)
        norms = np.linalg.norm(states, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-10:
            raise ContractViolationError("norm not conserved to 1e-10")
        lines.append("check: unitary norm conservation ok")
    elif cfg.scenario == "gravonon-modes":
        p = cfg.parameters
        basis = SiteBasis(
            positions=tuple(p["positions"]),
            envelope_width=p["envelope_width"],
            vgrav_values=tuple(p["vgrav"]),
            theta=p["theta"], m_g=p["m_g"], v_o=p["v_o"],
        )
        omega = build_omega(basis)
        if not np.array_equal(omega, omega.T):
            raise ContractViolationError("frequency matrix is not symmetric")
        lines.append("check: frequency-matrix symmetry ok")
        diagonalize_modes(omega)
        lines.append("check: mode diagonalization ok")
    elif cfg.scenario == "meanfield":
        p = cfg.parameters
        x = np.linspace(p["x_min"], p["x_max"], p["n_points"])
        psi = meanfield.gaussian_packet(
            x, p["packet_center"], p["packet_width"], p["packet_momentum"]
        )
        state = meanfield.GridState(
            x_min=p["x_min"], x_max=p["x_max"], n_points=p["n_points"],
            psi=psi, zeta=np.zeros_like(psi), m=p["m"], m_g=p["m_g"],
            g_newton=p["g_newton"], d_spatial=p["d_spatial"],
            v_o=p["v_o"], k=p["k"], softening=p["softening"],
        )
        meanfield.check_stability(state, cfg.sampling["dt"])
        lines.append("check: step-size stability bound ok")
    else:  # dimensional
        p = cfg.parameters
        dimensional.PhysicalConstants(G=p["g_newton"], c=p["c"])
        lines.append("check: constants positive ok")
    return lines


# ---------------------------------------------------------------------------
# entry point


def run_scenario(cfg: ScenarioConfig, out_prefix=None, threads=1):
    """Execute a validated scenario; returns {path: text} of outputs."""
    prefix = out_prefix if out_prefix is not None else cfg.output_prefix
    if prefix is None:
        raise ConfigError(
            "no output prefix: provide [output] prefix or --out", key="prefix"
        )
    prefix = Path(prefix)
    if cfg.scenario == "chooser":
        return _run_chooser(cfg, prefix)
    if cfg.scenario == "telegraph":
        return _run_telegraph(cfg, prefix)
    if cfg.scenario == "gravonon-modes":
        return _run_gravonon_modes(cfg, prefix)
    if cfg.scenario == "meanfield":
        return _run_meanfield(cfg, prefix)
    if cfg.scenario == "dimensional":
        return _run_dimensional(cfg, prefix)
    if cfg.scenario == "sweep":
        return _run_sweep(cfg, prefix, threads)
    raise ConfigError(f"unknown scenario {cfg.scenario!r}", key="scenario")


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
