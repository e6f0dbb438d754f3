"""The benchmark's workloads: seeded configs, one timed pass, output checks.

Each workload writes its generated configs into a work directory and loads
them there, so gravodyn only ever sees generated configs. Seed 0 uses the
configs exactly as shipped (or as stored in ``perfbench/configs``); any other
seed varies coupling values only, inside ranges that keep every matrix
dimension, grid size, sample count and output check unchanged.

A workload has three steps per pass:

* ``execute()`` is the timed part and returns the raw result;
* ``collect(raw)`` turns it into ``{output name: bytes}`` (untimed);
* ``check(outputs)`` returns a description of what is wrong, or None.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from pathlib import Path

import numpy as np

from gravodyn import cli, config

BENCH_CONFIGS = Path(__file__).resolve().parent / "configs"

# Shipped configs run by shipped_suite: every one except sweep_decay, which
# is a workload of its own.
SUITE = (
    "chooser_demo",
    "chooser_collapse",
    "telegraph_switching",
    "meanfield_free_packet",
    "sweep_residue",
    "gravonon_chain",
    "dimensional_table",
)

DOCUMENTED_V_GW_1 = 0.1294
DOCUMENTED_WEIGHT = 0.6


# ---------------------------------------------------------------------------
# seeded config variation


def _line(text, key):
    match = re.search(rf"^{re.escape(key)}[ \t]*=[ \t]*([^#\n]*?)[ \t]*(#.*)?$", text, re.M)
    if match is None:
        raise KeyError(f"config has no {key!r} line")
    return match


def _values(text, key):
    return [float(v) for v in _line(text, key).group(1).split(",")]


def _replace(text, key, values):
    match = _line(text, key)
    new = ", ".join(repr(float(v)) for v in values)
    return text[: match.start(1)] + new + text[match.end(1):]


def _scale(text, key, rng, lo, hi, keep=()):
    """Multiply each value of ``key`` by a factor drawn from [lo, hi]."""
    values = [v if v in keep else v * rng.uniform(lo, hi) for v in _values(text, key)]
    return _replace(text, key, values)


def _shift(text, key, rng, half_width):
    return _replace(text, key, [v + rng.uniform(-half_width, half_width)
                                for v in _values(text, key)])


def _vary_decay(text, rng):
    # slope 2 of decay_rate vs u holds for any u set in this range
    return _scale(text, "sweep_u", rng, 0.9, 1.1)


def _vary_telegraph_sweep(text, rng):
    # the documented switching point stays on the grid unchanged
    text = _scale(text, "sweep_v_gw_1", rng, 0.9, 1.1, keep=(DOCUMENTED_V_GW_1,))
    return _scale(text, "v_gw_2", rng, 0.99, 1.01)


def _vary_meanfield(text, rng):
    text = _shift(text, "packet_center", rng, 1.0)
    return _shift(text, "zeta_center", rng, 1.0)


_SUITE_VARIATION = {
    "chooser_demo": lambda t, r: _scale(t, "u", r, 0.9, 1.1),
    "chooser_collapse": lambda t, r: _scale(t, "u", r, 0.9, 1.1),
    "sweep_residue": lambda t, r: _scale(t, "u", r, 0.9, 1.1),
    "telegraph_switching": lambda t, r: _scale(
        _scale(t, "v_gw_1", r, 0.98, 1.02), "v_gw_2", r, 0.98, 1.02
    ),
    "meanfield_free_packet": lambda t, r: _shift(t, "packet_center", r, 2.0),
}


def _generate(source: Path, seed, vary):
    text = source.read_text(encoding="utf-8")
    if seed == 0 or vary is None:
        return text
    return vary(text, random.Random(f"{seed}:{source.stem}"))


# ---------------------------------------------------------------------------
# output parsing


def _table(data: bytes):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _floats(column):
    return np.array([float(v) for v in column])


def _report(data: bytes):
    pairs = (line.split(" = ", 1) for line in data.decode("utf-8").splitlines())
    return {key: value for key, value in pairs}


# ---------------------------------------------------------------------------
# workloads


class ScenarioWorkload:
    """One generated config run in process through ``cli.run_scenario``.

    The config is parsed once at set-up; a pass goes from the parsed config
    to the CSV bytes, with outputs kept in memory.
    """

    def __init__(self, name, source, seed, workdir: Path, vary):
        path = workdir / f"{name}.cfg"
        path.write_text(_generate(source, seed, vary), encoding="utf-8")
        self.cfg = config.load_config(path)
        self.prefix = workdir / name

    def execute(self):
        outputs = cli.run_scenario(self.cfg, out_prefix=self.prefix, threads=1)
        return {path.name: text.encode("utf-8") for path, text in outputs.items()}

    def collect(self, raw):
        return raw


class DecaySweep(ScenarioWorkload):
    def check(self, outputs):
        table = _table(outputs["decay_sweep.csv"])
        u, rate = _floats(table["u"]), _floats(table["decay_rate"])
        if len(u) != 3:
            return f"expected 3 sweep points, got {len(u)}"
        slope = np.polyfit(np.log(u), np.log(rate), 1)[0]
        if not abs(slope - 2.0) <= 0.1:
            return f"log-log slope of decay_rate vs u is {slope:.4f}, not 2 +- 0.1"
        return None


class TelegraphSweep(ScenarioWorkload):
    def check(self, outputs):
        table = _table(outputs["telegraph_sweep.csv"])
        plateau = _floats(table["plateau"])
        if len(plateau) != 16:
            return f"expected 16 sweep points, got {len(plateau)}"
        if not np.all((plateau >= 0.0) & (plateau <= 1.0)):
            return "a band-weight channel leaves [0, 1]"
        v_gw_1, weight = _floats(table["v_gw_1"]), _floats(table["weight_site1"])
        documented = np.flatnonzero((v_gw_1 == DOCUMENTED_V_GW_1) & (weight == DOCUMENTED_WEIGHT))
        if len(documented) != 1:
            return "documented switching point missing from the grid"
        count = int(table["switching_count"][documented[0]])
        if count < 2:
            return f"documented point switches {count} times, expected >= 2"
        return None


class MeanfieldGrid(ScenarioWorkload):
    def check(self, outputs):
        table = _table(outputs["meanfield_grid.csv"])
        if len(table["t"]) != 41:
            return f"expected 41 samples, got {len(table['t'])}"
        for column in ("norm_psi", "norm_zeta"):
            norms = _floats(table[column])
            drift = float(np.max(np.abs(norms - norms[0])))
            if not drift <= 1e-6:
                return f"{column} drifts by {drift:.3e} > 1e-6"
        return None


class ShippedSuite:
    """Every other shipped config through ``cli.main``: run, then ``--check``.

    A pass writes real files into the work directory; ``collect`` reads
    them back and removes them, so a pass that fails to write shows up as a
    missing output. Exit codes are part of the outputs.
    """

    def __init__(self, root: Path, seed, workdir: Path):
        self.runs = []
        for name in SUITE:
            path = workdir / f"{name}.cfg"
            source = root / "scripts" / "configs" / f"{name}.cfg"
            path.write_text(_generate(source, seed, _SUITE_VARIATION.get(name)),
                            encoding="utf-8")
            self.runs.append((name, path, workdir / "out" / name))
        self.outdir = workdir / "out"

    def execute(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for name, path, prefix in self.runs:
                codes.append((name, "run", cli.main(
                    [str(path), "--out", str(prefix), "--threads", "1"])))
                codes.append((name, "check", cli.main([str(path), "--check"])))
        return codes

    def collect(self, raw):
        outputs = {"exit_codes": "".join(f"{n} {mode} {code}\n" for n, mode, code in raw).encode()}
        if self.outdir.is_dir():
            for path in sorted(self.outdir.iterdir()):
                outputs[path.name] = path.read_bytes()
                path.unlink()
        return outputs

    def check(self, outputs):
        for line in outputs["exit_codes"].decode().splitlines():
            if not line.endswith(" 0"):
                return f"nonzero exit: {line}"
        for name in ("chooser_demo", "chooser_collapse"):
            data = outputs.get(f"{name}_report.txt")
            if data is None:
                return f"{name} wrote no report"
            report = _report(data)
            plateau = float(report["plateau_band_weight_last_20_percent"])
            target = float(report["analytic_plateau"])
            if not math.isfinite(plateau) or abs(plateau - target) > 0.05:
                return f"{name} plateau {plateau} is not within 0.05 of {target}"
        return None


def make(name, root: Path, seed, workdir: Path):
    shipped = root / "scripts" / "configs"
    if name == "decay_sweep":
        return DecaySweep(name, shipped / "sweep_decay.cfg", seed, workdir, _vary_decay)
    if name == "telegraph_sweep":
        return TelegraphSweep(name, BENCH_CONFIGS / "telegraph_sweep.cfg", seed,
                              workdir, _vary_telegraph_sweep)
    if name == "meanfield_grid":
        return MeanfieldGrid(name, BENCH_CONFIGS / "meanfield_grid.cfg", seed,
                             workdir, _vary_meanfield)
    if name == "shipped_suite":
        return ShippedSuite(root, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
