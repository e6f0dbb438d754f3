"""Schema-driven fuzz of the runner: every input the config grammar accepts
ends in exit 0, 2, 3 or 4, in a run and in ``--check``, never in a
traceback, a failed run writes no files, and a run that exits 0 writes no
``nan`` or ``inf``. Outside sweeps, ``--check`` refuses what the run
refuses, with the same exit code and stderr (a sweep's ``--check`` fits
no point, so its run may still refuse a decay-rate fit).

Each case starts from a small valid config (``BASELINES``). Up to three
keys of its scenario's schema in ``config._SCHEMAS`` (a sweep's from
``config._sweep_schema`` of its base), any key of it, are left out or
drawn anew: in range, at or one float past a bound of the schema, anywhere
in float range, ``auto``, or ``inf``/``-inf``/``nan`` text. Counts stay small (``LIMITS``) and
``--threads`` at most 2, so no draw allocates much memory or starts many
threads.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravodyn import cli, config

_TELEGRAPH = {
    "e_g1": "0.0", "e_g2": "0.0", "e_w1": "0.0", "e_w2": "0.0",
    "v_loc_1": "0.0", "v_loc_2": "0.0", "eps_grav_1": "0.0", "eps_grav_2": "0.0",
    "band_1": "linspace(-1.0, 1.0, 8)", "band_2": "linspace(-0.575, 0.575, 8)",
    "v_gw_1": "0.1294", "v_gw_2": "0.0760", "weight_site1": "0.6",
    "n_times": "64", "t_final": "131.0",
}
BASELINES = {  # case -> (scenario, a valid config's values by key)
    "chooser": ("chooser", {
        "v": "1e-4", "w": "1e-5", "u": "1e-3", "n_band": "32", "delta": "auto",
        "n_times": "64", "t_final": "auto",
    }),
    "telegraph": ("telegraph", _TELEGRAPH),
    "gravonon-modes": ("gravonon-modes", {
        "positions": "-4.0, -2.0, 0.0, 2.0, 4.0", "envelope_width": "1.0",
        "vgrav": "0.1, 0.1, 0.1, 0.1, 0.1",
    }),
    "meanfield": ("meanfield", {
        "x_min": "-40.0", "x_max": "40.0", "n_points": "64", "packet_center": "0.0",
        "packet_width": "2.0", "dt": "0.02", "n_steps": "8", "sample_every": "2",
    }),
    # both fields live and coupled, so draws reach both potentials' coefficients
    "meanfield-coupled": ("meanfield", {
        "x_min": "-40.0", "x_max": "40.0", "n_points": "64", "g_newton": "0.5",
        "softening": "1.0", "packet_center": "-3.0", "packet_width": "2.0",
        "zeta_center": "3.0", "zeta_width": "2.5", "dt": "0.02", "n_steps": "8",
        "sample_every": "2",
    }),
    "dimensional": ("dimensional", {}),
    "sweep-chooser": ("sweep", {
        "base": "chooser", "grid_cap": "16", "v": "1e-2", "u": "1e-3", "n_band": "32",
        "delta": "auto", "sweep_w": "5e-5, 1e-4", "n_times": "64", "t_final": "auto",
    }),
    "sweep-telegraph": ("sweep", {
        **{k: v for k, v in _TELEGRAPH.items() if k not in ("v_gw_1", "weight_site1")},
        "base": "telegraph", "grid_cap": "16",
        "sweep_v_gw_1": "0.07, 0.1294", "sweep_weight_site1": "0.3, 0.6",
    }),
}
LIMITS = {  # the largest count drawn for an int key; any other int key: 4
    "n_band": 64, "n_times": 64, "n_points": 64, "n_steps": 8, "sample_every": 8,
    "grid_cap": 16,
}
NONFINITE = ("inf", "-inf", "nan")


def _numbers(spec):
    """Floats of a float kind: typical, anywhere finite, or at a bound."""
    bounds = [b for b in (spec.minimum, spec.maximum, spec.above) if b is not None]
    edges = [
        x for b in bounds for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
    ]
    return st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(edges or [0.0, -0.0, 5e-324]),
    )


def _token(key, spec):
    """Config text of one value of ``key``."""
    if spec.kind == "str":
        return st.sampled_from([*spec.choices, "none"])
    if spec.kind == "int":
        low = int(spec.minimum) if spec.minimum is not None else 0
        counts = st.integers(low - 2, LIMITS.get(key, 4)).map(str)
        return st.one_of(counts, st.sampled_from(["auto", "1.5", *NONFINITE]))
    numbers = _numbers(spec)
    if spec.kind == "floats":
        lists = st.lists(numbers, max_size=16)
        return st.one_of(
            lists.map(lambda xs: ", ".join(map(repr, xs))),
            lists.map(lambda xs: ", ".join(map(repr, sorted(xs)))),
            st.builds("linspace({!r}, {!r}, {})".format, numbers, numbers, st.integers(-1, 16)),
            st.sampled_from(["auto", *NONFINITE]),
        )
    return st.one_of(numbers.map(repr), st.sampled_from(["auto", *NONFINITE]))


@st.composite
def config_texts(draw, case):
    """The config of ``case`` with up to three keys of its schema drawn anew
    or left out, and the others kept."""
    scenario, baseline = BASELINES[case]
    base = baseline["base"] if scenario == "sweep" else scenario
    schemas = {
        "parameters": (
            config._sweep_schema(base) if scenario == "sweep"
            else config._SCHEMAS[scenario]["parameters"]
        ),
        "sampling": config._SCHEMAS[base]["sampling"],
    }
    keys = [(section, key) for section, schema in schemas.items() for key in schema]
    changed = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True))
    lines = [f"scenario = {scenario}"]
    for section, schema in schemas.items():
        lines.append(f"[{section}]")
        for key, spec in schema.items():
            if (section, key) not in changed:
                if key in baseline:
                    lines.append(f"{key} = {baseline[key]}")
            elif draw(st.integers(0, 3)):  # else left out
                lines.append(f"{key} = {draw(_token(key, spec))}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", BASELINES)
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_accepted_input_exits_0_2_3_or_4(case, data):
    text = data.draw(config_texts(case), label="config")
    threads = data.draw(st.integers(-1, 2), label="threads")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.cfg"
        path.write_text(text)
        for args in ([str(path), "--out", f"{tmp}/run", "--threads", str(threads)],
                     [str(path), "--check"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(args)
            assert code in (0, 2, 3, 4)
            results.append((code, err.getvalue()))
            if code != 0 or "--check" in args:
                assert sorted(p.name for p in Path(tmp).iterdir()) == ["case.cfg"]
            for written in Path(tmp).glob("run*"):
                # every field an exit-0 run writes is finite (or empty)
                body = written.read_text().lower()
                assert "nan" not in body and "inf" not in body, body
                written.unlink()
    run, check = results
    if run[0] != 0 and BASELINES[case][0] != "sweep":
        assert check == run
