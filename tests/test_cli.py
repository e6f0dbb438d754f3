"""Tests for the config parser and the scenario-runner CLI.

End-to-end runs go through ``cli.main`` with real files under tmp_path, so
exit codes, output atomicity, and byte-level determinism are exercised the
same way a shell invocation would hit them. The shipped example configs in
scripts/configs/ are run here too, which keeps them from rotting.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ladder_oracle import ladder_reference, occupied

from gravodyn import cli, config, models
from gravodyn.config import load_config, parse_config
from gravodyn.errors import ConfigError
from gravodyn.models import ChooserParams, TelegraphSite
from gravodyn.propagator import SpectralDecomposition, diagonalize, evolve

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts" / "configs"
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


CHOOSER_TEXT = """
scenario = chooser

[parameters]
v = 1e-4
w = 1e-5
u = 1e-3
n_band = 200
delta = auto

[sampling]
n_times = 64
t_final = auto
"""


def sweep_text(base, values, sampling=""):
    """A small sweep over u (chooser base) or v_gw_2 (telegraph base)."""
    fixed, axis, t_final = {
        "chooser": ("v = 0\nw = 0\nn_band = 10\ndelta = 0.02\n", "u", "auto"),
        "telegraph": (
            "e_g1 = 0\ne_g2 = 0\ne_w1 = 0\ne_w2 = 0\n"
            "v_loc_1 = 0\nv_loc_2 = 0\neps_grav_1 = 0\neps_grav_2 = 0\n"
            "band_1 = linspace(-1, 1, 4)\nband_2 = linspace(-0.5, 0.5, 4)\n"
            "v_gw_1 = 0.1\n",
            "v_gw_2",
            "10",
        ),
    }[base]
    return (
        f"scenario = sweep\n[parameters]\nbase = {base}\n{fixed}"
        f"sweep_{axis} = {values}\n[sampling]\nt_final = {t_final}\n{sampling}"
    )


SHIPPED = {  # a shipped config of each scenario
    "chooser": EXAMPLES / "chooser_demo.cfg",
    "telegraph": EXAMPLES / "telegraph_switching.cfg",
    "gravonon-modes": EXAMPLES / "gravonon_chain.cfg",
    "meanfield": EXAMPLES / "meanfield_free_packet.cfg",
    "dimensional": EXAMPLES / "dimensional_table.cfg",
}
SHIPPED_SWEEPS = {  # a shipped sweep over each base
    "chooser": EXAMPLES / "sweep_decay.cfg",
    "telegraph": BENCH_CONFIGS / "telegraph_sweep.cfg",
}


def set_key(text, section, key, value):
    """``text`` with ``key = value`` in ``section`` (in place of any line
    setting ``key``), and the number of that line."""
    text = re.sub(rf"(?m)^{key} = .*\n", "", text)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    return text, text.splitlines().index(f"{key} = {value}") + 1


def just_outside(spec):
    """A value just outside each bound of ``spec``."""
    if spec.above is not None:
        yield spec.above
    if spec.minimum is not None:
        yield spec.minimum - 1 if spec.kind == "int" else math.nextafter(spec.minimum, -math.inf)
    if spec.maximum is not None:
        yield spec.maximum + 1 if spec.kind == "int" else math.nextafter(spec.maximum, math.inf)


def out_of_range_cases():
    """(config text, section, key, value) with the value just outside a bound
    in ``config._SCHEMAS``: in a shipped config, and in the key's sweep axis
    where it has one."""
    for scenario, sections in config._SCHEMAS.items():
        axes = config._sweep_schema(scenario) if scenario in SHIPPED_SWEEPS else {}
        for section, schema in sections.items():
            for key, spec in schema.items():
                for value in just_outside(spec):
                    value = f"10.0, {value!r}" if spec.kind == "floats" else repr(value)
                    yield pytest.param(
                        SHIPPED[scenario].read_text(), section, key, value,
                        id=f"{scenario}-{key}={value}",
                    )
                    if "sweep_" + key in axes:
                        inside = 1.0 if spec.default is None else spec.default
                        text = re.sub(  # the key is swept, not fixed
                            rf"(?m)^{key} = .*\n", "", SHIPPED_SWEEPS[scenario].read_text()
                        )
                        yield pytest.param(
                            text, section, "sweep_" + key, f"{inside!r}, {value}",
                            id=f"sweep-{scenario}-{key}={value}",
                        )


class TestConfigParser:
    def test_telegraph_schema_is_built_from_the_site_keys(self):
        # the two sites' keys interleaved field by field, then weight_site1:
        # the order that missing-key and unknown-key messages list them in
        assert list(config._SCHEMAS["telegraph"]["parameters"]) == [
            "e_g1", "e_g2", "e_w1", "e_w2", "v_loc_1", "v_loc_2", "eps_grav_1",
            "eps_grav_2", "band_1", "band_2", "v_gw_1", "v_gw_2", "weight_site1",
        ]

    def test_valid_chooser_fills_defaults(self):
        cfg = parse_config(CHOOSER_TEXT)
        assert cfg.scenario == "chooser"
        assert cfg.parameters["v"] == 1e-4
        assert cfg.parameters["delta"] is None  # auto, resolved by the runner
        assert cfg.parameters["alpha"] == 0.0  # schema default
        assert cfg.sampling["n_times"] == 64
        assert cfg.output_prefix is None

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "# leading comment\nscenario = dimensional\n\n"
            "[parameters]\ng_newton = 137.036  # inline comment\n"
        )
        assert cfg.scenario == "dimensional"
        assert cfg.parameters["g_newton"] == 137.036

    def test_unknown_key_reports_line_and_key(self):
        bad = CHOOSER_TEXT.replace("n_band = 200", "n_bandz = 200")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.key == "n_bandz"
        assert err.value.line is not None
        assert "unknown key" in str(err.value)

    def test_duplicate_key_rejected(self):
        bad = CHOOSER_TEXT.replace("w = 1e-5", "w = 1e-5\nw = 2e-5")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(CHOOSER_TEXT + "\n[extras]\nfoo = 1\n")

    def test_missing_required_key_named(self):
        bad = CHOOSER_TEXT.replace("u = 1e-3\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.key == "u"
        assert "missing required" in str(err.value)

    def test_missing_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("[parameters]\nv = 1\n")

    def test_key_before_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("v = 1\nscenario = chooser\n")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario = frobnicate\n")

    def test_malformed_number_reports_location(self):
        bad = CHOOSER_TEXT.replace("v = 1e-4", "v = abc")
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        assert err.value.key == "v"
        assert "abc" in str(err.value)

    def test_linspace_list_syntax(self):
        cfg = parse_config(
            "scenario = telegraph\n[parameters]\n"
            "e_g1 = 0\ne_g2 = 0\ne_w1 = 0\ne_w2 = 0\n"
            "v_loc_1 = 0\nv_loc_2 = 0\neps_grav_1 = 0\neps_grav_2 = 0\n"
            "band_1 = linspace(-1, 1, 5)\nband_2 = 0.1, 0.2, 0.3\n"
            "v_gw_1 = 0.1\nv_gw_2 = 0.1\n"
            "[sampling]\nt_final = 10\n"
        )
        assert cfg.parameters["band_1"] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert cfg.parameters["band_2"] == [0.1, 0.2, 0.3]

    def test_linspace_whose_steps_overflow_parses_without_warning(self):
        # numpy overflows in arange·step, then sets the last entry to stop;
        # every entry is finite, so the values are numpy's own
        text = sweep_text("telegraph", "linspace(0.0, 1.7976931348623157e+308, 4)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            cfg = parse_config(text)
        with np.errstate(all="ignore"):
            expected = np.linspace(0.0, 1.7976931348623157e308, 4)
        assert np.isfinite(expected).all()
        assert np.array(cfg.sweep_axes["v_gw_2"]).tobytes() == expected.tobytes()

    def test_sweep_axis_satisfies_base_requirement(self):
        cfg = parse_config(
            "scenario = sweep\n[parameters]\nbase = chooser\n"
            "v = 0\nw = 0\nn_band = 10\ndelta = 0.02\n"
            "sweep_u = 1e-4, 2e-4\n[sampling]\nt_final = auto\n"
        )
        assert cfg.sweep_axes == {"u": [1e-4, 2e-4]}
        assert "u" not in cfg.parameters

    def test_sweep_key_both_fixed_and_swept_rejected(self):
        with pytest.raises(ConfigError, match="both fixed and swept"):
            parse_config(
                "scenario = sweep\n[parameters]\nbase = chooser\n"
                "v = 0\nw = 0\nn_band = 10\ndelta = 0.02\nu = 1e-4\n"
                "sweep_u = 1e-4, 2e-4\n[sampling]\nt_final = auto\n"
            )

    def test_sweep_without_axes_rejected(self):
        with pytest.raises(ConfigError, match="at least one sweep"):
            parse_config(
                "scenario = sweep\n[parameters]\nbase = chooser\n"
                "v = 0\nw = 0\nu = 1e-4\nn_band = 10\ndelta = 0.02\n"
                "[sampling]\nt_final = auto\n"
            )

    def test_sweep_missing_base_key_not_fixed_or_swept(self):
        with pytest.raises(ConfigError) as err:
            parse_config(
                "scenario = sweep\n[parameters]\nbase = chooser\n"
                "v = 0\nw = 0\ndelta = 0.02\nsweep_u = 1e-4\n"
                "[sampling]\nt_final = auto\n"
            )
        assert err.value.key == "n_band"

    def test_sweep_base_choices_enforced(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config(
                "scenario = sweep\n[parameters]\nbase = meanfield\n"
                "sweep_u = 1\n[sampling]\ndt = 0.1\nn_steps = 1\n"
            )

    def test_example_configs_all_parse(self):
        for path in sorted(EXAMPLES.glob("*.cfg")):
            cfg = load_config(path)
            assert cfg.scenario in (
                "chooser", "telegraph", "gravonon-modes",
                "meanfield", "dimensional", "sweep",
            ), path.name


class TestCliRuns:
    def write(self, tmp_path, text):
        path = tmp_path / "case.cfg"
        path.write_text(text)
        return str(path)

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        cfg = self.write(tmp_path, CHOOSER_TEXT.replace("v = 1e-4", "v = abc"))
        out = tmp_path / "run"
        assert cli.main([cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_missing_config_file_exits_2(self, tmp_path):
        assert cli.main([str(tmp_path / "absent.cfg")]) == 2

    def test_model_validation_error_exits_2(self, tmp_path):
        cfg = self.write(tmp_path, CHOOSER_TEXT.replace("delta = auto", "delta = -1"))
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2

    def test_unstable_step_exits_3_without_outputs(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "scenario = meanfield\n[parameters]\n"
            "x_min = -10\nx_max = 10\nn_points = 128\n"
            "packet_center = 0\npacket_width = 1\n"
            "[sampling]\ndt = 1.0\nn_steps = 10\n",
        )
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 3
        assert list(tmp_path.glob("run*")) == []

    def test_subnormal_frequency_matrix_fails_its_residual_contract(self, tmp_path, capsys):
        # entries ~1e-321 carry a few significant bits: no eigenpair meets
        # the residual contract, which the gravonon solve enforces too
        text = (EXAMPLES / "gravonon_chain.cfg").read_text()
        text = re.sub(r"(?m)^vgrav = .*$", "vgrav = " + ", ".join(["1e-160"] * 5), text)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 3
            assert "eigenpair residual" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    def test_grid_cap_exits_4_without_outputs(self, tmp_path, capsys):
        cfg = self.write(
            tmp_path,
            "scenario = sweep\n[parameters]\nbase = chooser\ngrid_cap = 4\n"
            "v = 0\nw = 0\nn_band = 10\ndelta = 0.02\n"
            "sweep_u = linspace(1e-4, 1e-3, 5)\n[sampling]\nt_final = auto\n",
        )
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 4
        run_err = capsys.readouterr().err
        assert "sweep grid has 5 points, exceeding grid_cap=4" in run_err
        # --check expands the grid the run does, through the same cap
        assert cli.main([cfg, "--check"]) == 4
        assert capsys.readouterr().err == run_err
        assert list(tmp_path.glob("run*")) == []

    def test_grid_cap_fires_before_the_grid_is_built(self, tmp_path, capsys):
        # 1e10 points: the cap must be checked on the axis lengths alone
        cfg = self.write(
            tmp_path,
            "scenario = sweep\n[parameters]\nbase = chooser\n"
            "v = 0\nn_band = 10\ndelta = 0.02\n"
            "sweep_u = linspace(1e-4, 1e-3, 100000)\n"
            "sweep_w = linspace(0, 1e-4, 100000)\n[sampling]\nt_final = auto\n",
        )
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 4
        assert "10000000000 points" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "t_final, key", [("auto", "t_final"), ("5e4", "u")]
    )
    def test_chooser_sweep_with_u_zero_exits_2_without_outputs(
        self, tmp_path, capsys, t_final, key
    ):
        cfg = self.write(
            tmp_path,
            "scenario = sweep\n[parameters]\nbase = chooser\n"
            "v = 0\nw = 0\nn_band = 10\ndelta = 0.02\nsweep_u = 0.0, 1e-3\n"
            f"[sampling]\nt_final = {t_final}\n",
        )
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "base, n_times",
        [("chooser", 0), ("chooser", 2), ("telegraph", 0), ("telegraph", -1)],
    )
    def test_sweep_time_grid_too_short_exits_2_without_outputs(
        self, tmp_path, capsys, base, n_times
    ):
        values = {"chooser": "1e-3, 2e-3", "telegraph": "0.05, 0.1"}[base]
        cfg = self.write(tmp_path, sweep_text(base, values, f"n_times = {n_times}\n"))
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2
        run_err = capsys.readouterr().err
        assert "key 'n_times'" in run_err
        # --check reads the sweep point's time grid as its run does
        assert cli.main([cfg, "--check"]) == 2
        assert capsys.readouterr().err == run_err
        assert list(tmp_path.glob("run*")) == []

    def test_basis_cap_exits_4_without_outputs(self, tmp_path, capsys):
        # two 60 000-mode bands: site 1's block of 120 002 states is refused
        # by its memory estimate, ~5 × 8·dim² = 576 GB, before site 2 is made
        text = (EXAMPLES / "telegraph_switching.cfg").read_text()
        text = text.replace("linspace(-1.0, 1.0, 20)", "linspace(-1, 1, 60000)")
        text = text.replace("linspace(-0.575, 0.575, 20)", "linspace(-1, 1, 60000)")
        cfg = self.write(tmp_path, text)
        out = tmp_path / "run"
        for args in ([cfg, "--out", str(out)], [cfg, "--check"]):
            assert cli.main(args) == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("resource cap: [key 'band_1'] estimated memory of ")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "n_times, t_final, key",
        [(0, "auto", "n_times"), (1, "auto", "n_times"), (64, "100", "t_final")],
    )
    def test_chooser_time_grid_without_report_window_exits_2(
        self, tmp_path, capsys, n_times, t_final, key
    ):
        # 1/gamma = 1000 here: the report's window t >= 1/gamma gets no sample
        text = CHOOSER_TEXT.replace(
            "n_times = 64\nt_final = auto\n", f"n_times = {n_times}\nt_final = {t_final}\n"
        )
        cfg = self.write(tmp_path, text)
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "1/gamma" in err
        assert list(tmp_path.glob("run*")) == []

    def test_decay_fit_from_uncoupled_source_exits_3(self, tmp_path, capsys):
        # v = 0, w != 0: the run starts in |Q0>, which never feeds |Kproj>
        text = sweep_text("chooser", "1e-3, 2e-3").replace("w = 0\n", "w = 1e-4\n")
        cfg = self.write(tmp_path, text)
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert "key 'v'" in err and "[0.5/gamma, 2.5/gamma]" in err
        assert list(tmp_path.glob("run*")) == []

    def test_no_output_prefix_anywhere_exits_2(self, tmp_path):
        cfg = self.write(tmp_path, CHOOSER_TEXT)
        assert cli.main([cfg]) == 2

    def test_empty_sweep_axis_writes_header_only(self, tmp_path):
        cfg = self.write(
            tmp_path,
            "scenario = sweep\n[parameters]\nbase = chooser\n"
            "v = 0\nw = 0\nn_band = 10\ndelta = 0.02\nsweep_u =\n"
            "[sampling]\nt_final = auto\n",
        )
        out = tmp_path / "empty"
        assert cli.main([cfg, "--out", str(out)]) == 0
        lines = (tmp_path / "empty.csv").read_text().splitlines()
        assert lines == ["grid_index,u,plateau,decay_rate,switching_count"]

    def test_chooser_demo_csv_and_report(self, tmp_path):
        out = tmp_path / "demo"
        assert cli.main(
            [str(EXAMPLES / "chooser_demo.cfg"), "--out", str(out)]
        ) == 0
        data = read_csv(tmp_path / "demo.csv")
        assert data.shape == (2048,)
        total = (
            data["w_Q0"] + data["w_R0"] + data["w_Kproj"] + data["w_band"]
        )
        assert np.max(np.abs(total - 1.0)) < 1e-10
        report = (tmp_path / "demo_report.txt").read_text()
        fields = dict(
            line.split(" = ") for line in report.strip().splitlines()
        )
        plateau = float(fields["plateau_band_weight_last_20_percent"])
        target = float(fields["analytic_plateau"])
        assert math.isclose(target, 1.0 - (1e-5 / 1e-3) ** 2, rel_tol=1e-12)
        assert abs(plateau - target) < 0.05

    def test_chooser_reruns_bit_identical(self, tmp_path):
        cfg = self.write(tmp_path, CHOOSER_TEXT)
        assert cli.main([cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main([cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (
            (tmp_path / "a_report.txt").read_bytes()
            == (tmp_path / "b_report.txt").read_bytes()
        )

    def test_dimensional_table_values(self, tmp_path):
        out = tmp_path / "dim"
        assert cli.main(
            [str(EXAMPLES / "dimensional_table.cfg"), "--out", str(out)]
        ) == 0
        data = read_csv(tmp_path / "dim.csv")
        assert np.allclose(data["a"], [1e4, 1e3, 1e2, 10.0])
        assert np.allclose(
            data["g11"], (2 * data["a"] * np.pi) ** 7 * 1e-40, rtol=1e-12
        )
        assert math.isclose(data["g11_over_pi7"][0], 1.28e-10, rel_tol=1e-12)

    def test_gravonon_modes_frequencies_ascend(self, tmp_path):
        out = tmp_path / "modes"
        assert cli.main(
            [str(EXAMPLES / "gravonon_chain.cfg"), "--out", str(out)]
        ) == 0
        data = read_csv(tmp_path / "modes.csv")
        assert data.shape == (5,)
        assert np.all(np.diff(data["frequency"]) >= 0)

    def test_meanfield_norm_conserved(self, tmp_path):
        out = tmp_path / "mf"
        assert cli.main(
            [str(EXAMPLES / "meanfield_free_packet.cfg"), "--out", str(out)]
        ) == 0
        data = read_csv(tmp_path / "mf.csv")
        assert np.max(np.abs(data["norm_psi"] - 1.0)) < 1e-8

    def test_sweep_residue_tracks_dark_state_weight(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(
            [str(EXAMPLES / "sweep_residue.cfg"), "--out", str(out),
             "--threads", "3"]
        ) == 0
        data = read_csv(tmp_path / "sweep.csv")
        assert list(data["grid_index"]) == [0, 1, 2]
        expected = 1.0 - (data["w"] / 1e-3) ** 2
        assert np.max(np.abs(data["plateau"] - expected)) < 0.05

    def test_sweep_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = str(EXAMPLES / "sweep_residue.cfg")
        assert cli.main([cfg, "--out", str(tmp_path / "s1")]) == 0
        assert cli.main([cfg, "--out", str(tmp_path / "s4"), "--threads", "4"]) == 0
        assert (
            (tmp_path / "s1.csv").read_bytes()
            == (tmp_path / "s4.csv").read_bytes()
        )

    def test_check_flag_passes_on_examples(self, tmp_path, capsys, monkeypatch):
        spectral = [
            "check: exact Hermiticity ok",
            "check: spectral decomposition residuals ok",
            "check: unitary norm conservation ok",
        ]
        expected = {
            "chooser_collapse.cfg": spectral,
            "chooser_demo.cfg": spectral,
            "dimensional_table.cfg": ["check: constants positive ok"],
            "gravonon_chain.cfg": [
                "check: frequency-matrix symmetry ok",
                "check: mode diagonalization ok",
            ],
            "meanfield_free_packet.cfg": ["check: step-size stability bound ok"],
            "sweep_decay.cfg": spectral,
            "sweep_residue.cfg": spectral,
            "telegraph_switching.cfg": spectral,
        }
        assert sorted(p.name for p in EXAMPLES.glob("*.cfg")) == sorted(expected)
        monkeypatch.chdir(tmp_path)
        for name, lines in expected.items():
            assert cli.main([str(EXAMPLES / name), "--check"]) == 0
            assert capsys.readouterr().out.splitlines() == lines, name
        assert list(tmp_path.iterdir()) == []  # --check writes nothing

    @pytest.mark.parametrize("base", ["chooser", "telegraph"])
    def test_check_on_empty_sweep_grid(self, tmp_path, capsys, base):
        cfg = self.write(tmp_path, sweep_text(base, ""))
        assert cli.main([cfg, "--check"]) == 0
        assert capsys.readouterr().out == "check: sweep grid is empty, nothing to check\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "case.cfg"]

    @pytest.mark.parametrize(
        "key, value",
        [("packet_width", 0), ("packet_width", -1), ("zeta_width", 0), ("zeta_width", -2)],
    )
    def test_meanfield_nonpositive_width_exits_2(self, tmp_path, capsys, key, value):
        widths = {"packet_width": 1, key: value}
        cfg = self.write(
            tmp_path,
            "scenario = meanfield\n[parameters]\n"
            "x_min = -10\nx_max = 10\nn_points = 128\npacket_center = 0\n"
            + "".join(f"{k} = {v}\n" for k, v in widths.items())
            + "[sampling]\ndt = 0.001\nn_steps = 2\n",
        )
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        # --check builds the same initial state as the run
        assert cli.main([cfg, "--check"]) == 2
        assert f"key '{key}'" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "line, key",
        [
            ("x_max = -50.0", "x_max"),
            ("x_max = -40.0", "x_max"),
            ("m = 0", "m"),
            ("m_g = -1", "m_g"),
            ("dt = 0", "dt"),  # raised by meanfield.stepper
        ],
    )
    def test_meanfield_bad_grid_or_mass_exits_2_naming_key(
        self, tmp_path, capsys, line, key
    ):
        text = (EXAMPLES / "meanfield_free_packet.cfg").read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", line, text)
        if count == 0:  # a key left at its default
            text = text.replace("[sampling]", f"{line}\n\n[sampling]")
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            assert f"key '{key}'" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, line, key",
        [
            ("meanfield_free_packet.cfg", "n_steps = -3", "n_steps"),
            ("meanfield_free_packet.cfg", "sample_every = 0", "sample_every"),
            ("meanfield_free_packet.cfg", "n_points = 8", "n_points"),
            ("chooser_demo.cfg", "n_times = -1", "n_times"),
            ("telegraph_switching.cfg", "n_times = -1", "n_times"),
            ("chooser_demo.cfg", "n_band = -1", "n_band"),
        ],
    )
    def test_count_below_its_minimum_exits_2(self, tmp_path, capsys, name, line, key):
        text = (EXAMPLES / name).read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", line, text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 2
        assert f"key '{key}'] must be at least" in capsys.readouterr().err
        assert cli.main([cfg, "--check"]) == 2
        assert f"key '{key}'] must be at least" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("text, section, key, value", out_of_range_cases())
    def test_value_outside_its_schema_range_exits_2_naming_line_and_key(
        self, tmp_path, capsys, text, section, key, value
    ):
        text, line = set_key(text, section, key, value)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: [line {line}, key '{key}']")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("weight", ["0", "1"])
    def test_weight_site1_on_its_inclusive_bounds_runs(self, tmp_path, weight):
        text, _ = set_key(SHIPPED["telegraph"].read_text(), "parameters", "weight_site1", weight)
        cfg = self.write(tmp_path, text)
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 0
        assert cli.main([cfg, "--check"]) == 0

    @pytest.mark.parametrize(
        "values",
        [
            # a subnormal time step, rounded to whole subnormal units
            pytest.param({"t_final": "1e-310"}, id="sampling-t_final-1e-310"),
            # entries whose squares overflow in an unscaled residual; v_gw_1
            # mixes the evolved resonance at |lambda| ~ 1e300, so it runs over
            # times short enough for the phases to keep their digits, while
            # e_g1 shifts only the g block, which carries none of it
            pytest.param({"v_gw_1": "1e300", "t_final": "1e-296"}, id="parameters-v_gw_1-1e300"),
            pytest.param({"e_g1": "1e300"}, id="parameters-e_g1-1e300"),
        ],
    )
    def test_telegraph_at_the_edges_of_float_range_runs(self, tmp_path, values):
        text = SHIPPED["telegraph"].read_text()
        for k, v in values.items():
            text, _ = set_key(text, "sampling" if k == "t_final" else "parameters", k, v)
        cfg = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 0
            assert cli.main([cfg, "--check"]) == 0

    def test_meanfield_gravity_profile_at_r_zero_exits_2(self, tmp_path, capsys):
        # 513 points on [-40, 40] put a node at x = 0; with no softening the
        # profile g / r^(D-2) is 0/0 there
        text = (EXAMPLES / "meanfield_free_packet.cfg").read_text().replace(
            "n_points = 512", "n_points = 513\nsoftening = 0.0"
        )
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: [key 'softening']")
        assert list(tmp_path.glob("run*")) == []

    def test_meanfield_zero_zeta_equation_is_not_formed(self, tmp_path):
        # with zeta = 0 only psi is solved: U_zeta = g/(4r)·|psi|² overflows
        # on the packet's node at x = 0, but zeta stays zero without a solve;
        # dx = 1/128 resolves the narrow packet
        text = (EXAMPLES / "meanfield_free_packet.cfg").read_text()
        for old, new in (
            ("x_min = -40.0", "x_min = -2.0"), ("x_max = 40.0", "x_max = 2.0"),
            ("n_points = 512", "n_points = 513\nsoftening = 1.0\ng_newton = 1e308"),
            ("packet_width = 2.0", "packet_width = 0.05"), ("dt = 0.02", "dt = 5e-5"),
        ):
            text = text.replace(old, new)
        cfg = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
                assert cli.main(args) == 0
        data = read_csv(tmp_path / "run.csv")
        assert data.size == 21 and not data["norm_zeta"].any()
        assert all(np.isfinite(data[name]).all() for name in data.dtype.names)

    @pytest.mark.parametrize(
        "base, fixed, axis",
        [
            ("chooser", "n_band = 10\n", "sweep_n_band = 10, 20"),
            ("telegraph", "band_1 = linspace(-1, 1, 4)\n", "sweep_band_1 = 0.1, 0.2"),
        ],
    )
    def test_sweep_over_non_float_key_exits_2(self, tmp_path, capsys, base, fixed, axis):
        # only scalar float keys have a sweep axis; the others are unknown keys
        text = sweep_text(base, "1e-3, 2e-3").replace(fixed, axis + "\n")
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            err = capsys.readouterr().err
            assert f"key '{axis.split()[0]}'] unknown key" in err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("key", ["packet_width", "zeta_width"])
    @pytest.mark.parametrize(
        "grid, width",
        [
            ("n_points = 512", "1e-170"),  # w^2 underflows in the normalization
            ("n_points = 512", "1e-100"),  # misses every node: grid norm 0
            ("n_points = 513", "0.05"),  # narrower than dx = 0.156: grid norm 1.763
            ("n_points = 513", "0.18"),  # w/dx = 1.15: grid norm 1 + 4.1e-6
            ("n_points = 64", "60.0"),  # wider than the grid: grid norm 0.66
        ],
    )
    def test_meanfield_packet_off_its_grid_norm_exits_2(self, tmp_path, capsys, key, grid, width):
        text = (EXAMPLES / "meanfield_free_packet.cfg").read_text().replace(
            "packet_momentum = 0.0", "packet_momentum = 0.0\nzeta_width = 1.0"
        ).replace("n_points = 512", grid)
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {width}", text)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: [key '{key}'] the packet's grid norm")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, values, where",
        [
            # a bound of the schema: refused at parse time, naming the line
            ("chooser_demo.cfg", {"delta": "0.0"}, "line 9, key 'delta'"),
            ("chooser_demo.cfg", {"delta": "-1.0"}, "line 9, key 'delta'"),
            ("chooser_demo.cfg", {"n_band": "0", "delta": "0.0"}, "line 9, key 'delta'"),
            ("chooser_demo.cfg", {"u": "0.0"}, "key 'u'"),  # delta = auto is pi*|u| = 0
            ("chooser_demo.cfg", {"u": "1e308"}, "key 'u'"),  # pi*|u| overflows
            # gamma = pi*u^2/delta overflows (t_final = 5/gamma would be 0)
            ("chooser_demo.cfg", {"u": "1e154"}, "key 'u'"),
            ("chooser_demo.cfg", {"u": "1e200", "delta": "0.02"}, "key 'u'"),
            ("sweep_decay.cfg", {"sweep_u": "1e300"}, "key 'u'"),
            # x_max - x_min overflows before the grid is built
            ("meanfield_free_packet.cfg", {"x_min": "-1e308", "x_max": "1e308"}, "key 'x_max'"),
            # sigma^2 underflows to 0; 1/(4 m_g sigma^2) overflows
            ("gravonon_chain.cfg", {"envelope_width": "1e-170"}, "key 'envelope_width'"),
            ("gravonon_chain.cfg", {"envelope_width": "1e-200"}, "key 'envelope_width'"),
            ("gravonon_chain.cfg", {"m_g": "1e-320"}, "key 'm_g'"),
            # 4 m_g sigma^2 underflows to 0 while sigma^2 does not (once a
            # ZeroDivisionError traceback)
            (
                "gravonon_chain.cfg",
                {"envelope_width": "3.412344595071182e-53", "m_g": "5.4187438379721765e-303"},
                "key 'm_g'",
            ),
            # the frequency matrix is not finite: inf, or inf times a zero
            # kinetic factor 1 - d^2/(2 sigma^2) at d^2 = 2 sigma^2
            ("gravonon_chain.cfg", {"vgrav": ", ".join(["1e200"] * 5)}, "key 'vgrav'"),
            (
                "gravonon_chain.cfg",
                {"positions": "0.0, 1.4142135623730951", "vgrav": "1e200, 1e200"},
                "key 'vgrav'",
            ),
            ("gravonon_chain.cfg", {"theta": "1e200"}, "key 'theta'"),  # theta^2 overflows
            # a potential far above the kinetic scale 1/(4 m_g sigma^2) overflows
            (
                "gravonon_chain.cfg", {"vgrav": ", ".join(["10"] * 5), "v_o": "1e308"},
                "key 'v_o'",
            ),
        ],
    )
    def test_value_out_of_float_range_exits_2_naming_key(
        self, tmp_path, capsys, name, values, where
    ):
        text = (EXAMPLES / name).read_text()
        for k, v in values.items():
            text, count = re.subn(rf"(?m)^{k} = .*$", f"{k} = {v}", text)
            assert count == 1
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: [{where}]")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, values, key",
        [
            # max|lambda|·max|t| overflows: e^{-i lambda t} would be NaN
            ("chooser_demo.cfg", {"alpha": "-1.7976931348623157e+308"}, "alpha"),
            ("chooser_demo.cfg", {"alpha": "10.0", "t_final": "1e308"}, "t_final"),
            ("sweep_decay.cfg", {"alpha": "-1.7976931348623157e+308"}, "alpha"),
        ],
    )
    def test_chooser_phases_that_overflow_exit_2_naming_key(
        self, tmp_path, capsys, name, values, key
    ):
        text = (EXAMPLES / name).read_text()
        text = re.sub(r"(?m)^n_band = \d+", "n_band = 32", text)
        text = re.sub(r"(?m)^n_times = \d+", "n_times = 64", text)
        for k, v in values.items():
            section = "sampling" if k == "t_final" else "parameters"
            text, _ = set_key(text, section, k, v)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: [key '{key}'] the phases lambda*t overflow")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, values, key",
        [
            # max|lambda|·max|t| ~ 1e301: finite phases with no digit left
            # (once exit 0 with a deviation of 0.9999 from the wide-band curve)
            ("chooser_demo.cfg", {"alpha": "10.0", "n_band": "32", "n_times": "64",
                                  "t_final": "1e300"}, "t_final"),
            # the evolved resonance sits at |lambda| ~ 1e300; times t_final = 131
            ("telegraph_switching.cfg", {"v_gw_1": "1e300"}, "v_gw_1"),
        ],
    )
    def test_phases_that_keep_no_digit_exit_2_naming_key(
        self, tmp_path, capsys, name, values, key
    ):
        text = (EXAMPLES / name).read_text()
        for k, v in values.items():
            section = "sampling" if k in ("n_times", "t_final") else "parameters"
            text, _ = set_key(text, section, k, v)
        cfg = self.write(tmp_path, text)
        errs = []
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(
            f"config error: [key '{key}'] the phases lambda*t lose their digits"
        )
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, values, key",
        [
            # 1/gamma = delta/(pi*u^2) overflows through delta
            ("chooser_demo.cfg", {"delta": "1.1295239091784514e+302"}, "delta"),
            ("sweep_decay.cfg", {"delta": "1.1295239091784514e+302"}, "delta"),
            # ... and through u, whose square is subnormal
            ("chooser_demo.cfg", {"u": "1e-155", "delta": "1.0"}, "u"),
            ("sweep_decay.cfg", {"sweep_u": "1e-3, 1e-155"}, "u"),
        ],
    )
    def test_chooser_auto_t_final_that_overflows_exits_2_naming_key(
        self, tmp_path, capsys, name, values, key
    ):
        text = (EXAMPLES / name).read_text()
        text = re.sub(r"(?m)^n_band = \d+", "n_band = 32", text)
        text = re.sub(r"(?m)^n_times = \d+", "n_times = 64", text)
        for k, v in values.items():
            text, _ = set_key(text, "parameters", k, v)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # linspace's RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: [key '{key}'] t_final = auto (5/gamma)")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "path, values",
        [
            (EXAMPLES / "chooser_demo.cfg", {"v": "0.0", "w": "1e-5", "n_band": "32"}),
            (EXAMPLES / "sweep_decay.cfg", {"n_band": "32"}),
            (EXAMPLES / "telegraph_switching.cfg", {}),
            (BENCH_CONFIGS / "telegraph_sweep.cfg", {}),
        ],
    )
    def test_t_final_at_the_float_limit_exits_2_naming_it(self, tmp_path, capsys, path, values):
        # the grid's last product (n_times - 1)·h rounds up to inf, so the
        # grid is refused before linspace, which would warn
        text = path.read_text()
        for k, v in values.items():
            text, _ = set_key(text, "parameters", k, v)
        if values:
            text, _ = set_key(text, "sampling", "n_times", "64")
        text, _ = set_key(text, "sampling", "t_final", "1.7976931348623157e+308")
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith("config error: [key 't_final'] the time grid overflows")
        assert list(tmp_path.glob("run*")) == []

    def test_one_coarse_step_near_the_float_limit_runs_clean(self, tmp_path, capsys):
        # --check evolves 8 times in one coarse step of B = 8 > n - 1 fine
        # steps; B·h overflows although every time is finite
        text = (EXAMPLES / "chooser_demo.cfg").read_text()
        for k, v in {"v": "0.0", "n_band": "32"}.items():
            text, _ = set_key(text, "parameters", k, v)
        text, _ = set_key(text, "sampling", "n_times", "64")
        text, _ = set_key(text, "sampling", "t_final", "1.5729814930045264e+308")
        cfg = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails
            assert cli.main([cfg, "--check"]) == 0
            assert capsys.readouterr().out.splitlines() == [
                "check: exact Hermiticity ok",
                "check: spectral decomposition residuals ok",
                "check: unitary norm conservation ok",
            ]
            assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 0
        rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
        assert len(rows) == 64
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    @pytest.mark.parametrize(
        "name, values, key, message",
        [
            # u != 0, but pi*u^2/delta underflows to 0
            ("chooser_demo.cfg", {"u": "1e-310"}, "u", "the decay width gamma"),
            ("chooser_demo.cfg", {"u": "1e-310", "delta": "0.02"}, "u", "the decay width gamma"),
            ("sweep_decay.cfg", {"sweep_u": "1e-3, 1e-310"}, "u", "the decay width gamma"),
            # u = 0: t_final = auto is what cannot be formed
            ("chooser_demo.cfg", {"u": "0.0", "delta": "0.02"}, "t_final",
             "t_final = auto needs u != 0"),
        ],
    )
    def test_chooser_gamma_of_zero_names_its_cause(
        self, tmp_path, capsys, name, values, key, message
    ):
        text = (EXAMPLES / name).read_text()
        text = re.sub(r"(?m)^n_band = \d+", "n_band = 32", text)
        for k, v in values.items():
            text, _ = set_key(text, "parameters", k, v)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: [key '{key}'] {message}")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "values, key, message",
        [
            # max|lambda|·max|t| overflows on site 2: e^{-i lambda t} would be NaN
            ({"e_g2": "-1.7976931348623157e+308", "v_gw_2": "5e-324"}, "e_g2",
             "the phases lambda*t overflow"),
            ({"eps_grav_1": "-1.7976931348623157e+308"}, "eps_grav_1",
             "the phases lambda*t overflow"),
            # finite entries, but eigh returns an inf eigenvalue
            ({"e_w1": "1.7976931348623143e+308"}, "e_w1", "the eigenvalues overflow"),
        ],
    )
    def test_telegraph_site_that_overflows_exits_2_naming_its_key(
        self, tmp_path, capsys, values, key, message
    ):
        text = SHIPPED["telegraph"].read_text()
        for k, v in values.items():
            text, _ = set_key(text, "parameters", k, v)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"config error: [key '{key}'] {message}")
        assert list(tmp_path.glob("run*")) == []

    def overflowing_sweep(self, tmp_path):
        """A telegraph sweep whose first point passes; from the second
        (e_g1 = 6e307) site 1's phases overflow."""
        text = SHIPPED["telegraph"].read_text().replace(
            "scenario = telegraph", "scenario = sweep"
        ).replace("n_times = 2048", "n_times = 64")
        text, _ = set_key(text, "parameters", "base", "telegraph")
        text = text.replace("e_g1 = 0.0\n", "sweep_e_g1 = linspace(0.0, 1.7976931348623157e+308, 4)\n")
        return self.write(tmp_path, text)

    def test_sweep_check_solves_every_point_its_run_solves(self, tmp_path, capsys):
        cfg = self.overflowing_sweep(tmp_path)
        errs = []
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("config error: [key 'e_g1'] the phases lambda*t overflow")
        assert list(tmp_path.glob("run*")) == []

    def test_sweep_whose_part_raises_exits_alike_at_any_thread_count(
        self, tmp_path, capsys, monkeypatch
    ):
        # three site-1 parts raise; the calling thread and a pool of two both
        # report the first of them in grid order, e_g1 = 6e307
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        cfg = self.overflowing_sweep(tmp_path)
        errs = []
        for threads in ("1", "2"):
            assert cli.main([cfg, "--out", str(tmp_path / "run"), "--threads", threads]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(
            "config error: [key 'e_g1'] the phases lambda*t overflow: max|lambda| = 5.99"
        )
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("band_1", "linspace(-1.797e308, 1.797e308, 20)"),  # their span overflows
            ("band_2", "linspace(-1e308, 1e308, 3)"),
        ],
    )
    def test_linspace_with_entries_that_overflow_exits_2_naming_key(
        self, tmp_path, capsys, key, value
    ):
        text, line = set_key(SHIPPED["telegraph"].read_text(), "parameters", key, value)
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails
                assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert err[0].startswith(
                f"config error: [line {line}, key '{key}'] linspace entries must be finite"
            )
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("radii", ["1e60", "0.0, 1.0", "10.0, -1.0"])
    def test_dimensional_bad_radius_exits_2_naming_radii(self, tmp_path, capsys, radii):
        text = (EXAMPLES / "dimensional_table.cfg").read_text()
        text, count = re.subn(r"(?m)^radii = .*$", f"radii = {radii}", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            assert "key 'radii'" in capsys.readouterr().err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, old, new, key, code",
        [
            (
                "telegraph_switching.cfg", "weight_site1 = 0.6", "weight_site1 = 2.0",
                "weight_site1", 2,
            ),
            (
                "chooser_demo.cfg", "n_band = 200\ndelta = auto ", "n_band = 0\ndelta = 0.0 ",
                "delta", 2,
            ),
            # the report's window t >= 1/gamma holds no sample
            ("chooser_demo.cfg", "n_times = 2048", "n_times = 1", "n_times", 2),
            # (w/u)^2 overflows: once an OverflowError traceback from the report
            ("chooser_demo.cfg", "u = 1e-3", "u = 1e-160", "u", 2),
            # the decay-rate fit window [0.5/gamma, 2.5/gamma] holds one sample
            ("sweep_decay.cfg", "n_times = 2048", "n_times = 2", "n_times", 2),
            # a sweep's --check expands every grid point, not just the first:
            # delta = auto is pi*|u| = 0 at the second point
            (
                "sweep_decay.cfg", "delta = 0.02\nsweep_u = 5e-4, 1e-3, 2e-3",
                "delta = auto\nsweep_u = 1e-3, 0.0", "u", 2,
            ),
            # the second point's fit window starts at 0.5/gamma = 1.6e7 > t_final
            (
                "sweep_decay.cfg", "sweep_u = 5e-4, 1e-3, 2e-3\n\n[sampling]\nn_times = 2048\n"
                "t_final = auto", "sweep_u = 1e-3, 1e-5\n\n[sampling]\nn_times = 2048\n"
                "t_final = 5e4", "n_times", 2,
            ),
            # v = 0, w != 0: the zero state lies on the uncoupled |Q0>, and the
            # fit reads w_Kproj = 0
            (
                "sweep_decay.cfg",
                "w = 0.0\nn_band = 1024\ndelta = 0.02\nsweep_u = 5e-4, 1e-3, 2e-3",
                "w = 1e-4\nn_band = 10\ndelta = 0.02\nsweep_u = 1e-3, 2e-3", "v", 3,
            ),
            # within the run's memory estimate, not --check's dense one: the
            # report window is refused first in both (--check once exited 4)
            (
                "chooser_demo.cfg",
                "n_band = 200\ndelta = auto        # self-consistent band width pi*|u|\n\n"
                "[sampling]\nn_times = 2048\nt_final = auto",
                "n_band = 9000\ndelta = auto\n\n[sampling]\nn_times = 2048\nt_final = 1.0",
                "t_final", 2,
            ),
        ],
    )
    def test_check_rejects_what_the_run_rejects(
        self, tmp_path, capsys, name, old, new, key, code
    ):
        text = (EXAMPLES / name).read_text()
        assert old in text
        cfg = self.write(tmp_path, text.replace(old, new))
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == code
        run_err = capsys.readouterr().err
        assert f"key '{key}'" in run_err
        assert cli.main([cfg, "--check"]) == code
        assert capsys.readouterr().err == run_err
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, values, code, start",
        [
            # g/r at x = 0 overflows the Crank–Nicolson diagonal at the first
            # step: ψ alone, then with a live ζ
            *(
                pytest.param(
                    "meanfield_free_packet.cfg",
                    {"x_min": "-1000.0", "x_max": "1000.0", "n_points": "201",
                     "g_newton": "1e308", "softening": "1.0", "packet_width": "100.0",
                     "dt": "50.0", "n_steps": "4", **zeta},
                    2, "config error: Crank–Nicolson diagonal or right-hand side is not finite",
                    id=f"meanfield-gravity{'-zeta' if zeta else ''}",
                )
                for zeta in ({}, {"zeta_width": "100.0", "zeta_center": "0.0"})
            ),
            # 1/(2 m_g dx^2) overflows (once a numpy warning from the off-diagonal)
            pytest.param(
                "meanfield_free_packet.cfg",
                {"n_points": "64", "m_g": "5e-324", "dt": "5e-324"},
                2, "config error: [key 'm_g'] the kinetic scale", id="meanfield-m_g",
            ),
            # the x grid's last point (n - 1)*(span/(n - 1)) overflows in
            # np.linspace (once a numpy warning and a refusal naming packet_width)
            pytest.param(
                "meanfield_free_packet.cfg", {"x_min": "-1.7976931348623157e+308"},
                2, "config error: [key 'x_max'] the x grid", id="meanfield-x-grid",
            ),
            # e_w + eps_grav overflows on the diagonal (once a numpy warning)
            pytest.param(
                "telegraph_switching.cfg", {"e_w1": "1.7e308", "eps_grav_1": "1.7e308"},
                2, "config error: [key 'e_w1'] a matrix entry is not finite",
                id="telegraph-entry",
            ),
            # the site is refused for its size before its time grid is built
            # (a run once named t_final, --check band_1)
            pytest.param(
                "telegraph_switching.cfg",
                {"band_1": "linspace(-1.0, 1.0, 20000)", "t_final": "1.7976931348623157e+308"},
                4, "resource cap: [key 'band_1'] estimated memory", id="telegraph-cap-first",
            ),
            # gamma ~ 3e294: the fit window's t^2 underflow (once a numpy
            # warning, LAPACK noise and a run that named no key) ...
            pytest.param(
                "sweep_residue.cfg", {"delta": "1e-300"},
                2, "config error: [key 'delta'] the decay-rate fit's times",
                id="fit-t2-underflows",
            ),
            # ... or gamma ~ 3e-180: they overflow (once a run that exited 0)
            pytest.param(
                "sweep_residue.cfg", {"u": "1e-100", "delta": "1e-20"},
                2, "config error: [key 'u'] the decay-rate fit's times", id="fit-t2-overflows",
            ),
            # v = w = 5e-324: r = hypot(v, w) rounds to v, so the zero state
            # (w, 0, -v)/r has norm √2 (--check once evolved another state)
            pytest.param(
                "chooser_demo.cfg", {"v": "5e-324", "w": "5e-324"},
                3, "numerical contract violation: initial state norm 1.414",
                id="zero-state-norm",
            ),
            # the zero state's |Kproj> weight (v/r)^2 underflows to 0
            *(
                pytest.param(
                    "sweep_residue.cfg", {"v": v},
                    3, "numerical contract violation: [key 'v'] w_Kproj <= 0",
                    id=f"kproj-weight-v={v}",
                )
                for v in ("5e-324", "3.67e-172")
            ),
        ],
    )
    def test_run_and_check_refuse_alike_in_one_line(
        self, tmp_path, capfd, name, values, code, start
    ):
        # the same exit code and one stderr line in a run and in --check: no
        # warning, no LAPACK message, no file
        text = (EXAMPLES / name).read_text()
        if name == "sweep_residue.cfg":  # a small grid of two points
            values = {"n_band": "32", "sweep_w": "5e-5, 1e-4", "n_times": "64", **values}
        for key, value in values.items():
            sampled = key in ("dt", "n_steps", "n_times", "t_final")
            text, _ = set_key(text, "sampling" if sampled else "parameters", key, value)
        cfg = self.write(tmp_path, text)
        errors = []
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(args) == code
            out, err = capfd.readouterr()
            assert out == "" and len(err.splitlines()) == 1 and err.startswith(start), err
            errors.append(err)
        assert errors[0] == errors[1]
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "key, value",
        [("positions", "0.0, -2.0, 0.0, 2.0, 4.0"), ("positions", "-4.0, -2.0, -2.0, 2.0, 4.0"),
         ("vgrav", "0.1")],
    )
    def test_gravonon_bad_site_list_exits_2_naming_key(self, tmp_path, capsys, key, value):
        text = (EXAMPLES / "gravonon_chain.cfg").read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: [key '{key}']")
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("name", ["chooser_demo.cfg", "sweep_decay.cfg"])
    @pytest.mark.parametrize("n_band", [20000, 10000000])
    def test_chooser_memory_cap_exits_4_before_allocating(self, tmp_path, capsys, name, n_band):
        # a solve of 3 + n_band states would hold its dim × dim eigenvectors:
        # ~3.2 GB at 20 000 and ~800 TB at 10 000 000, refused before anything
        # is built
        text = (EXAMPLES / name).read_text()
        text, count = re.subn(r"(?m)^n_band = .*$", f"n_band = {n_band}", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        tracemalloc.start()
        try:
            for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
                assert cli.main(args) == 4
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1
                assert err[0].startswith("resource cap: [key 'n_band'] estimated memory of ")
                assert err[0].endswith(f"exceeds cap of {cli.DEFAULT_MEMORY_CAP} bytes")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("path", [EXAMPLES / "telegraph_switching.cfg",
                                      BENCH_CONFIGS / "telegraph_sweep.cfg"])
    @pytest.mark.parametrize("key", ["band_1", "band_2"])
    def test_telegraph_memory_cap_exits_4_before_allocating(self, tmp_path, capsys, path, key):
        # a site block of 2 · 20 001 states: ~5 × 8·dim² = 64 GB to solve
        text = path.read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = linspace(-1.0, 1.0, 20000)", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        tracemalloc.start()
        try:
            for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
                assert cli.main(args) == 4
                err = capsys.readouterr().err.splitlines()
                assert re.fullmatch(
                    rf"resource cap: \[key '{key}'\] estimated memory of \d+ bytes "
                    r"exceeds cap of 1073741824 bytes",
                    "\n".join(err),
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("dense", [False, True])
    def test_chooser_memory_estimate_bounds_the_measured_peak(self, tmp_path, dense):
        text = (EXAMPLES / "chooser_collapse.cfg").read_text()
        text, count = re.subn(r"(?m)^n_band = .*$", "n_band = 512", text)
        assert count == 1
        cfg = load_config(self.write(tmp_path, text))
        params = cli._chooser_params(cfg.parameters, cfg.sampling)
        estimate = cli._part_bytes(params, cfg.sampling["n_times"], dense)
        tracemalloc.start()
        try:
            if dense:
                cli._check(cfg)
            else:
                cli.run_scenario(cfg, out_prefix=tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.5 * estimate < peak <= estimate

    @pytest.mark.parametrize("dense", [False, True])
    def test_telegraph_memory_estimate_bounds_the_measured_peak(self, tmp_path, dense):
        # a 500-level band: site 1's block of 1 002 states, where 8·dim² dominates.
        # Most of it is dense eigh's LAPACK workspace, which is resident but
        # not traced: the traced peak is ~2.3 × 8·dim², the resident growth of
        # a fresh process ~4.6 ×, so the resident growth bounds it from below
        text = (EXAMPLES / "telegraph_switching.cfg").read_text()
        text, count = re.subn(r"(?m)^band_1 = .*$", "band_1 = linspace(-1.0, 1.0, 500)", text)
        assert count == 1
        path = self.write(tmp_path, text)
        cfg = load_config(path)
        site, _ = cli.telegraph_params_from(cfg.parameters, cfg.sampling)
        estimate = cli._part_bytes(site, cfg.sampling["n_times"], dense)
        tracemalloc.start()
        try:
            if dense:
                cli._check(cfg)
            else:
                cli.run_scenario(cfg, out_prefix=tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate
        solve = "cli._check(cfg)" if dense else "cli.run_scenario(cfg, out_prefix=sys.argv[2])"
        # the process's own high-water mark (VmHWM): ru_maxrss would start
        # from this test process's, which fork passes on
        code = (
            "import re, sys, numpy as np\n"
            "from gravodyn import cli\n"
            "from gravodyn.config import load_config\n"
            "def resident():\n"
            "    status = open('/proc/self/status').read()\n"
            "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
            "cfg = load_config(sys.argv[1])\n"
            "np.linalg.eigh(np.eye(64))  # BLAS and LAPACK set up\n"
            "before = resident()\n"
            f"{solve}\n"
            "print(1024 * (resident() - before))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, path, str(tmp_path / "run")],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert 0.5 * estimate < int(result.stdout) <= estimate

    def test_linspace_count_over_cap_exits_4_before_allocating(self, tmp_path, capsys):
        # 1e12 entries are ~8 TB: the count must be refused before linspace runs
        text = (EXAMPLES / "telegraph_switching.cfg").read_text().replace(
            "band_1 = linspace(-1.0, 1.0, 20)", "band_1 = linspace(-1.0, 1.0, 1000000000000)"
        )
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 4
            err = capsys.readouterr().err.splitlines()
            assert err == [
                "resource cap: [line 16, key 'band_1'] linspace count 1000000000000 "
                "exceeds cap of 200000"
            ]
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize(
        "name, key, line, value",
        [
            ("chooser_demo.cfg", "n_times", 12, 1000000000000),
            ("telegraph_switching.cfg", "n_times", 23, 1000000000000),
            ("sweep_decay.cfg", "n_times", 15, 1000000000000),
            ("meanfield_free_packet.cfg", "n_points", 8, 1000000000000),
            # a grid_cap above the cap would let two long axes build their
            # product before any cap fires
            ("sweep_decay.cfg", "grid_cap", 7, 200001),
        ],
    )
    def test_sample_count_over_cap_exits_4_before_allocating(
        self, tmp_path, capsys, name, key, line, value
    ):
        # 1e12 samples are ~8 TB per row: refused at parse time, before linspace
        text = (EXAMPLES / name).read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 4
            err = capsys.readouterr().err.splitlines()
            assert err == [
                f"resource cap: [line {line}, key '{key}'] count {value} "
                "exceeds cap of 200000"
            ]
        assert list(tmp_path.glob("run*")) == []

    @pytest.mark.parametrize("key", ["band_1", "band_2"])
    def test_unsorted_band_exits_2_naming_its_key(self, tmp_path, capsys, key):
        text = (EXAMPLES / "telegraph_switching.cfg").read_text()
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = 0.2, 0.1", text)
        assert count == 1
        cfg = self.write(tmp_path, text)
        for args in ([cfg, "--out", str(tmp_path / "run")], [cfg, "--check"]):
            assert cli.main(args) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"config error: [key '{key}'] band must be sorted ascending"]
        assert list(tmp_path.glob("run*")) == []

    def test_runtime_path_does_not_import_the_reference_engine(self):
        # fock is the ladder-operator reference of the tests, not of a run
        # and scipy, which only a meanfield stepper loads, costs every other run
        code = (
            "import sys, gravodyn.cli; print('gravodyn.fock' in sys.modules, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.stdout == "False []\n"

    def test_output_section_prefix_used_when_no_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.write(
            tmp_path, CHOOSER_TEXT + "\n[output]\nprefix = nested/run\n"
        )
        assert cli.main([cfg]) == 0
        assert (tmp_path / "nested" / "run.csv").exists()


def test_csv_formats_each_column_by_its_type():
    ints = np.array([0, -7, 2**53 + 1])
    floats = [-0.0, np.nan, 5e-324, np.inf, -np.inf]
    text = cli._csv(
        ["i", "x", "none", "y"],
        [ints.tolist() + [1, 2], floats, [None] * 5, np.array(floats[::-1])],
    )
    assert text == (
        "i,x,none,y\n"
        "0,-0.00000000000e+00,,-inf\n"
        "-7,nan,,inf\n"
        "9007199254740993,4.94065645841e-324,,4.94065645841e-324\n"
        "1,inf,,nan\n"
        "2,-inf,,-0.00000000000e+00\n"
    )
    assert cli._csv(["i", "x"], [range(0), []]) == "i,x\n"


def test_config_scenario_names_match_the_runner_records():
    # config cannot import cli, so it keeps its own list of names
    assert set(config.SCENARIO_NAMES) == set(cli._SCENARIOS) | {"sweep"}
    assert set(config.SWEEP_BASES) == {
        name for name, record in cli._SCENARIOS.items() if record.parts is not None
    }


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.parent.glob("*.py")), ids=lambda path: path.name
)
def test_experiment_script_runs(tmp_path, script):
    # pyproject's filterwarnings does not reach a subprocess: -W makes a numpy
    # RuntimeWarning fail the script there
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr
    documented = {  # the numbers the README and the scripts' docstrings state
        "switching_trace.py": [r"crossings: 4 at t = "],
        "decay_rate_fit.py": [r"log-log slope of rate vs u: 2\.0270 "],
        "band_collapse_trace.py": [
            r"  discreteness \(.*\): 1\.59e-03$", r"  finite band \(.*\): 0\.1797$"
        ],
    }
    for line in documented[script.name]:
        assert re.search(rf"(?m)^{line}", result.stdout), line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["chooser_demo.cfg", "telegraph_switching.cfg"])
def test_head_weights_match_a_full_evolve_reduction(tmp_path, monkeypatch, name):
    # a run evolves only the rows it reads; the rest of the norm stands for the others
    calls = []
    head_weights = cli.head_weights

    def recorded(part, times):
        calls.append((part, times, head_weights(part, times)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "head_weights", recorded)
    cli.run_scenario(load_config(EXAMPLES / name), out_prefix=tmp_path / "run")
    assert len(calls) == (1 if name.startswith("chooser") else 2)  # telegraph: two sites
    for part, times, (weights, rest) in calls:
        psi0, heads = cli._initial_state(part)
        dec = diagonalize(part)
        # the head rows alone (chooser_demo: v and w both nonzero, so psi0
        # lies on Q0 and Kproj) against every row of the full decomposition
        rows = SpectralDecomposition(dec.eigenvalues, dec.eigenvectors[heads])
        rows = np.abs(evolve(rows, psi0[heads], times)) ** 2
        assert np.max(np.abs(weights - rows)) <= 1e-14
        full = np.abs(evolve(dec, psi0, times)) ** 2
        assert np.max(np.abs(weights - full[:, heads])) <= 1e-14
        assert np.max(np.abs(rest - np.delete(full, heads, axis=1).sum(axis=1))) <= 1e-14


def test_a_chooser_point_frees_its_eigenvectors_before_evolve():
    # the first point of sweep_decay.cfg, dim 1027: the evolve that follows
    # the solve holds only V's three head rows, so the solve sets the peak
    cfg = load_config(EXAMPLES / "sweep_decay.cfg")
    (params,) = cli._grid(cfg)[2][0]
    cli._solve_chooser(replace(params, n_band=16), cfg.sampling)  # lazy imports, caches
    tracemalloc.start()
    try:
        cli._solve_chooser(params, cfg.sampling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = 3 + params.n_band
    # measured 1.165; with V kept through evolve's phase blocks, 1.54
    assert peak <= 1.2 * 8 * dim * dim


def test_chooser_runs_never_form_the_dense_matrix(tmp_path, monkeypatch):
    # the chooser is solved as a star: no dense matrix, no dense eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("dense chooser path taken")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(cli, "build_chooser", refuse)
    monkeypatch.setattr(models, "build_chooser", refuse)
    plain = load_config(EXAMPLES / "chooser_demo.cfg")
    sweep = parse_config(sweep_text("chooser", "1e-3, 2e-3"))
    for cfg in (plain, sweep):
        assert cli.run_scenario(cfg, out_prefix=tmp_path / "run")


def test_chooser_check_tests_the_star_against_the_dense_matrix(monkeypatch, capsys):
    solved, built = [], []
    solve, build = cli.diagonalize, cli.build_chooser
    monkeypatch.setattr(cli, "diagonalize", lambda m: solved.append(m) or solve(m))
    monkeypatch.setattr(cli, "build_chooser", lambda p: built.append(p) or build(p))
    assert cli.main([str(EXAMPLES / "chooser_demo.cfg"), "--check"]) == 0
    assert len(solved) == len(built) == 1
    assert solved == built and isinstance(solved[0], ChooserParams)


def full_matrix_channels(sites, weight, times):
    """Reference: the two-site state evolved under the oracle's whole sector."""
    configs, h = ladder_reference(*sites)
    modes = [occupied(c) for c in configs]  # (matter, gravonon) mode of each state
    loc_2 = 1 + len(sites[0].band)
    psi0 = np.zeros(len(configs), dtype=complex)
    psi0[modes.index((1, 0))] = math.sqrt(weight)  # w1 with local mode 1
    psi0[modes.index((3, loc_2))] = math.sqrt(1.0 - weight)  # w2 with local mode 2
    weights = np.abs(evolve(diagonalize(h), psi0, times)) ** 2
    grav = np.array([k for _, k in modes])
    channels = ((grav > 0) & (grav < loc_2), grav > loc_2, grav == 0, grav == loc_2)
    return tuple(weights[:, mask].sum(axis=1) for mask in channels)


def record_diagonalize_dims(monkeypatch):
    """The dimension of every ``diagonalize`` call cli makes, in call order."""
    dims = []

    def recording(h):
        decomposition = diagonalize(h)
        dims.append(decomposition.dim)
        return decomposition

    monkeypatch.setattr(cli, "diagonalize", recording)
    return dims


couplings = st.floats(-1.0, 1.0)
nonzero_couplings = st.floats(0.05, 1.0) | st.floats(-1.0, -0.05)
telegraph_bands = st.lists(st.floats(-2.0, 2.0), max_size=5).map(sorted)


class TestTelegraphChannels:
    @settings(max_examples=40, deadline=None)
    @given(
        energies=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
        v_loc=st.tuples(nonzero_couplings, nonzero_couplings),
        v_gw=st.tuples(couplings, couplings),
        band_1=telegraph_bands,
        band_2=telegraph_bands,
        weight=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    @example(
        energies=[0.0] * 6, v_loc=(0.3, -0.2), v_gw=(0.1, 0.05),
        band_1=[-1.0, 0.0, 1.0], band_2=[], weight=0.0,
    )
    @example(
        energies=[0.1, -0.1, 0.2, 0.0, 0.3, -0.3], v_loc=(0.5, 0.5), v_gw=(0.2, 0.4),
        band_1=[], band_2=[-0.5, 0.5], weight=1.0,
    )
    def test_site_blocks_match_the_full_matrix(
        self, energies, v_loc, v_gw, band_1, band_2, weight
    ):
        e_g1, e_g2, e_w1, e_w2, eps_1, eps_2 = energies
        sites = (
            TelegraphSite(e_g=e_g1, e_w=e_w1, v_loc=v_loc[0], eps_grav=eps_1,
                          band=band_1, v_gw=v_gw[0]),
            TelegraphSite(e_g=e_g2, e_w=e_w2, v_loc=v_loc[1], eps_grav=eps_2,
                          band=band_2, v_gw=v_gw[1]),
        )
        times = np.linspace(0.0, 10.0, 17)
        blocks = cli.telegraph_channels(sites, weight, times)
        reference = full_matrix_channels(sites, weight, times)
        for block, full in zip(blocks, reference):
            np.testing.assert_allclose(block, full, rtol=0.0, atol=1e-12)

    def test_switching_count_ignores_roundoff_at_a_tie(self):
        # both band channels are 0 at t = 0; roundoff of either sign there
        # must not add a crossing
        for noise in (1e-30, -1e-30, 0.0):
            band_1 = np.array([0.0, 0.5, 0.6, 0.2, 0.6])
            band_2 = np.array([noise, 0.3, 0.3, 0.3, 0.3])
            assert cli.switching_count(band_1, band_2) == 2

    def test_switching_count_counts_a_crossing_through_a_tie(self):
        assert cli.switching_count(np.array([1.0, 0.5, 0.2]), np.array([0.0, 0.5, 0.6])) == 1
        # touching a tie and turning back is no crossing
        assert cli.switching_count(np.array([1.0, 0.5, 1.0]), np.array([0.0, 0.5, 0.0])) == 0
        assert list(cli.crossings([1.0, 0.5, 0.5, 0.2, 0.9], [0.0, 0.5, 0.5, 0.6, 0.1])) == [3, 4]

    def test_sweep_solves_each_hamiltonian_once_per_run(self, tmp_path, monkeypatch):
        calls = record_diagonalize_dims(monkeypatch)
        cfg = load_config(BENCH_CONFIGS / "telegraph_sweep.cfg")
        first = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep")
        # 16 points: 4 distinct site-1 blocks (v_gw_1) and one site-2 block
        assert calls == [42] * 5
        second = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep")
        assert len(calls) == 10  # no solution outlives its run
        assert first == second
        counts = [
            int(line.rsplit(",", 1)[1])
            for line in first[tmp_path / "sweep.csv"].splitlines()[1:]
        ]
        assert counts == [2, 2, 2, 0, 2, 3, 4, 2, 3, 3, 4, 4, 3, 3, 4, 0]

    def test_run_and_check_diagonalize_the_same_site_blocks(
        self, tmp_path, monkeypatch, capsys
    ):
        dims = record_diagonalize_dims(monkeypatch)
        cfg = str(EXAMPLES / "telegraph_switching.cfg")
        assert cli.main([cfg, "--out", str(tmp_path / "run")]) == 0
        run_dims = list(dims)
        dims.clear()
        assert cli.main([cfg, "--check"]) == 0
        # two 20-level bands: each site block is (w_i, g_i) x 21 gravonon modes
        assert run_dims == dims == [42, 42]

    def test_sweep_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = load_config(BENCH_CONFIGS / "telegraph_sweep.cfg")
        one = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=1)
        four = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=4)
        assert one == four

    @pytest.mark.parametrize(
        "threads, cpus, workers",
        [(1000, 3, 3), (1000, 64, 6), (2, 8, 2), (0, 8, 1), (-4, 8, 1), (1000, None, 1)],
    )
    def test_sweep_threads_clamped(self, tmp_path, monkeypatch, threads, cpus, workers):
        seen = []
        real = cli.ThreadPoolExecutor

        def recording(max_workers):
            seen.append(max_workers)
            return real(max_workers=1)  # never start a large pool

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        # 6 distinct site blocks: one for site 1, one per v_gw_2 for site 2
        cfg = parse_config(sweep_text("telegraph", "0.01, 0.02, 0.03, 0.04, 0.05"))
        cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=threads)
        assert seen == ([workers] if workers > 1 else [])  # one worker: the calling thread

    @pytest.mark.parametrize(
        "base, values",
        [("chooser", "1e-3, 2e-3, 3e-3, 4e-3, 5e-3"), ("telegraph", "0.01, 0.02, 0.03, 0.04")],
    )
    @pytest.mark.parametrize("models, workers", [(1, 1), (2.5, 2), (3, 3), (100, 4)])
    def test_sweep_workers_hold_at_most_the_memory_cap(
        self, tmp_path, monkeypatch, base, values, models, workers
    ):
        seen = []
        real = cli.ThreadPoolExecutor

        def recording(max_workers):
            seen.append(max_workers)
            return real(max_workers=max_workers)

        cfg = parse_config(sweep_text(base, values))
        one = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=1)
        # a cap of `models` parts of this grid: chooser points (n_band = 10),
        # or telegraph sites (two 4-level bands, 5 distinct sites)
        part = cli._grid(cfg)[2][0][0]
        per_part = cli._part_bytes(part, cfg.sampling["n_times"])
        monkeypatch.setattr(cli, "DEFAULT_MEMORY_CAP", int(models * per_part))
        monkeypatch.setattr(cli, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        capped = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=4)
        assert seen == ([workers] if workers > 1 else [])  # one worker: the calling thread
        assert capped == one

    def test_chooser_sweep_thread_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        seen = []
        real = cli.ThreadPoolExecutor

        def recording(max_workers):
            seen.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        cfg = parse_config(sweep_text("chooser", "1e-3, 2e-3, 3e-3"))
        one = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=1)
        two = cli.run_scenario(cfg, out_prefix=tmp_path / "sweep", threads=2)
        assert seen == [2]  # the calling thread, then a pool of two
        assert one == two

    def test_sweep_reduces_points_a_block_at_a_time_as_one_at_a_time(self, tmp_path):
        # 4 v_gw_1 x 5 weight_site1 = 20 points: a block of 16 and one of 4
        text = (BENCH_CONFIGS / "telegraph_sweep.cfg").read_text()
        text, _ = set_key(text, "parameters", "sweep_weight_site1", "0.3, 0.45, 0.6, 0.75, 0.9")
        text, _ = set_key(text, "sampling", "n_times", "512")
        cfg = parse_config(text)
        names, points, parts = cli._grid(cfg)
        assert len(points) == 20 > cli._POINT_BLOCK
        times = np.linspace(0.0, cfg.sampling["t_final"], cfg.sampling["n_times"])
        plateaus, counts = [], []
        for p, sites in zip(points, parts):
            band_1, band_2, _, _ = cli.telegraph_channels(sites, p["weight_site1"], times)
            plateaus.append(float(np.percentile(band_1, 95)))
            counts.append(cli.switching_count(band_1, band_2))
        reference = cli._csv(
            ["grid_index", *names, "plateau", "decay_rate", "switching_count"],
            [range(20), *([p[name] for p in points] for name in names),
             plateaus, [None] * 20, counts],
        )
        prefix = tmp_path / "sweep"
        for threads in (1, 2):
            outputs = cli.run_scenario(cfg, out_prefix=prefix, threads=threads)
            assert outputs == {tmp_path / "sweep.csv": reference}
