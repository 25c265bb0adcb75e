import argparse
import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import semiquantum.cli as cli
import semiquantum.integrator as integrator
import semiquantum.sweep as sweep
from semiquantum.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    PRESETS,
    build_parser,
    g17,
    main,
)
from semiquantum.svgplot import write_svg

FAST_SIM = {
    "simulate": {"t_end": 20.0, "sample_interval": 0.5},
    "integrator": {"abs_tol": 1e-10, "rel_tol": 1e-10},
}


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestG17:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for v in rng.uniform(-1e6, 1e6, size=500):
            assert float(g17(v)) == v
        assert float(g17(0.1)) == 0.1


class TestConfigHandling:
    def test_no_config_is_config_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_preset(self, tmp_path):
        assert main(["simulate", "--preset", "fig9z", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_invalid_params(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "params": {"eps": -1.0, "gamma": 0.0, "delta": 1.0, "alpha": 0.0, "omega": 1.0},
            "initial": {"n0": 1.0, "x0": 1.0, "p0": 0.0},
        })
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_preset_table_complete(self):
        assert set(PRESETS) == {
            "fig1a", "fig1b", "fig1c", "fig2a", "fig2b",
            "fig2c", "fig2d", "fig3a", "fig3b", "fig4",
        }

    def test_undecodable_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\xfd")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_only_configuration_errors_exit_config(self, tmp_path, monkeypatch, capsys):
        def broken_rhs(y, p):
            raise ValueError("a programming error")

        monkeypatch.setattr(integrator, "rhs", broken_rhs)
        with pytest.raises(ValueError, match="a programming error"):
            main(["simulate", "--preset", "fig1b", "--out", str(tmp_path)])
        assert "configuration error" not in capsys.readouterr().err


class TestPresets:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_parses_for_every_command(self, preset, tmp_path):
        cfg = cli._load_config(argparse.Namespace(preset=preset, config=None))
        p = cli._build_params(cfg["params"])
        cli._initial_recipe(cfg["initial"]).build(p)
        for name in ("simulate", "oracle", "poincare", "lyapunov"):
            cli._read(cfg[name], name, cli._SECTIONS[name])
        cli._build_settings(cfg["integrator"], 1e-10)
        assert main(["oracle", "--preset", preset, "--out", str(tmp_path)]) == EXIT_OK

    def test_config_initial_replaces_the_preset_initial(self, tmp_path):
        cfg = write_cfg(tmp_path, {"initial": {"e_eff": 4.8, "i_inv": 4.0, "ominus0": 2.5},
                                   **FAST_SIM})
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig2d", "--config", cfg, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["initial"]["om"] == 2.5


def readme_config_table():
    """The README's config-key table: object -> {key: (kind, default column)}."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| object | key | kind | default |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        obj, key, kind, default = (cell.strip() for cell in line.strip("|").split("|"))
        table.setdefault(obj.strip("`"), {})[key.strip("`")] = (kind, default)
    return table


class TestReadmeConfigTable:
    KIND_NAMES = {float: "float", int: "int", str: "string", list: "list", dict: "object"}

    def test_objects_and_keys_match_the_reader(self):
        table = readme_config_table()
        assert {obj: set(keys) for obj, keys in table.items()} == \
            {obj: set(fields) for obj, fields in cli._SECTIONS.items()}

    def test_kinds_and_required_keys_match_the_reader(self):
        table = readme_config_table()
        for obj, fields in cli._SECTIONS.items():
            for key, field in fields.items():
                required = isinstance(field, type)
                kind, default = table[obj][key]
                assert kind == self.KIND_NAMES[field if required else type(field)], (obj, key)
                assert default.startswith("required") == required, (obj, key)


# every optional flag of sqlab, with a valid value where it takes one, and
# the flags each subcommand reads
FLAGS = {
    "--config": "cfg.json", "--preset": "fig1a", "--out": "out", "--plot": None,
    "--expect-divergence": None, "--families": "2", "--direction": "both", "--mode": "linear",
}
COMMAND_FLAGS = {
    "simulate": {"--config", "--preset", "--out", "--plot", "--expect-divergence"},
    "oracle": {"--config", "--preset", "--out", "--mode"},
    "poincare": {"--config", "--preset", "--out", "--plot", "--expect-divergence",
                 "--families", "--direction"},
    "lyapunov": {"--config", "--preset", "--out"},
    "sweep": {"--out"},
}


def usage_exit(argv):
    """The exit code of an argv that the parser rejects."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


class TestFlags:
    def test_each_subcommand_takes_only_its_own_flags(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        settable = {
            name: {opt for a in cmd._actions if not isinstance(a, argparse._HelpAction)
                   for opt in (a.option_strings or [a.dest])}
            for name, cmd in sub.choices.items()
        }
        assert settable == {name: flags | ({"specfile"} if name == "sweep" else set())
                            for name, flags in COMMAND_FLAGS.items()}
        assert sum(len(flags) for flags in settable.values()) == 21

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, own in COMMAND_FLAGS.items()
        for flag in FLAGS if flag not in own
    ])
    def test_flag_not_read_is_a_usage_error(self, command, flag):
        argv = [command] + (["spec.json"] if command == "sweep" else [])
        argv += [flag] + ([] if FLAGS[flag] is None else [FLAGS[flag]])
        assert usage_exit(argv) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--direction", "up"), ("--families", "0")])
    def test_bad_flag_value_is_a_usage_error(self, flag, value):
        assert usage_exit(["poincare", "--preset", "fig1b", flag, value]) == EXIT_CONFIG


# a command that reads the section, and one key it knows
SECTION_RUNS = {
    "simulate": (["simulate", "--preset", "fig1b"], "t_end"),
    "integrator": (["simulate", "--preset", "fig1b"], "abs_tol"),
    "oracle": (["oracle", "--preset", "fig1a", "--mode", "linear"], "samples"),
    "poincare": (["poincare", "--preset", "fig1b"], "t_end"),
    "lyapunov": (["lyapunov", "--preset", "fig1b"], "total"),
}


# the int key of a section, and a key whose NaN the parent's checks let through
INT_KEYS = {"oracle": "samples", "integrator": "max_steps"}
NAN_KEYS = {"simulate": "sample_interval", "integrator": "divergence_norm"}
SECTION_CASES = [
    (bad, section)
    for bad in ("list_value", "not_an_object", "string_value", "unknown_key", "bool_value", "nan_value")
    for section in sorted(SECTION_RUNS)
] + [("fractional_int", section) for section in sorted(INT_KEYS)]


class TestNumericSections:
    @pytest.mark.parametrize("bad, section", SECTION_CASES, ids=[f"{b}-{s}" for b, s in SECTION_CASES])
    def test_bad_section_is_config_error(self, tmp_path, capsys, section, bad):
        argv, key = SECTION_RUNS[section]
        payload = {
            "not_an_object": 5,
            "list_value": {key: [1]},
            "string_value": {key: "1"},
            "unknown_key": {key + "_typo": 1.0},
            "bool_value": {key: True},
            "nan_value": {NAN_KEYS.get(section, key): float("nan")},
            "fractional_int": {INT_KEYS.get(section): 20.5},
        }[bad]
        # alpha = 0 lets the oracle comparison reach its section
        cfg = write_cfg(tmp_path, {"params": {"alpha": 0.0}, section: payload})
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert section in capsys.readouterr().err


BUDGET_300 = {
    "integrator": {"max_steps": 300},
    "simulate": {"t_end": 200.0},
    "poincare": {"t_end": 200.0},
    "lyapunov": {"transient": 10.0, "total": 200.0},
}


class TestStepBudget:
    """An exhausted step budget is a numerical failure on every command."""

    @pytest.mark.parametrize("command", ["simulate", "poincare", "lyapunov"])
    def test_commands_exit_numerical(self, tmp_path, command):
        cfg = write_cfg(tmp_path, BUDGET_300)
        out = tmp_path / "run"
        assert main([command, "--preset", "fig2d", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        if command == "simulate":
            summary = json.loads((out / "summary.json").read_text())
            assert summary["status"] == "numerical_failure"
            assert "step budget exhausted" in summary["error"]
            assert not (out / "trajectory.csv").exists()

    def test_sweep_cell_fails(self, tmp_path):
        spec = write_cfg(tmp_path, {
            "params": PRESETS["fig2d"]["params"],
            "initial": {"e_eff": 4.8, "i_inv": 4.0},
            "axis1": {"name": "eps", "values": [1.05]},
            "axis2": {"name": "alpha", "values": [0.015]},
            "budget": 200.0, "transient": 10.0,
            "integrator": {"max_steps": 300},
            "workers": 1,
        }, name="sweep.json")
        assert main(["sweep", spec, "--out", str(tmp_path / "sw")]) == EXIT_OK
        rows = read_csv(tmp_path / "sw" / "regimes.csv")
        assert len(rows) == 2
        assert rows[1][4] == ""
        assert rows[1][8].startswith("failed: step budget exhausted")


class TestSimulate:
    def test_trajectory_csv_round_trips(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        code = main(["simulate", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "run" / "trajectory.csv")
        assert rows[0] == ["t", "n1", "ominus", "oplus", "x", "p", "e_eff", "i_inv"]
        assert len(rows) == 1 + 41  # t=0, the 39 interior samples, t_end
        first = [float(v) for v in rows[1]]
        assert first[0] == 0.0
        assert first[1] == 2.0  # n1 = n0 + 1
        assert first[4] == 1.0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["status"] == "completed"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        for d in ("a", "b"):
            assert main(["simulate", "--preset", "fig2d", "--config", cfg,
                         "--out", str(tmp_path / d)]) == EXIT_OK
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a == b

    def test_divergence_exit_codes(self, tmp_path):
        cfg = write_cfg(tmp_path, {"simulate": {"t_end": 200.0, "sample_interval": 1.0},
                                   "integrator": {"abs_tol": 1e-8, "rel_tol": 1e-8}})
        code = main(["simulate", "--preset", "fig1c", "--config", cfg,
                     "--out", str(tmp_path / "d1")])
        assert code == EXIT_DIVERGED
        code = main(["simulate", "--preset", "fig1c", "--config", cfg,
                     "--expect-divergence", "--out", str(tmp_path / "d2")])
        assert code == EXIT_OK

    def test_step_budget_is_numerical_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, {"simulate": {"t_end": 100.0, "sample_interval": 1.0},
                                   "integrator": {"max_steps": 20}})
        code = main(["simulate", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_NUMERICAL

    def test_non_finite_radicand_is_infeasible(self, tmp_path, capsys):
        # p^2 overflows to inf: an infeasible constraint, not a state traceback
        cfg = write_cfg(tmp_path, {"initial": {"e_eff": 1e308, "i_inv": 4.0}, **FAST_SIM})
        code = main(["simulate", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert "radicand inf" in capsys.readouterr().err

    def test_plot_emitted(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SIM)
        assert main(["simulate", "--preset", "fig1a", "--config", cfg, "--plot",
                     "--out", str(tmp_path / "p")]) == EXIT_OK
        svg = (tmp_path / "p" / "trajectory.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg[:200]


class TestOracle:
    def test_classify_mode(self, tmp_path, capsys):
        code = main(["oracle", "--preset", "fig1a", "--mode", "classify",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "oracle.json").read_text())
        assert report["classification"]["label"] == "stable_positive_definite"
        printed = json.loads(capsys.readouterr().out)
        assert printed["label"] == "stable_positive_definite"

    def test_linear_mode_matches_integrator(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 0.0, "omega": 1.0},
            "initial": dict(n0=1.0, x0=1.0, p0=-2.54950976),
            "oracle": {"t_end": 50.0, "samples": 101},
        })
        code = main(["oracle", "--config", cfg, "--mode", "linear", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "oracle.json").read_text())
        assert report["max_abs_deviation"] < 1e-8

    def test_critical_mode(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "params": {"eps": 1.0, "gamma": 0.0, "delta": 1.0, "alpha": 0.0, "omega": 1.0},
            "initial": dict(n0=1.0, x0=1.0, p0=0.5),
            "oracle": {"t_end": 5.0, "samples": 51},
        })
        code = main(["oracle", "--config", cfg, "--mode", "critical", "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "oracle.json").read_text())
        assert report["max_rel_deviation"] < 1e-7

    def test_nonzero_alpha_rejected(self, tmp_path):
        code = main(["oracle", "--preset", "fig1b", "--mode", "linear",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_critical_mode_needs_criticality(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 0.0, "omega": 1.0},
            "initial": dict(n0=1.0, x0=1.0, p0=0.0),
        })
        code = main(["oracle", "--config", cfg, "--mode", "critical", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestPoincare:
    def test_section_csv_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 100.0}})
        code = main(["poincare", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "sec")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sec" / "section.csv")
        assert rows[0] == ["t_cross", "ominus", "oplus", "n1", "p", "direction"]
        assert len(rows) > 10
        assert all(r[5] in ("-1", "1") for r in rows[1:])
        times = [float(r[0]) for r in rows[1:]]
        assert times == sorted(times)

    def test_families_emit_numbered_files(self, tmp_path):
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 60.0}})
        code = main(["poincare", "--preset", "fig1b", "--config", cfg,
                     "--families", "5", "--out", str(tmp_path / "fam")])
        assert code == EXIT_OK
        files = sorted(f.name for f in (tmp_path / "fam").glob("section_*.csv"))
        assert files == [f"section_{k:02d}.csv" for k in range(5)]
        summary = json.loads((tmp_path / "fam" / "summary.json").read_text())
        assert summary["families"] == 5

    def test_empty_family_band_is_infeasible(self, tmp_path, capsys):
        # p0 = 0 puts n1 at the largest value the energy allows: no om0 band
        cfg = write_cfg(tmp_path, {"initial": {"n0": 1.0, "x0": 1.0, "p0": 0.0},
                                   "poincare": {"t_end": 20.0}})
        code = main(["poincare", "--preset", "fig2d", "--config", cfg,
                     "--families", "3", "--out", str(tmp_path / "fam")])
        assert code == EXIT_CONFIG
        assert "family band" in capsys.readouterr().err

    def test_direction_filter(self, tmp_path):
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 100.0}})
        code = main(["poincare", "--preset", "fig1b", "--config", cfg,
                     "--direction", "+1", "--out", str(tmp_path / "up")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "up" / "section.csv")
        assert all(r[5] == "1" for r in rows[1:])

    def test_summary_reports_step_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 30.0}})
        code = main(["poincare", "--preset", "fig2d", "--config", cfg,
                     "--families", "2", "--out", str(tmp_path / "fam")])
        assert code == EXIT_OK
        members = json.loads((tmp_path / "fam" / "summary.json").read_text())["members"]
        assert len(members) == 2
        for m in members:
            # a step cannot hold more than _EVENT_SUBDIV crossings
            assert isinstance(m["steps_rejected"], int) and m["steps_rejected"] >= 0
            assert 4 * m["steps_accepted"] >= m["crossings"] > 0

    def test_refinement_failure_exits_numerical(self, tmp_path, monkeypatch):
        def bad_brentq(*args, **kwargs):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr(integrator, "brentq", bad_brentq)
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 20.0}})
        code = main(["poincare", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "sec")])
        assert code == EXIT_NUMERICAL

    def test_empty_section_warns_but_succeeds(self, tmp_path):
        # field mode at rest on the plane and decoupled: X stays identically 0
        cfg = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 0.0, "omega": 1.0},
            "initial": {"n0": 0.0, "ominus0": 0.0, "oplus0": 0.0, "x0": 0.0, "p0": 0.0},
            "poincare": {"t_end": 50.0},
        })
        code = main(["poincare", "--config", cfg, "--out", str(tmp_path / "empty")])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "empty" / "summary.json").read_text())
        assert summary["members"][0]["crossings"] == 0
        assert "warning" in summary["members"][0]


class TestPlots:
    def test_plots_are_well_formed_svg(self, tmp_path):
        # legend and axis labels hold '<' and '>', which must be escaped
        cfg = write_cfg(tmp_path, {**FAST_SIM, "poincare": {"t_end": 20.0}})
        for command, name, texts in [("simulate", "trajectory.svg", {"<N>", "E_eff"}),
                                     ("poincare", "section.svg", {"<O->", "<O+>"})]:
            assert main([command, "--preset", "fig2d", "--config", cfg, "--plot",
                         "--out", str(tmp_path / command)]) == EXIT_OK
            root = ET.parse(tmp_path / command / name).getroot()
            assert texts <= {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}

    def test_a_range_of_two_ulps_is_plotted(self, tmp_path):
        # its tick step is below the ulp of the tick values, so adding it stalls
        y = [1.0, math.nextafter(math.nextafter(1.0, 2.0), 2.0)]
        write_svg(tmp_path / "flat.svg", [([0.0, 1.0], y)], ylabel="y")
        root = ET.parse(tmp_path / "flat.svg").getroot()
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "y" in labels and 4 <= len(labels) <= 2 * 7 + 1


class TestLyapunov:
    def test_report_fields(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 20.0, "total": 200.0,
                                                "renorm_interval": 1.0}})
        code = main(["lyapunov", "--preset", "fig1a", "--config", cfg,
                     "--out", str(tmp_path / "lyap")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "lyap" / "lyapunov.json").read_text())
        assert abs(report["lambda_max"]) < 0.05
        assert report["standard_error"] > 0
        assert report["renorm_count"] > 150

    def test_report_step_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 30.0,
                                                "renorm_interval": 1.0}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "lyap")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "lyap" / "lyapunov.json").read_text())
        # every renormalization mark ends an accepted step
        assert isinstance(report["steps_rejected"], int) and report["steps_rejected"] >= 0
        assert report["steps_accepted"] >= 30

    def test_divergence_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 300.0, "total": 1000.0}})
        code = main(["lyapunov", "--preset", "fig1c", "--config", cfg,
                     "--out", str(tmp_path / "ld")])
        assert code == EXIT_DIVERGED
        report = json.loads((tmp_path / "ld" / "lyapunov.json").read_text())
        assert report["status"] == "diverged"

    def test_negative_transient_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": -100.0, "total": 300.0}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "ln")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "ln" / "lyapunov.json").exists()

    def test_too_few_growth_samples_is_config_error(self, tmp_path):
        # one renormalization (t = 150) past the transient of a regular orbit
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 200.0,
                                                "renorm_interval": 150.0}})
        code = main(["lyapunov", "--preset", "fig1a", "--config", cfg,
                     "--out", str(tmp_path / "lr")])
        assert code == EXIT_CONFIG


class TestSweep:
    def test_regime_csv_contract(self, tmp_path):
        spec = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 1e-4, "omega": 1.0},
            "initial": {"e_eff": 4.8, "i_inv": 4.0},
            "axis1": {"name": "eps", "values": [1.05, 1.2]},
            "axis2": {"name": "alpha", "values": [1e-4]},
            "budget": 300.0,
            "transient": 50.0,
            "integrator": {"abs_tol": 1e-8, "rel_tol": 1e-8},
            "workers": 1,
        }, name="sweep.json")
        code = main(["sweep", spec, "--out", str(tmp_path / "sw")])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "sw" / "regimes.csv")
        assert rows[0] == ["axis1_name", "axis1_value", "axis2_name", "axis2_value",
                           "regime", "lambda_max", "stderr", "divergence_time", "status"]
        assert len(rows) == 3
        for r in rows[1:]:
            assert r[0] == "eps" and r[2] == "alpha"
            assert r[8] == "ok"
            assert r[4] in ("periodic", "quasiperiodic", "chaotic", "divergent", "inconclusive")

    def test_missing_specfile(self, tmp_path):
        code = main(["sweep", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_duplicate_axes_rejected(self, tmp_path):
        spec = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 1e-4, "omega": 1.0},
            "initial": {"e_eff": 4.8, "i_inv": 4.0},
            "axis1": {"name": "eps", "values": [1.0]},
            "axis2": {"name": "eps", "values": [1.1]},
        }, name="dup.json")
        assert main(["sweep", spec, "--out", str(tmp_path)]) == EXIT_CONFIG


SWEEP_SPEC = {
    "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 1e-4, "omega": 1.0},
    "initial": {"e_eff": 4.8, "i_inv": 4.0},
    "axis1": {"name": "eps", "values": [1.05]},
    "axis2": {"name": "alpha", "values": [1e-4]},
    "budget": 100.0,
    "transient": 10.0,
    "workers": 1,
}


LITERAL = {"n0": 1.0, "x0": 1.0, "p0": -2.54950976}
SHORT = {"simulate": {"t_end": 2.0}}
# argv before --config (None: a sweep spec), the file, and the object and key
# the message must name
OBJECT_CASES = {
    "section_typo": (["lyapunov", "--preset", "fig1a"],
                     {"lyapnov": {"total": 50.0}, "lyapunov": {"transient": 5.0, "total": 30.0}},
                     "config file", "lyapnov"),
    "params_key": (["simulate", "--preset", "fig1b"], {"params": {"gama": 0.1}, **SHORT},
                   "params", "gama"),
    "literal_initial_key": (["simulate", "--preset", "fig1b"],
                            {"initial": {**LITERAL, "om0": 0.5}, **SHORT}, "initial", "om0"),
    "constrained_initial_key": (["simulate", "--preset", "fig1b"],
                                {"initial": {"e_eff": 4.8, "i_inv": 4.0, "om0": 0.5}, **SHORT},
                                "initial", "om0"),
    "momentum_sign": (["simulate", "--preset", "fig1b"],
                      {"initial": {"e_eff": 4.8, "i_inv": 4.0, "momentum_sign": 1.5}, **SHORT},
                      "initial", "momentum_sign"),
    "samples": (["oracle", "--preset", "fig1a", "--mode", "linear"],
                {"params": {"alpha": 0.0}, "oracle": {"samples": 1}}, "oracle", "samples"),
    "sweep_key": (None, {**SWEEP_SPEC, "renorm_intervall": 50.0}, "sweep spec", "renorm_intervall"),
    "values_axis_key": (None, {**SWEEP_SPEC, "axis1": {"name": "eps", "values": [1.05], "count": 3}},
                        "axis1", "count"),
    "linspace_axis_key": (None, {**SWEEP_SPEC, "axis1": {"name": "eps", "min": 1.0, "max": 1.1,
                                                         "count": 2, "step": 0.1}}, "axis1", "step"),
    "count": (None, {**SWEEP_SPEC, "axis1": {"name": "eps", "min": 1.0, "max": 1.1, "count": 2.5}},
              "axis1", "count"),
}


class TestConfigObjects:
    """Each config object rejects what it does not read, naming the object and the key."""

    @pytest.mark.parametrize("case", sorted(OBJECT_CASES))
    def test_bad_object_is_config_error(self, tmp_path, capsys, case):
        argv, payload, obj, key = OBJECT_CASES[case]
        path = write_cfg(tmp_path, payload)
        out = str(tmp_path / "o")
        argv = ["sweep", path, "--out", out] if argv is None else argv + ["--config", path, "--out", out]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert obj in err and key in err


class TestSweepSpecErrors:
    """Bad sweep-spec values exit 1 before any cell runs or output is written."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", refuse)

    def run_spec(self, tmp_path, **changes):
        spec = {**SWEEP_SPEC, **changes}
        path = write_cfg(tmp_path, spec, name="bad_sweep.json")
        code = main(["sweep", path, "--out", str(tmp_path / "sw")])
        assert not (tmp_path / "sw" / "regimes.csv").exists()
        return code

    @pytest.mark.parametrize("workers", ["2", 0, 1.0, True])
    def test_workers_must_be_an_int_in_range(self, tmp_path, workers):
        assert self.run_spec(tmp_path, workers=workers) == EXIT_CONFIG

    def test_workers_above_cpu_count(self, tmp_path):
        assert self.run_spec(tmp_path, workers=(os.cpu_count() or 1) + 1) == EXIT_CONFIG

    def test_axis_values_not_a_list(self, tmp_path):
        assert self.run_spec(tmp_path, axis1={"name": "eps", "values": 5}) == EXIT_CONFIG

    def test_budget_not_a_number(self, tmp_path):
        assert self.run_spec(tmp_path, budget=[100.0]) == EXIT_CONFIG

    def test_e_eff_without_i_inv(self, tmp_path):
        assert self.run_spec(tmp_path, initial={"e_eff": 4.8}) == EXIT_CONFIG

    def test_bad_momentum_sign(self, tmp_path):
        initial = {"e_eff": 4.8, "i_inv": 4.0, "momentum_sign": 2}
        assert self.run_spec(tmp_path, initial=initial) == EXIT_CONFIG


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        # importing scipy.optimize made up about 0.5 s of every command's start-up
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        code = ("import semiquantum.cli, sys; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
