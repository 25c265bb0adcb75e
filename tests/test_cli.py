import argparse
import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import semiquantum.cli as cli
import semiquantum.integrator as integrator
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
from semiquantum import analysis, svgplot
from semiquantum.errors import NumericalFailureError
from semiquantum.integrator import IntegratorSettings, integrate, integrate_augmented
from semiquantum.model import ModelParams, SystemState, effective_energy, invariant_I
from semiquantum.sweep import InitialRecipe
from semiquantum.svgplot import write_svg

def drift(s0, states, p):
    """The largest |change| of E_eff and of I from s0's values over s0 and states."""
    states = [s0, *states]
    e = [effective_energy(s, p) for s in states]
    i = [invariant_I(s) for s in states]
    return {"e_eff": max(abs(v - e[0]) for v in e), "i_inv": max(abs(v - i[0]) for v in i)}


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

    def test_config_from_a_fifo(self, tmp_path):
        # the shape of --config <(jq ...): a readable path that is not a regular file
        fifo = tmp_path / "cfg.fifo"
        os.mkfifo(fifo)

        def feed():
            # a write end opened without blocking fails until the reader opens the
            # FIFO, so a reader that never comes leaves the test failing, not hung
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                except OSError:
                    time.sleep(0.01)
                    continue
                os.write(fd, json.dumps({"params": {"alpha": 0.0}}).encode())
                os.close(fd)
                return

        threading.Thread(target=feed, daemon=True).start()
        out = tmp_path / "run"
        assert main(["oracle", "--preset", "fig2d", "--config", str(fifo), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "oracle.json").read_text())["params"]["alpha"] == 0.0

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        assert main(["oracle", "--config", str(tmp_path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert f"config file cannot be read: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "oracle", "poincare", "lyapunov"])
    def test_out_that_cannot_be_made_is_config_error(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, "--preset", "fig2d", "--out", str(blocker / "x")]) == EXIT_CONFIG
        assert f"--out {blocker / 'x'} cannot be made" in capsys.readouterr().err

    def test_only_configuration_errors_exit_config(self, tmp_path, monkeypatch, capsys):
        def broken_rhs(y, p):
            raise ValueError("a programming error")

        monkeypatch.setattr(integrator, "rhs", broken_rhs)
        # simulate's Taylor step calls rhs only when it is recorded, on first use in a process
        integrator._compiled.cache_clear()
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


def rhs_evals(report: dict) -> int:
    """The field work of a run on the Taylor stepper, which every command reports:
    its order of the field recurrence once per step, and no step rejected."""
    assert report["method"] == "taylor" and report["steps_rejected"] == 0
    return report["order"] * report["steps_accepted"]


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


# simulate and oracle take about one Taylor step per time unit here (193 and 226 to
# t = 200), poincare and lyapunov many more DOP5 steps
BUDGET_100 = {
    "integrator": {"max_steps": 100},
    "simulate": {"t_end": 200.0},
    "poincare": {"t_end": 200.0},
    "lyapunov": {"transient": 10.0, "total": 200.0},
}


class TestStepBudget:
    """An exhausted step budget is a numerical failure on every command, and
    every command leaves its report of it."""

    @pytest.mark.parametrize("argv, report", [
        (["simulate"], "summary.json"),
        (["poincare"], "summary.json"),
        (["lyapunov"], "lyapunov.json"),
        (["oracle", "--mode", "linear"], "oracle.json"),
    ], ids=["simulate", "poincare", "lyapunov", "oracle"])
    def test_commands_exit_numerical(self, tmp_path, argv, report):
        cfg = write_cfg(tmp_path, {**BUDGET_100, "params": {"alpha": 0.0}, "oracle": {"t_end": 200.0}})
        out = tmp_path / "run"
        assert main([*argv, "--preset", "fig2d", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        summary = json.loads((out / report).read_text())
        assert summary["command"] == argv[0]
        assert summary["status"] == "numerical_failure"
        assert summary["error"].startswith("step budget exhausted (last good time t=")
        assert 0.0 < summary["last_good_time"] < 200.0
        assert "wall_time_s" not in summary
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
        assert (summary["method"], summary["order"]) == ("taylor", 13)       # at tolerance 1e-10
        assert summary["rhs_evals"] == rhs_evals(summary) and summary["renorms"] == 0
        # the drift is read off the CSV's own invariant columns
        for key, col in (("e_eff", 6), ("i_inv", 7)):
            column = [float(r[col]) for r in rows[1:]]
            assert summary["max_abs_drift"][key] == max(abs(v - column[0]) for v in column)
            assert 0.0 < summary["max_abs_drift"][key] < 1e-8      # at tolerance 1e-10

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
        # the outputs are written before the exit code says the divergence was unexpected
        summary = json.loads((tmp_path / "d1" / "summary.json").read_text())
        assert summary["status"] == "diverged" and 0.0 < summary["t_div"] < 200.0
        rows = read_csv(tmp_path / "d1" / "trajectory.csv")
        assert float(rows[-1][0]) == summary["t_div"]
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

    def test_too_many_samples_is_config_error(self, tmp_path, capsys):
        # 2e7 sample intervals, above the bound of 1e6; nothing is integrated or written
        cfg = write_cfg(tmp_path, {"simulate": {"t_end": 20.0, "sample_interval": 1e-6}})
        assert main(["simulate", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "s")]) == EXIT_CONFIG
        assert "t_end / sample_interval must be at most 1000000" in capsys.readouterr().err
        assert not (tmp_path / "s" / "trajectory.csv").exists()

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
        assert "max_abs_drift" not in report         # no samples to measure it on
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
        assert (report["method"], report["order"]) == ("taylor", 15)         # at tolerance 1e-12
        assert report["steps_accepted"] > 0 and report["rhs_evals"] == rhs_evals(report)
        # the drift is over the compared samples, which the oracle's own settings give
        p = ModelParams(**report["params"])
        s0 = SystemState(n1=2.0, om=0.0, op=0.0, x=1.0, p=-2.54950976)
        traj = integrate(s0, p, 50.0, IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12),
                         sample_interval=0.5)
        assert len(traj) == 101
        assert report["max_abs_drift"] == drift(s0, map(traj.state_at, range(1, 101)), p)
        assert 0.0 < report["max_abs_drift"]["e_eff"] < 1e-9

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
        assert report["method"] == "taylor"
        assert report["steps_accepted"] > 0 and report["rhs_evals"] == rhs_evals(report)

    def test_too_many_samples_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"params": {"alpha": 0.0}, "oracle": {"samples": 10**7}})
        assert main(["oracle", "--preset", "fig1b", "--config", cfg, "--mode", "linear",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "oracle.samples must be from 2 to 1000000, got 10000000" in capsys.readouterr().err

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
            # the events pass runs the Taylor stepper, which rejects no step; a step's
            # polynomial of degree order has at most order roots
            assert (m["method"], m["order"], m["steps_rejected"]) == ("taylor", 13, 0)
            assert m["order"] * m["steps_accepted"] >= m["crossings"] > 0
            assert m["rhs_evals"] == rhs_evals(m)

    def test_members_report_drift_over_their_crossings(self, tmp_path):
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 60.0}})
        code = main(["poincare", "--preset", "fig2d", "--config", cfg, "--families", "2",
                     "--direction", "-1", "--out", str(tmp_path / "fam")])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "fam" / "summary.json").read_text())
        p, settings = ModelParams(**summary["params"]), IntegratorSettings(**summary["settings"])
        for m in summary["members"]:
            s0 = SystemState(**m["initial"])
            _, events = analysis.poincare(s0, p, 60.0, settings, direction_filter=-1)
            assert len(events) == m["crossings"] >= 5
            assert m["max_abs_drift"] == drift(s0, [e.state for e in events], p)
            assert 0.0 < m["max_abs_drift"]["i_inv"] < 1e-6     # at tolerance 1e-10

    def test_refinement_failure_exits_numerical(self, tmp_path, monkeypatch):
        def bad_brentq(*args, **kwargs):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr(integrator, "brentq", bad_brentq)
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 20.0}})
        code = main(["poincare", "--preset", "fig1b", "--config", cfg,
                     "--out", str(tmp_path / "sec")])
        assert code == EXIT_NUMERICAL
        summary = json.loads((tmp_path / "sec" / "summary.json").read_text())
        assert summary["status"] == "numerical_failure"
        assert summary["error"].startswith("crossing refinement on [")
        assert 0.0 < summary["last_good_time"] < 20.0

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
        assert summary["members"][0]["max_abs_drift"] == {"e_eff": 0.0, "i_inv": 0.0}


class TestInterruptedRun:
    """Every file of a run appears whole, together with its report, or not at all."""

    ARGV = ["poincare", "--preset", "fig2d", "--families", "3", "--plot"]

    @staticmethod
    def interrupt_the_second_member(monkeypatch, exc=KeyboardInterrupt):
        members = []
        poincare = analysis.poincare

        def interrupted(*args, **kwargs):
            members.append(args)
            if len(members) == 2:
                raise exc
            return poincare(*args, **kwargs)

        monkeypatch.setattr(analysis, "poincare", interrupted)

    def test_an_empty_out_stays_empty(self, tmp_path, monkeypatch):
        out = tmp_path / "fam"
        out.mkdir()
        self.interrupt_the_second_member(monkeypatch)
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 20.0}})
        with pytest.raises(KeyboardInterrupt):
            main([*self.ARGV, "--config", cfg, "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_an_earlier_run_is_left_byte_for_byte(self, tmp_path, monkeypatch):
        out = tmp_path / "fam"
        assert main([*self.ARGV, "--config", write_cfg(tmp_path, {"poincare": {"t_end": 20.0}}),
                     "--out", str(out)]) == EXIT_OK
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert sorted(before) == ["section.svg", "section_00.csv", "section_01.csv", "section_02.csv",
                                  "summary.json"]
        self.interrupt_the_second_member(monkeypatch)
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 30.0}}, name="longer.json")
        with pytest.raises(KeyboardInterrupt):
            main([*self.ARGV, "--config", cfg, "--out", str(out)])
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_a_failure_report_replaces_the_earlier_run(self, tmp_path, monkeypatch):
        # the failure report stands alone: no file of the earlier run stays beside it
        out = tmp_path / "fam"
        cfg = write_cfg(tmp_path, {"poincare": {"t_end": 20.0}})
        assert main([*self.ARGV, "--config", cfg, "--out", str(out)]) == EXIT_OK
        self.interrupt_the_second_member(
            monkeypatch, NumericalFailureError("step size underflow", last_good_time=1.5))
        assert main([*self.ARGV, "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert [f.name for f in out.iterdir()] == ["summary.json"]
        report = json.loads((out / "summary.json").read_text())
        assert (report["status"], report["last_good_time"]) == ("numerical_failure", 1.5)


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
        # the y tick labels are the right-anchored texts
        y_labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                    if el.get("text-anchor") == "end"]
        assert len(set(y_labels)) == len(y_labels) >= 2

    @pytest.mark.parametrize("lo, hi", [(-0.5721 - 5e-8, -0.5721 + 5e-8),
                                        (1.0, 1.0 + 4 * 2.0 ** -52), (1e6, 1e6 + 1e-4)])
    def test_narrow_ranges_get_distinct_tick_labels(self, lo, hi):
        ticks = svgplot._nice_ticks(lo, hi)
        labels = svgplot._tick_labels(ticks)
        assert len(ticks) >= 2 and len(set(labels)) == len(labels)
        # each label reads back as its own tick's nearest neighbour
        assert [min(ticks, key=lambda v: abs(v - float(s))) for s in labels] == ticks

    def test_ordinary_ranges_keep_six_digit_labels(self):
        assert svgplot._tick_labels(svgplot._nice_ticks(0.0, 1.0)) == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
        ticks = svgplot._nice_ticks(-2.54950976, 3.1)
        assert svgplot._tick_labels(ticks) == [f"{v:.6g}" for v in ticks]


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
        # fig1a is near the isochronous alpha = 0 limit, where MEGNO tends to 0
        assert 0.0 < report["megno"] < 0.1

    def test_report_step_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 30.0,
                                                "renorm_interval": 1.0}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "lyap")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "lyap" / "lyapunov.json").read_text())
        # the Lyapunov pass runs the Taylor stepper: no step is rejected, none is clipped at a
        # renormalization mark, and a renormalization costs no field work
        assert (report["method"], report["order"], report["steps_rejected"]) == ("taylor", 13, 0)
        assert report["steps_accepted"] > 0
        # one renormalization per mark, transient included
        assert report["renorms"] == 30
        assert report["rhs_evals"] == rhs_evals(report)

    def test_report_drift_over_the_renormalizations(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 30.0,
                                                "renorm_interval": 1.0}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "lyap")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "lyap" / "lyapunov.json").read_text())
        # the base state the growth log holds at each of the 30 marks, transient included
        p, s0 = ModelParams(**report["params"]), SystemState(**report["initial"])
        log = integrate_augmented(s0, analysis._TANGENT0, p, 30.0,
                                  IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10), renorm_interval=1.0)
        assert len(log.states) == len(log.times) == 30
        assert report["max_abs_drift"] == drift(s0, [SystemState.from_array(y) for y in log.states], p)
        assert 0.0 < report["max_abs_drift"]["e_eff"] < 1e-8      # at tolerance 1e-10

    def test_divergence_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 300.0, "total": 1000.0}})
        code = main(["lyapunov", "--preset", "fig1c", "--config", cfg,
                     "--out", str(tmp_path / "ld")])
        assert code == EXIT_DIVERGED
        report = json.loads((tmp_path / "ld" / "lyapunov.json").read_text())
        assert report["status"] == "diverged"
        assert 0.0 < report["t_div"] <= 300.0
        assert report["error"].startswith("trajectory diverged before the transient completed")
        assert (report["transient"], report["total"]) == (300.0, 1000.0)

    def test_negative_transient_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": -100.0, "total": 300.0}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "ln")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "ln" / "lyapunov.json").exists()

    def test_subnormal_renorm_interval_is_config_error(self, tmp_path, capsys):
        # total / renorm_interval overflows to inf: no mark schedule can be made
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 30.0,
                                                "renorm_interval": 5e-324}})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "ls")])
        assert code == EXIT_CONFIG
        assert "configuration error: renorm_interval must be positive" in capsys.readouterr().err
        assert not (tmp_path / "ls" / "lyapunov.json").exists()

    def test_too_few_growth_samples_is_config_error(self, tmp_path):
        # one renormalization (t = 150) past the transient of a regular orbit
        cfg = write_cfg(tmp_path, {"lyapunov": {"transient": 10.0, "total": 200.0,
                                                "renorm_interval": 150.0}})
        code = main(["lyapunov", "--preset", "fig1a", "--config", cfg,
                     "--out", str(tmp_path / "lr")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("lsec, message", [
        # one interval, (2000, 3000], starts after the transient
        ({"transient": 200.0, "total": 3000.0, "renorm_interval": 2000.0}, "renorm_interval is too long"),
        # 5e7 renormalizations
        ({"transient": 200.0, "total": 5000.0, "renorm_interval": 1e-4}, "must be finite and at most 1000000"),
    ], ids=["one_interval", "too_many_marks"])
    def test_bad_schedule_fails_before_any_step(self, tmp_path, capsys, monkeypatch, lsec, message):
        def refuse(*args, **kwargs):
            raise AssertionError("the augmented pass ran")
        monkeypatch.setattr(analysis, "integrate_augmented", refuse)
        cfg = write_cfg(tmp_path, {"lyapunov": lsec})
        code = main(["lyapunov", "--preset", "fig2d", "--config", cfg,
                     "--out", str(tmp_path / "lb")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "lb" / "lyapunov.json").exists()


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
                           "regime", "lambda_max", "stderr", "divergence_time", "status",
                           "n_crossings", "n_clusters", "notes", "steps_accepted", "rhs_evals", "megno"]
        assert len(rows) == 3
        for r in rows[1:]:
            assert r[0] == "eps" and r[2] == "alpha"
            assert r[8] == "ok"
            # the augmented pass: 1 + 6 field calls per attempt + 1 per renormalization
            assert int(r[13]) >= 1 + 6 * int(r[12]) + 300 and int(r[12]) >= 300
            assert r[4] in ("periodic", "quasiperiodic", "chaotic", "divergent", "inconclusive")

    def test_regime_csv_carries_the_section_evidence(self, tmp_path):
        # the RegimeClassification evidence in the appended columns: a cell
        # inconclusive for too few crossings, with its note, and a skipped cell
        spec = write_cfg(tmp_path, {
            "params": {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 1e-4, "omega": 1.0},
            "initial": {"e_eff": 4.8, "i_inv": 4.0, "ominus0": 2.5},
            "axis1": {"name": "eps", "values": [1.05, 3.0]},
            "axis2": {"name": "alpha", "values": [1e-4]},
            "budget": 40.0,
            "transient": 10.0,
            "integrator": {"abs_tol": 1e-8, "rel_tol": 1e-8},
            "workers": 1,
        }, name="sweep.json")
        assert main(["sweep", spec, "--out", str(tmp_path / "sw")]) == EXIT_OK
        header, ok, skipped = read_csv(tmp_path / "sw" / "regimes.csv")
        ok, skipped = dict(zip(header, ok)), dict(zip(header, skipped))
        assert (ok["status"], ok["regime"], ok["n_clusters"]) == ("ok", "inconclusive", "")
        assert 0 < int(ok["n_crossings"]) < 50
        assert ok["notes"] == f"only {ok['n_crossings']} crossings (< 50) within the budget"
        assert skipped["status"].startswith("skipped:")
        assert (skipped["n_crossings"], skipped["n_clusters"], skipped["notes"]) == ("", "", "")
        assert (skipped["steps_accepted"], skipped["rhs_evals"]) == ("", "")
        # the work columns are the counts of the cell's one pass
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=1e-4, omega=1.0)
        s0 = InitialRecipe(e_eff=4.8, i_inv=4.0, om0=2.5).build(p)
        stats = analysis.classify_regime(s0, p, IntegratorSettings(abs_tol=1e-8, rel_tol=1e-8),
                                         budget=40.0, transient=10.0).stats
        assert (ok["steps_accepted"], ok["rhs_evals"]) == (str(stats.accepted), str(stats.rhs_evals))

    def test_unwritable_regimes_csv_is_config_error(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(cli, "run_sweep", refuse)
        target = tmp_path / "sw" / "regimes.csv"
        target.mkdir(parents=True)
        spec = write_cfg(tmp_path, SWEEP_SPEC, name="sweep.json")
        assert main(["sweep", spec, "--out", str(tmp_path / "sw")]) == EXIT_CONFIG
        assert f"{target} cannot be written" in capsys.readouterr().err

    def test_an_interrupted_sweep_leaves_the_old_table(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "run_sweep", interrupt)
        out = tmp_path / "sw"
        out.mkdir()
        old = b"axis1_name,axis1_value\r\neps,1.05\r\n"
        (out / "regimes.csv").write_bytes(old)
        spec = write_cfg(tmp_path, SWEEP_SPEC, name="sweep.json")
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", spec, "--out", str(out)])
        # byte for byte, and no partial table or report beside it
        assert (out / "regimes.csv").read_bytes() == old
        assert [f.name for f in out.iterdir()] == ["regimes.csv"]

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


# argv before --out, and a config file, of a configuration error that _report's block finds
BLOCK_ERRORS = {
    "lyapunov_schedule": (["lyapunov", "--preset", "fig2d"],
                          {"lyapunov": {"transient": 200.0, "total": 3000.0, "renorm_interval": 2000.0}}),
    "oracle_alpha": (["oracle", "--preset", "fig1b", "--mode", "linear"], {}),
}


class TestReportDirectory:
    """A configuration error found inside _report's block leaves no --out
    directory it made, and leaves one that was there alone."""

    @pytest.mark.parametrize("case", sorted(BLOCK_ERRORS))
    def test_no_directory_is_left_behind(self, tmp_path, case):
        argv, payload = BLOCK_ERRORS[case]
        out = tmp_path / "new" / "run"
        assert main([*argv, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == EXIT_CONFIG
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("case", sorted(BLOCK_ERRORS))
    def test_a_directory_that_was_there_stays(self, tmp_path, case):
        argv, payload = BLOCK_ERRORS[case]
        out = tmp_path / "run"
        out.mkdir()
        assert main([*argv, "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == EXIT_CONFIG
        assert out.is_dir() and list(out.iterdir()) == []


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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)

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

    def test_transient_at_the_budget(self, tmp_path):
        assert self.run_spec(tmp_path, budget=10.0, transient=10.0) == EXIT_CONFIG

    def test_one_interval_after_the_transient(self, tmp_path, capsys):
        # marks at 400 and 600: one interval starts after the transient; nothing is written
        assert self.run_spec(tmp_path, budget=600.0, transient=10.0, renorm_interval=400.0) == EXIT_CONFIG
        assert "renorm_interval is too long" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

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
