"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Each workload's commands run once on real inputs; every answer check must
accept those outputs and reject a deliberately corrupted copy.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _inputs(name, seed, tmp_path):
    wl = workloads.make(name, seed)
    wl.write(tmp_path)
    return {f: (tmp_path / f).read_bytes() for f in wl.files}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every workload once on seed 0; {name: (workload, output dir)}."""
    runs = {}
    for name in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(name)
        wl = workloads.make(name, 0)
        wl.write(base / "in")
        for cmd in wl.commands:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys, semiquantum.cli as c; sys.exit(c.main(sys.argv[1:]))",
                 *cmd.argv(base / "in", base / "out")],
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
        runs[name] = (wl, base / "out")
    return runs


def _check(outputs, tmp_path, name, sub, corrupt=None):
    wl, out = outputs[name]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    if corrupt is not None:
        corrupt(copy / sub)
    cmd = next(c for c in wl.commands if c.sub == sub)
    return cmd.check(copy / sub, wl.expect)


def _edit_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _shift(column, delta, row=-1):
    def edit(rows):
        rows[row][column] = repr(float(rows[row][column]) + delta)
    return edit


@pytest.mark.parametrize("name, sub", [(wl, c.sub) for wl in workloads.WORKLOADS
                                       for c in workloads.make(wl, 0).commands])
def test_checks_accept_real_outputs(outputs, tmp_path, name, sub):
    model_tu, work, fingerprint = _check(outputs, tmp_path, name, sub)
    assert model_tu > 0 and work > 0 and fingerprint


CORRUPTIONS = {
    "e_eff shifted by 1e-6": ("trajectory", "sim", lambda d: _edit_csv(d / "trajectory.csv", _shift("e_eff", 1e-6))),
    "i_inv shifted by 1e-6": ("trajectory", "sim", lambda d: _edit_csv(d / "trajectory.csv", _shift("i_inv", 1e-6, 0))),
    "sample dropped": ("trajectory", "sim", lambda d: _edit_csv(d / "trajectory.csv", lambda rows: rows.pop())),
    "oracle deviation": ("trajectory", "oracle", lambda d: _edit_json(
        d / "oracle.json", lambda o: o.update(max_abs_deviation=1e-6))),
    "section n1 shifted by 1e-5": ("orbit", "sec", lambda d: _edit_csv(d / "section_01.csv", _shift("n1", 1e-5, 3))),
    "section oplus shifted by 1e-5": ("orbit", "sec", lambda d: _edit_csv(d / "section_02.csv", _shift("oplus", 1e-5))),
    "section time out of order": ("orbit", "sec", lambda d: _edit_csv(d / "section_00.csv", _shift("t_cross", -1e3, 2))),
    "lyapunov not finite": ("orbit", "lyap", lambda d: _edit_json(
        d / "lyapunov.json", lambda o: o.update(lambda_max=float("nan")))),
    "lyapunov renorm count": ("orbit", "lyap", lambda d: _edit_json(
        d / "lyapunov.json", lambda o: o.update(renorm_count=o["renorm_count"] - 1))),
    "failed cell": ("regime_map", "map", lambda d: _edit_csv(d / "regimes.csv", lambda rows: rows[0].update(
        regime="", lambda_max="", stderr="", status="failed: TypeError('boom')"))),
    "no early divergence": ("regime_map", "map", lambda d: _edit_csv(d / "regimes.csv", lambda rows: [
        r.update(status="skipped: infeasible", regime="", lambda_max="", divergence_time="")
        for r in rows if r["regime"] == "divergent" and not r["lambda_max"]])),
    "missing output": ("regime_map", "map", lambda d: (d / "regimes.csv").unlink()),
}


@pytest.mark.parametrize("label", CORRUPTIONS)
def test_checks_reject_corrupted_outputs(outputs, tmp_path, label):
    name, sub, corrupt = CORRUPTIONS[label]
    with pytest.raises(workloads.CheckFailed):
        _check(outputs, tmp_path, name, sub, corrupt)


def test_failed_cells_count_as_failed_operations(outputs, tmp_path):
    with pytest.raises(workloads.CheckFailed) as info:
        _check(outputs, tmp_path, "regime_map", "map", CORRUPTIONS["failed cell"][2])
    assert info.value.ops == 1


def test_renorm_count_matches_marks():
    assert workloads.expected_renorm_count(100.0, 300.0, 1.0) == 200
    assert workloads.expected_renorm_count(10.0, 200.0, 5.0) == 38


def test_benchmark_json_lists_the_reported_metrics():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def test_self_time_subtracts_children_and_counted_calls():
    spans = [
        {"id": "1.1", "parent": None, "name": "cli.main", "pid": 1, "t0": 0.0, "t1": 10.0,
         "hot": {"linear_oracle.classify": [2, 1.0, 0]}, "info": {}},
        {"id": "1.2", "parent": "1.1", "name": "sweep.run", "pid": 1, "t0": 1.0, "t1": 9.0,
         "hot": {}, "info": {"workers": 2, "cells": 2}},
        # two workers: overlapping cells
        {"id": "2.1", "parent": "1.2", "name": "sweep.cell", "pid": 2, "t0": 2.0, "t1": 6.0,
         "hot": {}, "info": {"status": "ok"}},
        {"id": "3.1", "parent": "1.2", "name": "sweep.cell", "pid": 3, "t0": 3.0, "t1": 8.0,
         "hot": {}, "info": {"status": "skipped"}},
    ]
    m = layers.per_layer(spans)
    assert m["cli.self_s"] == pytest.approx(10.0 - 8.0 - 1.0)
    assert m["linear_oracle.calls"] == 2
    assert m["sweep.self_s"] == pytest.approx((8.0 - 6.0) + 4.0 + 5.0)
    assert m["sweep.cell_s.max"] == pytest.approx(5.0)
    assert m["sweep.busy_frac"] == pytest.approx(9.0 / 16.0)
    assert (m["sweep.cells.ok"], m["sweep.cells.skipped"], m["sweep.cells.failed"]) == (1, 1, 0)
