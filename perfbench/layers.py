"""Per-layer metrics from the spans of one traced pass.

A span's self time is its duration minus the part of that interval its
child spans cover, minus the time of the counted calls made directly in it.
A layer's self time is the sum over its spans and counted calls.  Sweep
cells run in worker processes while the sweep span waits, so the sweep's own
self time is the dispatch, pool start and collection that no cell covers.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "sweep", "analysis", "integrator", "model", "linear_oracle")
FRONT_ENDS = ("integrate", "events", "augmented")

# name -> (unit, better); BENCHMARK.json lists the same metrics
METRICS = {
    "model.rhs.calls": ("count", "lower"),
    "model.rhs.us_per_call": ("us", "lower"),
    "model.self_s": ("s", "lower"),
    "integrator.steps.accepted": ("count", "lower"),
    "integrator.steps.rejected": ("count", "lower"),
    "integrator.rhs_evals": ("count", "lower"),
    "integrator.us_per_step": ("us", "lower"),
    **{f"integrator.{fe}.steps_per_tu": ("steps/tu", "lower") for fe in FRONT_ENDS},
    **{f"integrator.{fe}.self_s": ("s", "lower") for fe in FRONT_ENDS},
    "integrator.refine.calls": ("count", "lower"),
    "integrator.refine.g_evals": ("count", "lower"),
    "integrator.refine.useful_ratio": ("ratio", "higher"),
    "integrator.renorms": ("count", "lower"),
    "integrator.event_traj_bytes": ("B", "lower"),
    "integrator.self_s": ("s", "lower"),
    "analysis.classify.passes_per_cell": ("count", "lower"),
    "analysis.classify.section_share": ("ratio", "lower"),
    "analysis.lyapunov.self_s": ("s", "lower"),
    "analysis.poincare.self_s": ("s", "lower"),
    "analysis.classify.self_s": ("s", "lower"),
    "analysis.cluster.calls": ("count", "lower"),
    "analysis.cluster.points": ("count", "lower"),
    "analysis.cluster.self_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "sweep.cells.ok": ("count", "higher"),
    "sweep.cells.skipped": ("count", "lower"),
    "sweep.cells.failed": ("count", "lower"),
    "sweep.cell_s.p50": ("s", "lower"),
    "sweep.cell_s.max": ("s", "lower"),
    "sweep.busy_frac": ("ratio", "higher"),
    "sweep.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "linear_oracle.calls": ("count", "lower"),
    "linear_oracle.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def load_spans(trace_dir: Path) -> list:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans


def _covered(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list) -> dict:
    """Every per-layer metric except cli.bytes_written and the tracing overhead."""
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def self_s(s):
        hot = sum(rec[1] for rec in s["hot"].values())
        return dur(s) - _covered((c["t0"], c["t1"]) for c in children[s["id"]]) - hot

    def in_cell(s):
        while s is not None:
            if s["name"] == "analysis.classify":
                return True
            s = by_id.get(s["parent"])
        return False

    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    hot = defaultdict(lambda: [0, 0.0, 0])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s["name"].split(".")[0]] += self_s(s)
        for name, (calls, secs, extra) in s["hot"].items():
            rec = hot[name]
            rec[0] += calls
            rec[1] += secs
            rec[2] += extra
            layer_self[name.split(".")[0]] += secs

    m = {}
    rhs = hot["model.rhs"]
    m["model.rhs.calls"] = rhs[0]
    m["model.rhs.us_per_call"] = 1e6 * _ratio(rhs[1], rhs[0])
    m["model.self_s"] = layer_self["model"]

    fronts = [s for fe in FRONT_ENDS for s in named[f"integrator.{fe}"]]
    accepted = sum(s["info"].get("accepted", 0) for s in fronts)
    attempts = sum(s["info"].get("accepted", 0) + s["info"].get("rejected", 0) for s in fronts)
    renorms = sum(s["info"].get("renorms", 0) for s in fronts)
    m["integrator.steps.accepted"] = accepted
    m["integrator.steps.rejected"] = attempts - accepted
    # DOP5 with FSAL: one evaluation to start, six per attempt, one per renormalization
    m["integrator.rhs_evals"] = len(fronts) + 6 * attempts + renorms
    m["integrator.us_per_step"] = 1e6 * _ratio(sum(dur(s) for s in fronts), accepted)
    for fe in FRONT_ENDS:
        group = named[f"integrator.{fe}"]
        m[f"integrator.{fe}.steps_per_tu"] = _ratio(
            sum(s["info"].get("accepted", 0) for s in group),
            sum(s["info"].get("t_span", 0.0) for s in group))
        m[f"integrator.{fe}.self_s"] = sum(self_s(s) for s in group)
    refine = hot["integrator.refine"]
    m["integrator.refine.calls"] = refine[0]
    m["integrator.refine.g_evals"] = refine[2]
    m["integrator.refine.useful_ratio"] = _ratio(
        sum(s["info"].get("crossings", 0) for s in named["integrator.events"]), refine[0])
    m["integrator.renorms"] = renorms
    m["integrator.event_traj_bytes"] = max(
        (s["info"].get("traj_bytes", 0) for s in named["integrator.events"]), default=0)
    m["integrator.self_s"] = layer_self["integrator"]

    cells = named["analysis.classify"]
    passes = [s for s in named["integrator.events"] + named["integrator.augmented"] if in_cell(s)]
    m["analysis.classify.passes_per_cell"] = _ratio(len(passes), len(cells))
    m["analysis.classify.section_share"] = _ratio(
        sum(dur(s) for s in named["analysis.poincare"] if in_cell(s)), sum(dur(s) for s in cells))
    m["analysis.lyapunov.self_s"] = sum(self_s(s) for s in named["analysis.lyapunov"])
    m["analysis.poincare.self_s"] = sum(self_s(s) for s in named["analysis.poincare"])
    m["analysis.classify.self_s"] = sum(self_s(s) for s in cells)
    clusters = named["analysis.cluster"]
    m["analysis.cluster.calls"] = len(clusters)
    m["analysis.cluster.points"] = sum(s["info"].get("points", 0) for s in clusters)
    m["analysis.cluster.self_s"] = sum(self_s(s) for s in clusters)
    m["analysis.self_s"] = layer_self["analysis"]

    sweep_cells = named["sweep.cell"]
    statuses = [s["info"].get("status", "failed") for s in sweep_cells]
    for status in ("ok", "skipped", "failed"):
        m[f"sweep.cells.{status}"] = statuses.count(status)
    cell_s = [dur(s) for s in sweep_cells]
    m["sweep.cell_s.p50"] = statistics.median(cell_s) if cell_s else 0.0
    m["sweep.cell_s.max"] = max(cell_s, default=0.0)
    m["sweep.busy_frac"] = _ratio(
        sum(cell_s), sum(s["info"].get("workers", 1) * dur(s) for s in named["sweep.run"]))
    m["sweep.self_s"] = layer_self["sweep"]

    m["cli.self_s"] = layer_self["cli"]
    oracle = [rec for name, rec in hot.items() if name.startswith("linear_oracle.")]
    m["linear_oracle.calls"] = sum(rec[0] for rec in oracle)
    m["linear_oracle.self_s"] = layer_self["linear_oracle"]
    return m
