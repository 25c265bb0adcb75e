"""Seeded inputs, answer checks and answer fingerprints of the three workloads.

Each workload is a fixed list of ``sqlab`` commands.  The seed only writes
the config or sweep-spec files the commands receive: it moves the
(E_eff, I) shell point and the grid values by a small relative amount, so
the work per pass stays nearly the same from seed to seed while the answers
differ.

- ``trajectory``: ``simulate`` at tol 1e-14 on the fig1b parameters, then
  ``oracle --mode linear`` at alpha = 0.  Scalar DOP5 stepping, ``rhs`` calls
  and dense sampling only; no events, tangents, analysis or pool.
- ``orbit``: ``poincare --families 3`` and ``lyapunov`` at renorm_interval 1
  on the fig2d parameters.  The serial single-orbit study: crossing
  refinement, and a renormalization at every time unit.
- ``regime_map``: ``sweep`` with 2 workers on a 2 x 3 grid whose cells take
  every path through ``classify_regime`` (two passes plus cluster counting,
  Lyapunov pass only, early divergence, skipped as infeasible).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("trajectory", "orbit", "regime_map")

# relative size of the seed's moves of the shell point and grid values
JITTER = 1e-4

_FIG2D = {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 0.015, "omega": 1.0}

SIM_T_END = 150.0
SIM_INTERVAL = 0.5
ORACLE_T_END = 100.0
ORACLE_SAMPLES = 201
SECTION_T_END = 150.0
FAMILIES = 3
LYAP_TRANSIENT = 100.0
LYAP_TOTAL = 300.0
LYAP_RENORM = 1.0
SWEEP_BUDGET = 200.0
SWEEP_TRANSIENT = 10.0
SWEEP_RENORM = 5.0
SWEEP_WORKERS = 2
SWEEP_CELLS = 6

# answer tolerances
TRAJ_DRIFT = 1e-10      # simulate runs at tol 1e-14
SECTION_DRIFT = 1e-6    # analysis commands run at tol 1e-10
ORACLE_MAX_DEV = 1e-8


class CheckFailed(Exception):
    """An output of the program is wrong.

    ``ops`` is how many of the command's operations the failure condemns;
    None means all of them.
    """

    def __init__(self, message: str, ops: int | None = None):
        super().__init__(message)
        self.ops = ops


class Command:
    """One ``sqlab`` invocation, the check of its answers, and its operation count."""

    def __init__(self, sub: str, args: list, check, rate: tuple, ops: int = 1):
        self.sub = sub              # output subdirectory
        self.args = args            # argv, with {in} and {out} placeholders
        # check(out_sub, expect) -> (model time covered, work done, fingerprint)
        self.check = check
        self.rate = rate            # (name, unit) of work done per wall second
        self.ops = ops              # a command, or the cells of a sweep

    def argv(self, in_dir: Path, out_dir: Path) -> list:
        return [a.format(**{"in": in_dir, "out": out_dir / self.sub}) for a in self.args]


class Workload:
    """The generated inputs of one workload and what their answers must satisfy."""

    def __init__(self, files: dict, commands: list, expect: dict):
        self.files = files          # file name -> JSON payload
        self.commands = commands
        self.expect = expect

    def write(self, in_dir: Path):
        in_dir.mkdir(parents=True, exist_ok=True)
        for fname, payload in self.files.items():
            (in_dir / fname).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def make(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")

    def jit(v):
        return v * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    def shell_point():
        # the presets' initial condition: n0 = 1, x0 = 1 on the E_eff = 4.8, I = 4 shell
        return {"e_eff": jit(4.8), "i_inv": jit(4.0), "ominus0": 0.0, "oplus0": 0.0,
                "x0": jit(1.0), "momentum_sign": -1}

    if name == "trajectory":
        initial = shell_point()
        files = {
            "simulate.json": {
                "params": dict(_FIG2D), "initial": initial,
                "simulate": {"t_end": SIM_T_END, "sample_interval": SIM_INTERVAL},
            },
            "oracle.json": {
                "params": {**_FIG2D, "alpha": 0.0}, "initial": initial,
                "oracle": {"t_end": ORACLE_T_END, "samples": ORACLE_SAMPLES},
            },
        }
        commands = [
            Command("sim", ["simulate", "--config", "{in}/simulate.json", "--out", "{out}"],
                    check_simulate, ("sim_tu_per_s", "tu/s")),
            Command("oracle", ["oracle", "--config", "{in}/oracle.json", "--mode", "linear",
                               "--out", "{out}"], check_oracle, ("oracle_tu_per_s", "tu/s")),
        ]
        expect = {"e_eff": initial["e_eff"], "i_inv": initial["i_inv"]}
    elif name == "orbit":
        initial = shell_point()
        files = {
            "orbit.json": {
                "params": dict(_FIG2D), "initial": initial,
                "poincare": {"t_end": SECTION_T_END},
                "lyapunov": {"transient": LYAP_TRANSIENT, "total": LYAP_TOTAL,
                             "renorm_interval": LYAP_RENORM},
            },
        }
        commands = [
            Command("sec", ["poincare", "--config", "{in}/orbit.json", "--families", str(FAMILIES),
                            "--out", "{out}"], check_poincare, ("crossings_per_s", "1/s")),
            Command("lyap", ["lyapunov", "--config", "{in}/orbit.json", "--out", "{out}"],
                    check_lyapunov, ("lyap_tu_per_s", "tu/s")),
        ]
        expect = {"e_eff": initial["e_eff"], "i_inv": initial["i_inv"], "eps": _FIG2D["eps"],
                  "delta": _FIG2D["delta"], "omega": _FIG2D["omega"]}
    else:
        files = {
            "sweep.json": {
                "params": dict(_FIG2D),
                "initial": {"e_eff": jit(4.8), "i_inv": jit(4.0), "ominus0": jit(2.5)},
                # eps = 3.0 is infeasible on this shell; alpha = 0.5 diverges within
                # a few time units, 0.07 after the transient.  The one long cell
                # (alpha = 0.02) runs while the other worker is mostly idle, which
                # keeps the wall time steady on a shared host.
                "axis1": {"name": "eps", "values": [jit(1.2), jit(3.0)]},
                "axis2": {"name": "alpha", "values": [jit(0.02), jit(0.07), jit(0.5)]},
                "budget": SWEEP_BUDGET, "transient": SWEEP_TRANSIENT,
                "renorm_interval": SWEEP_RENORM, "workers": SWEEP_WORKERS,
            },
        }
        commands = [Command("map", ["sweep", "{in}/sweep.json", "--out", "{out}"],
                            check_sweep, ("cells_per_s", "1/s"), ops=SWEEP_CELLS)]
        expect = {}
    return Workload(files, commands, expect)


def _rows(path: Path) -> list:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: Path) -> dict:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    return json.loads(path.read_text())


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _near(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * (1.0 + abs(target))


def check_simulate(out: Path, expect: dict):
    rows = _rows(out / "trajectory.csv")
    summary = _json(out / "summary.json")
    if summary.get("status") != "completed":
        raise CheckFailed(f"simulate status {summary.get('status')!r}")
    n_expected = round(SIM_T_END / SIM_INTERVAL) + 1
    if len(rows) != n_expected or float(rows[-1]["t"]) != SIM_T_END:
        raise CheckFailed(f"trajectory has {len(rows)} samples, expected {n_expected} up to {SIM_T_END}")
    for r in rows:
        for col in ("e_eff", "i_inv"):
            if not _near(float(r[col]), expect[col], TRAJ_DRIFT):
                raise CheckFailed(f"{col} = {r[col]} at t = {r['t']} drifted from {expect[col]!r}")
    fingerprint = {
        "steps": [summary["steps_accepted"], summary["steps_rejected"]],
        "trajectory": _digest(out / "trajectory.csv"),
    }
    return SIM_T_END, SIM_T_END, fingerprint


def check_oracle(out: Path, expect: dict):
    oracle = _json(out / "oracle.json")
    dev = oracle.get("max_abs_deviation")
    if oracle.get("integration_status") != "completed" or not (
            isinstance(dev, float) and dev <= ORACLE_MAX_DEV):
        raise CheckFailed(f"oracle deviation {dev!r} (status {oracle.get('integration_status')!r})")
    return ORACLE_T_END, ORACLE_T_END, {"oracle_max_abs_deviation": dev}


def check_poincare(out: Path, expect: dict):
    members = _json(out / "summary.json").get("members", [])
    if len(members) != FAMILIES:
        raise CheckFailed(f"{len(members)} family members, expected {FAMILIES}")
    crossings = []
    paths = []
    for m in members:
        path = out / m["file"]
        rows = _rows(path)
        paths.append(path)
        if m.get("status") != "completed" or len(rows) != m.get("crossings") or not rows:
            raise CheckFailed(f"{m['file']}: status {m.get('status')!r}, {len(rows)} rows")
        t_prev = 0.0
        for r in rows:
            t, n1, om, op, p = (float(r[k]) for k in ("t_cross", "n1", "ominus", "oplus", "p"))
            # both invariants evaluated at x = 0
            e_eff = expect["eps"] * (n1 - 1.0) + expect["delta"] * op + 0.5 * expect["omega"] * p * p
            i_inv = n1 * n1 - om * om - op * op
            if not (_near(e_eff, expect["e_eff"], SECTION_DRIFT)
                    and _near(i_inv, expect["i_inv"], SECTION_DRIFT)):
                raise CheckFailed(f"{m['file']}: crossing at t = {t} is off the shell "
                                  f"(E_eff {e_eff!r}, I {i_inv!r})")
            if not (t_prev < t <= SECTION_T_END) or r["direction"] not in ("1", "-1"):
                raise CheckFailed(f"{m['file']}: bad crossing row {r}")
            t_prev = t
        crossings.append(len(rows))
    return FAMILIES * SECTION_T_END, sum(crossings), {"crossings": crossings, "sections": _digest(*paths)}


def expected_renorm_count(transient: float, total: float, renorm: float) -> int:
    """Renormalizations past the transient, at the marks ``integrate_augmented`` uses."""
    n_marks = max(1, round(total / renorm))
    return sum(1 for k in range(1, n_marks + 1) if min(k * renorm, total) > transient)


def check_lyapunov(out: Path, expect: dict):
    lyap = _json(out / "lyapunov.json")
    lam, se = lyap.get("lambda_max"), lyap.get("standard_error")
    if not all(isinstance(v, float) and math.isfinite(v) for v in (lam, se)):
        raise CheckFailed(f"lyapunov estimate not finite: {lam!r} +- {se!r}")
    n_renorm = expected_renorm_count(LYAP_TRANSIENT, LYAP_TOTAL, LYAP_RENORM)
    if lyap.get("renorm_count") != n_renorm or lyap.get("diverged_at") is not None:
        raise CheckFailed(f"lyapunov renorm_count {lyap.get('renorm_count')!r}, expected {n_renorm}, "
                          f"diverged_at {lyap.get('diverged_at')!r}")
    return LYAP_TOTAL, LYAP_TOTAL, {"lambda_max": lam}


def cell_path(row: dict) -> str:
    """Which way a regimes.csv cell went through ``classify_regime``."""
    if row["status"].startswith("skipped: "):
        return "skipped"
    if row["regime"] == "divergent":
        return "lyapunov_only" if row["lambda_max"] else "early_divergent"
    if row["regime"] == "chaotic":
        return "lyapunov_only"
    return "two_pass"


def check_sweep(out: Path, expect: dict):
    path = out / "regimes.csv"
    rows = _rows(path)
    failed = sum(1 for r in rows if r["status"].startswith("failed:"))
    if failed:
        raise CheckFailed(f"{failed} failed cells", ops=failed)
    if len(rows) != SWEEP_CELLS:
        raise CheckFailed(f"regimes.csv has {len(rows)} cells, expected {SWEEP_CELLS}")
    model_tu = 0.0
    for r in rows:
        kind = cell_path(r)
        if kind == "skipped":
            continue
        if r["status"] != "ok":
            raise CheckFailed(f"unknown cell status {r['status']!r}")
        if r["regime"] == "divergent":
            t_div = float(r["divergence_time"])
            if not 0.0 < t_div <= SWEEP_BUDGET:
                raise CheckFailed(f"divergence time {t_div} outside (0, {SWEEP_BUDGET}]")
            model_tu += t_div
        else:
            if not math.isfinite(float(r["lambda_max"])):
                raise CheckFailed(f"non-finite lambda_max in {r}")
            model_tu += SWEEP_BUDGET
    paths = [cell_path(r) for r in rows]
    for kind in ("two_pass", "lyapunov_only", "early_divergent", "skipped"):
        if kind not in paths:
            raise CheckFailed(f"no {kind} cell in the map: {paths}")
    fingerprint = {
        "labels": [r["regime"] or "skipped" for r in rows],
        "lambda_max": [float(r["lambda_max"]) if r["lambda_max"] else None for r in rows],
        "regimes": _digest(path),
    }
    return model_tu, len(rows), fingerprint
