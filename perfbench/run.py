"""Benchmark of semiquantum-lab: seeded workloads run through ``sqlab``.

    python3 perfbench/run.py --workload trajectory|orbit|regime_map --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The seed writes the workload's config files.  The benchmark then
repeats passes over the workload's commands for about S seconds.  Each
command runs in a fresh interpreter through ``semiquantum.cli.main``, so
every pass pays and measures the real import (set-up) cost and peak
resident set.  Every pass checks its answers against the physics, and all
passes of a run must give identical answers.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over passes).  With ``--trace 1`` the passes
alternate between untraced and traced; the traced passes give the
per-layer metrics and the tracing overhead.  Lines before it hold the
machine manifest, per-command throughputs and the answer fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
# every run must end within 180 s; no command or pass starts past this
HARD_LIMIT_S = 165.0
MIN_PASSES = 3
# name -> (unit, better, bound); BENCHMARK.json lists the same metrics
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "model_tu_per_s": ("tu/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
# The program's arrays have at most 30 elements, so BLAS threads never share
# its work; idle pool threads only add run-to-run noise
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_command(root: Path, argv: list, result_path: Path, trace_dir, deadline: float):
    """Run one sqlab command in a fresh interpreter: (child report, error)."""
    env = {**os.environ, **BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           str(trace_dir) if trace_dir else "-", *argv]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"{argv[0]} timed out"
    finally:
        try:    # workers left behind by a crashed command
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"{argv[0]} crashed: {err.decode(errors='replace').strip()[-400:]}"
    report = json.loads(result_path.read_text())
    if report["exit"] != 0:
        return None, f"{argv[0]} exited {report['exit']}: {err.decode(errors='replace').strip()[-400:]}"
    return report, None


def run_pass(root: Path, wl, in_dir: Path, pass_dir: Path, traced: bool, deadline: float) -> dict:
    trace_dir = pass_dir / "trace" if traced else None
    if trace_dir:
        trace_dir.mkdir(parents=True)
    res = {"traced": traced, "attempted": 0, "failed": 0, "errors": [], "wall_s": 0.0,
           "model_tu": 0.0, "setup_s": [], "rss_kb": 0, "fingerprint": {}, "rates": {},
           "versions": None}
    for i, cmd in enumerate(wl.commands):
        res["attempted"] += cmd.ops
        report, err = run_command(root, cmd.argv(in_dir, pass_dir), pass_dir / f"child{i}.json",
                                  trace_dir, deadline)
        if report is None:
            res["failed"] += cmd.ops
            res["errors"].append(err)
            continue
        res["setup_s"].append(report["setup_s"])
        res["rss_kb"] = max(res["rss_kb"], report["rss_kb"])
        res["versions"] = report["versions"]
        try:
            tu, work, fingerprint = cmd.check(pass_dir / cmd.sub, wl.expect)
        except workloads.CheckFailed as exc:
            res["failed"] += exc.ops or cmd.ops
            res["errors"].append(f"{cmd.args[0]}: {exc}")
            continue
        res["wall_s"] += report["wall_s"]
        res["model_tu"] += tu
        res["fingerprint"].update(fingerprint)
        name, unit = cmd.rate
        res["rates"][name] = (work / report["wall_s"], unit)
    if traced and not res["errors"]:
        res["layers"] = layers.per_layer(layers.load_spans(trace_dir))
        res["layers"]["cli.bytes_written"] = sum(
            f.stat().st_size for f in pass_dir.rglob("*")
            if f.is_file() and trace_dir not in f.parents and not f.name.startswith("child"))
    return res


def git_commit(root: Path):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "semiquantum" / "cli.py").is_file():
        print(f"no semiquantum source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    wl = workloads.make(args.workload, args.seed)
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        in_dir = work / "inputs"
        wl.write(in_dir)
        passes = []
        pass_s = []
        while True:
            # trace mode alternates untraced and traced passes
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.monotonic()
            pass_dir = work / f"pass{len(passes)}"
            passes.append(run_pass(root, wl, in_dir, pass_dir, traced, deadline))
            shutil.rmtree(pass_dir, ignore_errors=True)
            pass_s.append(time.monotonic() - t0)
            now = time.monotonic()
            if passes[-1]["errors"] or now + median(pass_s) > deadline:
                break
            if len(passes) >= MIN_PASSES + args.trace and now - start + median(pass_s) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for p in passes for e in p["errors"]]
    fingerprints = {json.dumps(p["fingerprint"], sort_keys=True) for p in passes if not p["errors"]}
    if len(fingerprints) > 1:
        errors.append("answers differ between passes of the same inputs")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"] and not p["errors"]]
    traced = [p for p in passes if p["traced"] and not p["errors"]]

    versions = next((p["versions"] for p in passes if p["versions"]), {})
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), **versions,
        "blas_env": BLAS_ENV, "commit": git_commit(root),
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for e in errors:
        print("error " + e)
    if plain:
        print("answers " + json.dumps(plain[0]["fingerprint"], sort_keys=True))
        for name, (_, unit) in plain[0]["rates"].items():
            values = [p["rates"][name][0] for p in plain]
            print(f"throughput {name} {median(values):.6g} {unit} (median of {len(values)} passes)")

    if args.trace:
        per_pass = [p["layers"] for p in traced]
        metrics = {name: median([m[name] for m in per_pass]) for name in (per_pass[0] if per_pass else {})}
        untraced_s = median([p["wall_s"] for p in plain])
        overhead_s = median([p["wall_s"] for p in traced]) - untraced_s
        metrics["trace.overhead_s"] = overhead_s
        metrics["trace.overhead_frac"] = overhead_s / untraced_s if untraced_s else 0.0
        units = {name: unit for name, (unit, _) in layers.METRICS.items()}
        for layer in layers.LAYERS:
            print(f"layer {layer:14s} self {metrics.get(f'{layer}.self_s', 0.0):9.4f} s")
    else:
        metrics = {
            "setup_s": median([s for p in passes for s in p["setup_s"]]),
            "model_tu_per_s": median([p["model_tu"] / p["wall_s"] for p in plain]),
            "peak_rss_mb": max((p["rss_kb"] for p in passes), default=0) / 1024.0,
        }
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed + (1 if len(fingerprints) > 1 else 0),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
