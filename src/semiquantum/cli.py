"""Command-line front end: presets, JSON configs, CSV/JSON/SVG emission.

Subcommands: simulate | oracle | poincare | lyapunov | sweep.
Each command parses its configuration, then runs its work inside
``_report``, the one writer of its JSON report: on success, and also on a
numerical failure or a divergence, which it records and lets through.  The
command's other files are staged beside their targets and replace them only
on success, so an interrupted run leaves the files of the run before.  A
configuration error writes no report.  Commands return nothing; ``main``
maps every outcome to the exit code: 0 success, 1 configuration or usage
error, 2 numerical failure (an exhausted step budget included),
3 unexpected divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import time
from enum import Enum
from pathlib import Path

from . import analysis
from .errors import (
    ConfigurationError,
    DivergentTrajectoryError,
    InfeasibleConstraintError,
    NumericalFailureError,
)
from .integrator import MAX_SAMPLES, IntegratorSettings, StepStats, integrate
from .linear_oracle import QuantumTriple, StabilityClass, classify, evolve_classical, evolve_critical, evolve_linear
from .model import (
    ModelParams,
    SystemState,
    effective_energy,
    family_initials,
    invariant_I,
)
from .svgplot import write_svg
from .sweep import AxisSpec, CellResult, InitialRecipe, SweepSpec, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_DIVERGED = 3

# initial condition shared by all figure presets; the momentum value is kept
# verbatim rather than recomputed from the energy shell
_BASE_INITIAL = {"n0": 1.0, "x0": 1.0, "p0": -2.54950976}


def _preset(eps, alpha, **sections):
    return {
        "params": {"eps": eps, "delta": 1.0, "alpha": alpha, "omega": 1.0},
        "initial": _BASE_INITIAL,
        **sections,
    }


PRESETS = {
    "fig1a": _preset(1.05, 0.0001),
    "fig1b": _preset(1.05, 0.015),
    "fig1c": _preset(2.0, 1.1),
    "fig2a": _preset(1.5, 0.015),
    "fig2b": _preset(1.075, 0.015),
    "fig2c": _preset(1.065, 0.015),
    "fig2d": _preset(1.05, 0.015),
    "fig3a": _preset(1.05, 0.0001),
    "fig3b": _preset(1.05, 0.01),
    "fig4": _preset(1.0, 1e-6, simulate={"t_end": 20.0, "sample_interval": 0.05}),
}

# analysis-style commands default to lighter tolerances than simulate: the
# Lyapunov sign and section geometry are insensitive at this level and runs
# over t ~ 5000 stay desk-scale
_ANALYSIS_TOL = 1e-10

# Every config object, key by key: a default, whose type is the key's kind,
# or the kind of a required key.  README.md has the same table.
_SECTIONS = {
    "config file": {name: {} for name in (
        "params", "initial", "simulate", "oracle", "poincare", "lyapunov", "integrator")},
    "params": {"eps": float, "gamma": 0.0, "delta": float, "alpha": float, "omega": float},
    "initial (literal)": {"n0": float, "ominus0": 0.0, "oplus0": 0.0,
                          "x0": float, "p0": float, "dn0": 0.0},
    "initial (constrained)": {"e_eff": float, "i_inv": float, "ominus0": 0.0, "oplus0": 0.0,
                              "x0": 1.0, "dn0": 0.0, "momentum_sign": -1},
    "simulate": {"t_end": 1000.0, "sample_interval": 0.5},
    "oracle": {"t_end": 10.0, "samples": 101},
    "poincare": {"t_end": 5000.0},
    "lyapunov": {"transient": 200.0, "total": 5000.0, "renorm_interval": 1.0},
    # abs_tol and rel_tol default per command, see _build_settings
    "integrator": dataclasses.asdict(IntegratorSettings()),
    "sweep spec": {"params": dict, "initial": dict, "axis1": dict, "axis2": dict,
                   "budget": 5000.0, "transient": 200.0, "renorm_interval": 1.0,
                   "integrator": {}, "workers": os.cpu_count() or 1},
    "axis (values)": {"name": str, "values": list},
    "axis (min/max/count)": {"name": str, "min": float, "max": float, "count": int},
}

_KINDS = {float: "a finite number", int: "an integer", str: "a string",
          list: "a list of finite numbers", dict: "an object"}


def g17(v) -> str:
    """17-significant-digit decimal; round-trips IEEE doubles exactly."""
    return format(float(v), ".17g")


def _read(obj, name: str, fields: dict) -> dict:
    """Read one config object: every key of fields, and no other.

    A float takes a finite JSON number, an int a JSON integer (booleans are
    never numbers), a list finite numbers (read as a tuple of floats); a
    string and an object take their own JSON kind.  A non-object, an
    unknown key, a missing required key and a value of the wrong kind are
    configuration errors that name the object and the key.
    """
    def finite(v):
        return type(v) in (int, float) and abs(v) <= sys.float_info.max

    if type(obj) is not dict:
        raise ConfigurationError(f"{name} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigurationError(
            f"unknown {name} key(s) {', '.join(unknown)}; valid: {', '.join(fields)}"
        )
    values = {}
    for key, field in fields.items():
        required = isinstance(field, type)
        if key not in obj:
            if required:
                raise ConfigurationError(f"{name} is missing required key {key}")
            values[key] = field
            continue
        kind, val = field if required else type(field), obj[key]
        if kind is float and finite(val):
            values[key] = float(val)
        elif kind is list and type(val) is list and all(map(finite, val)):
            values[key] = tuple(float(v) for v in val)
        elif kind in (int, str, dict) and type(val) is kind:
            values[key] = val
        else:
            raise ConfigurationError(f"{name}.{key} must be {_KINDS[kind]}, got {val!r}")
    return values


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"{what} not found: {path}") from exc
    except OSError as exc:
        raise ConfigurationError(f"{what} cannot be read: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc


def _load_config(args) -> dict:
    """The preset's sections overlaid by the config file's.

    A file's initial replaces the preset's whole, because the literal and
    constrained forms take different keys; every other section overlays key
    by key.
    """
    if not (args.preset or args.config):
        raise ConfigurationError("no configuration: pass --preset and/or --config")
    if args.preset and args.preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {args.preset!r}; valid: {', '.join(sorted(PRESETS))}"
        )
    cfg = _read(PRESETS[args.preset] if args.preset else {}, "preset", _SECTIONS["config file"])
    if args.config:
        overlay = _read_json(args.config, "config file")
        _read(overlay, "config file", _SECTIONS["config file"])
        for name, sec in overlay.items():
            cfg[name] = sec if name == "initial" else {**cfg[name], **sec}
    return cfg


def _build_params(sec: dict) -> ModelParams:
    return ModelParams(**_read(sec, "params", _SECTIONS["params"]))


def _initial_recipe(sec: dict) -> InitialRecipe:
    """Parse the initial section: (E_eff, I) constraints or a literal state."""
    if "e_eff" in sec or "i_inv" in sec:
        v = _read(sec, "initial", _SECTIONS["initial (constrained)"])
        return InitialRecipe(
            e_eff=v["e_eff"], i_inv=v["i_inv"], om0=v["ominus0"], op0=v["oplus0"],
            x0=v["x0"], dn0=v["dn0"], momentum_sign=v["momentum_sign"],
        )
    v = _read(sec, "initial", _SECTIONS["initial (literal)"])
    return InitialRecipe(state=SystemState(
        n1=v["n0"] + 1.0, om=v["ominus0"], op=v["oplus0"], x=v["x0"], p=v["p0"], dn=v["dn0"],
    ))


def _build_settings(sec: dict, default_tol: float) -> IntegratorSettings:
    fields = {**_SECTIONS["integrator"], "abs_tol": default_tol, "rel_tol": default_tol}
    return IntegratorSettings(**_read(sec, "integrator", fields))


def _setup(args, tol: float):
    """(config, params, initial state, integrator settings) of an orbit command.

    tol is the command's default for abs_tol and rel_tol.
    """
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    s0 = _initial_recipe(cfg["initial"]).build(p)
    return cfg, p, s0, _build_settings(cfg["integrator"], tol)


@contextlib.contextmanager
def _report(path: Path, head: dict):
    """Make path's directory, run the block and write path's JSON report; each
    output appears whole or not at all.

    The block gets (results, stage).  It adds its results to the dict, and
    writes each of its files to stage(target), a new file beside target; a
    target that cannot be written is a configuration error.  The commands
    stage every target before their work, so that error comes first.  On
    success the staged files replace their targets, and then the report
    does: head, the results (which replace head's keys of the same name) and
    wall_time_s, the block's run time.  On any other exit the staged files
    are removed.  On a numerical failure or a divergence the targets are
    removed too, so no earlier output stays beside the new report: head,
    status, error and last_good_time or t_div; the exception goes on.  Any
    other exception touches no target, writes no report, and removes the
    directories made here that the block left empty.  A directory that
    cannot be made is a configuration error.
    """
    staged = {}                                 # target -> its staged file

    def stage(target: Path) -> Path:
        partial = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            if target.is_dir():
                raise IsADirectoryError(f"{target} is a directory")
            open(partial, "w").close()
        except OSError as exc:
            raise ConfigurationError(f"{target} cannot be written: {exc}") from exc
        staged[target] = partial
        return partial

    def write(fields):
        stage(path).write_text(json.dumps({**head, **fields}, indent=2, sort_keys=True) + "\n")
        os.replace(staged.pop(path), path)

    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]     # innermost first
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {path.parent} cannot be made: {exc}") from exc
    results = {}
    t0 = time.perf_counter()
    try:
        yield results, stage
    except BaseException as exc:
        failed = isinstance(exc, (NumericalFailureError, DivergentTrajectoryError))
        for target, partial in staged.items():
            partial.unlink(missing_ok=True)
            if failed:
                target.unlink(missing_ok=True)
        staged.clear()
        if isinstance(exc, NumericalFailureError):
            write({"status": "numerical_failure", "error": str(exc), "last_good_time": exc.last_good_time})
        elif isinstance(exc, DivergentTrajectoryError):
            write({"status": "diverged", "error": str(exc), "t_div": exc.t_div})
        else:
            with contextlib.suppress(OSError):  # a directory not empty stays, and so do its parents
                for d in made:
                    d.rmdir()
        raise
    wall_time = time.perf_counter() - t0
    for target, partial in staged.items():
        os.replace(partial, target)
    staged.clear()
    write({**results, "wall_time_s": wall_time})


def _work(stats: StepStats) -> dict:
    """The integrator work behind a result, as every summary reports it, with the
    stepper it comes from ("taylor", with its order)."""
    work = {"method": stats.method, "steps_accepted": stats.accepted, "steps_rejected": stats.rejected,
            "rhs_evals": stats.rhs_evals, "renorms": stats.renorms}
    if stats.order is not None:
        work["order"] = stats.order
    return work


def _invariants(states, p: ModelParams) -> tuple[list, list]:
    """E_eff and I at each SystemState."""
    return [effective_energy(s, p) for s in states], [invariant_I(s) for s in states]


def _max_abs_drift(e_vals, i_vals) -> dict:
    """The largest |change| of E_eff and of I from their first values."""
    return {"e_eff": max(abs(e - e_vals[0]) for e in e_vals),
            "i_inv": max(abs(i - i_vals[0]) for i in i_vals)}


def _csv_entry(v):
    """A regimes.csv entry: "" for None, an enum's value, a float in g17, else v."""
    if v is None:
        return ""
    if isinstance(v, Enum):
        return v.value
    return g17(v) if isinstance(v, float) else v


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args):
    cfg, p, s0, settings = _setup(args, 1e-14)
    sim = _read(cfg["simulate"], "simulate", _SECTIONS["simulate"])
    t_end, interval = sim["t_end"], sim["sample_interval"]
    out = Path(args.out)
    head = {"command": "simulate", "params": dataclasses.asdict(p),
            "initial": dataclasses.asdict(s0), "settings": dataclasses.asdict(settings),
            "t_end": t_end, "sample_interval": interval}
    with _report(out / "summary.json", head) as (results, stage):
        table = stage(out / "trajectory.csv")
        plot = stage(out / "trajectory.svg") if args.plot else None
        traj = integrate(s0, p, t_end, settings, sample_interval=interval)
        e_vals, i_vals = _invariants([SystemState.from_array(y) for y in traj.states], p)
        _write_csv(table,
                   ["t", "n1", "ominus", "oplus", "x", "p", "e_eff", "i_inv"],
                   [[g17(v) for v in (t, *y, e, i)]
                    for t, y, e, i in zip(traj.times, traj.states, e_vals, i_vals)])
        results.update({
            "status": traj.status.value,
            "t_div": traj.t_div,
            # over the samples of trajectory.csv, from their values at t = 0
            "max_abs_drift": _max_abs_drift(e_vals, i_vals),
            **_work(traj.stats),
        })
        if plot:
            n_vals = [y[0] - 1.0 for y in traj.states]
            write_svg(plot,
                      [(traj.times, n_vals), (traj.times, e_vals), (traj.times, i_vals)],
                      title="boson number and invariants", xlabel="t", ylabel="value",
                      labels=["<N>", "E_eff", "I"])
    if traj.t_div is not None and not args.expect_divergence:
        raise DivergentTrajectoryError("unexpected divergence", traj.t_div)


def _oracle_compare(p, s0, settings, t_end, n_samples, critical):
    traj = integrate(s0, p, t_end, settings, sample_interval=t_end / (n_samples - 1))
    q0 = QuantumTriple(n1=s0.n1, om=s0.om, op=s0.op)
    flip = critical and p.delta < 0
    max_abs = 0.0
    max_rel = 0.0
    for t, y in zip(traj.times, traj.states):
        if critical:
            qq = QuantumTriple(q0.n1, -q0.om, -q0.op) if flip else q0
            ref_q = evolve_critical(qq, p.eps, t)
            if flip:
                ref_q = QuantumTriple(ref_q.n1, -ref_q.om, -ref_q.op)
        else:
            ref_q = evolve_linear(q0, p.eps, p.delta, t)
        ref_x, ref_p = evolve_classical(s0.x, s0.p, p.omega, t)
        for v, ref in zip(y, (ref_q.n1, ref_q.om, ref_q.op, ref_x, ref_p)):
            diff = abs(v - ref)
            max_abs = max(max_abs, diff)
            max_rel = max(max_rel, diff / max(1.0, abs(ref)))
    return traj, max_abs, max_rel


def cmd_oracle(args):
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    mode = args.mode
    regime = classify(p)
    head = {
        "command": "oracle",
        "mode": mode,
        "params": dataclasses.asdict(p),
        "classification": {
            "label": regime.label.value,
            "eta": {"re": regime.eta.real, "im": regime.eta.imag},
            "lambda_plus": {"re": regime.lambda_plus.real, "im": regime.lambda_plus.imag},
            "lambda_minus": {"re": regime.lambda_minus.real, "im": regime.lambda_minus.imag},
        },
    }
    with _report(Path(args.out) / "oracle.json", head) as (results, _):
        if mode != "classify":
            if p.alpha != 0.0:
                raise ConfigurationError("oracle evolution comparison requires alpha = 0")
            if mode == "critical" and regime.label is not StabilityClass.CRITICAL:
                raise ConfigurationError("oracle critical mode requires |delta| = eps")
            s0 = _initial_recipe(cfg["initial"]).build(p)
            settings = _build_settings(cfg["integrator"], 1e-12)
            osec = _read(cfg["oracle"], "oracle", _SECTIONS["oracle"])
            if not 2 <= osec["samples"] <= MAX_SAMPLES:
                raise ConfigurationError(f"oracle.samples must be from 2 to {MAX_SAMPLES}, got {osec['samples']}")
            traj, max_abs, max_rel = _oracle_compare(
                p, s0, settings, osec["t_end"], osec["samples"], critical=(mode == "critical")
            )
            results.update({
                "t_end": osec["t_end"],
                "max_abs_deviation": max_abs,
                "max_rel_deviation": max_rel,
                # over the compared samples, from their values at t = 0
                "max_abs_drift": _max_abs_drift(
                    *_invariants([SystemState.from_array(y) for y in traj.states], p)),
                "integration_status": traj.status.value,
                **_work(traj.stats),
            })
    print(json.dumps(head["classification"]))


def cmd_poincare(args):
    cfg, p, s0, settings = _setup(args, _ANALYSIS_TOL)
    t_end = _read(cfg["poincare"], "poincare", _SECTIONS["poincare"])["t_end"]
    direction = args.direction
    out = Path(args.out)
    initials = family_initials(s0, p, args.families) if args.families > 1 else [s0]
    head = {"command": "poincare", "params": dataclasses.asdict(p),
            "settings": dataclasses.asdict(settings), "t_end": t_end,
            "direction_filter": str(direction), "families": len(initials)}
    names = ["section.csv"] if len(initials) == 1 else [f"section_{i:02d}.csv" for i in range(len(initials))]
    with _report(out / "summary.json", head) as (results, stage):
        tables = [stage(out / name) for name in names]
        plot = stage(out / "section.svg") if args.plot else None
        member_reports = []
        all_series = []
        header = ["t_cross", "ominus", "oplus", "n1", "p", "direction"]
        for name, table, ic in zip(names, tables, initials):
            traj, events = analysis.poincare(ic, p, t_end, settings, direction_filter=direction)
            rows = [
                [g17(e.t_cross), g17(e.state.om), g17(e.state.op), g17(e.state.n1), g17(e.state.p),
                 str(e.direction)]
                for e in events
            ]
            _write_csv(table, header, rows)
            rec = {
                "file": name,
                "initial": dataclasses.asdict(ic),
                "crossings": len(events),
                # over the crossings, from the member's initial values
                "max_abs_drift": _max_abs_drift(*_invariants([ic, *(e.state for e in events)], p)),
                "status": traj.status.value,
                "t_div": traj.t_div,
                **_work(traj.stats),
            }
            if not events:
                rec["warning"] = "no crossings within the time budget"
            member_reports.append(rec)
            all_series.append(([e.state.om for e in events], [e.state.op for e in events]))
        results["members"] = member_reports
        if plot:
            write_svg(plot, all_series,
                      title="Poincare section at X=0", xlabel="<O->", ylabel="<O+>",
                      kinds=["scatter"] * len(all_series))
    t_divs = [m["t_div"] for m in member_reports if m["t_div"] is not None]
    if t_divs and not args.expect_divergence:
        raise DivergentTrajectoryError("unexpected divergence during section accumulation", t_divs[0])


def cmd_lyapunov(args):
    cfg, p, s0, settings = _setup(args, _ANALYSIS_TOL)
    lsec = _read(cfg["lyapunov"], "lyapunov", _SECTIONS["lyapunov"])
    head = {"command": "lyapunov", "params": dataclasses.asdict(p),
            "initial": dataclasses.asdict(s0),
            "transient": lsec["transient"], "total": lsec["total"]}
    with _report(Path(args.out) / "lyapunov.json", head) as (results, _):
        est = analysis.largest_lyapunov(
            s0, p, settings, transient=lsec["transient"], total=lsec["total"],
            renorm_interval=lsec["renorm_interval"],
        )
        results.update({
            "lambda_max": est.lambda_max,
            "standard_error": est.standard_error,
            # the time reached: short of the requested total on a late divergence
            "total": est.total_time,
            "renorm_count": est.renorm_count,
            "diverged_at": est.diverged_at,
            "megno": est.megno,
            # over the base states at the renormalizations, from the initial values
            "max_abs_drift": _max_abs_drift(
                *_invariants([s0, *(SystemState.from_array(y) for y in est.states)], p)),
            **_work(est.stats),
        })
    print(json.dumps({"lambda_max": est.lambda_max, "standard_error": est.standard_error}))


def _axis(sec: dict, name: str) -> AxisSpec:
    if "values" in sec:
        return AxisSpec(**_read(sec, name, _SECTIONS["axis (values)"]))
    v = _read(sec, name, _SECTIONS["axis (min/max/count)"])
    return AxisSpec.linspace(v["name"], v["min"], v["max"], v["count"])


def cmd_sweep(args):
    raw = _read(_read_json(args.specfile, "sweep spec"), "sweep spec", _SECTIONS["sweep spec"])
    p = _build_params(raw["params"])
    spec = SweepSpec(
        axis1=_axis(raw["axis1"], "axis1"),
        axis2=_axis(raw["axis2"], "axis2"),
        base_params=p,
        recipe=_initial_recipe(raw["initial"]),
        budget=raw["budget"],
        transient=raw["transient"],
        renorm_interval=raw["renorm_interval"],
        settings=_build_settings(raw["integrator"], _ANALYSIS_TOL),
    )
    workers = raw["workers"]
    if not 1 <= workers <= (os.cpu_count() or 1):
        raise ConfigurationError(f"sweep spec.workers must be from 1 to {os.cpu_count()}, got {workers}")
    out = Path(args.out)
    head = {"command": "sweep", "base_params": dataclasses.asdict(p),
            "axis1": {"name": spec.axis1.name, "values": list(spec.axis1.values)},
            "axis2": {"name": spec.axis2.name, "values": list(spec.axis2.values)},
            "budget": spec.budget}
    with _report(out / "summary.json", head) as (results, stage):
        partial = stage(out / "regimes.csv")    # an unwritable table fails before any cell runs
        regime_map = run_sweep(spec, max_workers=workers)
        # the columns after the axes are CellResult's fields after its grid position
        columns = [f.name for f in dataclasses.fields(CellResult)[4:]]
        _write_csv(partial,
                   ["axis1_name", "axis1_value", "axis2_name", "axis2_value",
                    *("stderr" if c == "standard_error" else c for c in columns)],
                   [[spec.axis1.name, g17(cell.axis1_value), spec.axis2.name, g17(cell.axis2_value),
                     *(_csv_entry(getattr(cell, c)) for c in columns)]
                    for cell in regime_map.cells])
        results["cells"] = len(regime_map)


def _parse_direction(text):
    if text == "both":
        return "both"
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"direction must be +1, -1 or both, got {text!r}")


def _family_count(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"families must be >= 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The sqlab parser; each subcommand takes only the flags it reads."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="JSON run configuration")
    run.add_argument("--preset", help=f"figure preset: {', '.join(sorted(PRESETS))}")
    run.add_argument("--out", default=".", help="output directory")
    orbit = argparse.ArgumentParser(add_help=False)
    orbit.add_argument("--plot", action="store_true", help="emit SVG plots")
    orbit.add_argument("--expect-divergence", action="store_true",
                       help="treat divergence as a normal outcome")

    parser = _Parser(
        prog="sqlab",
        description="Semiquantum boson-field dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[run, orbit]).set_defaults(func=cmd_simulate)
    oracle = sub.add_parser("oracle", parents=[run])
    oracle.add_argument("--mode", choices=("linear", "critical", "classify"),
                        default="classify")
    oracle.set_defaults(func=cmd_oracle)
    poincare = sub.add_parser("poincare", parents=[run, orbit])
    poincare.add_argument("--families", type=_family_count, default=1,
                          help="generate N initial conditions at fixed (E_eff, I)")
    poincare.add_argument("--direction", type=_parse_direction, default="both",
                          help="crossing direction filter: +1, -1 or both")
    poincare.set_defaults(func=cmd_poincare)
    sub.add_parser("lyapunov", parents=[run]).set_defaults(func=cmd_lyapunov)
    sweep_p = sub.add_parser("sweep")
    sweep_p.add_argument("specfile", help="JSON sweep specification")
    sweep_p.add_argument("--out", default=".", help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigurationError, InfeasibleConstraintError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergentTrajectoryError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
