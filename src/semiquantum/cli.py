"""Command-line front end: presets, JSON configs, CSV/JSON/SVG emission.

Subcommands: simulate | oracle | poincare | lyapunov | sweep.
Exit codes, mapped from exceptions in ``main`` only: 0 success,
1 configuration or usage error, 2 numerical failure (an exhausted step
budget included), 3 unexpected divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis
from .errors import (
    ConfigurationError,
    DivergentTrajectoryError,
    InfeasibleConstraintError,
    NumericalFailureError,
)
from .integrator import IntegrationStatus, IntegratorSettings, integrate
from .linear_oracle import QuantumTriple, StabilityClass, classify, evolve_classical, evolve_critical, evolve_linear
from .model import (
    ModelParams,
    SystemState,
    effective_energy,
    family_initials,
    invariant_I,
)
from .svgplot import write_svg
from .sweep import AxisSpec, InitialRecipe, SweepSpec, run_sweep

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
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text())
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
    values = _read(sec, "params", _SECTIONS["params"])
    try:
        return ModelParams(**values)
    except ValueError as exc:     # a non-positive eps or omega, or |gamma| >= eps
        raise ConfigurationError(f"params: {exc}") from exc


def _initial_recipe(sec: dict) -> InitialRecipe:
    """Parse the initial section: (E_eff, I) constraints or a literal state."""
    if "e_eff" in sec or "i_inv" in sec:
        v = _read(sec, "initial", _SECTIONS["initial (constrained)"])
        recipe = InitialRecipe(
            e_eff=v["e_eff"], i_inv=v["i_inv"], om0=v["ominus0"], op0=v["oplus0"],
            x0=v["x0"], dn0=v["dn0"], momentum_sign=v["momentum_sign"],
        )
    else:
        v = _read(sec, "initial", _SECTIONS["initial (literal)"])
        recipe = InitialRecipe(state=SystemState(
            n1=v["n0"] + 1.0, om=v["ominus0"], op=v["oplus0"], x=v["x0"], p=v["p0"], dn=v["dn0"],
        ))
    recipe.validate()
    return recipe


def _build_settings(sec: dict, default_tol: float) -> IntegratorSettings:
    fields = {**_SECTIONS["integrator"], "abs_tol": default_tol, "rel_tol": default_tol}
    settings = IntegratorSettings(**_read(sec, "integrator", fields))
    settings.validate()
    return settings


def _summary(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    s0 = _initial_recipe(cfg["initial"]).build(p)
    settings = _build_settings(cfg["integrator"], 1e-14)
    sim = _read(cfg["simulate"], "simulate", _SECTIONS["simulate"])
    t_end, interval = sim["t_end"], sim["sample_interval"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        traj = integrate(s0, p, t_end, settings, sample_interval=interval)
    except NumericalFailureError as exc:
        _summary(out / "summary.json", {
            "command": "simulate", "params": dataclasses.asdict(p),
            "status": "numerical_failure", "error": str(exc),
        })
        raise
    wall = time.perf_counter() - t0

    samples = [SystemState.from_array(y, dn=traj.dn) for y in traj.states]
    e_vals = [effective_energy(s, p) for s in samples]
    i_vals = [invariant_I(s) for s in samples]
    _write_csv(out / "trajectory.csv",
               ["t", "n1", "ominus", "oplus", "x", "p", "e_eff", "i_inv"],
               [[g17(v) for v in (t, *s.as_tuple(), e, i)]
                for t, s, e, i in zip(traj.times, samples, e_vals, i_vals)])
    _summary(out / "summary.json", {
        "command": "simulate",
        "params": dataclasses.asdict(p),
        "initial": dataclasses.asdict(s0),
        "settings": dataclasses.asdict(settings),
        "t_end": t_end,
        "sample_interval": interval,
        "status": traj.status.value,
        "t_div": traj.t_div,
        "steps_accepted": traj.stats.accepted,
        "steps_rejected": traj.stats.rejected,
        "wall_time_s": wall,
    })
    if args.plot:
        n_vals = traj.states[:, 0] - 1.0
        write_svg(out / "trajectory.svg",
                  [(traj.times, n_vals), (traj.times, e_vals), (traj.times, i_vals)],
                  title="boson number and invariants", xlabel="t", ylabel="value",
                  labels=["<N>", "E_eff", "I"])
    if traj.status is IntegrationStatus.DIVERGED and not args.expect_divergence:
        print(f"unexpected divergence at t={traj.t_div:.6g}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


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
        ref = np.array([ref_q.n1, ref_q.om, ref_q.op, ref_x, ref_p])
        diff = np.abs(y - ref)
        max_abs = max(max_abs, float(diff.max()))
        max_rel = max(max_rel, float((diff / np.maximum(1.0, np.abs(ref))).max()))
    return traj, max_abs, max_rel


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    mode = args.mode
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    regime = classify(p)
    report = {
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
    if mode != "classify":
        if p.alpha != 0.0:
            raise ConfigurationError("oracle evolution comparison requires alpha = 0")
        if mode == "critical" and regime.label is not StabilityClass.CRITICAL:
            raise ConfigurationError("oracle critical mode requires |delta| = eps")
        s0 = _initial_recipe(cfg["initial"]).build(p)
        settings = _build_settings(cfg["integrator"], 1e-12)
        osec = _read(cfg["oracle"], "oracle", _SECTIONS["oracle"])
        if osec["samples"] < 2:
            raise ConfigurationError(f"oracle.samples must be at least 2, got {osec['samples']}")
        t_end = osec["t_end"]
        traj, max_abs, max_rel = _oracle_compare(
            p, s0, settings, t_end, osec["samples"], critical=(mode == "critical")
        )
        report.update({
            "t_end": t_end,
            "max_abs_deviation": max_abs,
            "max_rel_deviation": max_rel,
            "integration_status": traj.status.value,
        })
    _summary(out / "oracle.json", report)
    print(json.dumps(report["classification"]))
    return EXIT_OK


def cmd_poincare(args) -> int:
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    s0 = _initial_recipe(cfg["initial"]).build(p)
    settings = _build_settings(cfg["integrator"], _ANALYSIS_TOL)
    t_end = _read(cfg["poincare"], "poincare", _SECTIONS["poincare"])["t_end"]
    direction = args.direction
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    initials = family_initials(s0, p, args.families) if args.families > 1 else [s0]

    t0 = time.perf_counter()
    member_reports = []
    all_series = []
    diverged = False
    header = ["t_cross", "ominus", "oplus", "n1", "p", "direction"]
    for idx, ic in enumerate(initials):
        section = analysis.poincare(ic, p, t_end, settings, direction_filter=direction)
        rows = [
            [g17(t), g17(om), g17(op), g17(n1), g17(pp), str(int(d))]
            for t, om, op, n1, pp, d in zip(
                section.t, section.om, section.op, section.n1, section.p, section.directions
            )
        ]
        name = "section.csv" if len(initials) == 1 else f"section_{idx:02d}.csv"
        _write_csv(out / name, header, rows)
        rec = {
            "file": name,
            "initial": dataclasses.asdict(ic),
            "crossings": len(section),
            "status": section.status.value,
            "t_div": section.t_div,
            "steps_accepted": section.stats.accepted, "steps_rejected": section.stats.rejected,
        }
        if len(section) == 0:
            rec["warning"] = "no crossings within the time budget"
        member_reports.append(rec)
        if section.status is IntegrationStatus.DIVERGED:
            diverged = True
        all_series.append((section.om, section.op))
    _summary(out / "summary.json", {
        "command": "poincare",
        "params": dataclasses.asdict(p),
        "settings": dataclasses.asdict(settings),
        "t_end": t_end,
        "direction_filter": str(direction),
        "families": len(initials),
        "members": member_reports,
        "wall_time_s": time.perf_counter() - t0,
    })
    if args.plot:
        write_svg(out / "section.svg", all_series,
                  title="Poincare section at X=0", xlabel="<O->", ylabel="<O+>",
                  kinds=["scatter"] * len(all_series))
    if diverged and not args.expect_divergence:
        print("unexpected divergence during section accumulation", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_lyapunov(args) -> int:
    cfg = _load_config(args)
    p = _build_params(cfg["params"])
    s0 = _initial_recipe(cfg["initial"]).build(p)
    settings = _build_settings(cfg["integrator"], _ANALYSIS_TOL)
    lsec = _read(cfg["lyapunov"], "lyapunov", _SECTIONS["lyapunov"])
    transient, total, renorm = lsec["transient"], lsec["total"], lsec["renorm_interval"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        est = analysis.largest_lyapunov(
            s0, p, settings, transient=transient, total=total, renorm_interval=renorm
        )
    except DivergentTrajectoryError as exc:
        _summary(out / "lyapunov.json", {
            "command": "lyapunov", "params": dataclasses.asdict(p),
            "status": "diverged", "t_div": exc.t_div,
            "transient": transient, "total": total,
        })
        raise
    report = {
        "command": "lyapunov",
        "params": dataclasses.asdict(p),
        "initial": dataclasses.asdict(s0),
        "lambda_max": est.lambda_max,
        "standard_error": est.standard_error,
        "transient": est.transient_discarded,
        "total": est.total_time,
        "renorm_count": est.renorm_count,
        "diverged_at": est.diverged_at,
        "steps_accepted": est.stats.accepted, "steps_rejected": est.stats.rejected,
        "wall_time_s": time.perf_counter() - t0,
    }
    _summary(out / "lyapunov.json", report)
    print(json.dumps({"lambda_max": est.lambda_max, "standard_error": est.standard_error}))
    return EXIT_OK


def _axis(sec: dict, name: str) -> AxisSpec:
    if "values" in sec:
        return AxisSpec(**_read(sec, name, _SECTIONS["axis (values)"]))
    v = _read(sec, name, _SECTIONS["axis (min/max/count)"])
    return AxisSpec.linspace(v["name"], v["min"], v["max"], v["count"])


def cmd_sweep(args) -> int:
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
    spec.validate()
    workers = raw["workers"]
    if not 1 <= workers <= (os.cpu_count() or 1):
        raise ConfigurationError(f"sweep spec.workers must be from 1 to {os.cpu_count()}, got {workers}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # fail on unwritable output before any computation
    target = out / "regimes.csv"
    target.touch()

    t0 = time.perf_counter()
    regime_map = run_sweep(spec, max_workers=workers)
    rows = []
    for cell in regime_map.cells:
        rows.append([
            spec.axis1.name, g17(cell.axis1_value),
            spec.axis2.name, g17(cell.axis2_value),
            "" if cell.regime is None else cell.regime.value,
            "" if cell.lambda_max is None else g17(cell.lambda_max),
            "" if cell.standard_error is None else g17(cell.standard_error),
            "" if cell.divergence_time is None else g17(cell.divergence_time),
            cell.status,
        ])
    _write_csv(target,
               ["axis1_name", "axis1_value", "axis2_name", "axis2_value",
                "regime", "lambda_max", "stderr", "divergence_time", "status"],
               rows)
    _summary(out / "summary.json", {
        "command": "sweep",
        "base_params": dataclasses.asdict(p),
        "axis1": {"name": spec.axis1.name, "values": list(spec.axis1.values)},
        "axis2": {"name": spec.axis2.name, "values": list(spec.axis2.values)},
        "budget": spec.budget,
        "cells": len(regime_map),
        "wall_time_s": time.perf_counter() - t0,
    })
    return EXIT_OK


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
        return args.func(args)
    except (ConfigurationError, InfeasibleConstraintError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DivergentTrajectoryError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
