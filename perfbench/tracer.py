"""Span recorder that wraps semiquantum functions from outside the package.

``install(trace_dir)`` replaces each function in SPANS and COUNTERS at the
name its caller looks up (``semiquantum.integrator.rhs`` is the ``rhs`` that
the stepper calls, ``semiquantum.sweep.classify_regime`` the one a sweep cell
calls), so no file of the program changes.  A SPANS entry records one span
per call: name, start, end, the span that caused it, and facts read off the
arguments and result (step counts, crossings, renormalizations).  A COUNTERS
entry is called too often for a span each; its calls are counted and timed
into the enclosing span.

Sweep workers are forked from the command process and inherit the wrappers.
After a fork the worker drops the spans it inherited, and its first spans
name the span that was open at the fork (the sweep) as their cause.  Spans
stay in memory and are appended to ``<trace_dir>/spans-<pid>.jsonl`` each
time a process's outermost span closes.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import os
import time
from pathlib import Path

_now = time.perf_counter


def _steps(r) -> dict:
    return {"accepted": r.stats.accepted, "rejected": r.stats.rejected}


def _integrate_info(args, kwargs, traj) -> dict:
    return {**_steps(traj), "t_span": float(traj.times[-1])}


def _events_info(args, kwargs, result) -> dict:
    traj, events = result
    return {**_steps(traj), "t_span": float(traj.times[-1]), "crossings": len(events),
            # the per-step trajectory that poincare() discards
            "traj_bytes": int(traj.times.nbytes + traj.states.nbytes)}


def _augmented_info(args, kwargs, log) -> dict:
    reached = log.t_div if log.t_div is not None else (float(log.times[-1]) if len(log.times) else 0.0)
    return {**_steps(log), "t_span": reached, "renorms": len(log.times)}


def _cluster_info(args, kwargs, result) -> dict:
    return {"points": len(args[0])}


def _run_sweep_info(args, kwargs, result) -> dict:
    return {"workers": kwargs.get("max_workers") or os.cpu_count(), "cells": len(result.cells)}


def _cell_info(args, kwargs, cell) -> dict:
    return {"status": cell.status.split(":")[0]}


# (module, attribute, span name, facts to record); span names start with their layer
SPANS = [
    ("semiquantum.cli", "main", "cli.main", None),
    ("semiquantum.cli", "integrate", "integrator.integrate", _integrate_info),
    ("semiquantum.analysis", "integrate_with_events", "integrator.events", _events_info),
    ("semiquantum.analysis", "integrate_augmented", "integrator.augmented", _augmented_info),
    ("semiquantum.analysis", "poincare", "analysis.poincare", None),
    ("semiquantum.analysis", "largest_lyapunov", "analysis.lyapunov", None),
    ("semiquantum.analysis", "cluster_count", "analysis.cluster", _cluster_info),
    ("semiquantum.sweep", "classify_regime", "analysis.classify", None),
    ("semiquantum.cli", "run_sweep", "sweep.run", _run_sweep_info),
    # the function the pool sends to each worker: the cell boundary
    ("semiquantum.sweep", "_run_cell", "sweep.cell", _cell_info),
]

# (module, attribute, counter name)
COUNTERS = [
    ("semiquantum.integrator", "rhs", "model.rhs"),
    ("semiquantum.cli", "classify", "linear_oracle.classify"),
    ("semiquantum.cli", "evolve_linear", "linear_oracle.evolve_linear"),
    ("semiquantum.cli", "evolve_critical", "linear_oracle.evolve_critical"),
    ("semiquantum.cli", "evolve_classical", "linear_oracle.evolve_classical"),
]


class _Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "hot", "info")

    def __init__(self, span_id, parent, name, t0):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.hot = {}     # counter name -> [calls, seconds, extra count]
        self.info = {}


class Tracer:
    def __init__(self, trace_dir: Path):
        self.dir = Path(trace_dir)
        self.pid = os.getpid()
        self.stack = []
        self.done = []
        self.count = 0
        self.fork_parent = None

    def after_fork(self):
        self.fork_parent = self.stack[-1].id if self.stack else None
        self.pid = os.getpid()
        self.stack.clear()
        self.done.clear()
        self.count = 0

    def flush(self):
        with open(self.dir / f"spans-{self.pid}.jsonl", "a") as fh:
            for s in self.done:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name, "pid": self.pid,
                                     "t0": s.t0, "t1": s.t1, "hot": s.hot, "info": s.info}) + "\n")
        self.done.clear()

    def add(self, name, seconds, extra=0):
        """Account one counted call to the innermost open span."""
        rec = self.stack[-1].hot.setdefault(name, [0, 0.0, 0])
        rec[0] += 1
        rec[1] += seconds
        rec[2] += extra

    def span(self, fn, name, describe):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count += 1
            parent = stack[-1].id if stack else self.fork_parent
            span = _Span(f"{self.pid}.{self.count}", parent, name, _now())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.t1 = _now()
                if describe is not None:
                    span.info.update(describe(args, kwargs, result))
                return result
            except BaseException as exc:
                span.t1 = _now()
                span.info["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
                self.done.append(span)
                if not stack:
                    self.flush()
        return traced

    def counter(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, _now() - t0)
        return counted

    def refine(self, fn, name):
        """Count the calls of ``brentq`` and the dense evaluations it makes."""
        @functools.wraps(fn)
        def counted(g, *args, **kwargs):
            evals = [0]

            def g_counted(t):
                evals[0] += 1
                return g(t)

            t0 = _now()
            try:
                return fn(g_counted, *args, **kwargs)
            finally:
                self.add(name, _now() - t0, evals[0])
        return counted


def install(trace_dir) -> Tracer:
    if multiprocessing.get_start_method() != "fork":
        raise RuntimeError("sweep workers inherit the wrappers only when forked")
    tracer = Tracer(trace_dir)
    for mod_name, attr, name, describe in SPANS:
        mod = importlib.import_module(mod_name)
        setattr(mod, attr, tracer.span(getattr(mod, attr), name, describe))
    for mod_name, attr, name in COUNTERS:
        mod = importlib.import_module(mod_name)
        setattr(mod, attr, tracer.counter(getattr(mod, attr), name))
    integrator = importlib.import_module("semiquantum.integrator")
    integrator.brentq = tracer.refine(integrator.brentq, "integrator.refine")
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer
