"""Every name the benchmark tracer wraps must exist in the program.

perfbench/tracer.py replaces functions at the names their callers look up,
and reads facts off their results.  A refactor that drops or renames one of
them, or changes a result the tracer reads, breaks the traced benchmark;
these tests make it fail here as well.  Every front end runs the Taylor
stepper: integrate, integrate_with_events and integrate_augmented, whose
labelling pass (crossings=True) is run here.  So rhs_evals is the order of
the recurrence once per step, no step is rejected, and the wrapped
semiquantum.integrator.rhs is called only when a flow is recorded: the steps
evaluate the field inline.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import semiquantum.integrator as integrator
from semiquantum.integrator import IntegratorSettings, integrate, integrate_augmented, integrate_with_events
from semiquantum.model import ModelParams, SystemState
from semiquantum.sweep import AxisSpec, InitialRecipe, SweepSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _wrapped_names():
    tracer = _tracer()
    names = [(mod, attr) for mod, attr, *_ in tracer.SPANS + tracer.COUNTERS]
    return names + [("semiquantum.integrator", "brentq")]


@pytest.mark.parametrize("module, attr", _wrapped_names())
def test_wrapped_name_resolves_to_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


P = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
S0 = SystemState(2, 0, 0, 1, -2.54950976)
SETTINGS = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)


def _augmented():
    return integrate_augmented(S0, np.ones(5), P, 20.0, SETTINGS, renorm_interval=0.5,
                               crossings=True).stats


# front end -> its step stats
RUNS = {
    "integrate": lambda: integrate(S0, P, 20.0, SETTINGS).stats,
    "events": lambda: integrate_with_events(S0, P, 20.0, SETTINGS)[0].stats,
    "augmented": _augmented,
}


@pytest.mark.parametrize("front_end", sorted(RUNS))
def test_rhs_calls_follow_the_rhs_evals_formula(front_end, monkeypatch):
    RUNS[front_end]()                   # records the flow, so the run below only replays it
    calls = []
    field = integrator.rhs
    monkeypatch.setattr(integrator, "rhs", lambda y, p: calls.append(1) or field(y, p))
    stats = RUNS[front_end]()
    assert stats.renorms == (40 if front_end == "augmented" else 0)
    # one order of the field recurrence per step, no step rejected, and no call
    # of integrator.rhs once the step is recorded
    assert (stats.method, stats.order, stats.rejected) == ("taylor", 13, 0)
    assert stats.rhs_evals == stats.order * stats.accepted
    assert calls == []


def _spec():
    return SweepSpec(axis1=AxisSpec("eps", (1.2,)), axis2=AxisSpec("alpha", (0.02, 0.07)),
                     base_params=P, recipe=InitialRecipe(state=S0), budget=20.0, transient=5.0,
                     settings=IntegratorSettings(abs_tol=1e-8, rel_tol=1e-8))


def _steps(r):
    return {"accepted": r.stats.accepted, "rejected": r.stats.rejected}


# span name -> (a real call's args and kwargs, the facts its result must give)
CALLS = {
    "integrator.integrate": ((S0, P, 20.0, SETTINGS), {},
                             lambda r: {**_steps(r), "t_span": 20.0}),
    "integrator.events": ((S0, P, 20.0, SETTINGS), {},
                          lambda r: {**_steps(r[0]), "t_span": 20.0, "crossings": len(r[1]),
                                     "traj_bytes": r[0].times.nbytes + r[0].states.nbytes}),
    "integrator.augmented": ((S0, np.ones(5), P, 20.0, SETTINGS), {"renorm_interval": 0.5},
                             lambda r: {**_steps(r), "t_span": 20.0, "renorms": 40}),
    "analysis.cluster": ((np.random.default_rng(1).uniform(size=(9, 2)), 0.1), {},
                         lambda r: {"points": 9}),
    "sweep.run": ((_spec(),), {"max_workers": 1}, lambda r: {"workers": 1, "cells": 2}),
    "sweep.cell": (((_spec(), 0, 1),), {}, lambda r: {"status": "ok"}),
}


# span name -> (module, attribute, facts) of every SPANS entry that records facts
DESCRIBED = {name: (module, attr, describe)
             for module, attr, name, describe in _tracer().SPANS if describe}


def test_every_described_span_is_checked():
    assert set(DESCRIBED) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_span_facts_read_a_real_result(name):
    module, attr, describe = DESCRIBED[name]
    args, kwargs, expected = CALLS[name]
    result = getattr(importlib.import_module(module), attr)(*args, **kwargs)
    assert describe(args, kwargs, result) == expected(result)
