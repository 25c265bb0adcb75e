"""Every name the benchmark tracer wraps must exist in the program.

perfbench/tracer.py replaces functions at the names their callers look up.
A refactor that drops or renames one of them breaks the traced benchmark;
this test makes it fail here as well.  perfbench/layers.py derives
integrator.rhs_evals from the step counts, which must equal the calls of the
wrapped semiquantum.integrator.rhs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import semiquantum.integrator as integrator
from semiquantum.integrator import IntegratorSettings, integrate, integrate_augmented, integrate_with_events
from semiquantum.model import ModelParams, SystemState

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
# a large first step forces rejections, which cost six evaluations as well
SETTINGS = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, h_init=1.0)


def _augmented():
    log = integrate_augmented(S0, [np.ones(5)], P, 20.0, SETTINGS, renorm_interval=0.5,
                              direction_filter="both")
    return log.stats, len(log.times)


# front end -> (its step stats, its renormalizations)
RUNS = {
    "integrate": lambda: (integrate(S0, P, 20.0, SETTINGS).stats, 0),
    "events": lambda: (integrate_with_events(S0, P, 20.0, SETTINGS)[0].stats, 0),
    "augmented": _augmented,
}


@pytest.mark.parametrize("front_end", sorted(RUNS))
def test_rhs_calls_follow_the_rhs_evals_formula(front_end, monkeypatch):
    calls = []
    field = integrator.rhs
    monkeypatch.setattr(integrator, "rhs", lambda y, p: calls.append(1) or field(y, p))
    stats, renorms = RUNS[front_end]()
    assert stats.rejected > 0
    assert len(calls) == 1 + 6 * (stats.accepted + stats.rejected) + renorms
