"""Every name the benchmark tracer wraps must exist in the program.

perfbench/tracer.py replaces functions at the names their callers look up.
A refactor that drops or renames one of them breaks the traced benchmark;
this test makes it fail here as well.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
