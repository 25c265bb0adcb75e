"""Every sqlab command runs on the standard library alone.

Each command runs in a fresh interpreter with a ``numpy`` package first on
the path whose import raises ImportError, so an import of numpy anywhere on
a command's path, sweep workers included, makes the command fail.  The
model's array adapters still return numpy arrays: they import numpy when
called.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semiquantum.model import Derivative, ModelParams, SystemState, jacobian, jacobian_matrix, rhs

SRC = Path(__file__).resolve().parents[1] / "src"

FIG2D = {"eps": 1.05, "gamma": 0.0, "delta": 1.0, "alpha": 0.015, "omega": 1.0}
SHORT = {
    "simulate": {"t_end": 20.0, "sample_interval": 0.5},
    "poincare": {"t_end": 30.0},
    "lyapunov": {"transient": 5.0, "total": 30.0, "renorm_interval": 1.0},
}
LINEAR = {"params": {**FIG2D, "alpha": 0.0}, "initial": {"n0": 1.0, "x0": 1.0, "p0": -2.5},
          "oracle": {"t_end": 10.0, "samples": 21}}
CRITICAL = {"params": {**FIG2D, "eps": 1.0, "alpha": 0.0}, "initial": {"n0": 1.0, "x0": 1.0, "p0": 0.5},
            "oracle": {"t_end": 5.0, "samples": 11}}
# a quasiperiodic cell that reaches the cluster scan, and one that diverges early
SWEEP = {"params": FIG2D, "initial": {"e_eff": 4.8, "i_inv": 4.0, "ominus0": 2.5},
         "axis1": {"name": "eps", "values": [1.2]},
         "axis2": {"name": "alpha", "values": [0.02, 0.5]},
         "budget": 200.0, "transient": 10.0, "renorm_interval": 5.0,
         "workers": min(2, os.cpu_count() or 1)}

# name -> (argv with {in} for the input directory, the files the command must write)
COMMANDS = {
    "simulate": (["simulate", "--preset", "fig1b", "--config", "{in}/short.json", "--plot"],
                 ["summary.json", "trajectory.csv", "trajectory.svg"]),
    "oracle-linear": (["oracle", "--config", "{in}/linear.json", "--mode", "linear"], ["oracle.json"]),
    "oracle-critical": (["oracle", "--config", "{in}/critical.json", "--mode", "critical"],
                        ["oracle.json"]),
    "oracle-classify": (["oracle", "--preset", "fig1a", "--mode", "classify"], ["oracle.json"]),
    "poincare": (["poincare", "--preset", "fig2d", "--config", "{in}/short.json", "--families", "3",
                  "--plot"],
                 ["summary.json", "section_00.csv", "section_01.csv", "section_02.csv", "section.svg"]),
    "lyapunov": (["lyapunov", "--preset", "fig2d", "--config", "{in}/short.json"], ["lyapunov.json"]),
    "sweep": (["sweep", "{in}/sweep.json"], ["summary.json", "regimes.csv"]),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The input directory, and an environment whose numpy cannot be imported."""
    root = tmp_path_factory.mktemp("no_numpy")
    shadow = root / "shadow" / "numpy"
    shadow.mkdir(parents=True)
    (shadow / "__init__.py").write_text('raise ImportError("numpy is shadowed")\n')
    for name, payload in (("short", SHORT), ("linear", LINEAR), ("critical", CRITICAL), ("sweep", SWEEP)):
        (root / f"{name}.json").write_text(json.dumps(payload))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(shadow.parent), str(SRC)])}
    return root, env


def test_the_shadow_hides_numpy(inputs):
    _, env = inputs
    out = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0 and "numpy is shadowed" in out.stderr


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_runs_without_numpy(inputs, tmp_path, name):
    root, env = inputs
    argv, files = COMMANDS[name]
    argv = [a.format(**{"in": root}) for a in argv] + ["--out", str(tmp_path)]
    code = "import sys, semiquantum.cli as cli; sys.exit(cli.main(sys.argv[1:]))"
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(files)
    if name == "sweep":
        with open(tmp_path / "regimes.csv", newline="") as fh:
            assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]


def test_array_adapters_return_numpy_arrays():
    p = ModelParams(**FIG2D)
    s = SystemState(2.0, 0.1, -0.2, 1.0, -2.5)
    for value, shape in ((s.to_array(), (5,)), (rhs(s.to_array(), p), (5,)),
                         (jacobian_matrix(s.to_array(), p), (5, 5)), (jacobian(s, p), (5, 5)),
                         (Derivative(1.0, 2.0, 3.0, 4.0, 5.0).to_array(), (5,))):
        assert isinstance(value, np.ndarray) and value.shape == shape
