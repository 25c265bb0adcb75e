import os

import numpy as np
import pytest

import semiquantum.sweep as sweep
from semiquantum.analysis import Regime
from semiquantum.errors import ConfigurationError, NumericalFailureError
from semiquantum.integrator import IntegratorSettings
from semiquantum.model import ModelParams, SystemState
from semiquantum.sweep import AxisSpec, InitialRecipe, RegimeMap, SweepSpec, run_sweep

BASE = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=1e-4, omega=1.0)
FAST = IntegratorSettings(abs_tol=1e-8, rel_tol=1e-8)


def small_spec(**overrides):
    kwargs = dict(
        axis1=AxisSpec("eps", (1.05, 1.2)),
        axis2=AxisSpec("alpha", (1e-4, 0.01)),
        base_params=BASE,
        recipe=InitialRecipe(e_eff=4.8, i_inv=4.0),
        budget=300.0,
        transient=50.0,
        settings=FAST,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestValidation:
    def test_linspace_axis(self):
        ax = AxisSpec.linspace("alpha", 0.0, 1.0, 5)
        assert ax.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            small_spec(axis1=AxisSpec("beta", (1.0,))).validate()

    def test_duplicate_axes(self):
        with pytest.raises(ConfigurationError):
            small_spec(axis2=AxisSpec("eps", (1.3,))).validate()

    def test_empty_axis(self):
        with pytest.raises(ConfigurationError):
            small_spec(axis1=AxisSpec("eps", ())).validate()

    def test_recipe_exclusivity(self):
        with pytest.raises(ConfigurationError):
            InitialRecipe(state=SystemState(2, 0, 0, 1, 0), e_eff=1.0, i_inv=1.0).validate()
        with pytest.raises(ConfigurationError):
            InitialRecipe().validate()
        with pytest.raises(ConfigurationError):
            InitialRecipe(e_eff=1.0).validate()

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            small_spec(budget=-1.0).validate()


class TestRunSweep:
    def test_grid_shape_and_order(self):
        spec = small_spec()
        rm = run_sweep(spec, max_workers=1)
        assert isinstance(rm, RegimeMap)
        assert len(rm) == 4
        coords = [(c.i, c.j) for c in rm.cells]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for c in rm.cells:
            assert c.axis1_value == spec.axis1.values[c.i]
            assert c.axis2_value == spec.axis2.values[c.j]

    def test_serial_parallel_identical(self):
        spec = small_spec()
        serial = run_sweep(spec, max_workers=1)
        parallel = run_sweep(spec, max_workers=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert a == b

    def test_infeasible_cell_recorded_as_skip(self):
        # at eps = 3 the requested effective energy is unreachable from x0 = 1
        spec = small_spec(
            axis1=AxisSpec("eps", (1.05, 3.0)),
            recipe=InitialRecipe(e_eff=0.5, i_inv=4.0),
        )
        rm = run_sweep(spec, max_workers=1)
        statuses = {(c.i, c.j): c.status for c in rm.cells}
        assert statuses[(1, 0)].startswith("skipped:")
        skipped = [c for c in rm.cells if c.status.startswith("skipped:")]
        assert all(c.regime is None and c.lambda_max is None for c in skipped)

    def test_ok_cells_carry_evidence(self):
        rm = run_sweep(small_spec(), max_workers=1)
        ok = [c for c in rm.cells if c.status == "ok"]
        assert ok
        for c in ok:
            assert isinstance(c.regime, Regime)
            if c.regime is not Regime.DIVERGENT:
                assert c.lambda_max is not None
                assert np.isfinite(c.lambda_max)

    def test_literal_state_recipe(self):
        spec = small_spec(recipe=InitialRecipe(state=SystemState(2, 0, 0, 1, -2.5495)))
        rm = run_sweep(spec, max_workers=1)
        assert all(c.status == "ok" for c in rm.cells)


class TestWorkerBound:
    """run_sweep starts at most os.cpu_count() workers; the fake pool starts none."""

    @pytest.fixture
    def requested(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
        return asked

    def one_cell(self):
        return small_spec(axis1=AxisSpec("eps", (1.05,)), axis2=AxisSpec("alpha", (1e-4,)),
                          budget=40.0, transient=10.0)

    def test_pool_capped_at_cpu_count(self, requested):
        cpus = os.cpu_count() or 1
        rm = run_sweep(self.one_cell(), max_workers=cpus + 1)
        assert rm.cells[0].status == "ok"
        assert requested == ([] if cpus == 1 else [cpus])

    def test_zero_workers_rejected(self, requested):
        with pytest.raises(ConfigurationError):
            run_sweep(self.one_cell(), max_workers=0)
        assert requested == []


class TestCellFailures:
    def _raising(self, exc):
        def classify(*args, **kwargs):
            raise exc
        return classify

    def test_programming_error_propagates(self, monkeypatch):
        monkeypatch.setattr(sweep, "classify_regime", self._raising(TypeError("bug")))
        with pytest.raises(TypeError):
            run_sweep(small_spec(), max_workers=1)

    def test_numerical_failure_is_a_failed_cell(self, monkeypatch):
        monkeypatch.setattr(sweep, "classify_regime",
                            self._raising(NumericalFailureError("step size underflow")))
        rm = run_sweep(small_spec(), max_workers=1)
        assert all(c.status.startswith("failed: step size underflow") for c in rm.cells)
        assert all(c.regime is None for c in rm.cells)
