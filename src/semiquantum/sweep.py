"""Parameter-grid regime mapping with deterministic parallel execution.

A SweepSpec checks its schedule when it is built, before any cell runs.  Each
cell gives one flat CellResult, the record a worker sends back.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .analysis import Regime, check_schedule, classify_regime
from .errors import ConfigurationError, DivergentTrajectoryError, InfeasibleConstraintError, NumericalFailureError
from .integrator import IntegratorSettings
from .model import ModelParams, SystemState, linspace, make_initial

__all__ = [
    "AxisSpec",
    "InitialRecipe",
    "SweepSpec",
    "CellResult",
    "RegimeMap",
    "run_sweep",
]

_PARAM_NAMES = ("eps", "gamma", "delta", "alpha", "omega")


@dataclass(frozen=True)
class AxisSpec:
    """One swept model parameter and its grid values."""

    name: str
    values: tuple

    @classmethod
    def linspace(cls, name: str, lo: float, hi: float, count: int) -> "AxisSpec":
        if count < 2:
            raise ConfigurationError(f"linspace axis needs count >= 2, got {count}")
        return cls(name=name, values=tuple(linspace(lo, hi, count)))

    def __post_init__(self):
        if self.name not in _PARAM_NAMES:
            raise ConfigurationError(
                f"axis parameter {self.name!r} not one of {_PARAM_NAMES}"
            )
        if len(self.values) < 1:
            raise ConfigurationError(f"axis {self.name!r} has no values")
        if not all(math.isfinite(v) for v in self.values):
            raise ConfigurationError(f"axis {self.name!r} has non-finite values")


@dataclass(frozen=True)
class InitialRecipe:
    """How to build the initial state on each grid cell.

    Either a literal state reused everywhere, or (E_eff, I) constraints
    re-solved per cell so the invariants stay fixed across the map.
    """

    state: SystemState | None = None
    e_eff: float | None = None
    i_inv: float | None = None
    om0: float = 0.0
    op0: float = 0.0
    x0: float = 1.0
    dn0: float = 0.0
    momentum_sign: int = -1

    def __post_init__(self):
        constrained = self.e_eff is not None or self.i_inv is not None
        if self.state is None and not constrained:
            raise ConfigurationError("initial recipe needs a state or (e_eff, i_inv) constraints")
        if self.state is not None and constrained:
            raise ConfigurationError("initial recipe cannot mix a literal state with constraints")
        if constrained and (self.e_eff is None or self.i_inv is None):
            raise ConfigurationError("constrained recipe needs both e_eff and i_inv")
        if self.momentum_sign not in (-1, 1):
            raise ConfigurationError(f"momentum_sign must be +1 or -1, got {self.momentum_sign}")

    def build(self, p: ModelParams) -> SystemState:
        if self.state is not None:
            return self.state
        return make_initial(
            self.e_eff, self.i_inv, self.om0, self.op0, self.x0, self.dn0,
            p, momentum_sign=self.momentum_sign,
        )


@dataclass(frozen=True)
class SweepSpec:
    axis1: AxisSpec
    axis2: AxisSpec
    base_params: ModelParams
    recipe: InitialRecipe
    budget: float = 5000.0
    transient: float = 200.0
    renorm_interval: float = 1.0
    settings: IntegratorSettings = field(default_factory=lambda: IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10))

    def __post_init__(self):
        check_schedule(self.transient, self.budget, self.renorm_interval, "budget")
        if self.axis1.name == self.axis2.name:
            raise ConfigurationError(f"axes must name distinct parameters, both are {self.axis1.name!r}")


@dataclass(frozen=True)
class CellResult:
    """One grid cell: a full record, or an explicit skip/failure that leaves the
    evidence empty.  The fields after axis2_value are regimes.csv's columns, in
    order, so a new column is one new field here."""

    i: int
    j: int
    axis1_value: float
    axis2_value: float
    regime: Regime | None = None
    lambda_max: float | None = None
    standard_error: float | None = None
    divergence_time: float | None = None
    status: str = field(kw_only=True)   # required: "ok" | "skipped: ..." | "failed: ..."
    # the section evidence of RegimeClassification
    n_crossings: int | None = None
    n_clusters: int | None = None
    notes: str = ""
    # the work of the cell's one pass (RegimeClassification.stats)
    steps_accepted: int | None = None
    rhs_evals: int | None = None
    megno: float | None = None          # LyapunovEstimate.megno


@dataclass
class RegimeMap:
    cells: list

    def __len__(self):
        return len(self.cells)


def _cell_params(spec: SweepSpec, v1: float, v2: float) -> ModelParams:
    return spec.base_params.replace(**{spec.axis1.name: float(v1), spec.axis2.name: float(v2)})


def _run_cell(args) -> CellResult:
    spec, i, j = args
    v1 = spec.axis1.values[i]
    v2 = spec.axis2.values[j]
    try:
        p = _cell_params(spec, v1, v2)
    except ConfigurationError as exc:
        return CellResult(i, j, v1, v2, status=f"skipped: invalid params ({exc})")
    try:
        s0 = spec.recipe.build(p)
    except InfeasibleConstraintError as exc:
        return CellResult(i, j, v1, v2, status=f"skipped: {exc}")
    try:
        result = classify_regime(
            s0, p, spec.settings, budget=spec.budget,
            transient=spec.transient, renorm_interval=spec.renorm_interval,
        )
    except (NumericalFailureError, DivergentTrajectoryError) as exc:  # numerical outcomes are data
        return CellResult(i, j, v1, v2, status=f"failed: {exc}")
    est = result.lyapunov
    return CellResult(
        i, j, v1, v2,
        regime=result.label,
        lambda_max=None if est is None else est.lambda_max,
        standard_error=None if est is None else est.standard_error,
        divergence_time=result.divergence_time,
        status="ok",
        n_crossings=result.n_crossings,
        n_clusters=result.n_clusters,
        notes=result.notes,
        steps_accepted=result.stats.accepted,
        rhs_evals=result.stats.rhs_evals,
        megno=None if est is None else est.megno,
    )


def run_sweep(spec: SweepSpec, max_workers: int | None = None) -> RegimeMap:
    """Classify every grid cell; identical output for any worker count.

    Cells are independent; results are assembled in (axis1 index, axis2
    index) order regardless of completion order.  At most os.cpu_count()
    worker processes run (None: that many), and no more than there are cells,
    since the pool starts them all at once; one worker runs the cells in this
    process.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    cpus = os.cpu_count() or 1
    work = [(spec, i, j)
            for i in range(len(spec.axis1.values))
            for j in range(len(spec.axis2.values))]
    workers = min(max_workers or cpus, cpus, len(work))
    if workers == 1:
        cells = [_run_cell(w) for w in work]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, work))
    return RegimeMap(cells=cells)
