"""Poincare sections, largest Lyapunov exponent and regime classification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DivergentTrajectoryError
from .integrator import GrowthLog, IntegrationStatus, IntegratorSettings, StepStats
from .integrator import integrate_augmented, integrate_with_events
from .model import ModelParams, SystemState

__all__ = [
    "PoincareSection",
    "LyapunovEstimate",
    "Regime",
    "RegimeClassification",
    "poincare",
    "largest_lyapunov",
    "classify_regime",
    "cluster_count",
]

CHAOS_THRESHOLD = 5e-3          # in units where delta = 1
SIGNIFICANCE_SIGMA = 3.0
MIN_CROSSINGS = 50
CLUSTER_RADIUS_FACTOR = 1e-3
MAX_PERIODIC_CLUSTERS = 64


@dataclass
class PoincareSection:
    """Ordered X = 0 crossings of one trajectory.

    Column arrays are index-aligned; directions holds the sign of dX/dt at
    each crossing.  status/stats/t_div mirror the underlying trajectory.
    """

    t: np.ndarray
    n1: np.ndarray
    om: np.ndarray
    op: np.ndarray
    p: np.ndarray
    directions: np.ndarray
    status: IntegrationStatus
    stats: StepStats
    t_div: float | None = None

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Benettin estimate of the largest Lyapunov exponent, with the step counts of its pass."""

    lambda_max: float
    standard_error: float
    transient_discarded: float
    total_time: float
    renorm_count: int
    stats: StepStats
    diverged_at: float | None = None


class Regime(Enum):
    PERIODIC = "periodic"
    QUASIPERIODIC = "quasiperiodic"
    CHAOTIC = "chaotic"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RegimeClassification:
    """Regime label plus the evidence it was decided on."""

    label: Regime
    lyapunov: LyapunovEstimate | None = None
    divergence_time: float | None = None
    n_crossings: int = 0
    n_clusters: int | None = None
    notes: str = ""


def poincare(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    direction_filter: str | int = "both",
) -> PoincareSection:
    """Collect all X = 0 crossings up to t_end (or divergence)."""
    traj, events = integrate_with_events(s0, p, t_end, settings, direction_filter=direction_filter)
    return PoincareSection(
        t=np.array([e.t_cross for e in events]),
        n1=np.array([e.state.n1 for e in events]),
        om=np.array([e.state.om for e in events]),
        op=np.array([e.state.op for e in events]),
        p=np.array([e.state.p for e in events]),
        directions=np.array([e.direction for e in events], dtype=int),
        status=traj.status,
        stats=traj.stats,
        t_div=traj.t_div,
    )


# fixed, arbitrary but deterministic initial tangent direction
_TANGENT0 = np.array([1.0, 1.0, 1.0, 1.0, 1.0]) / math.sqrt(5.0)


def largest_lyapunov(
    s0: SystemState,
    p: ModelParams,
    settings: IntegratorSettings | None = None,
    transient: float = 200.0,
    total: float = 5000.0,
    renorm_interval: float = 1.0,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent by tangent-vector growth averaging.

    The interval [0, transient] is discarded; per-interval growth rates are
    treated as independent samples for the standard error.  Divergence before
    the transient completes raises; divergence afterwards yields a partial
    estimate with diverged_at set.  A renorm_interval that leaves fewer than
    two growth samples past the transient is a ConfigurationError.
    """
    if not transient >= 0:
        raise ConfigurationError(f"transient must be >= 0, got {transient}")
    if total <= transient:
        raise ConfigurationError(f"total ({total}) must exceed transient ({transient})")
    if renorm_interval <= 0:
        raise ConfigurationError(f"renorm_interval must be positive, got {renorm_interval}")
    log = integrate_augmented(
        s0, _TANGENT0, p, total, settings, renorm_interval=renorm_interval
    )
    return _estimate(log, transient, renorm_interval)


def _estimate(log: GrowthLog, transient: float, renorm_interval: float) -> LyapunovEstimate:
    """Benettin average of the growth log past the transient."""
    reached = log.times[-1] if len(log.times) else 0.0
    if log.status is IntegrationStatus.DIVERGED and reached <= transient:
        raise DivergentTrajectoryError("trajectory diverged before the transient completed", log.t_div)
    keep = log.times > transient
    rates = log.log_norms[keep] / renorm_interval
    n = int(keep.sum())
    if n < 2:
        if log.status is IntegrationStatus.DIVERGED:
            raise DivergentTrajectoryError("too few growth samples past the transient", log.t_div)
        raise ConfigurationError(
            f"{n} growth sample(s) past the transient {transient:g} up to t={reached:g}: "
            f"renorm_interval {renorm_interval:g} is too long, at least 2 are needed"
        )
    span = log.times[keep][-1] - transient
    lam = float(log.log_norms[keep].sum() / span)
    se = float(rates.std(ddof=1) / math.sqrt(n))
    return LyapunovEstimate(
        lambda_max=lam,
        standard_error=se,
        transient_discarded=transient,
        total_time=float(reached),
        renorm_count=n,
        stats=log.stats,
        diverged_at=log.t_div,
    )


def cluster_count(points: np.ndarray, radius: float) -> tuple[int, int]:
    """Greedy cover counts (first half, all) of points, from one scan.

    A point within radius of an existing center joins it.  The scan is
    online: the centers made before the second half are the first half's.
    """
    half = len(points) // 2
    n_half = 0
    centers: list[np.ndarray] = []
    for idx, pt in enumerate(points):
        if idx == half:
            n_half = len(centers)
        for c in centers:
            if np.linalg.norm(pt - c) <= radius:
                break
        else:
            centers.append(pt)
    return n_half, len(centers)


def classify_regime(
    s0: SystemState,
    p: ModelParams,
    settings: IntegratorSettings | None = None,
    budget: float = 5000.0,
    transient: float = 200.0,
    renorm_interval: float = 1.0,
) -> RegimeClassification:
    """Label a trajectory Periodic / Quasiperiodic / Chaotic / Divergent.

    One augmented pass gives both pieces of evidence: the Benettin growth log
    and the X = 0 crossings of its base state (up to the last renormalization
    mark).  Divergence wins; then a significantly positive Lyapunov exponent
    means Chaotic; otherwise the Poincare-section cluster structure separates
    Periodic (small saturating cluster count) from Quasiperiodic.  Fewer than
    50 crossings yields Inconclusive with the evidence attached.
    """
    if not transient >= 0:
        raise ConfigurationError(f"transient must be >= 0, got {transient}")
    transient = min(transient, budget / 4.0)
    log = integrate_augmented(
        s0, _TANGENT0, p, budget, settings, renorm_interval=renorm_interval,
        direction_filter="both",
    )
    try:
        est = _estimate(log, transient, renorm_interval)
    except DivergentTrajectoryError as exc:
        return RegimeClassification(
            label=Regime.DIVERGENT, divergence_time=exc.t_div,
            notes="diverged before the Lyapunov transient completed",
        )
    if est.diverged_at is not None:
        return RegimeClassification(
            label=Regime.DIVERGENT, lyapunov=est, divergence_time=est.diverged_at
        )
    if est.lambda_max > CHAOS_THRESHOLD and est.lambda_max > SIGNIFICANCE_SIGMA * est.standard_error:
        return RegimeClassification(label=Regime.CHAOTIC, lyapunov=est)

    n_cross = len(log.crossings)
    if n_cross < MIN_CROSSINGS:
        return RegimeClassification(
            label=Regime.INCONCLUSIVE, lyapunov=est, n_crossings=n_cross,
            notes=f"only {n_cross} crossings (< {MIN_CROSSINGS}) within the budget",
        )
    pts = np.array([(e.state.om, e.state.op) for e in log.crossings])
    spread = float(np.max(np.ptp(pts, axis=0)))
    if spread == 0.0:
        return RegimeClassification(
            label=Regime.PERIODIC, lyapunov=est, n_crossings=n_cross, n_clusters=1
        )
    n_half, n_full = cluster_count(pts, CLUSTER_RADIUS_FACTOR * spread)
    if n_full <= MAX_PERIODIC_CLUSTERS and n_full == n_half:
        label = Regime.PERIODIC
    else:
        label = Regime.QUASIPERIODIC
    return RegimeClassification(
        label=label, lyapunov=est, n_crossings=n_cross, n_clusters=n_full
    )
