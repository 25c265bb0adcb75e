"""Poincare sections, largest Lyapunov exponent and regime classification; check_schedule
is the one check of a Lyapunov schedule, made before any step or sweep cell."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigurationError, DivergentTrajectoryError
from .integrator import CrossingEvent, GrowthLog, IntegrationStatus, IntegratorSettings, Samples, StepStats
from .integrator import Trajectory, integrate_augmented, integrate_with_events, renorm_marks
from .model import ModelParams, SystemState

__all__ = [
    "LyapunovEstimate",
    "Regime",
    "RegimeClassification",
    "poincare",
    "largest_lyapunov",
    "classify_regime",
    "cluster_count",
    "check_schedule",
]

CHAOS_THRESHOLD = 5e-3          # in units where delta = 1
# MEGNO <Y> tends to 2 on tori and on periodic orbits of a non-isochronous system, and
# grows like lambda * t / 2 in chaos (Cincotta & Simo 2000)
MEGNO_CHAOS = 4.0
MIN_CROSSINGS = 50
CLUSTER_RADIUS_FACTOR = 1e-3
MAX_PERIODIC_CLUSTERS = 64


@dataclass(frozen=True)
class LyapunovEstimate:
    """Benettin estimate of the largest Lyapunov exponent, with the step counts of its
    pass, the base state at each of its renormalizations (GrowthLog.states) and the
    pass's MEGNO <Y> (GrowthLog.megno)."""

    lambda_max: float
    standard_error: float
    total_time: float
    renorm_count: int
    stats: StepStats
    states: Samples
    megno: float
    diverged_at: float | None = None


class Regime(Enum):
    PERIODIC = "periodic"
    QUASIPERIODIC = "quasiperiodic"
    CHAOTIC = "chaotic"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass
class RegimeClassification:
    """Regime label plus the evidence it was decided on; n_crossings counts the
    X = 0 crossings of the pass and stats its step counts, whatever the label."""

    label: Regime
    lyapunov: LyapunovEstimate | None = None
    divergence_time: float | None = None
    n_crossings: int = 0
    n_clusters: int | None = None
    notes: str = ""
    stats: StepStats | None = None


def poincare(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    direction_filter: str | int = "both",
) -> tuple[Trajectory, list[CrossingEvent]]:
    """The X = 0 crossings up to t_end (or divergence) in the direction asked for.

    direction_filter is the sign of dX/dt at a kept crossing, +1 or -1, or
    "both".  Returns integrate_with_events's trajectory (start and last
    state, status, step counts, t_div) and its events of that direction.
    """
    if direction_filter not in ("both", 1, -1):
        raise ConfigurationError(f"direction_filter must be +1, -1 or 'both', got {direction_filter!r}")
    traj, events = integrate_with_events(s0, p, t_end, settings)
    if direction_filter != "both":
        events = [e for e in events if e.direction == direction_filter]
    return traj, events


# fixed, arbitrary but deterministic initial tangent direction
_TANGENT0 = (1.0 / math.sqrt(5.0),) * 5


def largest_lyapunov(
    s0: SystemState,
    p: ModelParams,
    settings: IntegratorSettings | None = None,
    transient: float = 200.0,
    total: float = 5000.0,
    renorm_interval: float = 1.0,
) -> LyapunovEstimate:
    """Largest Lyapunov exponent by tangent-vector growth averaging.

    Only the renormalization intervals that start at or after the transient
    are averaged; the last one ends at total and may be shorter.  Each
    interval's growth rate, over its own length, is treated as an independent
    sample for the standard error.  Divergence before the transient completes
    raises; divergence afterwards yields a partial estimate with diverged_at
    set.  A schedule that check_schedule rejects is a ConfigurationError,
    raised before any step.
    """
    check_schedule(transient, total, renorm_interval)
    log = integrate_augmented(
        s0, _TANGENT0, p, total, settings, renorm_interval=renorm_interval
    )
    return _estimate(log, transient)


def check_schedule(transient: float, total: float, renorm_interval: float, name: str = "total"):
    """ConfigurationError unless transient >= 0, total (which the caller calls name) >
    transient, renorm_marks accepts (total, renorm_interval) and at least two intervals
    between its marks start at or after the transient."""
    if not transient >= 0:
        raise ConfigurationError(f"transient must be >= 0, got {transient}")
    if not total > transient:
        raise ConfigurationError(f"{name} ({total}) must exceed transient ({transient})")
    marks = renorm_marks(total, renorm_interval)
    n = sum(t0 >= transient for t0 in [0.0, *marks[:-1]])
    if n < 2:
        raise ConfigurationError(
            f"{n} renormalization interval(s) start at or after the transient {transient:g} "
            f"and end by t={total:g}: renorm_interval is too long, at least 2 are needed"
        )


def _estimate(log: GrowthLog, transient: float) -> LyapunovEstimate:
    """Benettin average of the growth log over the intervals that start at or after the transient."""
    reached = log.times[-1] if len(log.times) else 0.0
    if log.status is IntegrationStatus.DIVERGED and reached <= transient:
        raise DivergentTrajectoryError("trajectory diverged before the transient completed", log.t_div)
    # (start, end, log-norm) of each interval that starts at or after the transient
    kept = [(t0, t1, g) for t0, t1, g in zip([0.0, *log.times], log.times, log.log_norms)
            if t0 >= transient]
    n = len(kept)
    if n < 2:
        raise DivergentTrajectoryError("too few growth samples past the transient", log.t_div)
    lam = math.fsum(g for _, _, g in kept) / (reached - kept[0][0])
    rates = [g / (t1 - t0) for t0, t1, g in kept]
    mean = math.fsum(rates) / n
    se = math.sqrt(math.fsum((r - mean) * (r - mean) for r in rates) / (n - 1)) / math.sqrt(n)
    return LyapunovEstimate(
        lambda_max=lam,
        standard_error=se,
        total_time=reached,
        renorm_count=n,
        stats=log.stats,
        states=log.states,
        megno=log.megno,
        diverged_at=log.t_div,
    )


def cluster_count(points, radius: float) -> tuple[int, int]:
    """Greedy cover counts (first half, all) of 2-d points, from one scan.

    A point within radius of an existing center, by
    sqrt(dx * dx + dy * dy) <= radius, joins it; otherwise it is a new
    center.  Centers never move, so only whether one is near matters: they are
    hashed into square cells a little wider than radius, and a point is
    tested against the 3 x 3 cells around its own.  The scan is online: the
    centers made before the second half are the first half's.
    """
    # the margin keeps rounding in x / width from putting a center within radius
    # two cells away; the floor of 2**-30 of the largest coordinate bounds that rounding
    scale = max((abs(c) for pt in points for c in pt), default=0.0)
    width = max(radius, scale * 2.0 ** -30, sys.float_info.min) * (1.0 + 2.0 ** -20)
    half = len(points) // 2
    n_half = 0
    n = 0
    cells: dict[tuple[int, int], list] = {}
    for idx, (x, y) in enumerate(points):
        if idx == half:
            n_half = n
        i, j = math.floor(x / width), math.floor(y / width)
        if not any(math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) <= radius
                   for di in (-1, 0, 1) for dj in (-1, 0, 1)
                   for cx, cy in cells.get((i + di, j + dj), ())):
            cells.setdefault((i, j), []).append((x, y))
            n += 1
    return n_half, n


def classify_regime(
    s0: SystemState,
    p: ModelParams,
    settings: IntegratorSettings | None = None,
    budget: float = 5000.0,
    transient: float = 200.0,
    renorm_interval: float = 1.0,
) -> RegimeClassification:
    """Label a trajectory Periodic / Quasiperiodic / Chaotic / Divergent.

    One augmented pass to the budget on the Taylor stepper gives both pieces
    of evidence: the Benettin growth log with MEGNO <Y>, and the X = 0
    crossings of its base state.  Divergence wins; then lambda_max above
    CHAOS_THRESHOLD with <Y> above MEGNO_CHAOS means Chaotic (the standard
    error is reported, and decides nothing); otherwise the Poincare-section
    cluster structure separates Periodic (small saturating cluster count)
    from Quasiperiodic: <Y> tends to 2 on both.  Fewer than 50 crossings
    yields Inconclusive with the evidence attached.  The transient is used as
    given; a schedule that check_schedule rejects is a ConfigurationError,
    raised before any step.
    """
    check_schedule(transient, budget, renorm_interval, "budget")
    log = integrate_augmented(
        s0, _TANGENT0, p, budget, settings, renorm_interval=renorm_interval, crossings=True
    )
    result = RegimeClassification(Regime.DIVERGENT, n_crossings=len(log.crossings), stats=log.stats)
    try:
        result.lyapunov = est = _estimate(log, transient)
    except DivergentTrajectoryError as exc:
        result.divergence_time = exc.t_div
        result.notes = "diverged before the Lyapunov transient completed"
        return result
    if est.diverged_at is not None:
        result.divergence_time = est.diverged_at
    elif est.lambda_max > CHAOS_THRESHOLD and est.megno > MEGNO_CHAOS:
        result.label = Regime.CHAOTIC
    elif result.n_crossings < MIN_CROSSINGS:
        result.label = Regime.INCONCLUSIVE
        result.notes = f"only {result.n_crossings} crossings (< {MIN_CROSSINGS}) within the budget"
    else:
        pts = [(e.state.om, e.state.op) for e in log.crossings]
        # crossings at one point (spread 0) still cover as one cluster: distance 0 <= 0
        spread = max(max(c) - min(c) for c in zip(*pts))
        n_half, result.n_clusters = cluster_count(pts, CLUSTER_RADIUS_FACTOR * spread)
        periodic = result.n_clusters <= MAX_PERIODIC_CLUSTERS and result.n_clusters == n_half
        result.label = Regime.PERIODIC if periodic else Regime.QUASIPERIODIC
    return result
