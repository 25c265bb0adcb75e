"""Adaptive Dormand-Prince 5(4) integration of the coupled system.

One driver, ``_drive``, steps a ``_Dopri5`` to the end time through optional
stop marks; it owns the divergence guard and the status.  The stepper raises
``NumericalFailureError`` when its step budget runs out.  A
per-step hook (dense sampling or the X = 0 crossing scan) and a per-mark hook
(renormalization of the one tangent vector carried by ``field_jvp``) make the
front ends ``integrate``, ``integrate_with_events`` and
``integrate_augmented``; the last can collect crossings in the same pass.

Everything here is deterministic: identical inputs give bit-identical output
on one platform.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, NumericalFailureError
from .model import ModelParams, SystemState, field_jvp
# the stepper calls the float field by this module name, where tracers and tests replace it
from .model import field as rhs

__all__ = [
    "IntegratorSettings",
    "IntegrationStatus",
    "StepStats",
    "Trajectory",
    "CrossingEvent",
    "GrowthLog",
    "integrate",
    "integrate_with_events",
    "integrate_augmented",
]

_EPS = sys.float_info.epsilon
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order error estimator
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

_EVENT_MAX_ITER = 100
# number of sign-check subintervals per accepted step when locating crossings
_EVENT_SUBDIV = 4


@dataclass(frozen=True)
class IntegratorSettings:
    """Step control and guard parameters.

    The default tolerances are near the double-precision floor; they were
    chosen so the conserved quantities drift by less than 1e-10 over
    t = 1000 on the bundled scenarios.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-14
    h_init: float = 1e-3
    h_max: float = 10.0
    divergence_norm: float = 1e8
    max_steps: int = 50_000_000

    def validate(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ConfigurationError(f"tolerances must be positive: {self}")
        if not (self.h_init > 0 and self.h_max > 0):
            raise ConfigurationError(f"step sizes must be positive: {self}")
        if self.divergence_norm <= 0:
            raise ConfigurationError(f"divergence_norm must be positive: {self}")
        if self.max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1: {self}")


class IntegrationStatus(Enum):
    COMPLETED = "completed"
    DIVERGED = "diverged"


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0


@dataclass
class Trajectory:
    """Sampled solution: times strictly increasing, every sample finite."""

    times: np.ndarray
    states: np.ndarray            # shape (n_samples, 5)
    dn: float
    status: IntegrationStatus
    stats: StepStats
    t_div: float | None = None

    def state_at(self, i: int) -> SystemState:
        return SystemState.from_array(self.states[i], dn=self.dn)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class CrossingEvent:
    """One transit of the X = 0 plane; direction is the sign of dX/dt there."""

    t_cross: float
    state: SystemState
    direction: int


@dataclass
class GrowthLog:
    """Per-renormalization tangent growth record from the augmented flow."""

    times: np.ndarray             # renormalization instants
    log_norms: np.ndarray         # log of the tangent norm at each instant, before renormalizing
    status: IntegrationStatus
    stats: StepStats
    t_div: float | None = None
    crossings: list = field(default_factory=list)   # X = 0 transits, when requested


class _Dopri5:
    """Single-trajectory Dormand-Prince 5(4) stepper with PI step control.

    State, stages and dense output are lists of Python floats, and each stage
    is one comprehension over the components, for any length of state.
    err_dim limits the error norm to the leading components of the state
    (the augmented mode controls the step on the base state only).
    """

    def __init__(self, f, y0, settings: IntegratorSettings, err_dim=None):
        self.f = f
        self.t = 0.0
        self.y = [float(v) for v in y0]
        self.s = settings
        self.err_dim = err_dim if err_dim is not None else len(self.y)
        self.h = min(settings.h_init, settings.h_max)
        self.k1 = f(self.t, self.y)          # FSAL stage
        self.err_prev = None
        self.stats = StepStats()
        # filled by step(): the last accepted interval and its y_old, k1, k3..k7
        self.t_old = 0.0
        self.h_last = 0.0
        self.last = None

    def step(self, t_limit: float):
        """Advance by one accepted step, not beyond t_limit."""
        s, f, t, y, k1 = self.s, self.f, self.t, self.y, self.k1
        n_err = self.err_dim
        while True:
            if self.stats.accepted + self.stats.rejected >= s.max_steps:
                raise NumericalFailureError("step budget exhausted", last_good_time=t)
            h_clip = t_limit - t
            h = min(self.h, s.h_max, h_clip)
            if h <= 16.0 * _EPS * max(1.0, abs(t)):
                raise NumericalFailureError("step size underflow", last_good_time=t)
            # Dormand & Prince (1980) tableau; gi is component i of stage ki
            k2 = f(t + 1 / 5 * h, [y0 + h * (1 / 5 * g1) for y0, g1 in zip(y, k1)])
            k3 = f(t + 3 / 10 * h, [y0 + h * (3 / 40 * g1 + 9 / 40 * g2) for y0, g1, g2 in zip(y, k1, k2)])
            k4 = f(t + 4 / 5 * h, [y0 + h * (44 / 45 * g1 - 56 / 15 * g2 + 32 / 9 * g3)
                                   for y0, g1, g2, g3 in zip(y, k1, k2, k3)])
            k5 = f(t + 8 / 9 * h, [
                y0 + h * (19372 / 6561 * g1 - 25360 / 2187 * g2 + 64448 / 6561 * g3 - 212 / 729 * g4)
                for y0, g1, g2, g3, g4 in zip(y, k1, k2, k3, k4)])
            k6 = f(t + h, [
                y0 + h * (9017 / 3168 * g1 - 355 / 33 * g2 + 46732 / 5247 * g3 + 49 / 176 * g4 - 5103 / 18656 * g5)
                for y0, g1, g2, g3, g4, g5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = [y0 + h * (35 / 384 * g1 + 500 / 1113 * g3 + 125 / 192 * g4 - 2187 / 6784 * g5 + 11 / 84 * g6)
                     for y0, g1, g3, g4, g5, g6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(t + h, y_new)
            # RMS of the scaled 5th- minus 4th-order solution (e * e, as ** raises on overflow)
            err = [
                h * ((71 / 57600 * g1 - 71 / 16695 * g3 + 71 / 1920 * g4 - 17253 / 339200 * g5
                      + 22 / 525 * g6 - 1 / 40 * g7) / (s.abs_tol + s.rel_tol * max(abs(y0), abs(y1))))
                for y0, y1, g1, g3, g4, g5, g6, g7 in zip(y[:n_err], y_new, k1, k3, k4, k5, k6, k7)
            ]
            err = math.sqrt(sum([e * e for e in err]) / n_err)
            # One finiteness check is enough: the field is autonomous and each
            # of its inputs reaches an output (0 * inf is NaN), so a non-finite
            # trial stage reaches y_new or the error through b3..b6.
            if not (math.isfinite(err) and all(map(math.isfinite, y_new))
                    and all(map(math.isfinite, k7))):
                self.h = h * 0.1
                self.stats.rejected += 1
                continue
            if err <= 1.0:
                if self.err_prev is None or err == 0.0:
                    factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-0.2)
                else:
                    factor = _SAFETY * err ** (-_PI_ALPHA) * self.err_prev ** _PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                self.t_old, self.h_last, self.last = t, h, (y, k1, k3, k4, k5, k6, k7)
                # land exactly on the limit when the step was clipped to it
                self.t = t_limit if h == h_clip else t + h
                self.y = y_new
                self.k1 = k7                 # FSAL
                self.h = h * factor
                self.err_prev = max(err, 1e-10)
                self.stats.accepted += 1
                return
            self.h = h * max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            self.stats.rejected += 1

    def quartic(self, i: int) -> tuple:
        """Component i of the 4th-order dense interpolant on the last accepted step
        (Hairer, Norsett & Wanner, Solving ODEs I, II.6): its polynomial in
        theta = (t - t_old) / h_last, coefficients from the constant term up."""
        y0, g1, g3, g4, g5, g6, g7 = (r[i] for r in self.last)
        h = self.h_last
        return (
            y0,
            h * g1,
            h * (-8048581381 / 2820520608 * g1 + 131558114200 / 32700410799 * g3
                 - 1754552775 / 470086768 * g4 + 127303824393 / 49829197408 * g5
                 - 282668133 / 205662961 * g6 + 40617522 / 29380423 * g7),
            h * (8663915743 / 2820520608 * g1 - 68118460800 / 10900136933 * g3
                 + 14199869525 / 1410260304 * g4 - 318862633887 / 49829197408 * g5
                 + 2019193451 / 616988883 * g6 - 110615467 / 29380423 * g7),
            h * (-12715105075 / 11282082432 * g1 + 87487479700 / 32700410799 * g3
                 - 10690763975 / 1880347072 * g4 + 701980252875 / 199316789632 * g5
                 - 1453857185 / 822651844 * g6 + 69997945 / 29380423 * g7),
        )

    def dense(self, t: float) -> list:
        """The interpolant at t, every component."""
        theta = (t - self.t_old) / self.h_last
        return [_horner(self.quartic(i), theta) for i in range(len(self.y))]


def _horner(c, theta: float) -> float:
    c0, c1, c2, c3, c4 = c
    return c0 + theta * (c1 + theta * (c2 + theta * (c3 + theta * c4)))


def _base_rhs(p: ModelParams):
    return lambda t, y: rhs(y, p)


def _augmented_rhs(p: ModelParams):
    """Base field plus one tangent vector carried by its Jacobian, dv/dt = J(y) v."""
    def f(t, y):
        base = y[:5]
        return rhs(base, p) + field_jvp(base, y[5:], p)
    return f


def _check_inputs(t_end: float, settings: IntegratorSettings):
    settings.validate()
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")


def _check_direction(direction_filter):
    if direction_filter not in ("both", 1, -1):
        raise ConfigurationError(f"direction_filter must be +1, -1 or 'both', got {direction_filter!r}")


def _drive(stepper: _Dopri5, marks, on_step=None, on_mark=None):
    """Advance stepper through ascending stop marks; returns (status, t_div).

    Steps are clipped to land exactly on each mark.  on_step(stepper) runs
    after every accepted step, before the divergence guard on the base state
    (the first five components); on_mark(stepper) runs on reaching a mark.
    """
    for t_mark in marks:
        while stepper.t < t_mark:
            stepper.step(t_mark)
            if on_step is not None:
                on_step(stepper)
            if max(map(abs, stepper.y[:5])) > stepper.s.divergence_norm:
                return IntegrationStatus.DIVERGED, stepper.t
        if on_mark is not None:
            on_mark(stepper)
    return IntegrationStatus.COMPLETED, None


def _trajectory(stepper: _Dopri5, times, states, dn, status, t_div) -> Trajectory:
    """Close the samples with the last state reached."""
    if stepper.t > times[-1]:
        times.append(stepper.t)
        states.append(stepper.y.copy())
    return Trajectory(np.array(times), np.array(states), dn, status, stepper.stats, t_div)


def integrate(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    sample_interval: float = 0.1,
) -> Trajectory:
    """Integrate the coupled system, sampling by dense output.

    Samples are emitted at t = 0, at every multiple of sample_interval and at
    the final reached time; step-size control is never distorted by output
    requests.  Integration stops early with DIVERGED status when the max-norm
    of the state exceeds settings.divergence_norm.
    """
    settings = settings or IntegratorSettings()
    _check_inputs(t_end, settings)
    if sample_interval <= 0:
        raise ConfigurationError(f"sample_interval must be positive, got {sample_interval}")

    stepper = _Dopri5(_base_rhs(p), s0.to_array(), settings)
    times = [0.0]
    states = [s0.to_array()]
    k_next = 1

    def sample(st: _Dopri5):
        nonlocal k_next
        while k_next * sample_interval <= st.t + 1e-12 * sample_interval:
            ts = k_next * sample_interval
            if ts <= t_end:
                times.append(ts)
                states.append(st.dense(ts) if ts < st.t else st.y.copy())
            k_next += 1

    status, t_div = _drive(stepper, [t_end], on_step=sample)
    return _trajectory(stepper, times, states, s0.dn, status, t_div)


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4), in the
    operations and order of the common ``brentq`` routine, so both return one float.
    An endpoint where f is exactly 0 is returned as is.  Raises ValueError unless
    f(a) and f(b) have opposite signs, and RuntimeError after maxiter iterations."""
    xpre, xcur, fpre, fcur = a, b, f(a), f(b)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.isnan(fpre) or math.isnan(fcur) or (fpre < 0.0) == (fcur < 0.0):
        raise ValueError(f"f(a) = {fpre!r} and f(b) = {fcur!r} must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre                           # new bracket [xcur, xblk]
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):                             # xcur is the best guess
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                             # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
            spre, scur = (scur, stry) if short else (sbis, sbis)
        else:
            spre = scur = sbis                                # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur!r}")


def _refine_crossing(stepper: _Dopri5, x, ta: float, tb: float):
    """Locate the root of the interpolated x(t) on [ta, tb]."""
    try:
        t_cross = brentq(x, ta, tb, xtol=1e-15, rtol=4 * _EPS, maxiter=_EVENT_MAX_ITER)
    except (ValueError, RuntimeError) as exc:    # no bracket, or no convergence
        raise NumericalFailureError(
            f"crossing refinement on [{ta:.17g}, {tb:.17g}] failed: {exc}", last_good_time=ta
        ) from exc
    y_cross = stepper.dense(t_cross)[:5]
    tol = 1e-12 * (1.0 + math.hypot(*y_cross))
    if abs(y_cross[3]) > tol:
        raise NumericalFailureError(
            f"crossing refinement stalled at t={t_cross:.6g}", last_good_time=ta
        )
    return t_cross, y_cross


def _crossing_scan(p: ModelParams, dn: float, direction_filter, events: list):
    """Per-step hook appending the X = 0 transits of the last step to events.

    x is read at the edges of _EVENT_SUBDIV subintervals off the quartic in
    theta that the step's dense interpolant gives x, the function brentq
    refines, so a sign change brackets a root.
    """
    def scan(st: _Dopri5):
        q = st.quartic(3)
        # |x - q0| <= |q1| + ... + |q4| for 0 <= theta <= 1: with this margin no
        # rounding of an edge value can reach zero or q0's opposite sign
        if abs(q[0]) > 2.0 * (abs(q[1]) + abs(q[2]) + abs(q[3]) + abs(q[4])):
            return
        x = lambda t: _horner(q, (t - st.t_old) / st.h_last)
        dt = (st.t - st.t_old) / _EVENT_SUBDIV
        edges = [st.t_old + i * dt for i in range(_EVENT_SUBDIV)] + [st.t]
        xs = [x(t) for t in edges]
        for i in range(_EVENT_SUBDIV):
            ga, gb = xs[i], xs[i + 1]
            if ga == 0.0 or not (ga * gb < 0.0 or gb == 0.0):
                continue
            if gb == 0.0:
                t_cross, y_cross = edges[i + 1], st.dense(edges[i + 1])[:5]
            else:
                t_cross, y_cross = _refine_crossing(st, x, edges[i], edges[i + 1])
            direction = 1 if p.omega * y_cross[4] > 0 else -1
            if direction_filter == "both" or direction == direction_filter:
                events.append(CrossingEvent(
                    t_cross=t_cross,
                    state=SystemState.from_array(y_cross, dn=dn),
                    direction=direction,
                ))
    return scan


def integrate_with_events(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    direction_filter: str | int = "both",
) -> tuple[Trajectory, list[CrossingEvent]]:
    """Integrate and report every transit of the X = 0 plane.

    Events require a sign change across a step: a start point sitting exactly
    on the plane is not reported.  direction_filter selects the sign of dX/dt
    at the crossing (+1, -1 or "both").  The returned trajectory holds only
    the start state and the last state reached.
    """
    _check_direction(direction_filter)
    settings = settings or IntegratorSettings()
    _check_inputs(t_end, settings)

    stepper = _Dopri5(_base_rhs(p), s0.to_array(), settings)
    events: list[CrossingEvent] = []
    status, t_div = _drive(stepper, [t_end],
                           on_step=_crossing_scan(p, s0.dn, direction_filter, events))
    return _trajectory(stepper, [0.0], [s0.to_array()], s0.dn, status, t_div), events


def integrate_augmented(
    s0: SystemState,
    tangent0,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    renorm_interval: float = 1.0,
    direction_filter: str | int | None = None,
) -> GrowthLog:
    """Co-integrate the state with one tangent vector dv/dt = J(s) v.

    Every renorm_interval the tangent vector is scaled to unit length and the
    log of its norm before scaling is recorded (Benettin et al. 1980).  Step
    control is driven by the base-state error only.  direction_filter, when
    given (+1, -1 or "both"), also collects the X = 0 transits of the base
    state in the same pass into GrowthLog.crossings, as integrate_with_events
    would report them.
    """
    if direction_filter is not None:
        _check_direction(direction_filter)
    settings = settings or IntegratorSettings()
    _check_inputs(t_end, settings)
    if renorm_interval <= 0:
        raise ConfigurationError(f"renorm_interval must be positive, got {renorm_interval}")
    tangent = np.asarray(tangent0, dtype=float)
    if tangent.shape != (5,):
        raise ConfigurationError(f"tangent0 must be one vector of length 5, got shape {tangent.shape}")
    norm0 = np.linalg.norm(tangent)
    if not 0.0 < norm0 < math.inf:
        raise ConfigurationError(f"the tangent vector must be nonzero and finite, got {tangent.tolist()}")

    y0 = np.concatenate([s0.to_array(), tangent / norm0])
    stepper = _Dopri5(_augmented_rhs(p), y0, settings, err_dim=5)
    log_times = []
    log_norms = []
    crossings: list[CrossingEvent] = []

    def renormalize(st: _Dopri5):
        v = np.array(st.y[5:])
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise NumericalFailureError("the tangent vector collapsed to zero")
        log_norms.append(np.log(norm))
        log_times.append(st.t)
        st.y = st.y[:5] + (v / norm).tolist()
        st.k1 = st.f(st.t, st.y)                        # FSAL stage is stale after renorm

    n_marks = max(1, round(t_end / renorm_interval))
    marks = (min(m * renorm_interval, t_end) for m in range(1, n_marks + 1))
    scan = None if direction_filter is None else _crossing_scan(p, s0.dn, direction_filter, crossings)
    status, t_div = _drive(stepper, marks, on_step=scan, on_mark=renormalize)
    return GrowthLog(
        times=np.array(log_times),
        log_norms=np.array(log_norms),
        status=status,
        stats=stepper.stats,
        t_div=t_div,
        crossings=crossings,
    )
