"""Integration of the coupled system by a generated Taylor stepper.

A flow is an autonomous ``flow(y, p)`` written in plain arithmetic
(``_base_flow`` and ``_augmented_flow``, through ``rhs`` and
``field_jvp``).  ``_Recording`` runs it once on recorder symbols (``_Tape``),
which write one entry per float operation.  One emitter, ``_term``, writes a
recorded operation as source for coefficient k of its Taylor series, whose
coefficient 0 is the operation itself.  ``_taylor_source`` writes the
stepper from that recording as straight-line code over named scalar
components, with the settings read, the clips, the underflow check and the
landing on the limit kept apart (``_SETTINGS``, ``_CLIP``, ``_UNDERFLOW``,
``_LAND``), so that the tests' Dormand-Prince reference
(``tests/dopri5_reference.py``) generates its loop from the same pieces;
``_compiled`` compiles each on first use and caches it, so the field is
inline and no step calls a function.  ``_Stepper`` holds what a stepper
keeps: state, stats, the stop each advance leaves and its dense output.
``rhs`` itself runs only when a flow is recorded.

Every front end runs the Taylor stepper: ``integrate`` (behind ``simulate``
and ``oracle``), ``integrate_with_events`` (behind ``poincare``) and
``integrate_augmented``, both its Lyapunov pass (behind ``lyapunov``) and,
with crossings, its labelling pass (behind ``classify_regime`` and
``sweep``, so every regime label).  The step is the recurrence of the
solution's Taylor coefficients, y_{k+1} = f_k / (k + 1), at the order the
tolerance gives and with Jorba & Zou's step size (2005, section 3), taken
over the first five components, the base state (the tangent of the
augmented flow does not size the step).  The step's polynomials are its
dense output.  Every accepted step is a stop; no step is rejected;
``StepStats.rhs_evals`` counts the orders of the recurrence evaluated, the
order once per step.  For the events and labelling passes the step is
generated with scan: it decides whether an X = 0 crossing may lie in it
from the Bernstein coefficients of x's step polynomial, a test the plain
step does not make.  The augmented passes run to the end time alone, so no
step is clipped at a renormalization mark: each mark is read off the
polynomials of the step that holds it.  Their base part is recorded first,
so they take the events pass's steps, bit for bit.

``_drive`` alone runs a stepper from stop to stop to the end time through
optional marks; it owns the status.  A stop hook (dense sampling, the
X = 0 crossing scan, or the renormalization marks and MEGNO terms read off
an augmented step) makes each front end; the labelling pass runs the
crossing scan and then the marks in one hook.  The crossing scan
(``_crossing_scan``) brackets the roots of x's step polynomial at the edges
of the step's quarters, halving a quarter by de Casteljau where the
polynomial's Bernstein coefficients show that it may hold more than one
root, and refines each bracket with ``brentq``.

Everything here is deterministic: identical inputs give bit-identical output
on one platform.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from array import array
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigurationError, NumericalFailureError
from .model import ModelParams, SystemState, field_jvp
# the flows call the float field by this module name, where tracers and tests replace it;
# a recorded attempt keeps the field it was recorded with
from .model import field as rhs

__all__ = [
    "IntegratorSettings",
    "IntegrationStatus",
    "StepStats",
    "Samples",
    "Trajectory",
    "CrossingEvent",
    "GrowthLog",
    "integrate",
    "integrate_with_events",
    "integrate_augmented",
    "renorm_marks",
    "MAX_SAMPLES",
]

_EPS = sys.float_info.epsilon

# Taylor steps (Jorba & Zou 2005, section 3): the lowest order, and the factors of
# h = rho / e**2 * exp(-0.7 / (order - 1)), rho the radius the last two coefficients give
_TAYLOR_MIN_ORDER = 2
_TAYLOR_STEP = math.exp(-2.0)
_TAYLOR_SAFETY = 0.7

# the most samples integrate emits, t_end / sample_interval, and the most renormalizations
# integrate_augmented makes, t_end / renorm_interval: about 0.2 GB of floats before packing
MAX_SAMPLES = 10**6

_EVENT_MAX_ITER = 100
# number of sign-check subintervals per accepted step when locating crossings, and
# the most halvings of one while isolating the roots of x in it
_EVENT_SUBDIV = 4
_EVENT_DEPTH = 40


@dataclass(frozen=True)
class IntegratorSettings:
    """Step control and guard parameters.

    The default tolerances are near the double-precision floor; they were
    chosen so the conserved quantities drift by less than 1e-10 over
    t = 1000 on the bundled scenarios.  h_init sizes no step of the program:
    the Taylor stepper sizes every step, the first too, from its
    coefficients (the tests' Dormand-Prince reference takes it as its first
    step).
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-14
    h_init: float = 1e-3
    h_max: float = 10.0
    divergence_norm: float = 1e8
    max_steps: int = 50_000_000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ConfigurationError(f"tolerances must be positive: {self}")
        if not (self.h_init > 0 and self.h_max > 0):
            raise ConfigurationError(f"step sizes must be positive: {self}")
        if not self.divergence_norm > 0:
            raise ConfigurationError(f"divergence_norm must be positive: {self}")
        if not self.max_steps >= 1:
            raise ConfigurationError(f"max_steps must be >= 1: {self}")


class IntegrationStatus(Enum):
    COMPLETED = "completed"
    DIVERGED = "diverged"


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0            # dopri5: field evaluations, 1 to start, 6 per attempt;
                                  # taylor: orders of the field recurrence, the order once per step
    renorms: int = 0              # renormalizations of the tangent vector
    method: str = "dopri5"        # the stepper the counts come from: "dopri5" or "taylor"
    order: int | None = None      # the Taylor order; None for dopri5


class Samples:
    """Read-only float samples held flat in an array('d'): a sequence of floats,
    or with width w of rows, each a tuple of w floats.  A slice is a Samples of
    the same width.  nbytes is the size of the floats held."""

    __slots__ = ("_flat", "_width")

    def __init__(self, values, width: int = 1):
        self._flat = array("d", values)
        self._width = width

    def __len__(self):
        return len(self._flat) // self._width

    def __getitem__(self, i):
        w, flat = self._width, self._flat
        if isinstance(i, slice):
            return Samples([flat[r * w + c] for r in range(len(self))[i] for c in range(w)], w)
        if w == 1:
            return flat[i]
        i = range(len(self))[i]       # negative indices, and IndexError past the end
        return tuple(flat[i * w:(i + 1) * w])

    def __iter__(self):
        it = iter(self._flat)
        return it if self._width == 1 else zip(*[it] * self._width)

    @property
    def nbytes(self) -> int:
        return self._flat.itemsize * len(self._flat)


@dataclass
class Trajectory:
    """Sampled solution: times strictly increasing, every sample finite."""

    times: Samples
    states: Samples               # rows (n1, om, op, x, p)
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

    times: Samples                # renormalization instants
    log_norms: Samples            # log of the tangent norm at each instant, before renormalizing
    states: Samples               # rows (n1, om, op, x, p): the base state at each instant
    status: IntegrationStatus
    stats: StepStats
    # MEGNO <Y> (Cincotta & Simo 2000) at the last step end before any divergence: per step,
    # A += (t_old + t) / 2 * (the step's log growth of the tangent), Y = 2 A / t, and <Y>
    # the trapezoid time mean of Y over the step ends from Y(0) = 0 (0 before any step)
    megno: float
    t_div: float | None = None
    crossings: list = field(default_factory=list)   # X = 0 transits, when requested


class _Sym:
    """One float of a flow run under recording.  Each +, -, * or unary - on it
    writes one operation to its tape and returns the symbol of the result."""

    __slots__ = ("tape", "state")

    def __init__(self, tape, state: bool):
        self.tape = tape
        self.state = state        # False: a parameter, or computed from parameters and constants only

    def __add__(self, other):
        return self.tape.op("+", self, other)

    def __radd__(self, other):
        return self.tape.op("+", other, self)

    def __sub__(self, other):
        return self.tape.op("-", self, other)

    def __rsub__(self, other):
        return self.tape.op("-", other, self)

    def __mul__(self, other):
        return self.tape.op("*", self, other)

    def __rmul__(self, other):
        return self.tape.op("*", other, self)

    def __neg__(self):
        return self.tape.op("-", self)


def _const(c) -> str:
    """A float constant as source text that reads back to the same bits."""
    text = repr(float(c))
    return f"({text})" if text.startswith("-") else text


class _Tape:
    """The operations of one flow run on symbols, in evaluation order.  An
    operation already on the tape with the same operands, in the same order, is
    not written again: it would give the same bits."""

    def __init__(self):
        self.ops = []             # (result, operator, operands)
        self.params = {}          # parameter attribute -> its symbol, in the order first read
        self.seen = {}

    def op(self, operator: str, *operands):
        if not all(isinstance(a, _Sym) or (type(a) in (int, float) and math.isfinite(a))
                   for a in operands):
            return NotImplemented
        key = (operator, *(a if isinstance(a, _Sym) else _const(a) for a in operands))
        if key not in self.seen:
            result = _Sym(self, any(isinstance(a, _Sym) and a.state for a in operands))
            self.ops.append((result, operator, operands))
            self.seen[key] = result
        return self.seen[key]


class _Params:
    """The parameters of a flow under recording: every attribute read is a symbol."""

    def __init__(self, tape: _Tape):
        self._tape = tape

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        params = self._tape.params
        if name not in params:
            params[name] = _Sym(self._tape, False)
        return params[name]


def _coef(series: dict, a, k: int):
    """Coefficient k of operand a as source text, None where it is exactly 0.
    series maps (symbol, k) to text; a term off the state has coefficient 0 only."""
    if isinstance(a, _Sym):
        return series[a, k] if a.state or not k else None
    return None if k else _const(a)


def _term(series: dict, operator: str, operands, k: int):
    """Coefficient k of one recorded operation as source text, with whether it
    needs its own name; (None, False) where it is exactly 0.

    A product of two state terms is a Cauchy product, sum over j = 0..k of
    a_j * b_{k-j}, added left to right; +, -, unary - and a product with a term
    off the state act termwise, and a term off the state added to a state term
    goes into coefficient 0 only.  Coefficient 0 is the operation itself on its
    operands' values: the flow evaluated at a point.
    """
    coef = functools.partial(_coef, series)
    if len(operands) == 1:
        a = coef(operands[0], k)
        return (None, False) if a is None else (f"-{a}", True)
    x, y = operands
    if operator == "*":
        if not (isinstance(x, _Sym) and x.state):
            b = coef(y, k)
            return (None, False) if b is None else (f"{coef(x, 0)} * {b}", True)
        if not (isinstance(y, _Sym) and y.state):
            a = coef(x, k)
            return (None, False) if a is None else (f"{a} * {coef(y, 0)}", True)
        terms = [f"{coef(x, j)} * {coef(y, k - j)}" for j in range(k + 1)
                 if coef(x, j) is not None and coef(y, k - j) is not None]
        return (" + ".join(terms), True) if terms else (None, False)
    a, b = coef(x, k), coef(y, k)
    if b is None:
        return a, False
    if a is None:
        return (b, False) if operator == "+" else (f"-{b}", True)
    return f"{a} {operator} {b}", True


class _Recording:
    """flow(y, p) run once on symbols for a state of n components (see _Tape),
    as both generated steppers write it.  head loads the parameters and computes
    each operation on parameters and constants only, once per call; emit writes
    the operations on the state, one coefficient at a time."""

    def __init__(self, flow, n: int):
        tape = _Tape()
        self.inputs = [_Sym(tape, True) for _ in range(n)]
        self.outputs = list(flow(self.inputs, _Params(tape)))
        if len(self.outputs) != n:
            raise ValueError(f"a flow on {n} components returned {len(self.outputs)}")
        self.names = {(sym, 0): f"p_{attr}" for attr, sym in tape.params.items()}
        self.head = [f"p_{attr} = p.{attr}" for attr in tape.params]
        for m, (sym, operator, operands) in enumerate(op for op in tape.ops if not op[0].state):
            self.head.append(f"c_{m} = {_term(self.names, operator, operands, 0)[0]}")
            self.names[sym, 0] = f"c_{m}"
        self.varying = [op for op in tape.ops if op[0].state]

    def series(self, inputs) -> dict:
        """(symbol, k) -> source text: the names off the state, and coefficient 0 of
        input i as inputs[i]."""
        return {**self.names, **{(sym, 0): text for sym, text in zip(self.inputs, inputs)}}

    def emit(self, series: dict, k: int, targets: dict) -> list:
        """The lines computing coefficient k of each operation on the state, entered
        into series; one that needs a name is assigned to targets[symbol], or to
        w{m}_{k} for the m-th operation."""
        lines = []
        for m, (sym, operator, operands) in enumerate(self.varying):
            text, named = _term(series, operator, operands, k)
            if named:
                name = targets.get(sym, f"w{m}_{k}")
                lines.append(f"{name} = {text}")
                text = name
            series[sym, k] = text
        return lines


# Lines both generated steppers share.  Each setting is read once into a local.
_SETTINGS = ["atol, rtol, h_max = settings.abs_tol, settings.rel_tol, settings.h_max",
             "bound, max_steps = settings.divergence_norm, settings.max_steps"]
# h = min(h, h_max, h_clip), h_clip the distance to t_limit
_CLIP = ["h_clip = t_limit - t", "if h_max < h:", "    h = h_max", "if h_clip < h:", "    h = h_clip"]
# the shortest step, 16 * eps * max(1, |t|), made whenever t changes
_UNDERFLOW = ["at = abs(t)", f"h_min = {_const(16.0 * _EPS)} * (at if at > 1.0 else 1.0)"]
# the accepted step lands exactly on the limit when it was clipped to it
_LAND = ["t_old = t", "t = t_limit if h == h_clip else t + h"]


@functools.cache
def _compiled(source, *args):
    """The advance function that source(*args) writes (_taylor_source, or the
    tests' Dormand-Prince loop), compiled in this module's globals on first use and cached."""
    namespace = {}
    exec(compile(source(*args), f"<{source.__name__}>", "exec"), globals(), namespace)
    return namespace["advance"]


class _Stepper:
    """What a stepper holds (the Taylor stepper, and the tests' Dormand-Prince
    reference): the parameters p, time t, state y (a list of
    Python floats), settings s and stats; and, filled by advance() at each stop,
    the last accepted step from t_old, of length h_last, with every component's
    polynomial in theta = (t - t_old) / h_last (polys, constant term first: DOP5's
    dense quartic, or the Taylor step polynomial of the stepper's order) and the
    two decisions on it (diverged, and crossing: whether x's polynomial may
    reach zero, decided only by a stepper that scans)."""

    def __init__(self, p, y0, settings: IntegratorSettings, stats: StepStats):
        self.p = p
        self.t = 0.0
        self.y = [float(v) for v in y0]
        self.s = settings
        self.stats = stats
        self.t_old = self.h_last = 0.0
        self.polys = ()
        self.diverged = self.crossing = False

    def dense(self, t: float) -> list:
        """The polynomials of the last accepted step at t, every component."""
        theta = (t - self.t_old) / self.h_last
        return [_horner(q, theta) for q in self.polys]


def _horner(c, theta: float) -> float:
    """The polynomial with coefficients c, constant term first, at theta."""
    value = c[-1]
    for ck in c[-2::-1]:
        value = ck + theta * value
    return value


def _taylor_order(settings: IntegratorSettings) -> int:
    """Jorba & Zou's order for the tolerance eps, ceil(1 - ln(eps) / 2), with eps the
    smaller tolerance and no smaller than the float epsilon (so at most 20)."""
    eps = max(min(settings.abs_tol, settings.rel_tol), _EPS)
    return max(_TAYLOR_MIN_ORDER, math.ceil(1.0 - 0.5 * math.log(eps)))


@functools.cache
def _bernstein_weights(degree: int) -> tuple:
    """Row i holds C(i, j) / C(degree, j) for j = 0..i: Bernstein coefficient i on
    theta in [0, 1] of a polynomial of that degree is the row's dot product with
    its coefficients, constant term first."""
    return tuple(tuple(math.comb(i, j) / math.comb(degree, j) for j in range(i + 1))
                 for i in range(degree + 1))


def _taylor_source(flow, n: int, order: int, scan: bool) -> str:
    """Source of one Taylor step of the autonomous flow(y, p) for a state of n
    components, straight-line code over named scalars.

    The recording of flow (see _Recording) gives the recurrence of the
    coefficients y_{i,k} of each component's series in t - t_old, for
    k = 0..order: coefficient k of every operation on the state (see _term),
    then y_{i,k+1} = f_{i,k} / (k + 1).

    The step size follows Jorba & Zou (2005, section 3): rho, the smaller of
    (scale / |y_{order-1}|)**(1 / (order - 1)) and (scale / |y_order|)**(1 / order)
    over the max-norms of the last two coefficients, where scale is 1 while
    rel_tol * |y| <= abs_tol and |y| otherwise; each max-norm runs over the
    first five components, the base state; then h = rho / e**2 *
    exp(-0.7 / (order - 1)) (_TAYLOR_STEP and _TAYLOR_SAFETY), clipped by
    h_max and by t_limit, on which it lands exactly.  Coefficient m
    scaled by h**m (by repeated products) gives each component's step
    polynomial in theta = (t - t_old) / h; y_new is its Horner sum at
    theta = 1.

    Every accepted step returns (None, t, y_new, (t_old, h, polys, diverged,
    crossing), accepted): diverged is the bound test on the first five
    components.  Without scan, crossing is False and the step makes no
    test for it.  With scan, crossing is set unless x's step polynomial
    (component 3) keeps one strict sign on theta in [0, 1] by its Bernstein
    coefficients (see _bernstein_weights), each beyond twice the rounding of
    them and of x's Horner value there: then no X = 0 crossing lies in the
    step.  A step budget already spent, a coefficient or y_new that is not
    finite, or a step size that underflows returns (message, t, None, None,
    accepted) instead.
    """
    rec = _Recording(flow, n)
    series = rec.series([f"y{i}_0" for i in range(n)])
    body = []
    for k in range(order):
        body += rec.emit(series, k, {})
        for i, sym in enumerate(rec.outputs):
            f = _coef(series, sym, k)
            if f is not None and k:                     # f / 1 is f: coefficient 1 is f_0 itself
                body.append(f"y{i}_{k + 1} = {f} / {k + 1}")
                f = f"y{i}_{k + 1}"
            series[rec.inputs[i], k + 1] = f

    def norm(k):
        terms = [f"abs({series[sym, k]})" for sym in rec.inputs[:5] if series[sym, k] is not None]
        return f"max({', '.join(terms)})" if len(terms) > 1 else terms[0] if terms else "0.0"

    body += ["# the step size from the last two coefficients (Jorba & Zou 2005, section 3)",
             f"xn = {norm(0)}",
             "scale = 1.0 if rtol * xn <= atol else xn",
             f"na = {norm(order - 1)}",
             f"nb = {norm(order)}",
             f"ra = (scale / na) ** {_const(1.0 / (order - 1))} if na > 0.0 else math.inf",
             f"rb = (scale / nb) ** {_const(1.0 / order)} if nb > 0.0 else math.inf",
             f"h = (ra if ra < rb else rb) * {_const(_TAYLOR_STEP * math.exp(-_TAYLOR_SAFETY / (order - 1)))}",
             *_CLIP,
             "q1 = h"]
    body += [f"q{m} = q{m - 1} * h" for m in range(2, order + 1)]
    polys = []                          # each component's scaled coefficients, as source text
    for i, sym in enumerate(rec.inputs):
        scaled = [f"y{i}_0"]
        for m in range(1, order + 1):
            if series[sym, m] is None:
                scaled.append("0.0")
            else:
                body.append(f"s{i}_{m} = {series[sym, m]} * q{m}")
                scaled.append(f"s{i}_{m}")
        body.append(f"yn_{i} = {' + ('.join(scaled)}{')' * order}")
        polys.append(scaled)
    crossing = "False"
    if scan:
        # x's Bernstein coefficients b_i are off by at most order + 1 roundings (eps / 2) of
        # the sum of |s_m|, and x's Horner value on [0, 1] by at most 2 * order: the margin
        # is twice both together
        x_terms = [(m, s) for m, s in enumerate(polys[3]) if s != "0.0"]
        bs = ", ".join(f"b_{i}" for i in range(order + 1))
        for i, row in enumerate(_bernstein_weights(order)):
            terms = [s if row[m] == 1.0 else f"{_const(row[m])} * {s}" for m, s in x_terms if m <= i]
            body.append(f"b_{i} = {' + '.join(terms)}")
        body += [f"margin = {_const((3 * order + 1) * _EPS)} * ({' + '.join(f'abs({s})' for _, s in x_terms)})",
                 f"crossing = not (min({bs}) > margin or max({bs}) < -margin)"]
        crossing = "crossing"
    finite = " + ".join(f"(yn_{i} - yn_{i})" for i in range(n))
    body += [f"if not {finite} == 0.0:",
             '    return "non-finite Taylor coefficient or state", t, None, None, accepted',
             *_UNDERFLOW,
             "if h <= h_min:",
             '    return "step size underflow", t, None, None, accepted',
             *_LAND,
             "diverged = " + " or ".join(f"abs(yn_{i}) > bound" for i in range(min(5, n))),
             f"return None, t, [{', '.join(f'yn_{i}' for i in range(n))}], "
             f"(t_old, h, ({', '.join('(' + ', '.join(c) + ')' for c in polys)},), diverged, {crossing}), accepted + 1"]
    head = [f"{', '.join(f'y{i}_0' for i in range(n))}{',' if n == 1 else ''} = y", *rec.head, *_SETTINGS,
            "if accepted >= max_steps:",
            '    return "step budget exhausted", t, None, None, accepted']
    lines = ["def advance(p, settings, t, y, t_limit, accepted):"] + ["    " + line for line in head + body]
    return "\n".join(lines) + "\n"


class _Taylor(_Stepper):
    """Single-trajectory Taylor stepper of the order _taylor_order gives for the
    tolerances; the step is generated from flow's recurrence (see
    _taylor_source).  Every accepted step is a stop, which leaves the step's
    polynomials in polys and its two decisions; crossing is the test on x's
    Bernstein coefficients with scan, and always False without.  There is
    no rejected step; rhs_evals counts the orders of the field recurrence
    evaluated, the order once per step.
    """

    def __init__(self, flow, p, y0, settings: IntegratorSettings, scan: bool = False):
        self.order = _taylor_order(settings)
        super().__init__(p, y0, settings, StepStats(method="taylor", order=self.order))
        self.step = _compiled(_taylor_source, flow, len(self.y), self.order, scan)

    def advance(self, t_limit: float):
        """Take one step, not beyond t_limit."""
        stats = self.stats
        failure, t, y, stop, stats.accepted = self.step(self.p, self.s, self.t, self.y, t_limit,
                                                        stats.accepted)
        if failure is not None:
            raise NumericalFailureError(failure, last_good_time=self.t)
        stats.rhs_evals += self.order
        self.t, self.y = t, y
        self.t_old, self.h_last, self.polys, self.diverged, self.crossing = stop


def _base_flow(y, p: ModelParams) -> list:
    return rhs(y, p)


def _augmented_flow(y, p: ModelParams) -> list:
    """Base field plus one tangent vector carried by its Jacobian, dv/dt = J(y) v."""
    base = y[:5]
    return rhs(base, p) + field_jvp(base, y[5:], p)


def _check_t_end(t_end: float):
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigurationError(f"t_end must be positive and finite, got {t_end}")


def _drive(stepper: _Stepper, marks, on_stop=None, on_mark=None):
    """Advance stepper through ascending stop marks; returns (status, t_div).

    Steps are clipped to land exactly on each mark.  The stepper hands back
    control only at a stop (see _taylor_source); the steps
    between stops are those on which on_stop and the guard would do nothing.
    on_stop(stepper)
    runs at every stop, before the divergence guard, which acts on the
    stepper's own decision; on_mark(stepper) runs on reaching a mark.
    """
    for t_mark in marks:
        while stepper.t < t_mark:
            stepper.advance(t_mark)
            if on_stop is not None:
                on_stop(stepper)
            if stepper.diverged:
                return IntegrationStatus.DIVERGED, stepper.t
        if on_mark is not None:
            on_mark(stepper)
    return IntegrationStatus.COMPLETED, None


def _trajectory(stepper: _Stepper, times, states, dn, status, t_div) -> Trajectory:
    """Close the samples (times, and states flat) with the last state reached."""
    if stepper.t > times[-1]:
        times.append(stepper.t)
        states.extend(stepper.y)
    return Trajectory(Samples(times), Samples(states, 5), dn, status, stepper.stats, t_div)


def integrate(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    sample_interval: float = 0.1,
) -> Trajectory:
    """Integrate the coupled system with the Taylor stepper, sampling by dense
    output (the step polynomials).

    Samples are emitted at t = 0, at every multiple of sample_interval and at
    the final reached time; step-size control is never distorted by output
    requests; settings.h_init is not used.  Integration stops early with DIVERGED status when the max-norm
    of the state exceeds settings.divergence_norm.  A t_end / sample_interval
    above MAX_SAMPLES is a ConfigurationError, raised before any step.
    """
    settings = settings or IntegratorSettings()
    _check_t_end(t_end)
    if not 0 < sample_interval < math.inf:
        raise ConfigurationError(f"sample_interval must be positive and finite, got {sample_interval}")
    if not t_end / sample_interval <= MAX_SAMPLES:
        raise ConfigurationError(f"t_end / sample_interval must be at most {MAX_SAMPLES}, "
                                 f"got {t_end / sample_interval:.6g}")

    stepper = _Taylor(_base_flow, p, s0.as_tuple(), settings)
    times = [0.0]
    states = list(s0.as_tuple())
    k_next = 1
    margin = 1e-12 * sample_interval     # a sample due within round-off of a step end

    def sample(st: _Taylor):
        """Every sample due by the end of the step, off its polynomials: every step stops."""
        nonlocal k_next
        while k_next * sample_interval <= st.t + margin:
            ts = k_next * sample_interval
            if ts <= t_end:
                times.append(ts)
                states.extend(st.dense(ts) if ts < st.t else st.y)
            k_next += 1

    status, t_div = _drive(stepper, [t_end], on_stop=sample)
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


def _refine_crossing(stepper: _Stepper, x, ta: float, tb: float):
    """Locate the root of the interpolated x(t) on [ta, tb].  |x| there may be
    1e-12 * (1 + |y|), plus |dX/dt| = |omega * p| times the time tolerance brentq
    is given: float time may not resolve the root more finely."""
    xtol, rtol = 1e-15, 4 * _EPS
    try:
        t_cross = brentq(x, ta, tb, xtol=xtol, rtol=rtol, maxiter=_EVENT_MAX_ITER)
    except (ValueError, RuntimeError) as exc:    # no bracket, or no convergence
        raise NumericalFailureError(
            f"crossing refinement on [{ta:.17g}, {tb:.17g}] failed: {exc}", last_good_time=ta
        ) from exc
    y_cross = stepper.dense(t_cross)[:5]
    tol = 1e-12 * (1.0 + math.hypot(*y_cross))
    tol += abs(stepper.p.omega * y_cross[4]) * (xtol + rtol * abs(t_cross))
    if abs(y_cross[3]) > tol:
        raise NumericalFailureError(
            f"crossing refinement stalled at t={t_cross:.6g}", last_good_time=ta
        )
    return t_cross, y_cross


def _halves(b) -> tuple:
    """de Casteljau at 1/2: the Bernstein coefficients of the two halves of the
    piece whose coefficients are b."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [0.5 * (u + v) for u, v in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


def _sign_changes(b, tiny: float) -> int:
    """The sign changes along b, leaving out the coefficients within tiny of 0."""
    signs = [c > 0.0 for c in b if abs(c) > tiny]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _isolating(b, ta: float, tb: float, tiny: float, depth: int = 0) -> list:
    """The inner edges that halve [ta, tb], a piece whose Bernstein coefficients
    are b, until the coefficients of each piece change sign at most once: by
    Descartes' rule for the Bernstein basis each piece then holds at most one
    root.  Halving stops _EVENT_DEPTH levels down, or where float time has no
    midpoint left."""
    tm = 0.5 * (ta + tb)
    if depth == _EVENT_DEPTH or _sign_changes(b, tiny) <= 1 or not ta < tm < tb:
        return []
    left, right = _halves(b)
    return [*_isolating(left, ta, tm, tiny, depth + 1), tm, *_isolating(right, tm, tb, tiny, depth + 1)]


def _brackets(ts, gs) -> list:
    """(ta, tb) for each pair of neighbouring edges ts whose values gs go from
    nonzero to the opposite sign or to 0."""
    return [(ta, tb) for ta, tb, ga, gb in zip(ts, ts[1:], gs, gs[1:])
            if ga != 0.0 and (ga * gb < 0.0 or gb == 0.0)]


def _isolated_brackets(q, x, edges, xs) -> list:
    """The brackets of x's roots in one step: q is x's polynomial in theta, and
    x(t) takes the values xs at the edges of the step's quarters.

    Where q's Bernstein coefficients change sign at most once over the step,
    these are the quarters whose ends bracket a root.  Otherwise each quarter
    whose coefficients do so is halved (_isolating) until each piece holds at
    most one root, so two roots in one quarter give two brackets; a quarter
    whose pieces bracket one root keeps its own bracket.  Coefficients within
    the rounding of the halvings of 0 count as 0, since x cannot be resolved
    there.
    """
    b = [sum(map(operator.mul, row, q)) for row in _bernstein_weights(len(q) - 1)]
    # each halving rounds a coefficient at most len(q) times by eps / 2 of the largest
    tiny = (_EVENT_DEPTH + 4) * len(q) * _EPS * sum(map(abs, q))
    if _sign_changes(b, tiny) <= 1:
        return _brackets(edges, xs)
    brackets = []
    # the _EVENT_SUBDIV = 4 quarters: the step halved twice
    for i, piece in enumerate(piece for half in _halves(b) for piece in _halves(half)):
        inner = _isolating(piece, edges[i], edges[i + 1], tiny)
        pieces = _brackets([edges[i], *inner, edges[i + 1]], [xs[i], *map(x, inner), xs[i + 1]])
        own = _brackets(edges[i:i + 2], xs[i:i + 2])
        brackets += pieces if len(pieces) > 1 or not own else own
    return brackets


def _crossing_scan(p: ModelParams, dn: float, events: list):
    """Stop hook appending the X = 0 transits of the last step to events, for the
    events and labelling passes: their Taylor step, generated with scan, sets
    crossing wherever x's step polynomial may reach zero (see _taylor_source).

    x is read at the edges of _EVENT_SUBDIV subintervals off that polynomial
    in theta, the function brentq refines, so a sign change brackets a root.
    Where x may have more than one root in the step, _isolated_brackets
    separates them.
    """
    def scan(st: _Stepper):
        if not st.crossing:                     # the stepper's test on x's polynomial
            return
        q = st.polys[3]
        x = lambda t: _horner(q, (t - st.t_old) / st.h_last)
        dt = (st.t - st.t_old) / _EVENT_SUBDIV
        edges = [st.t_old + i * dt for i in range(_EVENT_SUBDIV)] + [st.t]
        xs = [x(t) for t in edges]
        # two roots need a root of x' between them, and x' has none on [0, 1]
        # where |q1| > 2 |q2| + 3 |q3| + ...
        if abs(q[1]) > sum(map(operator.mul, range(2, len(q)), map(abs, q[2:]))):
            brackets = _brackets(edges, xs)
        else:
            brackets = _isolated_brackets(q, x, edges, xs)
        for ta, tb in brackets:
            t_cross, y_cross = _refine_crossing(st, x, ta, tb)
            direction = 1 if p.omega * y_cross[4] > 0 else -1
            events.append(CrossingEvent(t_cross, SystemState.from_array(y_cross, dn=dn), direction))
    return scan


def integrate_with_events(
    s0: SystemState,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
) -> tuple[Trajectory, list[CrossingEvent]]:
    """Integrate with the scanning Taylor stepper and report every transit of the
    X = 0 plane, in time order (see _crossing_scan).

    Events require a sign change across a step: a start point sitting exactly
    on the plane is not reported.  Each event's direction is the sign of dX/dt
    at the crossing; transits of both signs are reported.  The returned
    trajectory holds only the start state and the last state reached.
    """
    settings = settings or IntegratorSettings()
    _check_t_end(t_end)

    stepper = _Taylor(_base_flow, p, s0.as_tuple(), settings, scan=True)
    events: list[CrossingEvent] = []
    status, t_div = _drive(stepper, [t_end], on_stop=_crossing_scan(p, s0.dn, events))
    return _trajectory(stepper, [0.0], list(s0.as_tuple()), s0.dn, status, t_div), events


def _norm(v) -> float:
    """The 2-norm; a square that overflows makes it inf."""
    return math.sqrt(sum(c * c for c in v))


def renorm_marks(t_end: float, renorm_interval: float) -> list:
    """integrate_augmented's renormalization instants: every multiple of renorm_interval below
    t_end (a quotient within round-off of an integer counts as that integer), then t_end.
    ConfigurationError unless renorm_interval > 0 and t_end / renorm_interval <= MAX_SAMPLES."""
    if not (renorm_interval > 0 and t_end / renorm_interval <= MAX_SAMPLES):
        raise ConfigurationError(f"renorm_interval must be positive, and t_end / renorm_interval must be "
                                 f"finite and at most {MAX_SAMPLES}, got {t_end!r} / {renorm_interval!r}")
    n_marks = max(1, math.ceil(t_end / renorm_interval * (1 - 1e-12)))
    return [min(m * renorm_interval, t_end) for m in range(1, n_marks + 1)]


def integrate_augmented(
    s0: SystemState,
    tangent0,
    p: ModelParams,
    t_end: float,
    settings: IntegratorSettings | None = None,
    renorm_interval: float = 1.0,
    crossings: bool = False,
) -> GrowthLog:
    """Co-integrate the state with one tangent vector dv/dt = J(s) v, on the
    Taylor stepper, to t_end alone: it takes integrate_with_events's steps.

    At each of renorm_marks(t_end, renorm_interval), checked before any step, the
    log of the tangent's growth over the interval before is recorded with the
    base state (Benettin et al. 1980); so the last interval may be shorter.
    Each mark in a step is read off its polynomials, and its growth is the log
    of the tangent's norm there minus that at the mark before, in the
    stepper's scaling; a step that holds a mark ends with the tangent divided
    by its norm at the last one, which by linearity is that mark's
    renormalization.  Each step also adds its log growth, ln|v(t)| -
    ln|v(t_old)| in the scaling at its start (ln|v(t_old)| is the step
    before's ln|v(t)| less the log of the norm it was divided by), to MEGNO
    (GrowthLog.megno).  A
    norm that is zero or not finite is a NumericalFailureError.  A step that
    diverges logs no mark and no MEGNO term.

    With crossings (the labelling pass) the step is generated with scan, and
    the X = 0 transits of the base state are collected in the same pass into
    GrowthLog.crossings, equal to integrate_with_events's.
    """
    settings = settings or IntegratorSettings()
    _check_t_end(t_end)
    marks = renorm_marks(t_end, renorm_interval)
    try:
        tangent = list(tangent0)
    except TypeError:                                   # not iterable
        tangent = []
    if len(tangent) != 5 or not all(isinstance(c, numbers.Real) for c in tangent):
        raise ConfigurationError(f"tangent0 must be one vector of length 5, got {tangent0!r}")
    tangent = [float(c) for c in tangent]
    norm0 = _norm(tangent)
    if not 0.0 < norm0 < math.inf:
        raise ConfigurationError(f"the tangent vector must be nonzero and finite, got {tangent}")

    y0 = [*s0.as_tuple(), *(c / norm0 for c in tangent)]
    log_times = []
    log_norms = []
    log_states = []
    events: list[CrossingEvent] = []

    def tangent_norm(v, t: float) -> float:
        norm = _norm(v)
        if not 0.0 < norm < math.inf:
            raise NumericalFailureError(f"the tangent norm is {norm}, not finite and positive", last_good_time=t)
        return norm

    stepper = _Taylor(_augmented_flow, p, y0, settings, scan=crossings)
    scan = _crossing_scan(p, s0.dn, events) if crossings else None
    pending = iter(marks)
    t_mark = next(pending)
    # MEGNO: the integral of Y, A and Y at t_reached, and ln|v| at the next step's start
    area = a_int = y_end = t_reached = 0.0
    ln_start = math.log(tangent_norm(y0[5:], 0.0))

    def read_marks(st: _Taylor):
        """The step's X = 0 transits, with crossings.  Unless the step diverged, its MEGNO
        terms, and every mark in (t_old, t] logged off its polynomials, each growth from
        the mark before in the stepper's current scaling; then carry the last mark's
        renormalization to the step end, by linearity, and ln|v| with it."""
        nonlocal t_mark, area, a_int, y_end, t_reached, ln_start
        if scan is not None:
            scan(st)
        if st.diverged:
            return
        ln_end = math.log(tangent_norm(st.y[5:], st.t))
        a_int += 0.5 * (st.t_old + st.t) * (ln_end - ln_start)
        y_old, y_end = y_end, 2.0 * a_int / st.t
        area += 0.5 * (y_old + y_end) * (st.t - st.t_old)
        t_reached = st.t
        logged, norm = 0.0, None
        while t_mark <= st.t:
            y = st.dense(t_mark) if t_mark < st.t else st.y
            norm = tangent_norm(y[5:], t_mark)
            ln_mark = math.log(norm)
            log_norms.append(ln_mark - logged)
            logged = ln_mark
            log_times.append(t_mark)
            log_states.extend(y[:5])
            st.stats.renorms += 1
            t_mark = next(pending, math.inf)
        if norm is not None:
            st.y = st.y[:5] + [c / norm for c in st.y[5:]]
        ln_start = ln_end - logged

    status, t_div = _drive(stepper, [t_end], on_stop=read_marks)
    return GrowthLog(
        times=Samples(log_times),
        log_norms=Samples(log_norms),
        states=Samples(log_states, 5),
        status=status,
        stats=stepper.stats,
        megno=area / t_reached if t_reached else 0.0,
        t_div=t_div,
        crossings=events,
    )
