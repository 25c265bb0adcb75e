"""Integration of the coupled system by two generated steppers.

A flow is an autonomous ``flow(y, p)`` written in plain arithmetic
(``_base_flow`` and ``_augmented_flow``, through ``rhs`` and
``field_jvp``).  ``_Recording`` runs it once on recorder symbols (``_Tape``),
which write one entry per float operation.  One emitter, ``_term``, writes a
recorded operation as source for coefficient k of its Taylor series, whose
coefficient 0 is the operation itself.  From that recording two generators
write each stepper as straight-line code over named scalar components, with
the settings read, the clips, the underflow check and the landing on the
limit in common; ``_compiled`` compiles each on first use and caches it, so
the field is inline and no step calls a function.  ``_Stepper`` holds what
both steppers keep: state, stats, the stop each advance leaves and its dense
output.  ``rhs`` itself runs only when a flow is recorded and at the DOP5
FSAL restarts (the first evaluation, and each after a renormalization).

``integrate`` (behind ``simulate`` and ``oracle``), ``integrate_with_events``
(behind ``poincare``) and the Lyapunov pass, ``integrate_augmented`` without
crossings (behind ``lyapunov``), run the Taylor stepper.  ``_taylor_source``
writes the recurrence of the solution's Taylor coefficients, y_{k+1} =
f_k / (k + 1), at the order the tolerance gives and with Jorba & Zou's step
size (2005, section 3), taken over the first five components, the base
state (the tangent of the augmented flow does not size the step).  The
step's polynomials are its dense output.  Every accepted step is a stop; no
step is rejected; ``StepStats.rhs_evals`` counts the orders of the
recurrence evaluated, the order once per step.  For the events pass the
step is generated with scan: it decides whether an X = 0 crossing may lie
in it from the Bernstein coefficients of x's step polynomial, a test the
plain step does not make.  The Lyapunov pass runs to the end time alone, so
no step is clipped at a renormalization mark: each mark is read off the
polynomials of the step that holds it.  Its base part is recorded first,
so it takes the events pass's steps, bit for bit.

The labelling pass, ``integrate_augmented`` with crossings (behind
``classify_regime`` and ``sweep``), runs adaptive Dormand-Prince 5(4), so
the regime labels come from it.  The tableau is held as data, and ``_loop_source``
writes from it one stepping loop for each flow and length of state, whose
stages evaluate the flow as coefficient 0 of the recording.  The float
operations are those of the stage sums written out by hand with the flow
called on each, and of the PI step-size controller, in the same order, so
the generated loop changes no bit.  The loop keeps the state and the FSAL
stage in locals, and decides once per step whether it leaves the divergence
bound and whether an X = 0 crossing may lie in it.  It hands control back to
Python only at a stop: a step that lands on its limit (a renormalization
mark or the end time) or has either decision, with every component's dense
quartic and the two decisions; or a failure, which ``_Dopri5.advance``
raises as ``NumericalFailureError``.  Its ``StepStats.rhs_evals`` counts
field evaluations: 1 to start, 6 per attempt, 1 per renormalization.

``_drive`` alone runs a stepper from stop to stop to the end time through
optional marks; it owns the status.  A stop hook (dense sampling, the
X = 0 crossing scan, or the renormalization marks read off a Taylor step)
and a mark hook (DOP5's renormalization of the one tangent vector carried
by ``field_jvp``) make the front ends; the labelling pass collects crossings
in the same pass.  The crossing scan
(``_crossing_scan``) serves both steppers: it brackets the roots of x's
step polynomial at the edges of the step's quarters, halving a quarter by
de Casteljau where the polynomial's Bernstein coefficients show that it may
hold more than one root, and refines each bracket with ``brentq``.

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
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order error estimator
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

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
    t = 1000 on the bundled scenarios.  h_init is the first DOP5 step, so it
    sizes only the labelling pass (classify_regime and sweep); the Taylor
    stepper sizes every step, the first too, from its coefficients.
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
    rhs_evals: int = 0            # dopri5: field evaluations, 1 to start, 6 per attempt, 1 per renormalization;
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
    t_div: float | None = None
    crossings: list = field(default_factory=list)   # X = 0 transits, when requested


# Dormand & Prince (1980) 5(4) tableau, each rational as (numerator, denominator):
# nodes c and stage rows a for k1..k7; b is the 5th-order solution, which is also
# row a7 (k7 = f(t + h, y_new) is the next step's k1, FSAL); e = b - b* weighs the
# error estimate.
_C = ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))
_A = (
    (),
    ((1, 5),),
    ((3, 40), (9, 40)),
    ((44, 45), (-56, 15), (32, 9)),
    ((19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)),
    ((9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)),
)
_B = ((35, 384), (0, 1), (500, 1113), (125, 192), (-2187, 6784), (11, 84), (0, 1))
_E = ((71, 57600), (0, 1), (-71, 16695), (71, 1920), (-17253, 339200), (22, 525), (-1, 40))
# the 4th-order dense interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# y_old + sum over m = 1..4 of theta**m * h * (row m . k), theta = (t - t_old) / h
_DENSE = (
    ((1, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((-8048581381, 2820520608), (0, 1), (131558114200, 32700410799), (-1754552775, 470086768),
     (127303824393, 49829197408), (-282668133, 205662961), (40617522, 29380423)),
    ((8663915743, 2820520608), (0, 1), (-68118460800, 10900136933), (14199869525, 1410260304),
     (-318862633887, 49829197408), (2019193451, 616988883), (-110615467, 29380423)),
    ((-12715105075, 11282082432), (0, 1), (87487479700, 32700410799), (-10690763975, 1880347072),
     (701980252875, 199316789632), (-1453857185, 822651844), (69997945, 29380423)),
)
# field evaluations per attempt: every stage but k1, which the last step's k7 gives
_ATTEMPT_EVALS = len(_C) - 1


def _combo(row, names) -> str:
    """row . names as source text: the nonzero terms in stage order, left to right."""
    terms = []
    for (num, den), name in zip(row, names):
        if num:
            term = name if abs(num) == den else f"{abs(num)} / {den} * {name}"
            sign = ("" if num > 0 else "-") if not terms else ("+ " if num > 0 else "- ")
            terms.append(sign + term)
    return " ".join(terms)


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


def _loop_source(flow, n: int, n_err: int) -> str:
    """Source of the stepping loop of the autonomous flow(y, p) for a state of
    n components, straight-line code over named scalars.

    Each stage k2..k7 evaluates the recording of flow inline (see _Recording),
    as coefficient 0 of its operations.  The error norm is the RMS over the
    first n_err components.  The float operations and their order are
    those of the stage sums y_old + h * (a . k) written out by hand, with flow
    called on each, and of the PI controller, whose min and max are written as
    the conditionals they equal for every input.

    The loop keeps y and the FSAL stage k1 in locals across accepted steps.
    Each accepted step decides once whether it leaves the divergence bound on
    the first five components (diverged) and, with scan, whether it may hold
    an X = 0 crossing (crossing: a bound test on x's dense quartic).  It
    returns after an accepted step that reaches t_limit or has either
    decision; or with a failure message when the step budget runs out or the
    step size underflows.  It returns (failure, t, h_next, err_prev, y, k1,
    (t_old, h_last, quartics, diverged, crossing) or None, accepted,
    rejected); quartics holds each component's dense quartic in theta =
    (t - t_old) / h_last, constant term first.
    """
    rec = _Recording(flow, n)
    stages = [f"k{j + 1}" for j in range(len(_C))]
    k7 = stages[-1]

    def evaluate(prefix, stage):
        """flow on the components prefix_i, each output computed into stage_i."""
        series = rec.series([f"{prefix}_{i}" for i in range(n)])
        targets = {}
        for i, sym in enumerate(rec.outputs):
            if isinstance(sym, _Sym) and (sym, 0) not in series and sym not in targets:
                targets[sym] = f"{stage}_{i}"
        lines = rec.emit(series, 0, targets)
        return lines + [f"{stage}_{i} = {_coef(series, sym, 0)}" for i, sym in enumerate(rec.outputs)
                        if targets.get(sym) != f"{stage}_{i}"]

    def listed(prefix):
        return f"[{', '.join(f'{prefix}_{i}' for i in range(n))}]"

    def unpack(prefix):
        return f"{', '.join(f'{prefix}_{i}' for i in range(n))}{',' if n == 1 else ''} = {prefix}"

    def dot(row, i):
        return _combo(row, [f"{stage}_{i}" for stage in stages])

    def fail(message):
        return f'    return "{message}", t, h_next, err_prev, {listed("y")}, {listed("k1")}, None, accepted, rejected'

    safety, lo, hi = _const(_SAFETY), _const(_MIN_FACTOR), _const(_MAX_FACTOR)
    head = [unpack("y"), unpack("k1"), *rec.head, *_SETTINGS]
    head += [f"a_{i} = abs(y_{i})" for i in range(n_err)] + _UNDERFLOW

    body = ["if accepted + rejected >= max_steps:", fail("step budget exhausted"),
            "h = h_next", *_CLIP,
            "if h <= h_min:", fail("step size underflow")]
    for j in range(1, len(_A)):
        body += [f"z_{i} = y_{i} + h * ({dot(_A[j], i)})" for i in range(n)]
        body += evaluate("z", stages[j])
    body += [f"yn_{i} = y_{i} + h * ({dot(_B, i)})" for i in range(n)]
    body += evaluate("yn", k7)
    body.append("# RMS of the scaled 5th- minus 4th-order solution (e * e, as ** raises on overflow)")
    # |y_i| and |yn_i| are kept in a_i and an_i over the error's components
    for i in range(n_err):
        body += [f"an_{i} = abs(yn_{i})",
                 f"e_{i} = h * (({dot(_E, i)}) / (atol + rtol * (an_{i} if an_{i} > a_{i} else a_{i})))"]
    squares = ", ".join(f"e_{i} * e_{i}" for i in range(n_err))
    body.append(f"err = math.sqrt(sum([{squares}]) / {n_err})")
    # x - x is 0.0 if x is finite and NaN if not.  One finiteness check is enough:
    # the field is autonomous and each of its inputs reaches an output (0 * inf is
    # NaN), so a non-finite trial stage reaches y_new or the error through b3..b6.
    finite = " + ".join(["(err - err)", *(f"({v}_{i} - {v}_{i})" for v in ("yn", k7) for i in range(n))])
    body += [f"if not {finite} == 0.0:", "    h_next = h * 0.1", "    rejected += 1", "    continue",
             "if not err <= 1.0:",
             f"    r = {safety} * err ** {_const(-0.2)}",
             f"    h_next = h * (r if r > {lo} else {lo})",
             "    rejected += 1",
             "    continue",
             "if err_prev is None or err == 0.0:",
             f"    factor = {hi} if err == 0.0 else {safety} * err ** {_const(-0.2)}",
             "else:",
             f"    factor = {safety} * err ** {_const(-_PI_ALPHA)} * err_prev ** {_const(_PI_BETA)}",
             f"factor = factor if factor > {lo} else {lo}",
             f"factor = factor if factor < {hi} else {hi}",
             *_LAND,
             "h_next = h * factor",
             "err_prev = 1e-10 if 1e-10 > err else err",
             "accepted += 1"]

    # the step's two decisions, each made once; y_new is finite here
    body.append("diverged = " + " or ".join(f"an_{i} > bound" if i < n_err else f"abs(yn_{i}) > bound"
                                            for i in range(min(5, n))))
    if n > 3:
        # |x - q0| <= |q1| + ... + |q4| for 0 <= theta <= 1: with this margin no rounding
        # of a value of x's quartic q can reach zero or q0's opposite sign
        quartic = " + ".join(f"abs(h * ({dot(row, 3)}))" for row in _DENSE)
        body.append(f"crossing = scan and not {'a_3' if n_err > 3 else 'abs(y_3)'} > 2.0 * ({quartic})")
    else:
        body.append("crossing = False")
    quartics = ", ".join(f"({', '.join([f'y_{i}', *(f'h * ({dot(row, i)})' for row in _DENSE)])})"
                         for i in range(n))
    body += ["if t >= t_limit or diverged or crossing:",
             f"    return (None, t, h_next, err_prev, {listed('yn')}, {listed(k7)},"
             f" (t_old, h, ({quartics},), diverged, crossing), accepted, rejected)",
             *(f"y_{i} = yn_{i}" for i in range(n)),
             *(f"k1_{i} = {k7}_{i}" for i in range(n)),
             *(f"a_{i} = an_{i}" for i in range(n_err)),
             *_UNDERFLOW]
    lines = ["def advance(p, settings, t, h_next, err_prev, y, k1, t_limit, scan, accepted, rejected):"]
    lines += ["    " + line for line in head] + ["    while True:"] + ["        " + line for line in body]
    return "\n".join(lines) + "\n"


@functools.cache
def _compiled(source, *args):
    """The advance function that source(*args) writes (_loop_source or
    _taylor_source), compiled in this module's globals on first use and cached."""
    namespace = {}
    exec(compile(source(*args), f"<{source.__name__}>", "exec"), globals(), namespace)
    return namespace["advance"]


class _Stepper:
    """What both steppers hold: the parameters p, time t, state y (a list of
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


class _Dopri5(_Stepper):
    """Single-trajectory Dormand-Prince 5(4) stepper with PI step control.

    flow(y, p) is an autonomous field written in plain arithmetic; the stepping
    is one loop generated from the tableau with flow inline (see _loop_source),
    which hands control back only at a stop.  err_dim limits the error norm to
    the leading components of the state (the augmented mode controls the step
    on the base state only).  scan turns on the X = 0 crossing test.  A stop
    leaves the last step's dense quartics in polys.
    """

    def __init__(self, flow, p, y0, settings: IntegratorSettings, err_dim=None):
        super().__init__(p, y0, settings, StepStats())
        self.flow = flow
        n = len(self.y)
        self.loop = _compiled(_loop_source, flow, n, err_dim if err_dim is not None else n)
        self.h = min(settings.h_init, settings.h_max)
        self.err_prev = None
        self.restart()
        self.scan = False

    def restart(self):
        """Evaluate the FSAL stage k1 afresh at the current state."""
        self.k1 = self.flow(self.y, self.p)
        self.stats.rhs_evals += 1

    def advance(self, t_limit: float):
        """Take accepted steps, not beyond t_limit, up to the next stop."""
        stats = self.stats
        attempts = stats.accepted + stats.rejected
        (failure, self.t, self.h, self.err_prev, self.y, self.k1, stop, stats.accepted,
         stats.rejected) = self.loop(self.p, self.s, self.t, self.h, self.err_prev, self.y, self.k1,
                                     t_limit, self.scan, stats.accepted, stats.rejected)
        stats.rhs_evals += _ATTEMPT_EVALS * (stats.accepted + stats.rejected - attempts)
        if failure is not None:
            raise NumericalFailureError(failure, last_good_time=self.t)
        self.t_old, self.h_last, self.polys, self.diverged, self.crossing = stop


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
    control only at a stop (see _loop_source and _taylor_source); the steps
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
    """Stop hook appending the X = 0 transits of the last step to events; the
    stepper's scan makes it stop, with crossing set, at every step where x's
    step polynomial may reach zero (see _loop_source and _taylor_source).

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
    """Co-integrate the state with one tangent vector dv/dt = J(s) v.

    At each of renorm_marks(t_end, renorm_interval), checked before any step, the
    log of the tangent's growth over the interval before is recorded with the
    base state (Benettin et al. 1980); so the last interval may be shorter.
    A norm that is zero or not finite is a NumericalFailureError.  Step
    control is driven by the base state only.  A step that diverges logs no
    mark.

    Without crossings (the Lyapunov pass) the Taylor stepper runs to t_end
    alone and takes integrate_with_events's steps.  Each mark in a step is
    read off its polynomials, and its growth is the log of the tangent's
    norm there minus that at the mark before, in the stepper's scaling; a
    step that holds a mark ends with the tangent divided by its norm at the
    last one, which by linearity is that mark's renormalization.  With
    crossings (the labelling pass) DOP5 lands on every mark and scales the
    tangent to unit length there, and the X = 0 transits of the base state
    are collected in the same pass into GrowthLog.crossings, as
    integrate_with_events reports them.
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

    if crossings:
        stepper = _Dopri5(_augmented_flow, p, y0, settings, err_dim=5)

        def renormalize(st: _Dopri5):
            v = st.y[5:]
            norm = tangent_norm(v, st.t)
            log_norms.append(math.log(norm))
            log_times.append(st.t)
            log_states.extend(st.y[:5])
            st.y = st.y[:5] + [c / norm for c in v]
            st.stats.renorms += 1
            st.restart()                                # FSAL stage is stale after renorm

        stepper.scan = True
        status, t_div = _drive(stepper, marks, on_stop=_crossing_scan(p, s0.dn, events), on_mark=renormalize)
    else:
        stepper = _Taylor(_augmented_flow, p, y0, settings)
        pending = iter(marks)
        t_mark = next(pending)

        def read_marks(st: _Taylor):
            """Log every mark in (t_old, t] off the step's polynomials, each growth from
            the mark before in the stepper's current scaling; then carry the last mark's
            renormalization to the step end, by linearity.  A diverged step logs none."""
            nonlocal t_mark
            if st.diverged:
                return
            logged, norm = 0.0, None
            while t_mark <= st.t:
                y = st.dense(t_mark) if t_mark < st.t else st.y
                norm = tangent_norm(y[5:], t_mark)
                log_norms.append(math.log(norm) - logged)
                logged = math.log(norm)
                log_times.append(t_mark)
                log_states.extend(y[:5])
                st.stats.renorms += 1
                t_mark = next(pending, math.inf)
            if norm is not None:
                st.y = st.y[:5] + [c / norm for c in st.y[5:]]

        status, t_div = _drive(stepper, [t_end], on_stop=read_marks)
    return GrowthLog(
        times=Samples(log_times),
        log_norms=Samples(log_norms),
        states=Samples(log_states, 5),
        status=status,
        stats=stepper.stats,
        t_div=t_div,
        crossings=events,
    )
