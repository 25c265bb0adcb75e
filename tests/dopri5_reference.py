"""The adaptive Dormand-Prince 5(4) stepper that the tests hold the Taylor
stepper of ``semiquantum.integrator`` to.

No command runs it.  ``loop_source`` writes, from the tableau held as data,
one stepping loop for each flow and length of state, generated from the
flow's recording through the integrator's own emitter (``_Recording``,
``_term``), with the settings read, the clips, the underflow check and the
landing on the limit the Taylor step shares; ``Dopri5`` runs it as an
integrator stepper, so ``_drive`` drives it.  The float operations are
those of the stage sums written out by hand with the flow called on each,
and of the PI step-size controller, in the same order.
"""

from semiquantum.errors import NumericalFailureError
from semiquantum.integrator import (
    _CLIP, _LAND, _SETTINGS, _UNDERFLOW, IntegratorSettings, StepStats, _coef, _compiled, _const, _Recording,
    _Stepper, _Sym,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# PI controller exponents for a 5th-order error estimator
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

# Dormand & Prince (1980) 5(4) tableau, each rational as (numerator, denominator):
# nodes c and stage rows a for k1..k7; b is the 5th-order solution, which is also
# row a7 (k7 = f(t + h, y_new) is the next step's k1, FSAL); e = b - b* weighs the
# error estimate.
C = ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))
A = (
    (),
    ((1, 5),),
    ((3, 40), (9, 40)),
    ((44, 45), (-56, 15), (32, 9)),
    ((19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)),
    ((9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)),
)
B = ((35, 384), (0, 1), (500, 1113), (125, 192), (-2187, 6784), (11, 84), (0, 1))
E = ((71, 57600), (0, 1), (-71, 16695), (71, 1920), (-17253, 339200), (22, 525), (-1, 40))
# the 4th-order dense interpolant (Hairer, Norsett & Wanner, Solving ODEs I, II.6):
# y_old + sum over m = 1..4 of theta**m * h * (row m . k), theta = (t - t_old) / h
DENSE = (
    ((1, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1)),
    ((-8048581381, 2820520608), (0, 1), (131558114200, 32700410799), (-1754552775, 470086768),
     (127303824393, 49829197408), (-282668133, 205662961), (40617522, 29380423)),
    ((8663915743, 2820520608), (0, 1), (-68118460800, 10900136933), (14199869525, 1410260304),
     (-318862633887, 49829197408), (2019193451, 616988883), (-110615467, 29380423)),
    ((-12715105075, 11282082432), (0, 1), (87487479700, 32700410799), (-10690763975, 1880347072),
     (701980252875, 199316789632), (-1453857185, 822651844), (69997945, 29380423)),
)
# field evaluations per attempt: every stage but k1, which the last step's k7 gives
ATTEMPT_EVALS = len(C) - 1


def _combo(row, names) -> str:
    """row . names as source text: the nonzero terms in stage order, left to right."""
    terms = []
    for (num, den), name in zip(row, names):
        if num:
            term = name if abs(num) == den else f"{abs(num)} / {den} * {name}"
            sign = ("" if num > 0 else "-") if not terms else ("+ " if num > 0 else "- ")
            terms.append(sign + term)
    return " ".join(terms)


def loop_source(flow, n: int, n_err: int) -> str:
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
    the first five components (diverged).  It returns after an accepted step
    that reaches t_limit or diverged; or with a failure message when the step
    budget runs out or the step size underflows.  It returns (failure, t,
    h_next, err_prev, y, k1, (t_old, h_last, quartics, diverged) or None,
    accepted, rejected); quartics holds each component's dense quartic in
    theta = (t - t_old) / h_last, constant term first.
    """
    rec = _Recording(flow, n)
    stages = [f"k{j + 1}" for j in range(len(C))]
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
    for j in range(1, len(A)):
        body += [f"z_{i} = y_{i} + h * ({dot(A[j], i)})" for i in range(n)]
        body += evaluate("z", stages[j])
    body += [f"yn_{i} = y_{i} + h * ({dot(B, i)})" for i in range(n)]
    body += evaluate("yn", k7)
    body.append("# RMS of the scaled 5th- minus 4th-order solution (e * e, as ** raises on overflow)")
    # |y_i| and |yn_i| are kept in a_i and an_i over the error's components
    for i in range(n_err):
        body += [f"an_{i} = abs(yn_{i})",
                 f"e_{i} = h * (({dot(E, i)}) / (atol + rtol * (an_{i} if an_{i} > a_{i} else a_{i})))"]
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

    # the step's decision, made once; y_new is finite here
    body.append("diverged = " + " or ".join(f"an_{i} > bound" if i < n_err else f"abs(yn_{i}) > bound"
                                            for i in range(min(5, n))))
    quartics = ", ".join(f"({', '.join([f'y_{i}', *(f'h * ({dot(row, i)})' for row in DENSE)])})"
                         for i in range(n))
    body += ["if t >= t_limit or diverged:",
             f"    return (None, t, h_next, err_prev, {listed('yn')}, {listed(k7)},"
             f" (t_old, h, ({quartics},), diverged), accepted, rejected)",
             *(f"y_{i} = yn_{i}" for i in range(n)),
             *(f"k1_{i} = {k7}_{i}" for i in range(n)),
             *(f"a_{i} = an_{i}" for i in range(n_err)),
             *_UNDERFLOW]
    lines = ["def advance(p, settings, t, h_next, err_prev, y, k1, t_limit, accepted, rejected):"]
    lines += ["    " + line for line in head] + ["    while True:"] + ["        " + line for line in body]
    return "\n".join(lines) + "\n"


class Dopri5(_Stepper):
    """Single-trajectory Dormand-Prince 5(4) stepper with PI step control.

    flow(y, p) is an autonomous field written in plain arithmetic; the stepping
    is one loop generated from the tableau with flow inline (see loop_source),
    which hands control back only at a stop.  err_dim limits the error norm to
    the leading components of the state.  A stop leaves the last step's dense
    quartics in polys; crossing stays False.
    """

    def __init__(self, flow, p, y0, settings: IntegratorSettings, err_dim=None):
        super().__init__(p, y0, settings, StepStats())
        n = len(self.y)
        self.loop = _compiled(loop_source, flow, n, err_dim if err_dim is not None else n)
        self.h = min(settings.h_init, settings.h_max)
        self.err_prev = None
        self.k1 = flow(self.y, p)                       # the FSAL stage, evaluated afresh once
        self.stats.rhs_evals += 1

    def advance(self, t_limit: float):
        """Take accepted steps, not beyond t_limit, up to the next stop."""
        stats = self.stats
        attempts = stats.accepted + stats.rejected
        (failure, self.t, self.h, self.err_prev, self.y, self.k1, stop, stats.accepted,
         stats.rejected) = self.loop(self.p, self.s, self.t, self.h, self.err_prev, self.y, self.k1,
                                     t_limit, stats.accepted, stats.rejected)
        stats.rhs_evals += ATTEMPT_EVALS * (stats.accepted + stats.rejected - attempts)
        if failure is not None:
            raise NumericalFailureError(failure, last_good_time=self.t)
        self.t_old, self.h_last, self.polys, self.diverged = stop
