import ast
import math
import random
import struct
import sys
from array import array
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from semiquantum import integrator
from semiquantum.errors import ConfigurationError, NumericalFailureError
from semiquantum.integrator import (
    IntegrationStatus,
    IntegratorSettings,
    brentq,
    integrate,
    integrate_augmented,
    integrate_with_events,
    renorm_marks,
)
from semiquantum.linear_oracle import (
    QuantumTriple,
    evolve_classical,
    evolve_critical,
    evolve_linear,
)
from semiquantum.model import (
    ModelParams,
    SystemState,
    effective_energy,
    field,
    field_jvp,
    invariant_I,
    make_initial,
)

import dopri5_reference as reference

TIGHT = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12)


def oracle_error(traj, q0, eps, delta, x0, p0, omega, critical=False):
    worst = 0.0
    for t, y in zip(traj.times, traj.states):
        if critical:
            q = evolve_critical(q0, eps, t)
        else:
            q = evolve_linear(q0, eps, delta, t)
        xc, pc = evolve_classical(x0, p0, omega, t)
        ref = np.array([q.n1, q.om, q.op, xc, pc])
        worst = max(worst, float(np.max(np.abs(y - ref))))
    return worst


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        dict(abs_tol=0.0),
        dict(rel_tol=-1e-9),
        dict(h_max=0.0),
        dict(divergence_norm=-1.0),
        dict(max_steps=0),
    ])
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            integrate(
                SystemState(2, 0, 0, 1, 0),
                ModelParams(eps=1.0, gamma=0, delta=1.0, alpha=0.0, omega=1.0),
                1.0,
                IntegratorSettings(**kwargs),
            )

    def test_bad_t_end(self):
        with pytest.raises(ConfigurationError):
            integrate(
                SystemState(2, 0, 0, 1, 0),
                ModelParams(eps=1.0, gamma=0, delta=1.0, alpha=0.0, omega=1.0),
                -5.0,
            )

    def test_nan_sample_interval(self):
        with pytest.raises(ConfigurationError, match="sample_interval"):
            integrate(
                SystemState(2, 0, 0, 1, 0),
                ModelParams(eps=1.0, gamma=0, delta=1.0, alpha=0.0, omega=1.0),
                1.0,
                sample_interval=math.nan,
            )

    def test_infinite_sample_interval(self):
        # it would make the next sample due forever: inf <= t + inf
        with pytest.raises(ConfigurationError, match="sample_interval must be positive and finite"):
            integrate(
                SystemState(2, 0, 0, 1, 0),
                ModelParams(eps=1.05, gamma=0, delta=1.0, alpha=0.015, omega=1.0),
                1.0,
                sample_interval=math.inf,
            )

    @pytest.mark.parametrize("t_end, interval", [(1.0, 1e-300), (2.0, 1e-6)])
    def test_sample_count_is_bounded(self, t_end, interval):
        # 1e300 samples would exhaust memory; the check comes before any step
        with pytest.raises(ConfigurationError, match="t_end / sample_interval must be at most 1000000"):
            integrate(
                SystemState(2, 0, 0, 1, 0),
                ModelParams(eps=1.05, gamma=0, delta=1.0, alpha=0.015, omega=1.0),
                t_end,
                IntegratorSettings(max_steps=1),
                sample_interval=interval,
            )

    @pytest.mark.parametrize("interval", [5e-324, 0.0, -1.0, math.nan])
    def test_renorm_interval_without_a_finite_mark_count(self, interval):
        # 1 / 5e-324 overflows to inf, whose ceiling has no integer
        with pytest.raises(ConfigurationError, match="renorm_interval"):
            integrate_augmented(
                SystemState(2, 0, 0, 1, 0), [1.0] * 5,
                ModelParams(eps=1.0, gamma=0, delta=1.0, alpha=0.0, omega=1.0),
                1.0, renorm_interval=interval,
            )

    @pytest.mark.parametrize("t_end, interval", [(10.0, 1e-6), (5000.0, 1e-4)])
    def test_renorm_count_is_bounded(self, t_end, interval, monkeypatch):
        # 1e7 and 5e7 renormalizations; the check comes before a stepper is made
        monkeypatch.setattr(integrator, "_Taylor", None)
        with pytest.raises(ConfigurationError, match="t_end / renorm_interval must be finite and at most 1000000"):
            integrate_augmented(
                SystemState(2, 0, 0, 1, 0), [1.0] * 5,
                ModelParams(eps=1.05, gamma=0, delta=1.0, alpha=0.015, omega=1.0),
                t_end, renorm_interval=interval,
            )


class TestOracleAgreement:
    def test_stable_linear_limit(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=2, om=0, op=0, x=1, p=-2.54950976)
        traj = integrate(s0, p, 100.0, TIGHT, sample_interval=0.5)
        assert traj.status is IntegrationStatus.COMPLETED
        err = oracle_error(traj, QuantumTriple(2, 0, 0), 1.05, 1.0, 1.0, -2.54950976, 1.0)
        assert err <= 1e-8

    def test_critical_linear_limit(self):
        p = ModelParams(eps=1.0, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=2, om=0.4, op=-0.2, x=0.5, p=0.1)
        traj = integrate(s0, p, 10.0, TIGHT, sample_interval=0.1)
        q0 = QuantumTriple(2, 0.4, -0.2)
        for t, y in zip(traj.times, traj.states):
            q = evolve_critical(q0, 1.0, t)
            ref = np.array([q.n1, q.om, q.op])
            rel = np.max(np.abs(y[:3] - ref) / np.maximum(1.0, np.abs(ref)))
            assert rel <= 1e-8

    def test_divergence_detected(self):
        # strong-coupling regime: unbounded growth
        p = ModelParams(eps=2.0, gamma=0.0, delta=1.0, alpha=1.1, omega=1.0)
        s0 = SystemState(n1=2, om=0, op=0, x=1, p=-2.54950976)
        traj = integrate(s0, p, 500.0, IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10),
                         sample_interval=0.5)
        assert traj.status is IntegrationStatus.DIVERGED
        assert traj.t_div is not None and traj.t_div < 500.0
        # the last recorded sample is already past the divergence guard
        assert np.max(np.abs(traj.states[-1])) >= 1e8

    def test_order_scaling(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=2, om=0.3, op=0.1, x=1, p=0)
        q0 = QuantumTriple(2, 0.3, 0.1)
        errs = []
        for tol in (1e-6, 1e-10):
            traj = integrate(s0, p, 50.0, IntegratorSettings(abs_tol=tol, rel_tol=tol),
                             sample_interval=0.5)
            errs.append(oracle_error(traj, q0, 1.05, 1.0, 1.0, 0.0, 1.0))
        assert errs[0] / errs[1] >= 1e2

    def test_step_budget(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, 0)
        with pytest.raises(NumericalFailureError, match="step budget exhausted"):
            integrate(s0, p, 100.0, IntegratorSettings(max_steps=50), sample_interval=1.0)
        # an exhausted budget is a failure, never a status a trajectory can carry
        assert {s.name for s in IntegrationStatus} == {"COMPLETED", "DIVERGED"}


class TestFinitenessCheck:
    def test_non_finite_stage_without_weight_rejects_the_step(self):
        # stage 2 has zero weight in the solution and the error; its inf must
        # still reject the step through the stages that read it
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)   # fig2d
        y, h = [1.0, 1e11, 0.0, 1.0, 1e300], 1.0
        k1 = field(y, p)
        k2 = field([v + h * (1 / 5 * g) for v, g in zip(y, k1)], p)
        assert all(map(math.isfinite, k1)) and k2[:2] == [math.inf, math.inf]
        stepper = reference.Dopri5(integrator._base_flow, p, y, IntegratorSettings(h_init=h, max_steps=1))
        with pytest.raises(NumericalFailureError, match="step budget exhausted"):
            stepper.advance(10.0)
        assert (stepper.stats.accepted, stepper.stats.rejected) == (0, 1)
        # the finiteness branch cuts h tenfold; a NaN error alone would cut it fivefold
        assert stepper.h == h * 0.1


def _reference_attempt(flow, p, h, y, k1, atol, rtol, n_err):
    """The hand-written stage sums the generated step replaced, kept as its oracle:
    they call flow on each stage's list of floats."""
    k2 = flow([y0 + h * (1 / 5 * g1) for y0, g1 in zip(y, k1)], p)
    k3 = flow([y0 + h * (3 / 40 * g1 + 9 / 40 * g2) for y0, g1, g2 in zip(y, k1, k2)], p)
    k4 = flow([y0 + h * (44 / 45 * g1 - 56 / 15 * g2 + 32 / 9 * g3)
               for y0, g1, g2, g3 in zip(y, k1, k2, k3)], p)
    k5 = flow([
        y0 + h * (19372 / 6561 * g1 - 25360 / 2187 * g2 + 64448 / 6561 * g3 - 212 / 729 * g4)
        for y0, g1, g2, g3, g4 in zip(y, k1, k2, k3, k4)], p)
    k6 = flow([
        y0 + h * (9017 / 3168 * g1 - 355 / 33 * g2 + 46732 / 5247 * g3 + 49 / 176 * g4 - 5103 / 18656 * g5)
        for y0, g1, g2, g3, g4, g5 in zip(y, k1, k2, k3, k4, k5)], p)
    y_new = [y0 + h * (35 / 384 * g1 + 500 / 1113 * g3 + 125 / 192 * g4 - 2187 / 6784 * g5 + 11 / 84 * g6)
             for y0, g1, g3, g4, g5, g6 in zip(y, k1, k3, k4, k5, k6)]
    k7 = flow(y_new, p)
    err = [
        h * ((71 / 57600 * g1 - 71 / 16695 * g3 + 71 / 1920 * g4 - 17253 / 339200 * g5
              + 22 / 525 * g6 - 1 / 40 * g7) / (atol + rtol * max(abs(y0), abs(y1))))
        for y0, y1, g1, g3, g4, g5, g6, g7 in zip(y[:n_err], y_new, k1, k3, k4, k5, k6, k7)
    ]
    err = math.sqrt(sum([e * e for e in err]) / n_err)
    return err, y_new, (y, k1, k3, k4, k5, k6, k7)


def _reference_quartic(h, y0, g1, g3, g4, g5, g6, g7):
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


def _reference_stop(h, stages, y_new, bound):
    """What an accepted step hands back besides y_new and k7, from the reference's
    stages (y, k1, k3..k7): (h, every component's dense quartic, diverged)."""
    quartics = tuple(_reference_quartic(h, *comps) for comps in zip(*stages))
    return h, quartics, max(map(abs, y_new[:5])) > bound


def _reference_control(err, y_new, k7, h, err_prev):
    """The finiteness check and PI controller the generated loop replaced,
    transcribed: (accepted, the next step size, the next err_prev)."""
    if not (math.isfinite(err) and all(map(math.isfinite, y_new)) and all(map(math.isfinite, k7))):
        return False, h * 0.1, err_prev
    if err <= 1.0:
        if err_prev is None or err == 0.0:
            factor = 10.0 if err == 0.0 else 0.9 * err ** (-0.2)
        else:
            factor = 0.9 * err ** (-(0.7 / 5.0)) * err_prev ** (0.4 / 5.0)
        factor = min(10.0, max(0.2, factor))
        return True, h * factor, max(err, 1e-10)
    return False, h * max(0.2, 0.9 * err ** (-0.2)), err_prev


class _ReferenceStepper:
    """The per-step stepping the generated loop replaced, transcribed: one accepted
    step per call of step, by _reference_attempt and _reference_control."""

    def __init__(self, flow, p, y0, settings, n_err):
        self.flow, self.p, self.s, self.n_err = flow, p, settings, n_err
        self.t, self.y = 0.0, [float(v) for v in y0]
        self.k1 = flow(self.y, p)
        self.h, self.err_prev = min(settings.h_init, settings.h_max), None
        self.accepted = self.rejected = 0
        self.t_old = self.h_last = self.last = None

    def step(self, t_limit):
        s = self.s
        while True:
            if self.accepted + self.rejected >= s.max_steps:
                raise NumericalFailureError("step budget exhausted", last_good_time=self.t)
            h_clip = t_limit - self.t
            h = min(self.h, s.h_max, h_clip)
            if h <= 16.0 * sys.float_info.epsilon * max(1.0, abs(self.t)):
                raise NumericalFailureError("step size underflow", last_good_time=self.t)
            err, y_new, last = _reference_attempt(self.flow, self.p, h, self.y, self.k1,
                                                  s.abs_tol, s.rel_tol, self.n_err)
            accepted, self.h, self.err_prev = _reference_control(err, y_new, last[-1], h, self.err_prev)
            if accepted:
                self.accepted += 1
                self.t_old, self.h_last, self.last = self.t, h, last
                self.t = t_limit if h == h_clip else self.t + h
                self.y, self.k1 = y_new, last[-1]
                return
            self.rejected += 1


def _bits(v):
    """Every float of a nested result as its 8 bytes, so -0.0 and inf compare too;
    anything else as it is.  Every NaN reads alike: the sign of a NaN made from
    two NaNs is not fixed by the operation, as CPython's adaptive interpreter can
    pick the other operand's after it specializes an instruction, and the
    finiteness check rejects every NaN alike."""
    if isinstance(v, float):
        return b"nan" if math.isnan(v) else struct.pack("<d", v)
    if isinstance(v, (list, tuple)):
        return tuple(_bits(x) for x in v)
    return v


class TestGeneratedStep:
    @staticmethod
    def _exact(row):
        return [Fraction(num, den) for num, den in row]

    def test_tableau_order_conditions(self):
        c = self._exact(reference.C)
        for i, row in enumerate(reference.A):
            assert sum(self._exact(row), Fraction(0)) == c[i]
        b = self._exact(reference.B)
        # k7 is evaluated at y_new, so b is its stage row and sums to its node
        assert sum(b) == 1 == c[-1]
        assert sum(self._exact(reference.E)) == 0
        # the quartic at theta = 1 is the 5th-order solution
        dense = [self._exact(row) for row in reference.DENSE]
        assert [sum(col) for col in zip(*dense)] == b
        assert reference.ATTEMPT_EVALS == len(c) - 1 == 6

    @pytest.mark.parametrize("n, n_err", [(3, 3), (5, 5), (10, 5)])
    def test_attempt_matches_the_hand_written_stages(self, n, n_err):
        # one attempt of the generated loop (a budget of one, t_limit = t + h) against
        # the hand-written stages and the controller: with the trial's tolerances, and
        # with tolerances scaled to put the error near 0.5, the decision, the next
        # step size and err_prev; with tolerances no finite error fails, also every
        # bit of y_new, k7, each component's dense quartic and the loop's divergence decision
        flow = {3: _three_flow, 5: integrator._base_flow, 10: integrator._augmented_flow}[n]
        rng = random.Random(n)
        loop = integrator._compiled(reference.loop_source, flow, n, n_err)
        overflowed = 0
        decisions, factors, stops = set(), set(), set()
        for trial in range(200):
            p = ModelParams(eps=rng.uniform(0.1, 3.0), gamma=0.0, delta=rng.uniform(-3.0, 3.0),
                            alpha=rng.uniform(-2.0, 2.0), omega=rng.uniform(0.1, 3.0))
            h = 10.0 ** rng.uniform(-6.0, 0.5)
            # one trial in five starts near the top of the float range, where stages
            # overflow: inf and NaN must travel the same way too
            scale = 10.0 ** rng.randint(150, 300) if trial % 5 == 0 else 1.0
            y = [scale * rng.uniform(-3.0, 3.0) * 10.0 ** rng.randint(-3, 3) for _ in range(n)]
            k1 = flow(y, p)
            atol, rtol = 10.0 ** rng.uniform(-14, -6), 10.0 ** rng.uniform(-14, -6)
            # err_prev = 1e-10, its floor, makes the smallest factors: the clip at 0.2
            err_prev = None if trial % 2 else 1e-10 if trial % 4 == 0 else 10.0 ** rng.uniform(-10.0, 0.0)
            err = _reference_attempt(flow, p, h, y, k1, atol, rtol, n_err)[0]
            tol_scale = err / 0.5 if 0.0 < err < math.inf else 1.0
            # on two trials in three, a divergence bound that some of the new states leave
            bound = 10.0 ** rng.uniform(-1.0, 1.0) if trial % 3 else 1e8
            for tols in ((atol, rtol), (atol * tol_scale, rtol * tol_scale), (1e300, 1e300)):
                settings = IntegratorSettings(abs_tol=tols[0], rel_tol=tols[1], max_steps=1,
                                              divergence_norm=bound)
                got = loop(p, settings, 0.0, h, err_prev, y, k1, h, 0, 0)
                err, y_new, last = _reference_attempt(flow, p, h, y, k1, *tols, n_err)
                accepted, h_next, err_next = _reference_control(err, y_new, last[-1], h, err_prev)
                if accepted:
                    stop = _reference_stop(h, last, y_new, bound)
                    want = (None, h, h_next, err_next, y_new, last[-1], (0.0, *stop), 1, 0)
                    stops.add(stop[-1])
                else:
                    want = ("step budget exhausted", 0.0, h_next, err_next, y, k1, None, 0, 1)
                assert _bits(got) == _bits(want)
                decisions.add((tols[0] < 1e300, accepted))
                factors.add(round(h_next / h, 12) if accepted else None)
            overflowed += not all(map(math.isfinite, [err, *y_new]))
        assert 0 < overflowed < 200
        assert decisions == {(True, True), (True, False), (False, True), (False, False)}
        assert {0.2, 10.0} < factors
        # the divergence decision was made both ways
        assert stops == {False, True}

    def test_source_is_compiled_once_per_state_length(self):
        base, augmented = integrator._base_flow, integrator._augmented_flow
        loop = lambda *args: integrator._compiled(reference.loop_source, *args)
        assert loop(base, 5, 5) is loop(base, 5, 5)
        assert loop(augmented, 10, 5) is not loop(augmented, 10, 10)
        source = reference.loop_source(base, 5, 5)
        assert "k2_4" in source and "e_4" in source and "e_5" not in source
        # an operation on parameters only is made once per call, not once per stage
        assert source.count("2.0 * p_eps") == 1

    @pytest.mark.parametrize("n, n_err", [(5, 5), (10, 5)])
    def test_model_flows_are_inline(self, n, n_err):
        # no stage calls a function: the only calls left are the error norm's
        flow = {5: integrator._base_flow, 10: integrator._augmented_flow}[n]
        tree = ast.parse(reference.loop_source(flow, n, n_err))
        calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert calls <= {"math.sqrt", "sum", "max", "abs"}

    def test_recording_rejects_what_it_cannot_write(self):
        def divides(y, p):
            return [y[0] / p.eps]

        # both generators record the flow alike; after n come n_err, or the order and scan
        for source, rest in ((reference.loop_source, (1,)), (integrator._taylor_source, (2, False))):
            with pytest.raises(TypeError):
                source(divides, 1, *rest)
            with pytest.raises(ValueError, match="returned 2"):
                source(lambda y, p: [y[0], y[0]], 1, *rest)


def _three_flow(y, p):
    """A 3-component flow in plain arithmetic: constants of both signs, an int, a
    negation, an operation on parameters only and an output copied from its input."""
    a, b, c = y
    return [p.eps * a * b - p.alpha * c + -0.5 * p.delta * p.omega, -(a * c) + (p.omega * b - 1), a]


FIG1B = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
FIG1B_Y0 = [2.0, 0.0, 0.0, 1.0, -2.54950976]
# the model's flows: (flow, n_err) by state length, started on fig1b
LOOP_FLOWS = {5: (integrator._base_flow, 5), 10: (integrator._augmented_flow, 5)}


def _loop_initial(n):
    return FIG1B_Y0 + [1.0 / math.sqrt(5.0)] * (n - 5)


def _packed(st):
    """The bytes of a stepper's t and y."""
    return struct.pack(f"<{1 + len(st.y)}d", st.t, *st.y)


class TestSteppingLoop:
    """The generated loop against _ReferenceStepper, the per-step stepping it
    replaced: the same accepted steps, bit for bit, and a stop at the first step
    that needs one, for each reason."""

    SETTINGS = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, h_init=1.0)   # rejects at the start

    def pair(self, n, settings=SETTINGS):
        flow, n_err = LOOP_FLOWS[n]
        y0 = _loop_initial(n)
        return (_ReferenceStepper(flow, FIG1B, y0, settings, n_err),
                reference.Dopri5(flow, FIG1B, y0, settings, err_dim=n_err))

    @staticmethod
    def assert_same(ref, stepper):
        """Equal state, counts and controller, and the stop the reference's last step
        makes: its dense quartics, bit for bit, and its divergence decision."""
        assert _packed(stepper) == _packed(ref)
        assert (stepper.stats.accepted, stepper.stats.rejected) == (ref.accepted, ref.rejected)
        assert _bits((stepper.h, stepper.err_prev, stepper.k1)) == _bits((ref.h, ref.err_prev, ref.k1))
        want = _reference_stop(ref.h_last, ref.last, ref.y, stepper.s.divergence_norm)
        got = (stepper.h_last, stepper.polys, stepper.diverged)
        assert _bits((stepper.t_old, *got)) == _bits((ref.t_old, *want))

    @staticmethod
    def first_stop(ref, t_limit, stop):
        """Step ref up to its first accepted step at t_limit or where stop(ref) holds."""
        ref.step(t_limit)
        while ref.t < t_limit and not stop(ref):
            ref.step(t_limit)

    @pytest.mark.parametrize("n", sorted(LOOP_FLOWS))
    def test_every_accepted_step_matches_the_per_step_reference(self, n):
        # a divergence bound that every state leaves stops the loop after every accepted step
        ref, stepper = self.pair(n, IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, h_init=1.0,
                                                       divergence_norm=sys.float_info.min))
        marks = [0.7 * m for m in range(1, 30)]
        want, got = [], []
        for t_mark in marks:
            while ref.t < t_mark:
                ref.step(t_mark)
                want.append(_packed(ref))
            while stepper.t < t_mark:
                stepper.advance(t_mark)
                got.append(_packed(stepper))
            self.assert_same(ref, stepper)
        assert got == want
        assert len(got) > 300 and stepper.stats.rejected > 0
        # every mark is landed on exactly, and most steps end between marks
        ends = {struct.unpack_from("<d", b)[0] for b in got}
        assert set(marks) <= ends and len(ends) > 2 * len(marks)
        assert stepper.stats.rhs_evals == 1 + 6 * (ref.accepted + ref.rejected)

    @pytest.mark.parametrize("n", sorted(LOOP_FLOWS))
    def test_stops_at_the_mark(self, n):
        # h_max caps the steps, which take about 0.03 unbounded
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, h_max=0.02)
        ref, stepper = self.pair(n, settings)
        self.first_stop(ref, 3.3, lambda r: False)
        stepper.advance(3.3)
        assert stepper.t == 3.3 and stepper.stats.accepted >= 3.3 / 0.02
        self.assert_same(ref, stepper)
        assert not stepper.diverged

    @pytest.mark.parametrize("n", sorted(LOOP_FLOWS))
    def test_stops_past_the_divergence_bound(self, n):
        # |p| starts at 2.5495 and reaches about 2.74
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, divergence_norm=2.6)
        ref, stepper = self.pair(n, settings)
        self.first_stop(ref, 20.0, lambda r: max(map(abs, r.y[:5])) > 2.6)
        stepper.advance(20.0)
        assert stepper.t < 20.0
        self.assert_same(ref, stepper)
        assert stepper.diverged
        assert integrator._drive(stepper, [20.0]) == (IntegrationStatus.DIVERGED, stepper.t)

    @pytest.mark.parametrize("n", sorted(LOOP_FLOWS))
    def test_exhausted_budget(self, n):
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, h_init=1.0, max_steps=40)
        ref, stepper = self.pair(n, settings)
        with pytest.raises(NumericalFailureError, match="step budget exhausted") as want:
            self.first_stop(ref, 20.0, lambda r: False)
        with pytest.raises(NumericalFailureError, match="step budget exhausted") as got:
            stepper.advance(20.0)
        assert got.value.last_good_time == want.value.last_good_time == stepper.t > 0.0
        assert (stepper.stats.accepted, stepper.stats.rejected) == (ref.accepted, ref.rejected)
        assert stepper.stats.accepted + stepper.stats.rejected == 40
        assert _bits((stepper.y, stepper.h)) == _bits((ref.y, ref.h))

    def test_step_size_underflow(self):
        # dy/dt = y * y from y = 1 blows up at t = 1: the steps shrink with 1 - t until
        # one is below 16 eps; the guard's bound is never reached
        def blow_up(y, p):
            return [y[0] * y[0]]

        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, divergence_norm=1e300)
        ref = _ReferenceStepper(blow_up, FIG1B, [1.0], settings, 1)
        stepper = reference.Dopri5(blow_up, FIG1B, [1.0], settings)
        with pytest.raises(NumericalFailureError, match="step size underflow") as want:
            self.first_stop(ref, 2.0, lambda r: False)
        with pytest.raises(NumericalFailureError, match="step size underflow") as got:
            stepper.advance(2.0)
        assert got.value.last_good_time == want.value.last_good_time == stepper.t
        assert 1.0 - 1e-10 < stepper.t < 1.0
        assert (stepper.stats.accepted, stepper.stats.rejected) == (ref.accepted, ref.rejected)
        assert _bits((stepper.y, stepper.h)) == _bits((ref.y, ref.h))
        # a step of exactly 16 eps at t <= 1 is too short already
        stepper = reference.Dopri5(blow_up, FIG1B, [1.0], settings)
        with pytest.raises(NumericalFailureError, match="step size underflow"):
            stepper.advance(16.0 * sys.float_info.epsilon)
        assert stepper.stats.accepted + stepper.stats.rejected == 0


def _cauchy(a, b, k):
    """Coefficient k of the product of two series: a_j * b_(k-j) added left to right from j = 0."""
    total = a[0] * b[k]
    for j in range(1, k + 1):
        total = total + a[j] * b[k - j]
    return total


def _reference_coefficients(y, p, order):
    """The Taylor coefficients 0..order of field's solution through y, by the Cauchy
    recurrence written out by hand for field, y_(k+1) = f_k / (k + 1), kept as the
    oracle of the generated step.  Any number type with +, -, * and / will do."""
    c = [[v] for v in y]
    n1, om, op, x, px = c
    dd = []                                   # the series of 2.0 * (delta + alpha * x)
    for k in range(order):
        ax = p.alpha * x[k]
        dd.append(2.0 * (p.delta + ax if k == 0 else ax))
        f = [_cauchy(dd, om, k),
             _cauchy(dd, n1, k) + 2.0 * p.eps * op[k],
             -2.0 * p.eps * om[k],
             p.omega * px[k],
             -(p.omega * x[k] + p.alpha * op[k])]
        for ci, fk in zip(c, f):
            ci.append(fk / (k + 1))
    return c


def _reference_step_size(c, settings, order):
    """Jorba & Zou's step from the last two coefficients' max-norms, before any clip."""
    xn = max(abs(ci[0]) for ci in c)
    s = 1.0 if settings.rel_tol * xn <= settings.abs_tol else xn
    rho = math.inf
    for j in (order - 1, order):
        norm = max(abs(ci[j]) for ci in c)
        if norm > 0.0:
            rho = min(rho, (s / norm) ** (1.0 / j))
    return rho * (math.exp(-2.0) * math.exp(-0.7 / (order - 1)))


def _random_system(rng, scale=1.0):
    p = ModelParams(eps=rng.uniform(0.1, 3.0), gamma=0.0, delta=rng.uniform(-3.0, 3.0),
                    alpha=rng.uniform(-2.0, 2.0), omega=rng.uniform(0.1, 3.0))
    return p, [scale * rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-2, 0) for _ in range(5)]


ORDERS = [2, 5, 13, 18, 20]


class TestTaylorStep:
    """The generated Taylor step against the hand-written recurrence for field."""

    @pytest.mark.parametrize("order", ORDERS)
    def test_coefficients_match_the_hand_written_recurrence(self, order):
        # h = 2**-12, h_max: every power of h is exact, so each scaled coefficient
        # in the step polynomials keeps every bit of the coefficient
        step = integrator._compiled(integrator._taylor_source, integrator._base_flow, 5, order, False)
        rng = random.Random(order)
        settings = IntegratorSettings(h_max=2.0 ** -12)
        for _ in range(50):
            p, y = _random_system(rng)
            c = _reference_coefficients(y, p, order)
            failure, t, y_new, (t_old, h, polys, diverged, crossing), accepted = step(p, settings, 0.0, y, 1.0, 0)
            assert (failure, t_old, h, accepted) == (None, 0.0, 2.0 ** -12, 1)
            assert _bits(polys) == _bits(tuple(tuple(ck * h ** k for k, ck in enumerate(ci)) for ci in c))

    @pytest.mark.parametrize("order", ORDERS)
    def test_step_size_scaling_and_new_state(self, order):
        # the step from the reference coefficients, clipped by h_max or by t_limit or
        # not at all; coefficient m scaled by h**m (repeated products), and y_new the
        # Horner sum of each step polynomial at theta = 1, bit for bit
        step = integrator._compiled(integrator._taylor_source, integrator._base_flow, 5, order, False)
        rng = random.Random(100 + order)
        clips, decisions = set(), set()
        for trial in range(150):
            p, y = _random_system(rng)
            h_max = 10.0 if trial % 3 else 10.0 ** rng.uniform(-4.0, -1.0)
            tol = 10.0 ** rng.uniform(-14.0, -6.0)
            settings = IntegratorSettings(abs_tol=tol, rel_tol=tol * 10.0 ** rng.uniform(-2.0, 2.0),
                                          h_max=h_max, divergence_norm=rng.choice([1e8, 0.5]))
            t = rng.uniform(0.0, 100.0)
            t_limit = t + (10.0 if trial % 4 else 10.0 ** rng.uniform(-4.0, -1.0))
            c = _reference_coefficients(y, p, order)
            h_free = _reference_step_size(c, settings, order)
            h = min(h_free, h_max, t_limit - t)
            q = [1.0, h]
            for _ in range(2, order + 1):
                q.append(q[-1] * h)
            polys = tuple(tuple(ck * qk for ck, qk in zip(ci, q)) for ci in c)
            y_new = [integrator._horner(poly, 1.0) for poly in polys]
            diverged = max(map(abs, y_new)) > settings.divergence_norm
            t_new = t_limit if h == t_limit - t else t + h
            got = step(p, settings, t, y, t_limit, 7)
            assert _bits(got) == _bits((None, t_new, y_new, (t, h, polys, diverged, False), 8))
            clips.add("free" if h == h_free else "h_max" if h == h_max else "t_limit")
            decisions.add(diverged)
        assert clips == {"free", "h_max", "t_limit"} and decisions == {False, True}

    @pytest.mark.parametrize("order", ORDERS)
    def test_scanning_step_sets_crossing_wherever_x_changes_sign(self, order):
        # x read off the step polynomial at 257 points of theta in [0, 1]; steps started
        # near the plane with a small dX/dt hold grazing transits and near misses.  The
        # plain step makes no test: crossing is always False
        scanning = integrator._compiled(integrator._taylor_source, integrator._base_flow, 5, order, True)
        plain = integrator._compiled(integrator._taylor_source, integrator._base_flow, 5, order, False)
        rng = random.Random(300 + order)
        seen = set()
        for _ in range(300):
            p, y = _random_system(rng)
            y[3] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 0.0)
            y[4] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.5)
            tol = 10.0 ** rng.uniform(-14.0, -6.0)
            settings = IntegratorSettings(abs_tol=tol, rel_tol=tol)
            failure, _, _, (_, _, polys, _, crossing), _ = scanning(p, settings, 0.0, y, 10.0, 0)
            assert failure is None
            xs = [integrator._horner(polys[3], k / 256) for k in range(257)]
            changes = any(a * b <= 0.0 for a, b in zip(xs, xs[1:]))
            assert crossing or not changes
            assert plain(p, settings, 0.0, y, 10.0, 0)[3][4] is False
            seen.add((changes, crossing))
        assert seen == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize("scan", [False, True])
    def test_step_size_from_the_base_state(self, scan):
        # on the augmented flow the step-size norms read no tangent component
        source = integrator._taylor_source(integrator._augmented_flow, 10, 13, scan)
        assert "    xn = max(abs(y0_0), abs(y1_0), abs(y2_0), abs(y3_0), abs(y4_0))\n" in source
        assert "abs(y5_" not in source.split("    xn = ")[1].split("    h = ")[0]

    def test_source_is_compiled_once_per_order(self):
        base = integrator._base_flow
        taylor = lambda *args: integrator._compiled(integrator._taylor_source, *args)
        assert taylor(base, 5, 18, False) is taylor(base, 5, 18, False)
        assert taylor(base, 5, 18, False) is not taylor(base, 5, 13, False)
        # scan is part of the key
        assert taylor(base, 5, 18, True) is not taylor(base, 5, 18, False)
        # one cache serves both generators
        assert taylor(base, 5, 5, False) is not integrator._compiled(reference.loop_source, base, 5, 5)
        source = integrator._taylor_source(base, 5, 18, False)
        # an operation on parameters only is made once per call
        assert source.count("2.0 * p_eps") == 1
        # the field is inline: the only calls left are the norms'
        calls = {ast.unparse(node.func) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)}
        assert calls == {"max", "abs"}

    @pytest.mark.parametrize("tol, order", [(1.0, 2), (1e-6, 8), (1e-10, 13), (1e-12, 15), (1e-14, 18),
                                            (1e-16, 20), (1e-300, 20)])
    def test_order_comes_from_the_tolerance(self, tol, order):
        assert integrator._taylor_order(IntegratorSettings(abs_tol=tol, rel_tol=tol)) == order
        assert integrator._taylor_order(IntegratorSettings(abs_tol=1.0, rel_tol=tol)) == order

    def test_constants_negations_and_copied_inputs(self):
        # _three_flow's constants of both signs, int, negation, operation on parameters
        # only and output copied from its input, against DOP5 at a tighter tolerance
        p = ModelParams(eps=1.3, gamma=0.0, delta=-0.4, alpha=0.7, omega=0.9)
        taylor = integrator._Taylor(_three_flow, p, [0.3, -0.2, 0.5], IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12))
        dopri5 = reference.Dopri5(_three_flow, p, [0.3, -0.2, 0.5], IntegratorSettings(abs_tol=1e-14, rel_tol=1e-14))
        for stepper in (taylor, dopri5):
            assert integrator._drive(stepper, [0.5, 1.0]) == (IntegrationStatus.COMPLETED, None)
        assert taylor.t == dopri5.t == 1.0
        assert max(abs(a - b) for a, b in zip(taylor.y, dopri5.y)) < 1e-11
        assert taylor.stats.rejected == 0 and taylor.stats.rhs_evals == 15 * taylor.stats.accepted

    def test_exhausted_budget(self):
        settings = IntegratorSettings(max_steps=40)
        stepper = integrator._Taylor(integrator._base_flow, FIG1B, FIG1B_Y0, settings)
        with pytest.raises(NumericalFailureError, match="step budget exhausted") as failure:
            integrator._drive(stepper, [1000.0])
        assert failure.value.last_good_time == stepper.t > 0.0
        assert (stepper.stats.accepted, stepper.stats.rejected) == (40, 0)
        assert stepper.stats.rhs_evals == 40 * stepper.order

    def test_step_size_underflow(self):
        # dy/dt = y * y from y = 1 blows up at t = 1: each step is a fixed share of
        # the distance to the blow-up of the computed solution (within 1e-11 of t = 1),
        # until one is below 16 eps
        def blow_up(y, p):
            return [y[0] * y[0]]

        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10, divergence_norm=1e300)
        stepper = integrator._Taylor(blow_up, FIG1B, [1.0], settings)
        with pytest.raises(NumericalFailureError, match="step size underflow") as failure:
            integrator._drive(stepper, [2.0])
        assert failure.value.last_good_time == stepper.t
        assert abs(stepper.t - 1.0) < 1e-11 and stepper.y[0] > 1e12 and stepper.stats.rejected == 0
        # a step of exactly 16 eps at t <= 1 is too short already
        stepper = integrator._Taylor(blow_up, FIG1B, [1.0], settings)
        with pytest.raises(NumericalFailureError, match="step size underflow"):
            stepper.advance(16.0 * sys.float_info.epsilon)
        assert stepper.stats.accepted == 0

    def test_non_finite_coefficient(self):
        # y**2 overflows in coefficient 1
        stepper = integrator._Taylor(lambda y, p: [y[0] * y[0]], FIG1B, [1e200], IntegratorSettings())
        with pytest.raises(NumericalFailureError, match="non-finite Taylor coefficient") as failure:
            stepper.advance(1.0)
        assert failure.value.last_good_time == 0.0 and stepper.stats.accepted == 0


class TestTaylorAccuracy:
    def test_no_less_accurate_than_dopri5(self):
        # fig1b to t = 10 against a 40-digit Taylor reference (order 30, fixed step 1/8):
        # at 1e-14 and at 1e-10, integrate's error at t = 10 is no larger than the DOP5
        # loop's at the same tolerance (measured: 4.1e-14 against 3.5e-13, and 1.0e-11
        # against 4.7e-10)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            mp_p = SimpleNamespace(**{k: mpmath.mpf(getattr(FIG1B, k)) for k in ("eps", "delta", "alpha", "omega")})
            y = [mpmath.mpf(v) for v in FIG1B_Y0]
            h = mpmath.mpf(1) / 8
            for _ in range(80):
                y = [integrator._horner([ck * h ** k for k, ck in enumerate(ci)], 1)
                     for ci in _reference_coefficients(y, mp_p, 30)]
            ref = [float(v) for v in y]
        s0 = SystemState(*FIG1B_Y0)
        for tol in (1e-14, 1e-10):
            settings = IntegratorSettings(abs_tol=tol, rel_tol=tol)
            taylor = integrate(s0, FIG1B, 10.0, settings, sample_interval=10.0)
            dopri5 = reference.Dopri5(integrator._base_flow, FIG1B, FIG1B_Y0, settings)
            integrator._drive(dopri5, [10.0])
            assert taylor.times[-1] == dopri5.t == 10.0
            errors = [max(abs(a - b) for a, b in zip(y_end, ref)) for y_end in (taylor.states[-1], dopri5.y)]
            assert errors[0] <= errors[1]


class TestFirstOrderInAlpha:
    def test_deviation_from_the_critical_closed_form_is_first_order(self):
        # criterion 8's setup: the state and s = dy/dalpha co-integrated at alpha = 0,
        # ds/dt = J s + df/dalpha, so n1(alpha) = n1_crit + alpha * s_n1 + O(alpha^2)
        def with_alpha_derivative(y, p):
            base = y[:5]
            n1, om, op, x, _ = base
            ds = field_jvp(base, y[5:], p)
            return field(base, p) + [ds[0] + 2.0 * x * om, ds[1] + 2.0 * x * n1,
                                     ds[2], ds[3], ds[4] - op]

        s0 = SystemState(n1=2.0, om=0.0, op=0.0, x=1.0, p=-2.54950976)
        critical = ModelParams(eps=1.0, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        settings = IntegratorSettings(abs_tol=1e-13, rel_tol=1e-13)
        stepper = reference.Dopri5(with_alpha_derivative, critical, s0.as_tuple() + (0.0,) * 5, settings)
        s_n1 = [0.0]
        integrator._drive(stepper, [k * 0.05 for k in range(1, 401)],
                          on_mark=lambda st: s_n1.append(st.y[5]))
        q0 = QuantumTriple(s0.n1, s0.om, s0.op)
        ratios = []
        for alpha in (1e-7, 1e-6, 1e-5):
            traj = integrate(s0, critical.replace(alpha=alpha), 20.0, settings, sample_interval=0.05)
            assert len(traj) == len(s_n1) == 401
            deviation = [y[0] - evolve_critical(q0, 1.0, t).n1 for t, y in zip(traj.times, traj.states)]
            residual = max(abs(d - alpha * s) for d, s in zip(deviation, s_n1))
            # the first-order term is most of the deviation (about 1 - 1e4 * alpha of it)
            assert residual < 0.15 * max(map(abs, deviation))
            ratios.append(residual / alpha ** 2)
        # and what is left is second order: the same multiple of alpha^2 at every alpha
        assert max(ratios) < 1.01 * min(ratios)


class TestInvariantDrift:
    def test_long_run_conservation(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        s0 = SystemState(n1=2, om=0, op=0, x=1, p=-2.54950976)
        traj = integrate(s0, p, 1000.0, sample_interval=2.0)
        e0 = effective_energy(s0, p)
        i0 = invariant_I(s0)
        for i in range(len(traj)):
            s = traj.state_at(i)
            assert abs(effective_energy(s, p) - e0) <= 1e-10 * (1 + abs(e0))
            assert abs(invariant_I(s) - i0) <= 1e-10 * (1 + abs(i0))


def sample_bytes(traj):
    """The bytes of every sample time and every state component, in order."""
    return (array("d", traj.times).tobytes(),
            array("d", [v for row in traj.states for v in row]).tobytes())


class TestDeterminism:
    def test_identical_runs(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, -2.54950976)
        a = integrate(s0, p, 50.0, TIGHT, sample_interval=0.5)
        b = integrate(s0, p, 50.0, TIGHT, sample_interval=0.5)
        assert len(a) == len(b) == 101
        assert sample_bytes(a) == sample_bytes(b)

    def test_samples_are_those_of_the_stepper(self):
        # the reference, held in numpy arrays: the Taylor stepper driven by hand, a stop
        # at every step, its step polynomials at each multiple of the interval, and the
        # last state reached; integrate's float containers must keep every bit of it
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)    # fig1b
        s0 = SystemState(2, 0, 0, 1, -2.54950976)
        t_end, interval = 50.0, 0.3
        stepper = integrator._Taylor(integrator._base_flow, p, s0.to_array(), IntegratorSettings())
        times, states = [0.0], [s0.to_array()]
        k = 1
        while stepper.t < t_end:
            stepper.advance(t_end)
            while k * interval <= stepper.t + 1e-12 * interval:
                if k * interval <= t_end:
                    times.append(k * interval)
                    states.append(stepper.dense(k * interval) if k * interval < stepper.t else stepper.y)
                k += 1
        if stepper.t > times[-1]:
            times.append(stepper.t)
            states.append(stepper.y)
        traj = integrate(s0, p, t_end, sample_interval=interval)
        assert len(traj) == len(times) == 168
        assert sample_bytes(traj) == (np.array(times).tobytes(), np.array(states).tobytes())
        assert traj.times.nbytes + traj.states.nbytes == 8 * 6 * len(times)
        assert traj.states[-1] == traj.states[len(traj) - 1] == tuple(states[-1])
        with pytest.raises(IndexError):
            traj.states[len(traj)]

    def test_sample_times_are_grid_multiples(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        traj = integrate(SystemState(2, 0, 0, 1, 0), p, 10.0, TIGHT, sample_interval=0.25)
        assert np.all(np.diff(traj.times) > 0)
        interior = np.array(traj.times)[1:-1]
        assert np.allclose(interior / 0.25, np.round(interior / 0.25), atol=1e-9)


class TestSamples:
    SLICES = [slice(1, 3), slice(-3, None), slice(None, -2), slice(None, None, 2), slice(-1, 0, -3),
              slice(None, None, -1), slice(3, 1), slice(5, 5), slice(100, None), slice(-100, 2)]

    @pytest.mark.parametrize("width", [1, 5])
    @pytest.mark.parametrize("s", SLICES, ids=str)
    def test_a_slice_is_samples_of_the_same_width(self, width, s):
        samples = integrator.Samples([0.5 * v for v in range(7 * width)], width)
        part = samples[s]
        assert isinstance(part, integrator.Samples)
        assert list(part) == list(samples)[s]
        assert len(part) == len(list(samples)[s])
        assert part.nbytes == 8 * width * len(part)
        if len(part):
            assert part[0] == list(samples)[s][0]
        with pytest.raises(TypeError):
            part[0] = 1.0

    def test_trajectory_slices(self):
        traj = integrate(SystemState(2, 0, 0, 1, -2.54950976), FIG1B, 1.0, TIGHT, sample_interval=0.25)
        assert list(traj.states[1:3]) == [traj.states[1], traj.states[2]]
        assert list(traj.times[1:3]) == [0.25, 0.5]


class TestEvents:
    def setup_method(self):
        # classical-only motion: quantum triple inert
        self.p = ModelParams(eps=1.0, gamma=0.0, delta=0.0, alpha=0.0, omega=1.0)

    def test_crossing_times_cosine_start(self):
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        _, events = integrate_with_events(s0, self.p, 20.0, TIGHT)
        expected = [math.pi / 2 + k * math.pi for k in range(6)]
        assert len(events) == len(expected)
        for ev, t_ref in zip(events, expected):
            assert abs(ev.t_cross - t_ref) <= 1e-10
            assert abs(ev.state.x) <= 1e-12 * (1 + 1)
        assert [ev.direction for ev in events] == [-1, 1, -1, 1, -1, 1]

    def test_event_count_exact(self):
        s0 = SystemState(n1=1, om=0, op=0, x=0, p=1)
        t_end = 100.0
        _, events = integrate_with_events(s0, self.p, t_end, TIGHT)
        assert len(events) == math.floor(t_end * self.p.omega / math.pi)

    def test_start_on_plane_not_reported(self):
        s0 = SystemState(n1=1, om=0, op=0, x=0, p=1)
        _, events = integrate_with_events(s0, self.p, 2.0, TIGHT)
        assert all(ev.t_cross > 1e-6 for ev in events)

    def test_trajectory_holds_start_and_end(self):
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        traj, _ = integrate_with_events(s0, self.p, 5.0, TIGHT)
        assert traj.status is IntegrationStatus.COMPLETED
        assert list(traj.times) == [0.0, 5.0]
        assert np.array_equal(traj.states[0], s0.to_array())
        assert abs(traj.states[1][3] - math.cos(5.0)) <= 1e-10


# the tolerances and iteration cap of _refine_crossing, the one caller
BRENT_KW = {"xtol": 1e-15, "rtol": 4 * sys.float_info.epsilon, "maxiter": integrator._EVENT_MAX_ITER}


def slow_cubic(t):
    # a triple root: Brent's method falls back to bisection for many iterations
    return (t - 0.3) ** 3


class TestBrentq:
    def test_equals_scipy_on_random_step_quartics(self):
        scipy_brentq = pytest.importorskip("scipy.optimize").brentq
        rng = random.Random(20261018)
        n_brackets = 0
        for _ in range(2500):
            # x(t) on one step, as _crossing_scan builds it off the dense quartic
            q = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3.0, 1.0) for _ in range(5)]
            t_old = rng.uniform(0.0, 1000.0)
            h = 10.0 ** rng.uniform(-4.0, 0.5)
            x = lambda t: integrator._horner(q, (t - t_old) / h)
            dt = h / integrator._EVENT_SUBDIV
            edges = [t_old + i * dt for i in range(integrator._EVENT_SUBDIV)] + [t_old + h]
            xs = [x(t) for t in edges]
            for ta, tb, ga, gb in zip(edges, edges[1:], xs, xs[1:]):
                if ga * gb < 0.0:
                    n_brackets += 1
                    assert brentq(x, ta, tb, **BRENT_KW) == scipy_brentq(x, ta, tb, **BRENT_KW)
        assert n_brackets > 1000

    def test_same_sign_bracket_raises_value_error(self):
        with pytest.raises(ValueError):
            brentq(slow_cubic, 0.5, 1.0, **BRENT_KW)

    def test_iteration_cap_raises_runtime_error(self):
        with pytest.raises(RuntimeError):
            brentq(slow_cubic, 0.0, 1.0, **{**BRENT_KW, "maxiter": 1})
        assert abs(brentq(slow_cubic, 0.0, 1.0, **{**BRENT_KW, "maxiter": 200}) - 0.3) < 1e-15

    def test_root_at_an_endpoint_is_returned_as_is(self):
        f = lambda t: t * (t - 1.0)
        assert brentq(f, 0.0, 0.5, **BRENT_KW) == 0.0
        assert brentq(f, 0.5, 1.0, **BRENT_KW) == 1.0
        assert brentq(f, 0.0, 1.0, **BRENT_KW) == 0.0     # even with no sign change

    def test_refine_crossing_maps_both_errors_to_numerical_failure(self, monkeypatch):
        with pytest.raises(NumericalFailureError, match="different signs"):
            integrator._refine_crossing(None, slow_cubic, 0.5, 1.0)
        monkeypatch.setattr(integrator, "_EVENT_MAX_ITER", 1)
        with pytest.raises(NumericalFailureError, match="converge"):
            integrator._refine_crossing(None, slow_cubic, 0.0, 1.0)

    def test_refinement_holds_where_float_time_is_coarse(self):
        # nearly linear steps at t in [1e4, 3e4] with dX/dt near omega * p, 1.5 to 3 in
        # size: brentq may stop a few ulps of t from the root, where |x| can exceed
        # 1e-12 * (1 + |y|) (3e-12 to 4.2e-12 here), and the refinement must still hold;
        # each transit is found within the time tolerance brentq is given
        rng = random.Random(24)
        for _ in range(1000):
            t_old, h = rng.uniform(1e4, 3e4), rng.uniform(0.01, 0.5)
            v = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0)
            c, theta = rng.uniform(-0.1, 0.1), rng.uniform(0.01, 0.99)
            # x = (theta' - theta) * (v * h + c * h**2 * (theta' + theta)), one root in the step
            x_poly = (-v * h * theta - c * h * h * theta * theta, v * h, c * h * h)
            st = SimpleNamespace(p=FIG1B, t_old=t_old, h_last=h, t=t_old + h, crossing=True,
                                 polys=((1.0,), (0.1,), (0.2,), x_poly, (v,)))
            st.dense = lambda t, st=st: [integrator._horner(q, (t - st.t_old) / st.h_last) for q in st.polys]
            events = []
            integrator._crossing_scan(FIG1B, 0.0, events)(st)
            assert len(events) == 1 and events[0].direction == (1 if v > 0 else -1)
            t_root = t_old + theta * h
            assert abs(events[0].t_cross - t_root) <= 1e-15 + 4 * sys.float_info.epsilon * t_root + 1e-13


def _from_roots(roots) -> list:
    """The coefficients, constant term first, of the product of (theta - r) over roots."""
    c = [1.0]
    for r in roots:
        c = [-r * c[0], *(c[k - 1] - r * c[k] for k in range(1, len(c))), c[-1]]
    return c


def _one_step(x_poly, t_old=100.0, h=0.45):
    """A stop after one step of length h from t_old whose x polynomial in theta is
    x_poly; p is dX/dt (omega = 1), so a transit's direction is the sign of x's slope."""
    slope = tuple(m * c / h for m, c in enumerate(x_poly))[1:]
    st = SimpleNamespace(p=FIG1B, t_old=t_old, h_last=h, t=t_old + h, crossing=True,
                         polys=((1.0,), (0.1,), (0.2,), tuple(x_poly), slope))
    st.dense = lambda t: [integrator._horner(q, (t - st.t_old) / st.h_last) for q in st.polys]
    return st


class TestCrossingScan:
    @pytest.mark.parametrize("roots", [
        (0.3, 0.32),                    # two in the second quarter
        (0.4, 0.40001),                 # a grazing pair, 4.5e-6 apart in t
        (0.6, 0.62, 0.7),               # three in the third quarter
        (0.01, 0.2, 0.21, 0.99),        # three in the first, one in the last
    ])
    def test_every_root_in_a_quarter_is_an_event(self, roots):
        x_poly = _from_roots(roots)
        st = _one_step(x_poly)
        events = []
        integrator._crossing_scan(FIG1B, 0.0, events)(st)
        assert len(events) == len(roots)
        for event, r in zip(events, roots):
            assert abs(event.t_cross - (st.t_old + r * st.h_last)) <= 1e-12
        # x changes sign at each simple root: the directions alternate, + first where x < 0 at the start
        first = 1 if x_poly[0] < 0.0 else -1
        assert [e.direction for e in events] == [first * (-1) ** k for k in range(len(roots))]

    def test_a_quarter_with_one_root_keeps_its_own_bracket(self, monkeypatch):
        # the step's Bernstein coefficients change sign twice, so its quarters are
        # examined; each holds one root, and brentq gets the quarter as bracket
        brackets = []
        refine = integrator.brentq
        monkeypatch.setattr(integrator, "brentq",
                            lambda f, a, b, **kw: brackets.append((a, b)) or refine(f, a, b, **kw))
        st = _one_step(_from_roots((0.1, 0.6)))
        events = []
        integrator._crossing_scan(FIG1B, 0.0, events)(st)
        dt = st.h_last / 4
        assert brackets == [(st.t_old, st.t_old + dt), (st.t_old + 2 * dt, st.t_old + 3 * dt)]
        assert [e.direction for e in events] == [-1, 1]

    def test_a_double_root_ends_the_halving(self):
        # x = (theta - 0.3)**2 touches the plane without crossing it: no event, and the
        # halving stops at the depth cap or where float time has no midpoint left
        events = []
        integrator._crossing_scan(FIG1B, 0.0, events)(_one_step(_from_roots((0.3, 0.3))))
        assert events == []


class TestAugmented:
    @pytest.mark.parametrize("t_end, interval, n", [
        (0.3, 0.1, 3),            # 0.3 / 0.1 rounds to 2.9999999999999996
        (1.2, 0.4, 3),            # 3 * 0.4 is 1.2000000000000002, past t_end
        (9.6, 1.0, 10),           # a short last interval, (9, 9.6]
        (20.0, 1.0, 20),
        (1.0, 5.0, 1),
    ])
    def test_marks_are_the_renormalization_times(self, t_end, interval, n):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        log = integrate_augmented(SystemState(2, 0, 0, 1, -2.54950976), np.ones(5), p, t_end,
                                  IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10), renorm_interval=interval)
        assert log.status is IntegrationStatus.COMPLETED
        marks = renorm_marks(t_end, interval)
        assert marks == list(log.times)
        assert len(marks) == n and marks[-1] == t_end

    def test_stable_linear_rates_vanish(self):
        p = ModelParams(eps=1.3, gamma=0.0, delta=0.7, alpha=0.0, omega=1.0)
        s0 = SystemState(2, 0.2, 0.1, 1, 0)
        log = integrate_augmented(
            s0, np.array([1.0, 0, 0, 0, 0]), p, 2500.0,
            IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10), renorm_interval=5.0,
        )
        assert log.status is IntegrationStatus.COMPLETED
        late = [g for t, g in zip(log.times, log.log_norms) if t > 2000.0]
        rate = math.fsum(late) / (log.times[-1] - 2000.0)
        assert abs(rate) <= 1e-3

    def test_unstable_linear_growth_rate(self):
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, 0)
        log = integrate_augmented(
            s0, np.ones(5), p, 6.0,
            IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300),
            renorm_interval=0.05,
        )
        late = [g for t, g in zip(log.times, log.log_norms) if t > 2.0]
        rate = math.fsum(late) / (log.times[-1] - 2.0)
        assert rate == pytest.approx(2 * math.sqrt(3), rel=0.01)

    def test_flow_direction_has_zero_rate(self):
        from semiquantum.model import rhs

        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, -2.54950976)
        v0 = rhs(s0.to_array(), p)
        log = integrate_augmented(
            s0, v0, p, 2000.0,
            IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10), renorm_interval=5.0,
        )
        rate = math.fsum(log.log_norms) / log.times[-1]
        assert abs(rate) <= 2e-3

    def test_overflowing_tangent_norm_is_a_numerical_failure(self):
        # the tangent grows as exp(2 sqrt(3) t), to about 1e225 by t = 150: the
        # squares of its components overflow, so its 2-norm is inf
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        settings = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError, match="tangent norm is inf"):
            integrate_augmented(SystemState(2, 0, 0, 1, 0), np.ones(5), p, 150.0, settings,
                                renorm_interval=150.0)

    def test_renorm_logs_the_growth_it_removes(self):
        # at alpha = 0 the field is linear, f(y) = J y, so a tangent started along s0
        # grows as the state does: at any renormalization cadence the log-norms sum
        # to log |y(T)| / |y(0)|, which a skipped renormalization or a wrong norm breaks
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        s0 = SystemState(2, 0.5, 0.3, 1, 0)
        settings = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        y = integrate(s0, p, 6.0, settings, sample_interval=6.0).states
        expected = math.log(np.linalg.norm(y[-1]) / np.linalg.norm(y[0]))
        assert expected > 10.0
        for renorm in (0.05, 0.5, 6.0):
            log = integrate_augmented(s0, s0.to_array(), p, 6.0, settings, renorm_interval=renorm)
            assert len(log.log_norms) == round(6.0 / renorm)
            assert math.fsum(log.log_norms) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.015, 1e-4], ids=["fig2d", "fig1a"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    def test_the_lyapunov_pass_follows_the_events_pass(self, alpha, tol, monkeypatch):
        # step size from the base state, and no step clipped at a mark: at every renorm
        # interval the Lyapunov pass takes integrate_with_events's steps, bit for bit,
        # and the log-norms sum to one growth whatever the schedule
        steps = []
        advance = integrator._Taylor.advance

        def recorded(st, t_limit):
            advance(st, t_limit)
            steps[-1].append((st.t_old, st.h_last, st.t, *st.y[:5]))

        monkeypatch.setattr(integrator._Taylor, "advance", recorded)
        p, s0 = FIG1B.replace(alpha=alpha), SystemState(*FIG1B_Y0)
        settings = IntegratorSettings(abs_tol=tol, rel_tol=tol)
        steps.append([])
        traj, _ = integrate_with_events(s0, p, 100.0, settings)
        sums = []
        for renorm in (0.3, 1.0, 7.0):
            steps.append([])
            log = integrate_augmented(s0, np.ones(5), p, 100.0, settings, renorm_interval=renorm)
            assert log.status is traj.status is IntegrationStatus.COMPLETED
            assert log.stats.accepted == traj.stats.accepted == len(steps[0]) > 100
            assert _bits(steps[-1]) == _bits(steps[0])
            assert _bits(log.states[-1]) == _bits(traj.states[-1])
            assert log.stats.renorms == len(log.times) == len(renorm_marks(100.0, renorm))
            sums.append(math.fsum(log.log_norms))
        assert max(sums) - min(sums) <= 1e-9

    def test_marks_inside_one_step(self):
        # every step spans several marks: each is read off the step's polynomials, so
        # the base states are integrate's samples at the same instants, bit for bit
        s0, settings = SystemState(*FIG1B_Y0), IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)
        log = integrate_augmented(s0, np.ones(5), FIG1B, 30.0, settings, renorm_interval=0.05)
        assert list(log.times) == renorm_marks(30.0, 0.05)
        assert log.stats.renorms == 600 > 4 * log.stats.accepted
        traj = integrate(s0, FIG1B, 30.0, settings, sample_interval=0.05)
        assert _bits(list(log.states)) == _bits(list(traj.states)[1:])
        # and the growth over every schedule is the same
        coarse = integrate_augmented(s0, np.ones(5), FIG1B, 30.0, settings, renorm_interval=30.0)
        assert math.fsum(log.log_norms) == pytest.approx(coarse.log_norms[0], abs=1e-9)

    def test_a_diverging_orbit_logs_only_marks_before_the_divergence(self):
        # fig1c diverges at t = 7.46; the step that leaves the bound logs no mark
        p = ModelParams(eps=2.0, gamma=0.0, delta=1.0, alpha=1.1, omega=1.0)
        s0, settings = SystemState(*FIG1B_Y0), IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)
        log = integrate_augmented(s0, np.ones(5), p, 100.0, settings, renorm_interval=0.1)
        traj, _ = integrate_with_events(s0, p, 100.0, settings)
        assert log.status is traj.status is IntegrationStatus.DIVERGED
        assert log.t_div == traj.t_div < 10.0
        assert list(log.times) == renorm_marks(100.0, 0.1)[:len(log.times)]
        assert len(log.times) > 50 and log.times[-1] < log.t_div
        assert all(math.isfinite(v) for row in log.states for v in row)
        assert all(math.isfinite(g) for g in log.log_norms)

    def test_augmented_field_is_rhs_plus_jvp(self):
        from semiquantum.integrator import _augmented_flow
        from semiquantum.model import jacobian_matrix, rhs

        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.uniform(-5, 5, size=5).tolist()
            v = rng.normal(size=5).tolist()
            out = _augmented_flow(base + v, p)
            assert np.array_equal(out, rhs(base, p).tolist() + field_jvp(base, v, p))
            assert np.allclose(out[5:], jacobian_matrix(np.array(base), p) @ v, rtol=1e-13, atol=1e-13)

    # (start, parameters, t_end, renorm interval): fig2d's S0; the om0 = 2.5 member of its
    # (E_eff, I) = (4.8, 4) shell; and that member at eps 1.2, alpha 0.07, which diverges
    ONE_ORBIT = {
        "fig2d": (SystemState(*FIG1B_Y0), FIG1B, 300.0, 1.0),
        "member": (make_initial(4.8, 4.0, 2.5, 0.0, 1.0, 0.0, FIG1B, momentum_sign=-1), FIG1B, 1000.0, 50.0),
        "diverging": (make_initial(4.8, 4.0, 2.5, 0.0, 1.0, 0.0, FIG1B.replace(eps=1.2, alpha=0.07),
                                   momentum_sign=-1), FIG1B.replace(eps=1.2, alpha=0.07), 1000.0, 50.0),
    }

    @pytest.mark.parametrize("case", sorted(ONE_ORBIT))
    def test_the_labelling_pass_is_the_events_and_lyapunov_passes(self, case):
        # with crossings the augmented pass finds integrate_with_events's crossings, bit for
        # bit (CrossingEvent equality), and logs what the pass without crossings logs
        s0, p, t_end, renorm = self.ONE_ORBIT[case]
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)
        traj, events = integrate_with_events(s0, p, t_end, settings)
        labelling = integrate_augmented(s0, np.ones(5), p, t_end, settings, renorm_interval=renorm, crossings=True)
        lyapunov = integrate_augmented(s0, np.ones(5), p, t_end, settings, renorm_interval=renorm)
        assert labelling.crossings == events and len(events) > 5
        for log in (labelling, lyapunov):
            assert log.status is traj.status and log.t_div == traj.t_div
            assert log.stats.accepted == traj.stats.accepted
        assert _bits([list(labelling.times), list(labelling.log_norms), list(labelling.states), labelling.megno]) \
            == _bits([list(lyapunov.times), list(lyapunov.log_norms), list(lyapunov.states), lyapunov.megno])
        if case == "diverging":
            assert traj.t_div == pytest.approx(36.0327, abs=1e-4)
        else:
            assert traj.status is IntegrationStatus.COMPLETED

    def test_megno_follows_its_limits(self):
        # at alpha = 0 the tangent flow is linear: with a real rate lambda, ln|v| tends to
        # lambda * t, so <Y> to lambda * t / 2; on the stable (isochronous) side it tends to 0
        unstable = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        settings = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        log = integrate_augmented(SystemState(2, 0, 0, 1, 0), np.ones(5), unstable, 6.0, settings,
                                  renorm_interval=0.05)
        assert log.megno == pytest.approx(math.sqrt(3.0) * 6.0, rel=0.01)
        stable = ModelParams(eps=1.3, gamma=0.0, delta=0.7, alpha=0.0, omega=1.0)
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)
        megnos = [integrate_augmented(SystemState(2, 0.2, 0.1, 1, 0), [1.0, 0, 0, 0, 0], stable, t_end, settings,
                                      renorm_interval=5.0).megno for t_end in (100.0, 1000.0)]
        assert 0.0 < megnos[1] < 0.2 * megnos[0] < 0.01

    def test_megno_does_not_depend_on_the_renormalizations(self):
        # each step's growth is taken in the scaling at its start, so the schedule moves
        # <Y> only by rounding; on fig2d's torus it reads about 2
        settings = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)
        megnos = [integrate_augmented(SystemState(*FIG1B_Y0), np.ones(5), FIG1B, 1000.0, settings,
                                      renorm_interval=renorm).megno for renorm in (0.3, 1.0, 50.0, 1000.0)]
        assert max(megnos) - min(megnos) <= 1e-9
        assert 1.5 < megnos[0] < 2.5

    def test_section_in_the_augmented_pass(self):
        # the crossings of the base state, collected in the same pass, are
        # integrate_with_events's
        p = ModelParams(eps=1.0, gamma=0.0, delta=0.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        log = integrate_augmented(s0, np.ones(5), p, 20.0, TIGHT, renorm_interval=1.0,
                                  crossings=True)
        _, events = integrate_with_events(s0, p, 20.0, TIGHT)
        assert len(log.crossings) == len(events) == 6
        assert log.crossings == events
        assert integrate_augmented(s0, np.ones(5), p, 20.0, TIGHT).crossings == []

    def test_rejects_zero_tangent(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        for tangent0 in (np.zeros(5), np.full(5, np.nan), np.full(5, np.inf)):
            with pytest.raises(ConfigurationError, match="nonzero and finite"):
                integrate_augmented(SystemState(2, 0, 0, 1, 0), tangent0, p, 1.0)

    @pytest.mark.parametrize("tangent0", [[np.ones(5)], np.ones(4), np.ones(6), np.eye(5), 1.0])
    def test_rejects_anything_but_one_vector_of_length_5(self, tangent0):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        with pytest.raises(ConfigurationError, match="one vector of length 5"):
            integrate_augmented(SystemState(2, 0, 0, 1, 0), tangent0, p, 1.0)
