import math
import pickle
import random
import sys

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
)
from semiquantum.linear_oracle import (
    QuantumTriple,
    evolve_classical,
    evolve_critical,
    evolve_linear,
)
from semiquantum.model import ModelParams, SystemState, effective_energy, invariant_I

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
        from semiquantum.integrator import _Dopri5

        settings = IntegratorSettings(h_init=1e-3)
        node = 0.2 * settings.h_init

        def f(t, y):
            return [math.inf] * len(y) if t == node else list(y)

        stepper = _Dopri5(f, [1.0, -2.0, 0.5], settings)
        stepper.step(1.0)
        assert (stepper.stats.accepted, stepper.stats.rejected) == (1, 1)
        assert stepper.h_last == settings.h_init * 0.1
        assert all(math.isfinite(v) for v in stepper.y)


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


class TestDeterminism:
    def test_identical_runs(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, -2.54950976)
        a = integrate(s0, p, 50.0, TIGHT, sample_interval=0.5)
        b = integrate(s0, p, 50.0, TIGHT, sample_interval=0.5)
        assert pickle.dumps((a.times, a.states)) == pickle.dumps((b.times, b.states))

    def test_sample_times_are_grid_multiples(self):
        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0)
        traj = integrate(SystemState(2, 0, 0, 1, 0), p, 10.0, TIGHT, sample_interval=0.25)
        assert np.all(np.diff(traj.times) > 0)
        interior = traj.times[1:-1]
        assert np.allclose(interior / 0.25, np.round(interior / 0.25), atol=1e-9)


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

    def test_direction_filter_subset(self):
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        _, both = integrate_with_events(s0, self.p, 30.0, TIGHT, direction_filter="both")
        _, pos = integrate_with_events(s0, self.p, 30.0, TIGHT, direction_filter=1)
        ref = [ev.t_cross for ev in both if ev.direction == 1]
        assert [ev.t_cross for ev in pos] == ref

    def test_bad_filter(self):
        with pytest.raises(ConfigurationError):
            integrate_with_events(SystemState(1, 0, 0, 1, 0), self.p, 1.0,
                                  direction_filter="up")

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


class TestAugmented:
    def test_stable_linear_rates_vanish(self):
        p = ModelParams(eps=1.3, gamma=0.0, delta=0.7, alpha=0.0, omega=1.0)
        s0 = SystemState(2, 0.2, 0.1, 1, 0)
        log = integrate_augmented(
            s0, np.array([1.0, 0, 0, 0, 0]), p, 2500.0,
            IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10), renorm_interval=5.0,
        )
        assert log.status is IntegrationStatus.COMPLETED
        late = log.times > 2000.0
        rate = log.log_norms[late].sum() / (log.times[late][-1] - 2000.0)
        assert abs(rate) <= 1e-3

    def test_unstable_linear_growth_rate(self):
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        s0 = SystemState(2, 0, 0, 1, 0)
        log = integrate_augmented(
            s0, np.ones(5), p, 6.0,
            IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300),
            renorm_interval=0.05,
        )
        late = log.times > 2.0
        rate = log.log_norms[late].sum() / (log.times[late][-1] - 2.0)
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
        rate = log.log_norms.sum() / log.times[-1]
        assert abs(rate) <= 2e-3

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
            assert log.log_norms.sum() == pytest.approx(expected, abs=1e-8)

    def test_augmented_field_is_rhs_plus_jvp(self):
        from semiquantum.integrator import _augmented_rhs
        from semiquantum.model import field_jvp, jacobian_matrix, rhs

        p = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = rng.uniform(-5, 5, size=5).tolist()
            v = rng.normal(size=5).tolist()
            out = _augmented_rhs(p)(0.0, base + v)
            assert np.array_equal(out, rhs(base, p).tolist() + field_jvp(base, v, p))
            assert np.allclose(out[5:], jacobian_matrix(np.array(base), p) @ v, rtol=1e-13, atol=1e-13)

    def test_section_in_the_augmented_pass(self):
        # the crossings of the base state, collected in the same pass, match
        # integrate_with_events up to the step differences the renorm marks cause
        p = ModelParams(eps=1.0, gamma=0.0, delta=0.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        log = integrate_augmented(s0, np.ones(5), p, 20.0, TIGHT, renorm_interval=1.0,
                                  direction_filter="both")
        _, events = integrate_with_events(s0, p, 20.0, TIGHT)
        assert len(log.crossings) == len(events) == 6
        for a, b in zip(log.crossings, events):
            assert abs(a.t_cross - b.t_cross) <= 1e-10
            assert a.direction == b.direction
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
