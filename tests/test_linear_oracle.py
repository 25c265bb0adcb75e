import math

import numpy as np
import pytest

from semiquantum.linear_oracle import (
    QuantumTriple,
    StabilityClass,
    classify,
    evolve_classical,
    evolve_critical,
    evolve_linear,
)
from semiquantum.model import ModelParams


def params(eps, gamma, delta):
    return ModelParams(eps=eps, gamma=gamma, delta=delta, alpha=0.0, omega=1.0)


def invariant(q):
    """The hyperboloid invariant n1^2 - om^2 - op^2 of a QuantumTriple."""
    return q.n1 * q.n1 - q.om * q.om - q.op * q.op


def reference_quantum_solution(q0, eps, delta, t_eval):
    """Independent oracle: high-accuracy integration of the decoupled triple.

    Only the tests that call it need scipy; without scipy they are skipped.
    """
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def f(t, y):
        n1, om, op = y
        return [2 * delta * om, 2 * delta * n1 + 2 * eps * op, -2 * eps * om]

    sol = solve_ivp(f, [0, t_eval[-1]], [q0.n1, q0.om, q0.op],
                    t_eval=t_eval, rtol=1e-12, atol=1e-12)
    return sol.y.T


class TestClassify:
    def test_critical(self):
        r = classify(params(1.0, 0.0, 1.0))
        assert r.label is StabilityClass.CRITICAL
        assert r.lambda_plus == 0 and r.lambda_minus == 0
        assert r.eta == 0

    def test_critical_with_splitting(self):
        r = classify(params(1.0, 0.3, -1.0))
        assert r.label is StabilityClass.CRITICAL
        assert r.lambda_plus == pytest.approx(0.3)
        assert r.lambda_minus == pytest.approx(-0.3)

    def test_stable_positive_definite(self):
        r = classify(params(1.05, 0.0, 1.0))
        assert r.label is StabilityClass.STABLE_POSITIVE_DEFINITE
        assert r.eta.real == pytest.approx(math.sqrt(1.05 ** 2 - 1.0), rel=1e-15)
        assert r.eta.real == pytest.approx(0.3201562, abs=5e-8)
        assert r.lambda_plus == r.lambda_minus == r.eta

    def test_stable_non_positive(self):
        # sqrt(1 - 0.25) ~ 0.866 < 0.9 < 1
        r = classify(params(1.0, 0.5, 0.9))
        assert r.label is StabilityClass.STABLE_NON_POSITIVE
        assert (r.eta - 0.5).real < 0  # lambda_minus < 0

    def test_stable_semidefinite_boundary(self):
        r = classify(params(1.0, 0.6, 0.8))
        assert r.label is StabilityClass.STABLE_SEMIDEFINITE
        assert abs(r.lambda_minus) < 1e-12

    def test_unstable(self):
        r = classify(params(1.0, 0.2, 2.0))
        assert r.label is StabilityClass.UNSTABLE
        assert r.eta.imag == pytest.approx(math.sqrt(3), rel=1e-15)

    def test_hermiticity_pairing_unstable(self):
        r = classify(params(1.0, 0.37, 1.8))
        assert r.lambda_plus.conjugate() == -r.lambda_minus


class TestEvolveLinear:
    def test_identity_at_t0(self):
        q0 = QuantumTriple(2.0, 0.5, -0.3)
        q = evolve_linear(q0, 1.05, 1.0, 0.0)
        assert (q.n1, q.om, q.op) == (q0.n1, q0.om, q0.op)

    def test_pure_rotation_at_zero_delta(self):
        q0 = QuantumTriple(3.0, 0.7, -0.2)
        for t in (0.3, 1.7, 5.0):
            q = evolve_linear(q0, 1.3, 0.0, t)
            assert q.n1 == pytest.approx(q0.n1, rel=1e-15)
            c, s = math.cos(2 * 1.3 * t), math.sin(2 * 1.3 * t)
            assert q.om == pytest.approx(q0.om * c + q0.op * s, rel=1e-12, abs=1e-14)
            assert q.op == pytest.approx(q0.op * c - q0.om * s, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("eps,delta", [(1.05, 1.0), (1.0, 2.0), (1.3, 0.4)])
    def test_against_numerical_reference(self, eps, delta):
        q0 = QuantumTriple(2.0, 0.0, 0.0)
        horizon = 5.0 if delta > eps else 20.0
        t_eval = np.linspace(0.0, horizon, 41)
        ref = reference_quantum_solution(q0, eps, delta, t_eval)
        for t, row in zip(t_eval, ref):
            q = evolve_linear(q0, eps, delta, t)
            got = np.array([q.n1, q.om, q.op])
            assert np.max(np.abs(got - row) / np.maximum(1.0, np.abs(row))) < 1e-9

    def test_random_oracle_consistency(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            eps = rng.uniform(0.3, 2.0)
            delta = rng.uniform(-2.0, 2.0)
            if abs(abs(delta) - eps) < 1e-3:
                continue
            q0 = QuantumTriple(*rng.uniform(-3, 3, size=3))
            eta2 = eps * eps - delta * delta
            horizon = 20.0 / max(1.0, 2.0 * math.sqrt(abs(eta2)))
            t_eval = np.linspace(0.0, horizon, 9)
            ref = reference_quantum_solution(q0, eps, delta, t_eval)
            for t, row in zip(t_eval, ref):
                q = evolve_linear(q0, eps, delta, t)
                got = np.array([q.n1, q.om, q.op])
                scale = np.maximum(1.0, np.abs(row))
                assert np.max(np.abs(got - row) / scale) < 1e-9

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q0 = QuantumTriple(*rng.uniform(-2, 2, size=3))
            eps, delta = 1.1, 0.8
            t1, t2 = rng.uniform(-3, 3, size=2)
            once = evolve_linear(q0, eps, delta, t1 + t2)
            twice = evolve_linear(evolve_linear(q0, eps, delta, t1), eps, delta, t2)
            for a, b in zip((once.n1, once.om, once.op), (twice.n1, twice.om, twice.op)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_invariant_preserved_stable(self):
        q0 = QuantumTriple(2.5, 1.2, -0.7)
        i0 = invariant(q0)
        for t in np.linspace(-10, 10, 41):
            q = evolve_linear(q0, 1.4, 0.9, t)
            assert invariant(q) == pytest.approx(i0, rel=1e-10)

    def test_invariant_preserved_unstable(self):
        q0 = QuantumTriple(2.0, 0.3, 0.4)
        i0 = invariant(q0)
        for t in np.linspace(0, 5, 11):
            q = evolve_linear(q0, 1.0, 2.0, t)
            norm_sq = q.n1 ** 2 + q.om ** 2 + q.op ** 2
            assert abs(invariant(q) - i0) <= 1e-12 * norm_sq + 1e-10


class TestEvolveCritical:
    def test_reference_point(self):
        q = evolve_critical(QuantumTriple(2, 0, 0), 1.0, 1.0)
        assert (q.n1, q.om, q.op) == (6.0, 4.0, -4.0)
        assert invariant(q) == pytest.approx(4.0)

    def test_identity_at_t0(self):
        q0 = QuantumTriple(2.3, -0.4, 0.9)
        q = evolve_critical(q0, 1.7, 0.0)
        assert (q.n1, q.om, q.op) == (q0.n1, q0.om, q0.op)

    def test_frozen_direction(self):
        q0 = QuantumTriple(1.5, 0.0, -1.5)
        for t in (0.5, 2.0, 7.0):
            q = evolve_critical(q0, 1.0, t)
            assert (q.n1, q.om, q.op) == (q0.n1, q0.om, q0.op)

    def test_sum_conservation(self):
        q0 = QuantumTriple(2.0, 1.0, 0.5)
        for t in np.linspace(0, 10, 21):
            q = evolve_critical(q0, 1.3, t)
            assert q.n1 + q.op == pytest.approx(q0.n1 + q0.op, rel=1e-12)

    def test_continuity_with_linear_branch(self):
        # eta = 1e-5: the trig branch must approach the polynomial branch
        eps = 1.0
        eta = 1e-5
        delta = math.sqrt(eps * eps - eta * eta)
        q0 = QuantumTriple(2.0, 0.7, -0.4)
        for t in np.linspace(0.1, 5.0, 25):
            lin = evolve_linear(q0, eps, delta, t)
            crit = evolve_critical(q0, eps, t)
            for a, b in zip((lin.n1, lin.om, lin.op), (crit.n1, crit.om, crit.op)):
                assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


class TestEvolveClassical:
    def test_identity_and_quarter_turn(self):
        assert evolve_classical(1.0, 0.0, 1.0, 0.0) == (1.0, 0.0)
        x, p = evolve_classical(1.0, 0.0, 1.0, math.pi / 2)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(-1.0, rel=1e-15)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            x0, p0 = rng.uniform(-5, 5, size=2)
            omega = rng.uniform(0.1, 5.0)
            t = rng.uniform(-20, 20)
            x, p = evolve_classical(x0, p0, omega, t)
            assert x * x + p * p == pytest.approx(x0 * x0 + p0 * p0, rel=1e-13, abs=1e-14)
