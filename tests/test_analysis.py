import math

import numpy as np
import pytest

from semiquantum import analysis
from semiquantum.analysis import (
    Regime,
    classify_regime,
    cluster_count,
    largest_lyapunov,
    poincare,
)
from semiquantum.errors import ConfigurationError, DivergentTrajectoryError
from semiquantum.integrator import IntegrationStatus, IntegratorSettings
from semiquantum.model import (
    ModelParams,
    SystemState,
    effective_energy,
    invariant_I,
    make_initial,
)

P_WEAK = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=1e-4, omega=1.0)
P_MODERATE = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)
S_BASE = SystemState(n1=2, om=0, op=0, x=1, p=-2.54950976)
ST = IntegratorSettings(abs_tol=1e-10, rel_tol=1e-10)


class TestPoincare:
    def test_crossings_lie_on_plane_and_inherit_invariants(self):
        # tight tolerances: the crossing states come off the dense interpolant,
        # whose error sits a little above the step error at a given tolerance
        sec = poincare(S_BASE, P_MODERATE, 300.0,
                       IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12))
        assert sec.status is IntegrationStatus.COMPLETED
        assert len(sec) > 50
        e0 = effective_energy(S_BASE, P_MODERATE)
        i0 = invariant_I(S_BASE)
        for k in range(len(sec)):
            s = SystemState(sec.n1[k], sec.om[k], sec.op[k], 0.0, sec.p[k])
            assert abs(effective_energy(s, P_MODERATE) - e0) <= 1e-8 * (1 + abs(e0))
            # I is a difference of squares; scale by the terms, not the result
            assert abs(invariant_I(s) - i0) <= 1e-9 * (1 + s.n1 ** 2)

    def test_direction_filter(self):
        both = poincare(S_BASE, P_MODERATE, 200.0, ST, direction_filter="both")
        pos = poincare(S_BASE, P_MODERATE, 200.0, ST, direction_filter=1)
        assert set(pos.directions) <= {1}
        assert len(pos) == int(np.sum(both.directions == 1))

    def test_crossing_times_increase(self):
        sec = poincare(S_BASE, P_MODERATE, 200.0, ST)
        assert np.all(np.diff(sec.t) > 0)


class TestClusterAndConic:
    def test_cluster_count_separated_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 1e-5], [1.0, 0.0], [1.0 + 1e-5, 0.0], [5.0, 5.0]])
        assert cluster_count(pts, 1e-3)[1] == 3
        assert cluster_count(pts, 10.0)[1] == 1

    def test_one_scan_gives_half_and_full_counts(self):
        def greedy(points, radius):
            """One greedy cover count per scan, the reference for both counts."""
            centers = []
            for pt in points:
                if all(np.linalg.norm(pt - c) > radius for c in centers):
                    centers.append(pt)
            return len(centers)

        rng = np.random.default_rng(17)
        for k in range(200):
            # n odd for odd k, even for even k
            pts = rng.uniform(-1.0, 1.0, size=(2 * int(rng.integers(0, 30)) + k % 2, 2))
            radius = rng.uniform(0.05, 1.0)
            n = len(pts)
            assert cluster_count(pts, radius) == (greedy(pts[: n // 2], radius), greedy(pts, radius))


class TestLyapunov:
    def test_regular_orbit_small_exponent(self):
        est = largest_lyapunov(S_BASE, P_WEAK, ST, transient=100.0, total=2000.0)
        assert abs(est.lambda_max) < 5e-3
        assert est.diverged_at is None
        assert est.renorm_count > 1000

    def test_decoupled_unstable_rate(self):
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        st = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        est = largest_lyapunov(SystemState(2, 0, 0, 1, 0), p, st,
                               transient=2.0, total=8.0, renorm_interval=0.05)
        assert est.lambda_max == pytest.approx(2 * math.sqrt(3), rel=0.01)

    def test_divergence_before_transient_raises(self):
        p = ModelParams(eps=2.0, gamma=0.0, delta=1.0, alpha=1.1, omega=1.0)
        with pytest.raises(DivergentTrajectoryError):
            largest_lyapunov(S_BASE, p, ST, transient=400.0, total=1000.0)

    def test_bad_budgets(self):
        with pytest.raises(ConfigurationError):
            largest_lyapunov(S_BASE, P_WEAK, ST, transient=10.0, total=5.0)
        with pytest.raises(ConfigurationError):
            largest_lyapunov(S_BASE, P_WEAK, ST, renorm_interval=0.0)

    @pytest.mark.parametrize("estimator, budget", [(largest_lyapunov, "total"), (classify_regime, "budget")])
    @pytest.mark.parametrize("transient", [-100.0, math.nan])
    def test_negative_transient_is_rejected_before_integrating(self, estimator, budget, transient,
                                                               monkeypatch):
        # the Benettin average divides by t_last - transient, so a negative
        # transient would silently stretch the time span
        monkeypatch.setattr(analysis, "integrate_augmented", None)
        with pytest.raises(ConfigurationError, match="transient must be >= 0"):
            estimator(S_BASE, P_WEAK, ST, transient=transient, **{budget: 300.0})


class TestClassifyRegime:
    def test_weak_coupling_not_chaotic(self):
        r = classify_regime(S_BASE, P_WEAK, ST, budget=1500.0, transient=100.0)
        assert r.label in (Regime.PERIODIC, Regime.QUASIPERIODIC)
        assert r.lyapunov is not None
        assert r.n_crossings >= 50
        # the section collected in the Lyapunov pass tells the same story as
        # a separate poincare() pass
        sec = poincare(S_BASE, P_WEAK, 1500.0, ST)
        pts = np.column_stack([sec.om, sec.op])
        spread = max(float(np.ptp(sec.om)), float(np.ptp(sec.op)))
        assert r.n_crossings == len(sec)
        assert r.n_clusters == cluster_count(pts, 1e-3 * spread)[1]

    def test_divergent_orbit(self):
        p = ModelParams(eps=2.0, gamma=0.0, delta=1.0, alpha=1.1, omega=1.0)
        r = classify_regime(S_BASE, p, ST, budget=1000.0)
        assert r.label is Regime.DIVERGENT
        assert r.divergence_time is not None

    def test_too_few_growth_samples_is_a_configuration_error(self):
        # one renormalization mark (t = 150) past the transient on a regular
        # orbit: no estimate is possible, and the orbit did not diverge
        with pytest.raises(ConfigurationError, match="renorm_interval"):
            classify_regime(S_BASE, P_WEAK, ST, budget=200.0, transient=10.0,
                            renorm_interval=150.0)

    def test_short_budget_inconclusive(self):
        r = classify_regime(S_BASE, P_WEAK, ST, budget=40.0, transient=10.0)
        assert r.label is Regime.INCONCLUSIVE
        assert r.n_crossings < 50

    def test_chaotic_family_member(self):
        # the om0 = 2.5 member of the (E_eff=4.8, I=4) shell lives in the
        # chaotic sea; a coarse renorm interval keeps the growth-rate samples
        # decorrelated enough for the significance gate
        s0 = make_initial(4.8, 4.0, 2.5, 0.0, 1.0, 0.0, P_MODERATE, momentum_sign=-1)
        r = classify_regime(s0, P_MODERATE, ST, budget=4500.0, transient=200.0,
                            renorm_interval=50.0)
        assert r.label is Regime.CHAOTIC
        assert r.lyapunov.lambda_max > 5e-3
