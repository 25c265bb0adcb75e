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
from semiquantum.integrator import IntegrationStatus, IntegratorSettings, integrate_augmented
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
        traj, events = poincare(S_BASE, P_MODERATE, 300.0,
                                IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12))
        assert traj.status is IntegrationStatus.COMPLETED
        assert len(events) > 50
        e0 = effective_energy(S_BASE, P_MODERATE)
        i0 = invariant_I(S_BASE)
        for e in events:
            s = SystemState(e.state.n1, e.state.om, e.state.op, 0.0, e.state.p)
            assert abs(effective_energy(s, P_MODERATE) - e0) <= 1e-8 * (1 + abs(e0))
            # I is a difference of squares; scale by the terms, not the result
            assert abs(invariant_I(s) - i0) <= 1e-9 * (1 + s.n1 ** 2)

    def test_direction_filter(self):
        _, both = poincare(S_BASE, P_MODERATE, 200.0, ST, direction_filter="both")
        _, pos = poincare(S_BASE, P_MODERATE, 200.0, ST, direction_filter=1)
        assert pos == [e for e in both if e.direction == 1]

    def test_direction_filter_subset(self):
        # classical-only motion (quantum triple inert): x = cos t crosses
        # downward first, then alternates
        p = ModelParams(eps=1.0, gamma=0.0, delta=0.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=1, om=0, op=0, x=1, p=0)
        tight = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12)
        _, both = poincare(s0, p, 30.0, tight, direction_filter="both")
        _, pos = poincare(s0, p, 30.0, tight, direction_filter=1)
        _, neg = poincare(s0, p, 30.0, tight, direction_filter=-1)
        assert [e.direction for e in both] == [-1, 1] * 5
        assert pos == both[1::2] and neg == both[0::2]

    def test_bad_filter(self, monkeypatch):
        monkeypatch.setattr(analysis, "integrate_with_events", None)
        with pytest.raises(ConfigurationError, match="direction_filter"):
            poincare(S_BASE, P_MODERATE, 1.0, direction_filter="up")

    def test_crossing_times_increase(self):
        _, events = poincare(S_BASE, P_MODERATE, 200.0, ST)
        assert np.all(np.diff([e.t_cross for e in events]) > 0)

    def test_the_section_is_that_of_the_augmented_pass(self):
        # fig2d from S0: the events pass and the augmented pass (renorm 1) take the same
        # Taylor steps, so they find the same transits, bit for bit
        _, events = poincare(S_BASE, P_MODERATE, 300.0, ST)
        log = integrate_augmented(S_BASE, analysis._TANGENT0, P_MODERATE, 300.0, ST, crossings=True)
        assert len(events) == len(log.crossings) > 90
        assert events == log.crossings


class TestClusterAndConic:
    def test_cluster_count_separated_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 1e-5], [1.0, 0.0], [1.0 + 1e-5, 0.0], [5.0, 5.0]])
        assert cluster_count(pts, 1e-3)[1] == 3
        assert cluster_count(pts, 10.0)[1] == 1

    @staticmethod
    def greedy(points, radius):
        """One greedy cover count per scan, by brute force over every center: the
        reference for both counts, with cluster_count's predicate."""
        centers = []
        for x, y in points:
            if all(math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy)) > radius for cx, cy in centers):
                centers.append((x, y))
        return len(centers)

    def check(self, pts, radius):
        n = len(pts)
        assert cluster_count(pts, radius) == (self.greedy(pts[: n // 2], radius), self.greedy(pts, radius))

    def test_one_scan_gives_half_and_full_counts(self):
        rng = np.random.default_rng(17)
        for k in range(200):
            # n odd for odd k, even for even k
            pts = rng.uniform(-1.0, 1.0, size=(2 * int(rng.integers(0, 30)) + k % 2, 2))
            self.check(pts, rng.uniform(0.05, 1.0))

    def test_points_spanning_many_cells(self):
        # radii from 1e-4 to 1e-1 of a spread-out set far from the origin: from
        # hundreds of thousands of hash cells down to a few hundred
        rng = np.random.default_rng(23)
        for radius in (1e-4, 1e-3, 1e-2, 1e-1):
            pts = (rng.uniform(-1.0, 1.0, size=(500, 2)) * [3.0, 0.5] + [40.0, -7.0]).tolist()
            self.check(pts, radius)
            # and each point repeated a hair away, so most of them join a center
            self.check([(x + radius * d, y) for x, y in pts for d in (0.0, 0.5)], radius)

    def test_distance_exactly_the_radius_joins(self):
        assert cluster_count([(0.0, 0.0), (3.0, 4.0)], 5.0) == (1, 1)
        assert cluster_count([(0.0, 0.0), (3.0, 4.0)], 5.0 * (1 - 2.0 ** -52)) == (1, 2)
        assert cluster_count([(1.0, 1.0), (1.0, 1.0)], 0.0) == (1, 1)
        assert cluster_count([], 1.0) == (0, 0)

    def test_a_center_two_cells_away_by_rounding_still_joins(self):
        # x - cx rounds to 1.0, so the points lie within radius 1, though x = 2
        # and cx = 1 - 2**-53 would fall two cells apart in cells exactly 1 wide
        pts = [(1.0 - 2.0 ** -53, 0.0), (2.0, 0.0)]
        assert 2.0 - pts[0][0] == 1.0
        assert cluster_count(pts, 1.0) == (1, 1)
        self.check(pts, 1.0)


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

    @pytest.mark.parametrize("transient", [2.0, 2.5, 2.9])
    def test_transient_off_the_renorm_grid(self, transient):
        # only whole intervals after the transient are averaged, so a transient
        # between two marks does not bias the decoupled unstable rate
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        st = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        est = largest_lyapunov(SystemState(2, 0, 0, 1, 0), p, st,
                               transient=transient, total=8.0, renorm_interval=1.0)
        assert est.lambda_max == pytest.approx(2 * math.sqrt(3), abs=1e-3)

    def test_total_off_the_renorm_grid(self):
        # the last renormalization interval, (9, 9.6], is shorter and still run
        p = ModelParams(eps=1.0, gamma=0.0, delta=2.0, alpha=0.0, omega=1.0)
        st = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12, divergence_norm=1e300)
        est = largest_lyapunov(SystemState(2, 0, 0, 1, 0), p, st,
                               transient=2.0, total=9.6, renorm_interval=3.0)
        assert est.total_time == 9.6
        assert est.lambda_max == pytest.approx(2 * math.sqrt(3), abs=1e-3)

    def test_nan_renorm_interval_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="renorm_interval"):
            largest_lyapunov(S_BASE, P_WEAK, ST, renorm_interval=math.nan)

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

    @pytest.mark.parametrize("estimator, budget", [(largest_lyapunov, "total"), (classify_regime, "budget")])
    @pytest.mark.parametrize("transient", [300.0, 400.0])
    def test_transient_at_or_past_the_budget_is_rejected_before_integrating(
            self, estimator, budget, transient, monkeypatch):
        monkeypatch.setattr(analysis, "integrate_augmented", None)
        with pytest.raises(ConfigurationError, match=f"{budget} \\(300.0\\) must exceed transient"):
            estimator(S_BASE, P_WEAK, ST, transient=transient, **{budget: 300.0})

    @pytest.mark.parametrize("estimator, budget", [(largest_lyapunov, "total"), (classify_regime, "budget")])
    @pytest.mark.parametrize("transient, renorm_interval, n", [(10.0, 150.0, 1), (10.0, 400.0, 0), (150.0, 150.0, 1)])
    def test_too_few_intervals_are_rejected_before_integrating(self, estimator, budget, transient,
                                                               renorm_interval, n, monkeypatch):
        # marks at 150 and 300 (or 300 alone): at most one interval starts at or after the transient
        monkeypatch.setattr(analysis, "integrate_augmented", None)
        with pytest.raises(ConfigurationError, match=f"^{n} renormalization interval.*renorm_interval is too long"):
            estimator(S_BASE, P_WEAK, ST, transient=transient, renorm_interval=renorm_interval,
                      **{budget: 300.0})


class TestClassifyRegime:
    def test_weak_coupling_not_chaotic(self):
        r = classify_regime(S_BASE, P_WEAK, ST, budget=1500.0, transient=100.0)
        assert r.label in (Regime.PERIODIC, Regime.QUASIPERIODIC)
        assert r.lyapunov is not None
        assert r.n_crossings >= 50
        # the section collected in the Lyapunov pass tells the same story as
        # a separate poincare() pass
        _, events = poincare(S_BASE, P_WEAK, 1500.0, ST)
        pts = np.array([(e.state.om, e.state.op) for e in events])
        spread = float(np.max(np.ptp(pts, axis=0)))
        assert r.n_crossings == len(events) and r.n_clusters > 1
        assert r.n_clusters == cluster_count(pts, 1e-3 * spread)[1]

    def test_crossings_at_one_point_are_one_periodic_cluster(self, monkeypatch):
        # delta = alpha = 0 with <O-> = <O+> = 0: the quantum triple stays put, so
        # every crossing sits at one (om, op) point and the cover radius is 0
        radii = []

        def recording_cluster_count(points, radius):
            radii.append(radius)
            return cluster_count(points, radius)

        monkeypatch.setattr(analysis, "cluster_count", recording_cluster_count)
        p = ModelParams(eps=1.05, gamma=0.0, delta=0.0, alpha=0.0, omega=1.0)
        s0 = SystemState(n1=2, om=0, op=0, x=1, p=0)
        r = classify_regime(s0, p, ST, budget=400.0, transient=50.0)
        assert radii == [0.0]
        assert r.label is Regime.PERIODIC
        assert r.n_crossings >= 50 and r.n_clusters == 1

    def test_divergent_orbit(self):
        p = ModelParams(eps=2.0, gamma=0.0, delta=1.0, alpha=1.1, omega=1.0)
        r = classify_regime(S_BASE, p, ST, budget=1000.0)
        assert r.label is Regime.DIVERGENT
        assert r.divergence_time is not None

    def test_too_few_growth_samples_is_a_configuration_error(self):
        # one renormalization interval, (150, 200], starts after the transient on
        # a regular orbit: no estimate is possible, and the orbit did not diverge
        with pytest.raises(ConfigurationError, match="renorm_interval"):
            classify_regime(S_BASE, P_WEAK, ST, budget=200.0, transient=10.0,
                            renorm_interval=150.0)

    def test_transient_is_used_as_given(self):
        # a transient past a quarter of the budget is not shortened: the
        # intervals from 150 to 400 are averaged
        r = classify_regime(S_BASE, P_WEAK, ST, budget=400.0, transient=150.0)
        assert r.lyapunov.renorm_count == 250

    def test_short_budget_inconclusive(self):
        r = classify_regime(S_BASE, P_WEAK, ST, budget=40.0, transient=10.0)
        assert r.label is Regime.INCONCLUSIVE
        assert r.n_crossings < 50

    def test_chaotic_family_member(self):
        # the om0 = 2.5 member of the (E_eff=4.8, I=4) shell lives in the
        # chaotic sea: MEGNO reads about 19.5, far above a torus's 2
        s0 = make_initial(4.8, 4.0, 2.5, 0.0, 1.0, 0.0, P_MODERATE, momentum_sign=-1)
        r = classify_regime(s0, P_MODERATE, ST, budget=4500.0, transient=200.0,
                            renorm_interval=50.0)
        assert r.label is Regime.CHAOTIC
        assert r.lyapunov.lambda_max > 5e-3 and r.lyapunov.megno > 2 * analysis.MEGNO_CHAOS
        # the crossings of the pass are counted whatever the label
        assert r.n_crossings >= 50 and r.n_clusters is None

    @pytest.mark.parametrize("ulps", [2, 5, -5])
    def test_chaotic_label_holds_under_moves_of_the_start_by_ulps(self, ulps):
        # the Benettin test lambda > 3 se read the +2 and +5 ulp moves of that member
        # quasiperiodic; MEGNO reads each chaotic, or divergent where the orbit leaves
        s0 = make_initial(4.8, 4.0, 2.5, 0.0, 1.0, 0.0, P_MODERATE, momentum_sign=-1)
        p0 = s0.p
        for _ in range(abs(ulps)):
            p0 = math.nextafter(p0, math.copysign(math.inf, ulps))
        moved = SystemState(s0.n1, s0.om, s0.op, s0.x, p0, dn=s0.dn)
        r = classify_regime(moved, P_MODERATE, ST, budget=4500.0, transient=200.0,
                            renorm_interval=50.0)
        assert r.label in (Regime.CHAOTIC, Regime.DIVERGENT)
