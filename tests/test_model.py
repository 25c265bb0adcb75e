import math

import numpy as np
import pytest

from semiquantum.errors import InfeasibleConstraintError
from semiquantum.model import (
    ModelParams,
    SystemState,
    effective_energy,
    family_initials,
    field,
    field_jvp,
    invariant_I,
    jacobian,
    jacobian_matrix,
    make_initial,
    parity_map_params,
    parity_map_state,
    rhs,
    validate_state,
    vector_field,
)

P_REF = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)


def random_states(n, rng, scale=10.0):
    for _ in range(n):
        vals = rng.uniform(-scale, scale, size=5)
        yield SystemState(*vals)


class TestParams:
    def test_valid(self):
        p = ModelParams(eps=1.0, gamma=0.5, delta=2.0, alpha=-0.1, omega=3.0)
        assert p.eps == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(eps=-1.0, gamma=0.0, delta=1.0, alpha=0.0, omega=1.0),
        dict(eps=1.0, gamma=1.5, delta=1.0, alpha=0.0, omega=1.0),
        dict(eps=1.0, gamma=0.0, delta=1.0, alpha=0.0, omega=0.0),
        dict(eps=float("nan"), gamma=0.0, delta=1.0, alpha=0.0, omega=1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SystemState(n1=float("inf"), om=0, op=0, x=0, p=0)


class TestVectorField:
    def test_hand_evaluated_example(self):
        s = SystemState(n1=2, om=0, op=0, x=1, p=0)
        d = vector_field(s, P_REF)
        assert d.dn1 == pytest.approx(0.0, abs=0)
        assert d.dom == pytest.approx(4.06, rel=1e-15)
        assert d.dop == pytest.approx(0.0, abs=0)
        assert d.dx == pytest.approx(0.0, abs=0)
        assert d.dp == pytest.approx(-1.0, rel=1e-15)

    def test_origin_state(self):
        s = SystemState(n1=1, om=0, op=0, x=0, p=0)
        d = vector_field(s, P_REF)
        assert d.dom == pytest.approx(2 * P_REF.delta, rel=1e-15)
        assert (d.dn1, d.dop, d.dx, d.dp) == (0, 0, 0, 0)

    def test_only_dom_nonzero_at_quiet_state(self):
        s = SystemState(n1=7.3, om=0, op=0, x=0, p=0)
        d = vector_field(s, P_REF)
        assert d.dom != 0
        assert (d.dn1, d.dop, d.dx, d.dp) == (0, 0, 0, 0)

    def test_parity_symmetry_exact(self):
        rng = np.random.default_rng(7)
        pm = parity_map_params(P_REF)
        for s in random_states(200, rng):
            d1 = vector_field(s, P_REF).to_array()
            d2 = vector_field(parity_map_state(s), pm).to_array()
            # map the derivative of the original through the parity map
            mapped = d1 * np.array([1.0, -1.0, -1.0, 1.0, 1.0])
            assert np.array_equal(mapped, d2)


class TestJacobian:
    def test_constant_when_decoupled(self):
        p = P_REF.replace(alpha=0.0)
        rng = np.random.default_rng(3)
        mats = [jacobian(s, p) for s in random_states(5, rng)]
        for m in mats[1:]:
            assert np.array_equal(m, mats[0])

    def test_hand_row(self):
        s = SystemState(n1=2, om=0, op=0, x=1, p=0)
        j = jacobian(s, P_REF)
        assert j[1] == pytest.approx([2.03, 0.0, 2.1, 0.06, 0.0], rel=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for s in random_states(50, rng):
            y = s.to_array()
            j = jacobian(s, P_REF)
            for k in range(5):
                e = np.zeros(5)
                e[k] = h
                fd = (rhs(y + e, P_REF) - rhs(y - e, P_REF)) / (2 * h)
                assert np.max(np.abs(j[:, k] - fd)) <= 1e-6

    def test_array_adapters_and_lanes_match_the_float_definitions(self):
        rng = np.random.default_rng(29)
        ys = rng.uniform(-5, 5, size=(5, 64))
        vs = rng.normal(size=(5, 64))
        lanes_f = field(ys, P_REF)
        lanes_jv = field_jvp(ys, vs, P_REF)
        for n in range(64):
            y = [float(c) for c in ys[:, n]]
            v = [float(c) for c in vs[:, n]]
            f = field(y, P_REF)
            jv = field_jvp(y, v, P_REF)
            assert all(type(c) is float for c in f + jv)
            assert [float(c[n]) for c in lanes_f] == f
            assert [float(c[n]) for c in lanes_jv] == jv
            assert rhs(ys[:, n], P_REF).tolist() == f
            j = jacobian_matrix(ys[:, n], P_REF)
            for k in range(5):
                assert j[:, k].tolist() == field_jvp(y, np.eye(5)[k].tolist(), P_REF)

    def test_jvp_matches_matrix_product(self):
        rng = np.random.default_rng(17)
        for s in random_states(50, rng):
            y = s.to_array()
            j = jacobian_matrix(y, P_REF)
            v = rng.normal(size=5)
            assert np.allclose(field_jvp(y, v, P_REF), j @ v, rtol=1e-13, atol=1e-13)
            vs = rng.normal(size=(5, 3))
            assert np.allclose(field_jvp(y, vs, P_REF), j @ vs, rtol=1e-13, atol=1e-13)


class TestInvariants:
    def test_invariant_values(self):
        assert invariant_I(SystemState(2, 0, 0, 0, 0)) == 4.0
        assert invariant_I(SystemState(1, 0, 0, 0, 0)) == 1.0
        assert invariant_I(SystemState(5, 3, 4, 0, 0)) == 0.0

    def test_effective_energy_reference_point(self):
        s = SystemState(n1=2, om=0, op=0, x=1, p=-2.54950976)
        # the reference momentum is truncated to 9 digits, hence the slack
        assert effective_energy(s, P_REF) == pytest.approx(4.8, rel=1e-8)
        assert effective_energy(SystemState(1, 0, 0, 0, 0), P_REF) == 0.0
        s2 = SystemState(1, 0, 0, 0, math.sqrt(2))
        assert effective_energy(s2, P_REF) == pytest.approx(1.0, rel=1e-15)

    def test_directional_derivative_of_I_vanishes(self):
        rng = np.random.default_rng(23)
        for s in random_states(1000, rng):
            f = rhs(s.to_array(), P_REF)
            grad = np.array([2 * s.n1, -2 * s.om, -2 * s.op, 0.0, 0.0])
            norm_sq = float(np.dot(s.to_array(), s.to_array()))
            assert abs(float(grad @ f)) <= 1e-12 * (1.0 + norm_sq)

    def test_directional_derivative_of_energy_vanishes(self):
        rng = np.random.default_rng(29)
        for s in random_states(1000, rng):
            f = rhs(s.to_array(), P_REF)
            d = P_REF.delta + P_REF.alpha * s.x
            grad = np.array([
                P_REF.eps, 0.0, d,
                P_REF.alpha * s.op + P_REF.omega * s.x,
                P_REF.omega * s.p,
            ])
            norm_sq = float(np.dot(s.to_array(), s.to_array()))
            assert abs(float(grad @ f)) <= 1e-12 * (1.0 + norm_sq)


class TestValidateState:
    def test_pass(self):
        assert validate_state(SystemState(2, 0, 0, 1, 0)).ok

    def test_low_boson_number(self):
        rep = validate_state(SystemState(0.5, 0, 0, 0, 0))
        assert not rep.ok
        assert rep.failures[0][0].startswith("n1")
        assert rep.failures[0][1] == pytest.approx(0.5)

    def test_outside_cone(self):
        rep = validate_state(SystemState(1, 2, 0, 0, 0))
        assert not rep.ok
        names = [f[0] for f in rep.failures]
        assert any("invariant_I" in n for n in names)
        margins = dict(rep.failures)
        assert margins["invariant_I >= 0"] == pytest.approx(3.0)


class TestMakeInitial:
    def test_reproduces_reference_momentum(self):
        s = make_initial(4.8, 4.0, 0.0, 0.0, 1.0, 0.0, P_REF, momentum_sign=-1)
        assert s.n1 == pytest.approx(2.0, rel=1e-15)
        assert s.p == pytest.approx(-2.54950976, abs=5e-9)
        assert invariant_I(s) == pytest.approx(4.0, rel=1e-12)
        assert effective_energy(s, P_REF) == pytest.approx(4.8, rel=1e-12)

    def test_nonzero_om0(self):
        s = make_initial(4.8, 4.0, 3.0, 0.0, 0.0, 0.0, P_REF)
        assert s.n1 == pytest.approx(math.sqrt(13), rel=1e-15)
        assert invariant_I(s) == pytest.approx(4.0, rel=1e-12)

    def test_infeasible_energy(self):
        with pytest.raises(InfeasibleConstraintError) as exc:
            make_initial(0.0, 4.0, 0.0, 0.0, 1.0, 0.0, P_REF)
        assert "p^2" in str(exc.value)

    def test_round_trip_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            i_t = rng.uniform(0.0, 9.0)
            om0 = rng.uniform(-2.0, 2.0)
            op0 = rng.uniform(-2.0, 2.0)
            if i_t + om0 ** 2 + op0 ** 2 < 1.0:
                continue
            x0 = rng.uniform(-1.0, 1.0)
            e_t = rng.uniform(5.0, 30.0)
            try:
                s = make_initial(e_t, i_t, om0, op0, x0, 0.0, P_REF,
                                 momentum_sign=1 if rng.random() < 0.5 else -1)
            except InfeasibleConstraintError:
                continue
            assert invariant_I(s) == pytest.approx(i_t, rel=1e-12, abs=1e-12)
            assert effective_energy(s, P_REF) == pytest.approx(e_t, rel=1e-12)
            assert validate_state(s).ok


class TestFamilyInitials:
    S_FIG2D = SystemState(2, 0, 0, 1, -2.54950976)     # the fig2d preset's initial state

    def test_members_lie_on_the_shell(self):
        e0 = effective_energy(self.S_FIG2D, P_REF)
        i0 = invariant_I(self.S_FIG2D)
        members = family_initials(self.S_FIG2D, P_REF, 5)
        assert len(members) == 5
        for s in members:
            assert effective_energy(s, P_REF) == pytest.approx(e0, rel=1e-12)
            assert invariant_I(s) == pytest.approx(i0, rel=1e-12)
            assert (s.op, s.x, s.dn) == (self.S_FIG2D.op, self.S_FIG2D.x, self.S_FIG2D.dn)

    def test_om0_grid_is_symmetric(self):
        om = [s.om for s in family_initials(self.S_FIG2D, P_REF, 5)]
        # np.linspace mirrors its grid up to round-off
        assert om == pytest.approx([-v for v in reversed(om)], abs=1e-14)
        assert om[2] == 0.0 and om[0] < 0.0

    @pytest.mark.parametrize("p0", [-2.54950976, 2.54950976])
    def test_momentum_sign_follows_the_state(self, p0):
        s0 = SystemState(2, 0, 0, 1, p0)
        assert all(math.copysign(1.0, s.p) == math.copysign(1.0, p0)
                   for s in family_initials(s0, P_REF, 5))

    def test_empty_band_is_infeasible(self):
        # at rest in p, n1 is already the largest the energy allows: om0^2 = 0
        with pytest.raises(InfeasibleConstraintError, match="family band"):
            family_initials(SystemState(2, 0, 0, 1, 0), P_REF, 3)
