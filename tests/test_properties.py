"""Properties of the flow that hold for every system, checked on drawn examples.

The two invariants I and E_eff are conserved; the parity map and the time
reversal R: (n1, om, op, x, p) -> (n1, -om, op, x, -p) are symmetries of the
flow; the tangent vector of the augmented flow is the derivative of the flow
along it; and the two steppers, Taylor (integrate) and DOP5, give the same
flow.  hypothesis draws the systems, derandomized, so every run tries
the same examples.  Each bound is the worst value measured over 600 examples
drawn without derandomizing (two seeds of 300, at the same tolerance and run
length), times a margin; both are stated next to it.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import dopri5_reference as reference  # noqa: E402
from semiquantum import integrator  # noqa: E402
from semiquantum.integrator import IntegrationStatus, IntegratorSettings, integrate  # noqa: E402
from semiquantum.model import (  # noqa: E402
    ModelParams,
    SystemState,
    effective_energy,
    field,
    field_jvp,
    invariant_I,
    parity_map_params,
    parity_map_state,
)

TOL = IntegratorSettings(abs_tol=1e-12, rel_tol=1e-12)
T = 3.0
EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=25)
FIG2D = ModelParams(eps=1.05, gamma=0.0, delta=1.0, alpha=0.015, omega=1.0)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def systems(draw):
    """(params, initial state): delta within 1.2 eps of zero, so both sides of
    the critical case |delta| = eps, and couplings up to 0.2; some of these
    orbits grow without bound."""
    eps = draw(_floats(0.5, 2.0))
    p = ModelParams(eps=eps, gamma=0.0, delta=eps * draw(_floats(-1.2, 1.2)),
                    alpha=draw(_floats(-0.2, 0.2)), omega=draw(_floats(0.5, 2.0)))
    s = SystemState(draw(_floats(1.0, 3.0)), draw(_floats(-1.0, 1.0)), draw(_floats(-1.0, 1.0)),
                    draw(_floats(-2.0, 2.0)), draw(_floats(-2.0, 2.0)))
    return p, s


def reverse(s: SystemState) -> SystemState:
    return SystemState(s.n1, -s.om, s.op, s.x, -s.p)


def states(traj):
    return [SystemState.from_array(y) for y in traj.states]


def invariant_drifts(p, s) -> tuple:
    """The largest change of I and of E_eff over the samples of a run, each
    relative to the largest size its terms reach on the run."""
    run = states(integrate(s, p, T, TOL, sample_interval=0.25))
    i_vals = [invariant_I(y) for y in run]
    e_vals = [effective_energy(y, p) for y in run]
    i_size = max(y.n1 * y.n1 + y.om * y.om + y.op * y.op for y in run)
    e_size = max(p.eps * abs(y.n1) + abs((p.delta + p.alpha * y.x) * y.op)
                 + 0.5 * p.omega * (y.p * y.p + y.x * y.x) for y in run)
    return (max(abs(i - i_vals[0]) for i in i_vals) / i_size,
            max(abs(e - e_vals[0]) for e in e_vals) / e_size)


def bounded(p, s) -> bool:
    """Whether the orbit stays within 100 of the origin up to T: past that, the
    growth of the unstable cases amplifies the integration error itself."""
    traj = integrate(s, p, T, TOL, sample_interval=T)
    return traj.status is IntegrationStatus.COMPLETED and max(max(map(abs, y)) for y in traj.states) <= 100.0


def reversal_error(p, s, t_end=T) -> float:
    """|R(phi_T(R(phi_T(s)))) - s|, the max over components, relative to the
    largest component of s."""
    there = SystemState.from_array(integrate(s, p, t_end, TOL, sample_interval=t_end).states[-1])
    back = SystemState.from_array(integrate(reverse(there), p, t_end, TOL, sample_interval=t_end).states[-1])
    return max(abs(a - b) for a, b in zip(reverse(back).as_tuple(), s.as_tuple())) / max(map(abs, s.as_tuple()))


def stepper_deviation(p, s) -> float:
    """The largest difference between integrate's samples every 0.25 up to T (the
    Taylor stepper) and the DOP5 loop's states at the same times (marks it lands
    on), both at TOL, relative to the largest component the run reaches."""
    taylor = integrate(s, p, T, TOL, sample_interval=0.25)
    dopri5 = [s.as_tuple()]
    stepper = reference.Dopri5(integrator._base_flow, p, s.as_tuple(), TOL)
    integrator._drive(stepper, [0.25 * k for k in range(1, 13)], on_mark=lambda st: dopri5.append(st.y))
    assert len(dopri5) == len(taylor) == 13
    size = max(max(map(abs, y)) for y in taylor.states)
    return max(abs(a - b) for y, z in zip(taylor.states, dopri5) for a, b in zip(y, z)) / size


def tangent_errors(p, s, v0) -> tuple:
    """The augmented flow from (s, v0) to T against central differences: of the
    flow, (phi_T(s + d v0) - phi_T(s - d v0)) / 2d with d = 1e-4, relative to
    |v(T)|; and of the field at the state and tangent reached, with a step of
    1e-3 / |v(T)|, relative to |field_jvp|."""
    stepper = reference.Dopri5(integrator._augmented_flow, p, [*s.as_tuple(), *v0], TOL, err_dim=5)
    integrator._drive(stepper, [T])
    y, v = stepper.y[:5], stepper.y[5:]
    v_norm = math.sqrt(sum(c * c for c in v))
    d = 1e-4
    ends = [integrate(SystemState(*[a + sign * d * b for a, b in zip(s.as_tuple(), v0)]), p, T, TOL,
                      sample_interval=T).states[-1] for sign in (1.0, -1.0)]
    flow_error = max(abs((a - b) / (2 * d) - c) for a, b, c in zip(*ends, v)) / v_norm
    h = 1e-3 / v_norm
    plus, minus = (field([a + sign * h * b for a, b in zip(y, v)], p) for sign in (1.0, -1.0))
    jvp = field_jvp(y, v, p)
    jvp_norm = math.sqrt(sum(c * c for c in jvp))
    field_error = max(abs((a - b) / (2 * h) - c) for a, b, c in zip(plus, minus, jvp)) / jvp_norm
    return flow_error, field_error


@EXAMPLES
@given(systems())
def test_invariants_are_conserved(system):
    # measured worst: 2.1e-12 for I and 1.3e-12 for E_eff; a margin of about 5
    i_drift, e_drift = invariant_drifts(*system)
    assert i_drift <= 1e-11 and e_drift <= 1e-11


@EXAMPLES
@given(systems())
def test_parity_map_is_exact(system):
    # (om, op, delta, alpha) -> -(om, op, delta, alpha) only negates products and
    # sums, and the error norm reads absolute values: every step, sample and
    # status is the image of the original run's, bit for bit (measured: always)
    p, s = system
    a = integrate(s, p, T, TOL, sample_interval=0.25)
    b = integrate(parity_map_state(s), parity_map_params(p), T, TOL, sample_interval=0.25)
    assert list(b.times) == list(a.times)
    assert [parity_map_state(y).as_tuple() for y in states(a)] == list(b.states)
    assert (b.status, b.t_div, b.stats) == (a.status, a.t_div, a.stats)


@EXAMPLES
@given(systems())
@example((FIG2D, SystemState(2.0, 0.3, 0.1, 1.0, -2.5)))
def test_time_reversal_returns_to_the_start(system):
    # measured worst on orbits that stay within 100: 1.1e-11; a margin of about 5
    assume(bounded(*system))
    assert reversal_error(*system) <= 5e-11


def test_time_reversal_on_the_fig2d_orbit():
    # T = 7 from (2, 0.3, 0.1, 1, -2.5): measured 2.3e-12 relative to |p0| = 2.5,
    # 5.8e-12 absolute; a margin of about 4
    assert reversal_error(FIG2D, SystemState(2.0, 0.3, 0.1, 1.0, -2.5), t_end=7.0) <= 1e-11


@EXAMPLES
@given(systems())
def test_the_steppers_agree(system):
    # measured worst on orbits that stay within 100: 1.7e-12; a margin of about 6
    assume(bounded(*system))
    assert stepper_deviation(*system) <= 1e-11


@EXAMPLES
@given(systems(), st.lists(_floats(-1.0, 1.0), min_size=5, max_size=5).filter(lambda v: max(map(abs, v)) > 0.1))
def test_tangent_flow_is_the_derivative_of_the_flow(system, v0):
    # measured worst on orbits that stay within 100: 1.0e-8 along the flow (the
    # step sequences of the three runs differ) and 4.2e-11 for the field, which is
    # quadratic, so its central difference is exact but for rounding; margins of 5
    assume(bounded(*system))
    flow_error, field_error = tangent_errors(*system, v0)
    assert flow_error <= 5e-8 and field_error <= 2e-10
