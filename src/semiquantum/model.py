"""Physical model: parameters, state, vector field, invariants.

The dynamical system couples a classical harmonic field mode (X, P) to the
mean values of a two-boson quantum subsystem.  The closed set of variables is
(n1, om, op, x, p) with n1 = <N+1>, om = <O_->, op = <O_+>, plus the constant
population difference dn = <dN>.  Two quantities are conserved for every
coupling strength: the hyperboloid invariant I = n1^2 - om^2 - op^2 and the
effective energy E_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleConstraintError

__all__ = [
    "ModelParams",
    "SystemState",
    "Derivative",
    "ValidityReport",
    "vector_field",
    "jacobian",
    "invariant_I",
    "effective_energy",
    "validate_state",
    "make_initial",
    "family_initials",
    "parity_map_params",
    "parity_map_state",
    "field",
    "field_jvp",
    "rhs",
    "jacobian_matrix",
]


@dataclass(frozen=True)
class ModelParams:
    """The five physical constants of one system instance.

    eps   : mean single-boson energy (> 0)
    gamma : half the level splitting (|gamma| < eps); does not enter the
            closed equations of motion, only the normal-mode taxonomy
    delta : quantum pairing coupling
    alpha : matter-field coupling (alpha = 0 decouples the subsystems)
    omega : classical oscillator frequency (> 0)
    """

    eps: float
    gamma: float
    delta: float
    alpha: float
    omega: float

    def __post_init__(self):
        vals = (self.eps, self.gamma, self.delta, self.alpha, self.omega)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite model parameter in {vals}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if abs(self.gamma) >= self.eps:
            raise ValueError(f"|gamma| must be < eps, got gamma={self.gamma}, eps={self.eps}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    def replace(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SystemState:
    """One point of the 5-dimensional flow plus the conserved dn.

    n1 = <N+1> (so the physical boson number is n1 - 1), om = <O_->,
    op = <O_+>, (x, p) the classical field quadratures.  dn is carried as a
    constant label, never integrated.
    """

    n1: float
    om: float
    op: float
    x: float
    p: float
    dn: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple() + (self.dn,)):
            raise ValueError(f"non-finite state component in {self}")

    def as_tuple(self):
        return (self.n1, self.om, self.op, self.x, self.p)

    def to_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    @classmethod
    def from_array(cls, y, dn: float = 0.0) -> "SystemState":
        n1, om, op, x, p = (float(v) for v in y)
        return cls(n1=n1, om=om, op=op, x=x, p=p, dn=dn)


@dataclass(frozen=True)
class Derivative:
    """Time derivatives of the five dynamical components (dn is identically 0)."""

    dn1: float
    dom: float
    dop: float
    dx: float
    dp: float

    def to_array(self) -> np.ndarray:
        return np.array([self.dn1, self.dom, self.dop, self.dx, self.dp])


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the physical-admissibility check.

    failures lists (constraint name, margin) pairs; margin is how far the
    constraint is violated (positive on failure).
    """

    ok: bool
    failures: tuple = ()


def field(y, p: ModelParams) -> list:
    """The one vector field: y's components (n1, om, op, x, p) are floats or
    equal-shape arrays (lanes), and so are the five derivatives returned.  No
    finiteness checks: the integrator may probe unphysical trial points.
    """
    n1, om, op, x, px = y
    d = p.delta + p.alpha * x
    return [
        2.0 * d * om,
        2.0 * d * n1 + 2.0 * p.eps * op,
        -2.0 * p.eps * om,
        p.omega * px,
        -(p.omega * x + p.alpha * op),
    ]


def field_jvp(y, v, p: ModelParams) -> list:
    """The one Jacobian definition: J(y) v for :func:`field`, with v of the same kind as y."""
    n1, om, op, x, px = y
    v0, v1, v2, v3, v4 = v
    d = p.delta + p.alpha * x
    return [
        2.0 * d * v1 + 2.0 * p.alpha * om * v3,
        2.0 * d * v0 + 2.0 * p.eps * v2 + 2.0 * p.alpha * n1 * v3,
        -2.0 * p.eps * v1,
        p.omega * v4,
        -p.alpha * v2 - p.omega * v3,
    ]


def rhs(y: np.ndarray, p: ModelParams) -> np.ndarray:
    """:func:`field` as an array, component order (n1, om, op, x, p) on the first axis."""
    return np.array(field(y, p))


def jacobian_matrix(y: np.ndarray, p: ModelParams) -> np.ndarray:
    """5x5 Jacobian of :func:`field`, row order (n1, om, op, x, p); column k is
    :func:`field_jvp` on the unit vector e_k, exact because the other terms add only zeros."""
    return np.array([field_jvp(y, e, p) for e in np.eye(5)]).T


def vector_field(s: SystemState, p: ModelParams) -> Derivative:
    """Time derivative of a state under the coupled equations of motion."""
    d = rhs(s.to_array(), p)
    if not np.all(np.isfinite(d)):
        raise ValueError(f"non-finite derivative for state {s}")
    return Derivative(*(float(v) for v in d))


def jacobian(s: SystemState, p: ModelParams) -> np.ndarray:
    """Analytic Jacobian at a state; constant in the state when alpha = 0."""
    j = jacobian_matrix(s.to_array(), p)
    if not np.all(np.isfinite(j)):
        raise ValueError(f"non-finite jacobian for state {s}")
    return j


def invariant_I(s: SystemState) -> float:
    """Hyperboloid invariant n1^2 - om^2 - op^2, conserved for all alpha."""
    return s.n1 * s.n1 - s.om * s.om - s.op * s.op


def effective_energy(s: SystemState, p: ModelParams) -> float:
    """Conserved effective energy eps*(n1-1) + (delta+alpha*x)*op + (omega/2)(p^2+x^2)."""
    return (
        p.eps * (s.n1 - 1.0)
        + (p.delta + p.alpha * s.x) * s.op
        + 0.5 * p.omega * (s.p * s.p + s.x * s.x)
    )


def validate_state(s: SystemState) -> ValidityReport:
    """Check physical admissibility: n1 >= 1 and I >= 0.

    A failing report is a normal return, never an exception.
    """
    failures = []
    if s.n1 < 1.0:
        failures.append(("n1 >= 1", 1.0 - s.n1))
    i_val = invariant_I(s)
    if i_val < 0.0:
        failures.append(("invariant_I >= 0", -i_val))
    return ValidityReport(ok=not failures, failures=tuple(failures))


def make_initial(
    e_target: float,
    i_target: float,
    om0: float,
    op0: float,
    x0: float,
    dn0: float,
    p: ModelParams,
    momentum_sign: int = -1,
) -> SystemState:
    """Build a state on the (E_eff, I) shell with given (om0, op0, x0).

    Solves n1 from the invariant first, then the field momentum from the
    energy, so families of initial conditions at fixed invariants can be
    generated by scanning om0 (or op0, x0).
    """
    if momentum_sign not in (-1, 1):
        raise ValueError(f"momentum_sign must be +1 or -1, got {momentum_sign}")
    n1_sq = i_target + om0 * om0 + op0 * op0
    if not 0.0 <= n1_sq < math.inf:
        raise InfeasibleConstraintError("0 <= n1^2 = I + om0^2 + op0^2 < inf", n1_sq)
    n1 = math.sqrt(n1_sq)
    if n1 < 1.0:
        raise InfeasibleConstraintError("n1 >= 1", n1 - 1.0)
    p_sq = (
        2.0 / p.omega * (e_target - p.eps * (n1 - 1.0) - (p.delta + p.alpha * x0) * op0)
        - x0 * x0
    )
    if not 0.0 <= p_sq < math.inf:
        raise InfeasibleConstraintError("0 <= p^2 = (2/omega)*(E - eps*(n1-1) - (delta+alpha*x0)*op0) - x0^2 < inf", p_sq)
    return SystemState(n1=n1, om=om0, op=op0, x=x0, p=momentum_sign * math.sqrt(p_sq), dn=dn0)


def family_initials(s0: SystemState, p: ModelParams, n: int) -> list:
    """An n-member family at the (E_eff, I) of the given state.

    om0 is scanned on a symmetric grid inside the feasible band at fixed
    (op0, x0); each member's momentum is re-solved from the energy shell,
    with the sign of s0's momentum.
    """
    e_eff = effective_energy(s0, p)
    i_inv = invariant_I(s0)
    op0, x0 = s0.op, s0.x
    # feasibility: p^2 >= 0 bounds n1, and n1^2 = I + om0^2 + op0^2
    n1_max = 1.0 + (e_eff - (p.delta + p.alpha * x0) * op0 - 0.5 * p.omega * x0 * x0) / p.eps
    om_sq = n1_max * n1_max - i_inv - op0 * op0
    if om_sq <= 0.0:
        raise InfeasibleConstraintError("family band om0^2 > 0", om_sq)
    om_lim = 0.98 * math.sqrt(om_sq)
    sign = -1 if s0.p <= 0 else 1
    members = []
    for om0 in np.linspace(-om_lim, om_lim, n):
        members.append(make_initial(e_eff, i_inv, float(om0), op0, x0, s0.dn, p, momentum_sign=sign))
    return members


def parity_map_params(p: ModelParams) -> ModelParams:
    """The exact symmetry (delta, alpha) -> (-delta, -alpha) of the flow."""
    return p.replace(delta=-p.delta, alpha=-p.alpha)


def parity_map_state(s: SystemState) -> SystemState:
    """State half of the parity symmetry: (om, op) -> (-om, -op)."""
    return SystemState(n1=s.n1, om=-s.om, op=-s.op, x=s.x, p=s.p, dn=s.dn)
