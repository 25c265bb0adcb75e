"""Exact solutions of the decoupled (alpha = 0) system.

At alpha = 0 the quantum triple (n1, om, op) and the classical pair (x, p)
evolve independently and in closed form.  The quantum evolution has three
regimes set by eta^2 = eps^2 - delta^2: trigonometric (stable), hyperbolic
(unstable) and polynomial at the non-diagonalizable point |delta| = eps.
These closed forms are the reference oracles for the numerical integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import ModelParams

__all__ = [
    "StabilityClass",
    "QuantumRegime",
    "QuantumTriple",
    "classify",
    "evolve_linear",
    "evolve_critical",
    "evolve_classical",
]

# below this value of |2*eta*t| the trig/hyperbolic kernels are evaluated by
# series to avoid cancellation in (1 - cos 2*eta*t)/eta^2
_SERIES_THRESHOLD = 1e-4
# relative tolerance of the regime boundaries |delta| = eps and
# |delta| = sqrt(eps^2 - gamma^2); exact-boundary labels win ties
_BOUNDARY_TOL = 1e-12


class StabilityClass(Enum):
    """Regime taxonomy of the decoupled quantum subsystem."""

    STABLE_POSITIVE_DEFINITE = "stable_positive_definite"   # |delta| < sqrt(eps^2 - gamma^2)
    STABLE_SEMIDEFINITE = "stable_semidefinite"             # |delta| = sqrt(eps^2 - gamma^2)
    STABLE_NON_POSITIVE = "stable_non_positive"             # sqrt(eps^2-gamma^2) < |delta| < eps
    CRITICAL = "critical"                                   # |delta| = eps (non-diagonalizable)
    UNSTABLE = "unstable"                                   # |delta| > eps


@dataclass(frozen=True)
class QuantumRegime:
    """Classification record: label, normal-mode frequencies and eta."""

    label: StabilityClass
    lambda_plus: complex
    lambda_minus: complex
    eta: complex


@dataclass(frozen=True)
class QuantumTriple:
    """The quantum mean values (n1, om, op) at one instant."""

    n1: float
    om: float
    op: float


def classify(p: ModelParams) -> QuantumRegime:
    """Classify the decoupled quantum subsystem; a boundary holds within _BOUNDARY_TOL."""
    d = abs(p.delta)
    scale = max(p.eps, d)
    if abs(d - p.eps) <= _BOUNDARY_TOL * scale:
        eta = complex(0.0)
        label = StabilityClass.CRITICAL
    elif d > p.eps:
        eta = complex(0.0, math.sqrt((d - p.eps) * (d + p.eps)))
        label = StabilityClass.UNSTABLE
    else:
        eta = complex(math.sqrt((p.eps - d) * (p.eps + d)))
        semi = math.sqrt((p.eps - p.gamma) * (p.eps + p.gamma))
        if abs(d - semi) <= _BOUNDARY_TOL * max(d, semi, 1e-300):
            label = StabilityClass.STABLE_SEMIDEFINITE
        elif d < semi:
            label = StabilityClass.STABLE_POSITIVE_DEFINITE
        else:
            label = StabilityClass.STABLE_NON_POSITIVE
    return QuantumRegime(
        label=label,
        lambda_plus=eta + p.gamma,
        lambda_minus=eta - p.gamma,
        eta=eta,
    )


def _kernels(eta_sq: float, t: float) -> tuple[float, float, float]:
    """Return (cos 2*eta*t, sin(2*eta*t)/eta, (1 - cos 2*eta*t)/eta^2).

    Evaluated with real arithmetic only: trig for eta_sq > 0, hyperbolic for
    eta_sq < 0, and a signed series in z^2 = 4*eta_sq*t^2 near the critical
    point where the closed forms cancel catastrophically.
    """
    z_sq = 4.0 * eta_sq * t * t
    if abs(z_sq) < _SERIES_THRESHOLD * _SERIES_THRESHOLD:
        # cos z = 1 - z^2/2 + z^4/24 - ...,  valid for z^2 of either sign
        cos_z = 1.0 + z_sq * (-0.5 + z_sq * (1.0 / 24.0 - z_sq / 720.0))
        s1 = 2.0 * t * (1.0 + z_sq * (-1.0 / 6.0 + z_sq * (1.0 / 120.0 - z_sq / 5040.0)))
        c2 = 2.0 * t * t * (1.0 + z_sq * (-1.0 / 12.0 + z_sq * (1.0 / 360.0 - z_sq / 20160.0)))
        return cos_z, s1, c2
    if eta_sq > 0.0:
        eta = math.sqrt(eta_sq)
        cos_z = math.cos(2.0 * eta * t)
        s1 = math.sin(2.0 * eta * t) / eta
        c2 = (1.0 - cos_z) / eta_sq
    else:
        mu = math.sqrt(-eta_sq)
        cos_z = math.cosh(2.0 * mu * t)
        s1 = math.sinh(2.0 * mu * t) / mu
        c2 = (1.0 - cos_z) / eta_sq
    return cos_z, s1, c2


def evolve_linear(q0: QuantumTriple, eps: float, delta: float, t: float) -> QuantumTriple:
    """Closed-form quantum evolution for |delta| != eps (stable or unstable).

    Written so the invariant-preserving structure survives eta -> 0: with
    s1 = sin(2*eta*t)/eta and c2 = (1 - cos 2*eta*t)/eta^2,

        n1(t) = n1_0 + delta*(delta*n1_0 + eps*op_0)*c2 + delta*om_0*s1
        om(t) = om_0*cos(2*eta*t) + (delta*n1_0 + eps*op_0)*s1
        op(t) = op_0 - eps*(delta*n1_0 + eps*op_0)*c2 - eps*om_0*s1
    """
    if not math.isfinite(t):
        raise ValueError(f"non-finite time {t}")
    eta_sq = (eps - delta) * (eps + delta)
    cos_z, s1, c2 = _kernels(eta_sq, t)
    mix = delta * q0.n1 + eps * q0.op
    return QuantumTriple(
        n1=q0.n1 + delta * mix * c2 + delta * q0.om * s1,
        om=q0.om * cos_z + mix * s1,
        op=q0.op - eps * mix * c2 - eps * q0.om * s1,
    )


def evolve_critical(q0: QuantumTriple, eps: float, t: float) -> QuantumTriple:
    """Polynomial evolution at the non-diagonalizable point delta = eps.

    delta = -eps is handled by conjugating with the exact parity map
    (om, op) -> (-om, -op) at the call site.  n1 + op is constant in t.
    """
    if not math.isfinite(t) or not math.isfinite(eps):
        raise ValueError(f"non-finite input eps={eps}, t={t}")
    et = eps * t
    growth = q0.n1 + q0.op
    return QuantumTriple(
        n1=q0.n1 + 2.0 * q0.om * et + 2.0 * growth * et * et,
        om=q0.om + 2.0 * growth * et,
        op=q0.op - 2.0 * q0.om * et - 2.0 * growth * et * et,
    )


def evolve_classical(x0: float, p0: float, omega: float, t: float) -> tuple[float, float]:
    """Exact decoupled field evolution: harmonic rotation at frequency omega."""
    if not all(math.isfinite(v) for v in (x0, p0, omega, t)):
        raise ValueError("non-finite input to evolve_classical")
    c, s = math.cos(omega * t), math.sin(omega * t)
    return x0 * c + p0 * s, p0 * c - x0 * s
