"""Semiquantum boson-field dynamics laboratory.

A classical harmonic field mode coupled to a two-boson quantum subsystem:
closed mean-value equations of motion, exact linear-regime oracles, adaptive
integration, Poincare sections, Lyapunov exponents and parameter-regime maps.
"""

from .analysis import (
    LyapunovEstimate,
    Regime,
    RegimeClassification,
    classify_regime,
    largest_lyapunov,
    poincare,
)
from .errors import (
    ConfigurationError,
    DivergentTrajectoryError,
    InfeasibleConstraintError,
    NumericalFailureError,
)
from .integrator import (
    CrossingEvent,
    GrowthLog,
    IntegrationStatus,
    IntegratorSettings,
    Trajectory,
    integrate,
    integrate_augmented,
    integrate_with_events,
)
from .linear_oracle import (
    QuantumRegime,
    QuantumTriple,
    StabilityClass,
    classify,
    evolve_classical,
    evolve_critical,
    evolve_linear,
)
from .model import (
    Derivative,
    ModelParams,
    SystemState,
    ValidityReport,
    effective_energy,
    invariant_I,
    jacobian,
    make_initial,
    validate_state,
    vector_field,
)
from .sweep import AxisSpec, InitialRecipe, RegimeMap, SweepSpec, run_sweep

__version__ = "0.1.0"
