"""Structure-preserving integrators for Q' = S*Q with skew-symmetric S.

The exact flow of this linear matrix ODE conserves the energy
trace(Q^T Q), the Gram matrix Q^T Q, and det(Q).  Runge-Kutta tableaus
satisfying the symplectic condition reproduce the Gram invariant exactly
in exact arithmetic; non-symplectic ones do not, and their energy drifts.
This package provides the integrators, the conservation meters that
measure such drift, a Butcher-tableau toolkit with a symplecticity
checker, and a gyro-log front end for strapdown attitude propagation.
"""

from .diagnostics import (
    IndeterminateOrderError,
    StepRecord,
    Trajectory,
    convergence_order,
    det_drift,
    energy,
    orthogonality_defect,
    pseudo_symplectic_defect,
    rk2_energy_forecast,
)
from .gyro import (
    GyroLog,
    GyroLogError,
    GyroSample,
    parse_gyro_csv,
    propagate_gyro,
    reference_gyro,
)
from .integrators import (
    CLOSED_FORM_METHODS,
    ConvergenceError,
    IntegratorConfig,
    NonFiniteStateError,
    StageSolveError,
    TransferMatrix,
    adjoint_defect,
    cayley_step,
    propagate,
    rk2_closed_step,
    rk_step,
    transfer_matrix,
)
from .linalg import (
    OrthogonalState,
    SingularMatrixError,
    SkewMatrix,
    SkewnessError,
    apply_velocity,
    assert_skew,
    checked_solve,
    expm,
    hat,
    vee,
)
from .tableaus import (
    BUILTIN_NAMES,
    ButcherTableau,
    SymplecticityReport,
    TableauError,
    TableauParseError,
    builtin,
    parse_tableau,
    serialize_tableau,
    symplecticity,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "ButcherTableau",
    "CLOSED_FORM_METHODS",
    "ConvergenceError",
    "GyroLog",
    "GyroLogError",
    "GyroSample",
    "IndeterminateOrderError",
    "IntegratorConfig",
    "NonFiniteStateError",
    "OrthogonalState",
    "SingularMatrixError",
    "SkewMatrix",
    "SkewnessError",
    "StageSolveError",
    "StepRecord",
    "SymplecticityReport",
    "TableauError",
    "TableauParseError",
    "Trajectory",
    "TransferMatrix",
    "adjoint_defect",
    "apply_velocity",
    "assert_skew",
    "builtin",
    "cayley_step",
    "checked_solve",
    "convergence_order",
    "det_drift",
    "energy",
    "expm",
    "hat",
    "orthogonality_defect",
    "parse_gyro_csv",
    "parse_tableau",
    "propagate",
    "propagate_gyro",
    "pseudo_symplectic_defect",
    "reference_gyro",
    "rk2_closed_step",
    "rk2_energy_forecast",
    "rk_step",
    "serialize_tableau",
    "symplecticity",
    "transfer_matrix",
    "vee",
]
