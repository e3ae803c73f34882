"""Structure-preserving integrators for Q' = S*Q with skew-symmetric S.

The exact flow of this linear matrix ODE conserves the energy
trace(Q^T Q), the Gram matrix Q^T Q, and det(Q).  Runge-Kutta tableaus
satisfying the symplectic condition reproduce the Gram invariant exactly
in exact arithmetic; explicit ones cannot, and their energy drifts.
This package provides the integrators, the conservation meters that
measure such drift, a Butcher-tableau toolkit with a symplecticity
checker, and a gyro-log front end for strapdown attitude propagation.
"""

from .diagnostics import (
    Trajectory,
    energy,
    orthogonality_defect,
    rk2_energy_forecast,
)
from .gyro import (
    GyroLog,
    GyroLogError,
    parse_gyro_csv,
    propagate_gyro,
    reference_gyro,
)
from .integrators import (
    CLOSED_FORM_METHODS,
    IntegratorConfig,
    NonFiniteStateError,
    StageSolveError,
    adjoint_defect,
    propagate,
    transfer_matrix,
)
from .linalg import (
    InputError,
    OrthogonalState,
    SingularMatrixError,
    SkewMatrix,
    SkewnessError,
    expm,
    hat,
)
from .tableaus import (
    BUILTIN_NAMES,
    ButcherTableau,
    SymplecticityReport,
    TableauError,
    TableauParseError,
    builtin,
    parse_tableau,
    symplecticity,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "ButcherTableau",
    "CLOSED_FORM_METHODS",
    "GyroLog",
    "GyroLogError",
    "InputError",
    "IntegratorConfig",
    "NonFiniteStateError",
    "OrthogonalState",
    "SingularMatrixError",
    "SkewMatrix",
    "SkewnessError",
    "StageSolveError",
    "SymplecticityReport",
    "TableauError",
    "TableauParseError",
    "Trajectory",
    "adjoint_defect",
    "builtin",
    "energy",
    "expm",
    "hat",
    "orthogonality_defect",
    "parse_gyro_csv",
    "parse_tableau",
    "propagate",
    "propagate_gyro",
    "reference_gyro",
    "rk2_energy_forecast",
    "symplecticity",
    "transfer_matrix",
]
