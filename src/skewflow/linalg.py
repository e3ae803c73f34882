"""Dense matrix kernels for the linear flow Q' = S*Q with skew-symmetric S.

Everything here is small and dense (attitude-sized matrices, at most a few
dozen rows after stage stacking).  Linear systems go to LAPACK behind a
reciprocal-condition guard, and the exact flow is computed to near machine
precision. All returned arrays are freshly allocated; inputs are never
mutated.
"""

from dataclasses import dataclass

import numpy as np

SKEW_TOL = 1e-12
ROT3_SERIES_CUTOFF = 1e-4
RCOND_MIN = 1e-14


class SkewnessError(ValueError):
    """A matrix required to be skew-symmetric failed the gate.

    Carries the measured defect norm so callers can report how far off the
    input was.
    """

    def __init__(self, defect, tol):
        self.defect = float(defect)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not skew-symmetric: ||A + A^T||_inf = {self.defect:.3e} "
            f"exceeds tolerance {self.tol:.3e}"
        )


class SingularMatrixError(ValueError):
    """A linear solve met a matrix too ill-conditioned to trust."""

    def __init__(self, rcond, threshold):
        self.rcond = float(rcond)
        self.threshold = float(threshold)
        super().__init__(
            f"matrix is numerically singular: reciprocal condition number "
            f"{self.rcond:.3e} below threshold {self.threshold:.3e}"
        )


def as_square_matrix(a, name="matrix"):
    """Coerce to a finite, square, float64 array (always a fresh copy)."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def _norm_inf(m):
    return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0


class SkewMatrix:
    """Validated skew-symmetric coefficient matrix.

    Construction checks ``||A + A^T||_inf <= tol * max(1, ||A||_inf)`` (which
    also bounds the diagonal entries).  The check runs once, here; downstream
    integrators rely on it instead of re-validating per step, because a
    non-skew coefficient silently destroys every conservation law they are
    supposed to exhibit.  The default tolerance is strict; ``tol`` may be
    loosened deliberately, e.g. to demonstrate that very failure mode.

    The wrapped array is read-only; instances are safe to share.
    """

    __slots__ = ("mat",)

    def __init__(self, mat, tol=SKEW_TOL):
        if tol <= 0:
            raise ValueError("tol must be positive")
        m = as_square_matrix(mat, "skew matrix")
        scale = max(1.0, _norm_inf(m))
        defect = _norm_inf(m + m.T)
        if defect > tol * scale:
            raise SkewnessError(defect, tol * scale)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("SkewMatrix is immutable")

    @property
    def dim(self):
        return self.mat.shape[0]

    def __repr__(self):
        return f"SkewMatrix(dim={self.dim})"


@dataclass(frozen=True)
class OrthogonalState:
    """Solution matrix Q at time t (seconds).

    Orthogonality is deliberately *not* enforced: it is a measured quantity
    (see :mod:`skewflow.diagnostics`), and arbitrary starting matrices are a
    supported use case.  Only finiteness and squareness are checked.
    """

    q: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        m = as_square_matrix(self.q, "state matrix")
        m.setflags(write=False)
        object.__setattr__(self, "q", m)
        t = float(self.t)
        if not np.isfinite(t):
            raise ValueError("time must be finite")
        object.__setattr__(self, "t", t)

    @property
    def dim(self):
        return self.q.shape[0]


def hat(omega):
    """Map an angular-rate 3-vector (rad/s) to its skew matrix.

    Parameters
    ----------
    omega : array_like, shape (3,)
        Angular rate ``(w1, w2, w3)``.

    Returns
    -------
    SkewMatrix
        ``[[0, -w3, w2], [w3, 0, -w1], [-w2, w1, 0]]``, i.e. the matrix W
        with ``W @ x == cross(omega, x)``.
    """
    w = np.asarray(omega, dtype=float).reshape(-1)
    if w.shape != (3,):
        raise ValueError(f"angular rate must be a 3-vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("angular rate has non-finite components")
    m = np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )
    return SkewMatrix(m)


def vee(s):
    """Inverse of :func:`hat`: extract the rate vector from a 3x3 skew matrix."""
    if s.dim != 3:
        raise ValueError(f"vee is defined for dimension 3 only, got {s.dim}")
    m = s.mat
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def apply_velocity(omega, x):
    """Velocity of point ``x`` under angular rate ``omega``: hat(omega) @ x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (3,):
        raise ValueError(f"point must be a 3-vector, got shape {x.shape}")
    return hat(omega).mat @ x


def expm(s, t=1.0):
    """Exponential ``exp(t*S)`` of a skew-symmetric matrix: the exact flow.

    This is the reference oracle the integrators are measured against, so it
    is computed to near machine precision:

    * dimension 3: the closed-form rotation expansion
      ``I + (sin th / th) * X + ((1 - cos th) / th^2) * X @ X`` with
      ``X = t*S`` and ``th`` the rotation angle, switching to truncated
      series for the two scalar coefficients when ``th`` is small enough
      for the trigonometric forms to cancel;
    * any other dimension: the spectral route through the Hermitian matrix
      ``i*S`` — unitary diagonalization and a unit-modulus phase per
      eigenvalue.  Unlike scaling-and-squaring, whose repeated products
      amplify the orthogonality defect in proportion to ``||t*S||``, this
      keeps the defect at a dimension-sized multiple of machine epsilon
      for arbitrarily large arguments.

    The result is orthogonal and has unit determinant up to rounding.
    """
    x = float(t) * s.mat
    if s.dim == 3:
        return _expm_rot3(x)
    return _expm_spectral(x)


def _expm_rot3(x):
    # x is 3x3 skew; its rotation angle is the norm of the axis vector
    r = np.array([x[2, 1], x[0, 2], x[1, 0]])
    th2 = float(r @ r)
    th = np.sqrt(th2)
    if th >= ROT3_SERIES_CUTOFF:
        k1 = np.sin(th) / th
        k2 = (1.0 - np.cos(th)) / th2
    else:
        th4 = th2 * th2
        k1 = 1.0 - th2 / 6.0 + th4 / 120.0
        k2 = 0.5 - th2 / 24.0 + th4 / 720.0
    return np.eye(3) + k1 * x + k2 * (x @ x)


def _expm_spectral(x):
    # i*x is Hermitian, so its eigendecomposition is unitary and exp(x)
    # = U diag(exp(-i*lam)) U^H stays exactly orthogonal up to rounding
    lam, u = np.linalg.eigh(1j * x)
    phases = np.exp(-1j * lam)
    return ((u * phases) @ u.conj().T).real


def checked_solve(a, b):
    """Solve ``a @ x = b`` with one LAPACK factorization, refusing singular ``a``.

    ``b`` may be a vector or a matrix of right-hand-side columns.  The
    identity rides along as extra right-hand columns, so the same
    factorization also yields ``a^-1`` and with it the reciprocal condition
    number ``1 / (||a||_1 ||a^-1||_1)``.  Raises :class:`SingularMatrixError`
    when that falls below ``RCOND_MIN`` or LAPACK meets an exact zero pivot.
    """
    a = as_square_matrix(a, "coefficient matrix")
    x = np.asarray(b, dtype=float)
    vector = x.ndim == 1
    if vector:
        x = x.reshape(-1, 1)
    n = a.shape[0]
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(
            f"right-hand side shape {np.shape(b)} does not conform to "
            f"matrix of dimension {n}"
        )
    k = x.shape[1]
    try:
        sol = np.linalg.solve(a, np.hstack([x, np.eye(n)]))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(0.0, RCOND_MIN) from None
    rcond = 1.0 / (np.abs(a).sum(axis=0).max() * np.abs(sol[:, k:]).sum(axis=0).max())
    if not rcond >= RCOND_MIN:
        raise SingularMatrixError(rcond, RCOND_MIN)
    return sol[:, 0] if vector else sol[:, :k]
