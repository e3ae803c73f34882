"""Dense matrix kernels for the linear flow Q' = S*Q with skew-symmetric S.

Everything here is small and dense (attitude-sized matrices, at most a few
dozen rows after stage stacking).  Linear systems go to LAPACK behind a
reciprocal-condition guard, and the exact flow is computed to near machine
precision; power series of small skew matrices come in closed form.  All
returned arrays are freshly allocated; inputs are never mutated.
"""

from dataclasses import dataclass

import numpy as np

SKEW_TOL = 1e-12
ROT3_SERIES_CUTOFF = 1e-4
RCOND_MIN = 1e-14
# entries in one stacked temporary (32 KB of float64)
STACK_ENTRIES = 4096


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
    return SkewMatrix(hat_stack(w))


def hat_stack(omegas):
    """Skew matrices of an ``(..., 3)`` array of rates, as an ``(..., 3, 3)`` array.

    The unvalidated kernel behind :func:`hat`, for callers that have
    already checked a whole array of rates (a gyro log, say).
    """
    w = np.asarray(omegas, dtype=float)
    m = np.zeros(w.shape[:-1] + (3, 3))
    m[..., 0, 1], m[..., 0, 2] = -w[..., 2], w[..., 1]
    m[..., 1, 0], m[..., 1, 2] = w[..., 2], -w[..., 0]
    m[..., 2, 0], m[..., 2, 1] = -w[..., 1], w[..., 0]
    return m


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

    The reference oracle the integrators are measured against, computed to
    near machine precision and orthogonal with unit determinant up to
    rounding.  Dimension 3 takes Rodrigues' formula (:func:`rodrigues` with
    R = exp), with truncated series for its two coefficients where the
    trigonometric forms would cancel.  Any other dimension diagonalizes the
    Hermitian ``i*t*S`` and applies a unit-modulus phase per eigenvalue;
    unlike scaling-and-squaring, whose products amplify the orthogonality
    defect with ``||t*S||``, this keeps it at a dimension-sized multiple of
    machine epsilon for arbitrarily large arguments.
    """
    x = float(t) * s.mat
    if s.dim == 3:
        return rodrigues(x, _exp_coefficients)
    return _expm_spectral(x)


def rodrigues(x, coefficients):
    """A power series R(x) of a skew x of dimension <= 3, or of each of a stack.

    ``x^3 = -th^2 x``, with ``th^2`` the sum of squares above the diagonal,
    so R(x) is Rodrigues' formula ``I + k1 x + k2 x^2`` with R in place of
    exp: ``(k1, k2) = coefficients(th^2)`` are ``Im R(i th) / th`` and
    ``(1 - Re R(i th)) / th^2``.  ``th^2`` is summed entry by entry, so each
    matrix of a stack rounds as it does alone.
    """
    d = x.shape[-1]
    th2 = sum((x[..., i, j] ** 2 for i in range(d) for j in range(i + 1, d)),
              np.zeros(x.shape[:-2]))
    k1, k2 = coefficients(th2)
    return np.eye(d) + k1[..., None, None] * x + k2[..., None, None] * (x @ x)


def _exp_coefficients(th2):
    th = np.sqrt(th2)
    series = th < ROT3_SERIES_CUTOFF
    # the trigonometric forms cancel for small th and see 1 where the
    # series applies, so th = 0 divides nothing by zero
    th_safe, th2_safe = np.where(series, 1.0, th), np.where(series, 1.0, th2)
    th4 = th2 * th2
    k1 = np.where(series, 1.0 - th2 / 6.0 + th4 / 120.0, np.sin(th_safe) / th_safe)
    k2 = np.where(series, 0.5 - th2 / 24.0 + th4 / 720.0, (1.0 - np.cos(th_safe)) / th2_safe)
    return k1, k2


def _expm_spectral(x):
    # i*x is Hermitian, so its eigendecomposition is unitary and exp(x)
    # = U diag(exp(-i*lam)) U^H stays exactly orthogonal up to rounding
    lam, u = np.linalg.eigh(1j * x)
    phases = np.exp(-1j * lam)
    return ((u * phases) @ u.conj().T).real


def stack_rows(d):
    """How many d x d matrices fit a stacked temporary of ``STACK_ENTRIES``."""
    return max(1, STACK_ENTRIES // (d * d))


def power(a, k):
    """``a^k`` by binary powering, for a matrix or a ``(n, d, d)`` stack.

    ``k`` is a nonnegative integer or an array of them that broadcasts
    against the stack.  ``a^(2^b)`` is squared up once per bit, and each set
    bit multiplies it onto the product from the left, so the lowest bit is
    innermost; ``k = 0`` gives the identity.  Every matrix of a stack comes
    out equal bit for bit to its own call.  Squaring stops at the highest
    set bit, so the squares of a growing ``a`` overflow no sooner than
    ``a^k`` itself.
    """
    a = np.asarray(a, dtype=float)
    k = np.asarray(k, dtype=np.int64)
    if np.any(k < 0):
        raise ValueError("exponent must be nonnegative")
    d = a.shape[-1]
    out = np.broadcast_to(np.eye(d), np.broadcast_shapes(a.shape[:-2], k.shape) + (d, d))
    square = a
    while True:
        out = np.where((k & 1).astype(bool)[..., None, None], square @ out, out)
        k = k >> 1
        if not k.any():
            return out
        square = square @ square


def scan(maps):
    """Inclusive prefix products ``p[j] = maps[j] @ ... @ maps[0]`` of a stack.

    Log-depth doubling: after the pass with shift s each ``p[j]`` holds the
    product of up to 2s consecutive maps ending at j, so ``ceil(log2 n)``
    stacked products cover a stack of n.  ``p[0]`` is ``maps[0]`` unchanged.
    """
    p = np.array(maps, dtype=float)
    shift = 1
    while shift < p.shape[0]:
        p[shift:] = p[shift:] @ p[:-shift]
        shift *= 2
    return p


def _require_rcond(a, inv):
    # 1 / (||a||_1 ||a^-1||_1), the worst over a stack
    norm_a = np.abs(a).sum(axis=-2).max(axis=-1)
    norm_inv = np.abs(inv).sum(axis=-2).max(axis=-1)
    rcond = np.min(1.0 / (norm_a * norm_inv))
    if not rcond >= RCOND_MIN:
        raise SingularMatrixError(rcond, RCOND_MIN)


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
    _require_rcond(a, sol[:, k:])
    return sol[:, 0] if vector else sol[:, :k]


def checked_inverse(a):
    """Inverse of a square matrix or ``(..., n, n)`` stack, real or complex,
    refused as by :func:`checked_solve` when any matrix of it is singular."""
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(0.0, RCOND_MIN) from None
    _require_rcond(a, inv)
    return inv
