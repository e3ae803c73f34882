"""Dense matrix kernels for the linear flow Q' = S*Q with skew-symmetric S.

Everything here is small and dense (attitude-sized matrices, at most a few
dozen rows after stage stacking).  The one inverse is
:func:`checked_inverse`, a LAPACK inverse behind a reciprocal-condition
guard.  The one kernel for functions of a skew matrix, the exact flow and
each method's map alike, is :func:`skew_function`.  All returned arrays
are freshly allocated; inputs are never mutated.
"""

import math
from dataclasses import dataclass

import numpy as np

SKEW_TOL = 1e-12
RCOND_MIN = 1e-14
# entries in one stacked temporary of d x d matrices (32 KB of float64);
# diagnostics._entry_blocks reads it as a count of 3 x 3 records instead
STACK_ENTRIES = 4096


class InputError(ValueError):
    """A value from a caller or an input file was refused.

    ``line`` is the 1-based line of the file it came from, or None; when
    given, the message is prefixed with ``line N:``.
    """

    def __init__(self, message, line=None):
        self.line = None if line is None else int(line)
        super().__init__(message if line is None else f"line {line}: {message}")


def data_lines(lines):
    """The 1-based number and stripped text of each line of ``lines`` that
    is neither blank nor a ``#`` comment: the data of every input file."""
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def line_floats(lineno, fields, what, error=InputError):
    """The floats of ``fields``, the fields of data line ``lineno``; a field
    that is not a number, or not a finite one, raises ``error`` (the
    caller's :class:`InputError` subclass) naming the line and ``what``."""
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise error(f"non-numeric value in {what}", lineno) from None
    if not all(map(math.isfinite, values)):
        raise error(f"non-finite value in {what}", lineno)
    return values


def table_floats(lines, delimiter=None):
    """The float64 table of the data lines ``lines`` from one ``np.loadtxt``
    call, or None where the line parser must decide: loadtxt refuses the
    lines, a value is not finite, every line is empty (loadtxt warns on
    that), or a line holds ``\\x1f`` (loadtxt strips it inside a field,
    ``float()`` does not).  ``comments=None``: a ``#`` after a number is
    refused by the line parser, so loadtxt must not accept it."""
    if not any(lines):
        return None
    try:
        table = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(table).all() or "\x1f" in "".join(lines):
        return None
    return table


class SkewnessError(InputError):
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
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise InputError(f"{name} must have dimension >= 1")
    if not np.isfinite(m).all():
        raise InputError(f"{name} has non-finite entries")
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
            raise InputError("tol must be positive")
        m = as_square_matrix(mat, "skew matrix")
        # a norm that overflows is gated on a copy scaled by a power of two f,
        # which is exact; a defect that still overflows to inf fails
        with np.errstate(over="ignore"):
            f = 1.0 if _norm_inf(m) < np.inf else 2.0 ** -(m.shape[0].bit_length() + 1)
            g = m * f
            scale, defect = max(1.0, _norm_inf(g)), _norm_inf(g + g.T)
        if defect > tol * scale:
            raise SkewnessError(defect / f, tol * scale / f)
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
            raise InputError("time must be finite")
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
        raise InputError(f"angular rate must be a 3-vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InputError("angular rate has non-finite components")
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


def expm(s, t=1.0):
    """Exponential ``exp(t*S)`` of a skew-symmetric matrix: the exact flow.

    The reference oracle the integrators are measured against, computed to
    near machine precision and orthogonal with unit determinant up to
    rounding: :func:`skew_function` with ``w = cis``, so Rodrigues'
    formula up to dimension 3 and a unit-modulus phase per eigenvalue
    above it.  Unlike scaling-and-squaring, whose products amplify the
    orthogonality defect with ``||t*S||``, neither grows with the argument.
    """
    return skew_function(float(t) * s.mat, cis)


def cis(y):
    """``exp(iy)`` of a real array y, the exact flow's ``w``, as ``cos(y) +
    i sin(y)``: on x86-64 with numpy 2.4 the same bits as ``np.exp(1j * y)``,
    and faster."""
    return np.cos(y) + 1j * np.sin(y)


def skew_function(x, w):
    """f(x) of a skew x, or of each of a stack, from ``w(y) = f(iy)``.

    x is normal with eigenvalues on the imaginary axis, so ``f(x) = U f(L)
    U^H``; ``w`` takes a real array of y and returns the complex f(iy).
    Both branches call ``w`` once, on a ``(..., k)`` array whose leading
    shape is the stack's, and take any ``(..., k)`` array that shape
    broadcasts to: one f(x) for each row, so several functions of one x
    share its work.  Up to dimension 3, k is 1 and y the angle th: ``x^3 =
    -th^2 x`` with ``th^2`` the sum of squares above the diagonal, so f(x)
    is Rodrigues' formula ``I + k1 x + k2 x^2`` with ``k1 = Im w(th) / th``
    and ``k2 = (1 - Re w(th)) / th^2``, and ``th = 0`` gives I; at
    dimension 2, where ``x^2 = -th^2 I``, it is ``Re w(th) I + k1 x``.  ``th^2``
    is summed entry by entry, so each matrix of a stack rounds as it does
    alone.  Above dimension 3 the Hermitian ``i x`` has unitary
    eigenvectors U and real eigenvalues lam, one decomposition for each x
    of the stack, k is d and y is ``-lam``, and f(x) is the real part of
    ``U diag(w(-lam)) U^H``, the one real product ``[Re V, Im V] @ [Re U,
    Im U]^T`` with ``V = U diag(w)``.
    """
    d = x.shape[-1]
    if d > 3:
        lam, u = np.linalg.eigh(1j * x)
        v = u * w(-lam)[..., None, :]
        parts = np.concatenate([u.real, u.imag], axis=-1)
        return np.concatenate([v.real, v.imag], axis=-1) @ np.swapaxes(parts, -1, -2)
    th2 = sum((x[..., i, j] ** 2 for i in range(d) for j in range(i + 1, d)),
              np.zeros(x.shape[:-2]))[..., None]
    th = np.sqrt(th2)
    v = w(th)
    nonzero = th2 > 0
    k1 = v.imag / np.where(nonzero, th, 1.0)
    if d == 2:
        # x^2 = -th^2 I, so I + k2 x^2 is Re w I, without the cancelling 1 - (1 - Re w)
        return v.real[..., None] * np.eye(2) + k1[..., None] * x
    k2 = (1.0 - v.real) / np.where(nonzero, th2, 1.0)
    return np.eye(d) + k1[..., None] * x + k2[..., None] * (x @ x)


def stack_rows(d):
    """How many d x d matrices fit a stacked temporary of ``STACK_ENTRIES``."""
    return max(1, STACK_ENTRIES // (d * d))


def scan(maps):
    """Inclusive prefix products ``p[j] = maps[j] @ ... @ maps[0]`` of a stack.

    Work-efficient, about 2n products for a stack of n: the maps are laid
    out as r rows of c = ceil(sqrt(n)) consecutive maps (the tail padded
    with identities), one stacked product per column carries each row's
    running product, the r row totals are scanned in turn, and one stacked
    product applies each row's carry.  ``p[0]`` is ``maps[0]`` unchanged.
    """
    maps = np.asarray(maps, dtype=float)
    n, d = maps.shape[0], maps.shape[-1]
    if n < 2:
        return maps.copy()
    c = math.isqrt(n - 1) + 1
    r = -(-n // c)
    p = np.empty((r * c, d, d))
    p[:n] = maps
    p[n:] = np.eye(d)
    p = p.reshape(r, c, d, d)
    for j in range(1, c):
        p[:, j] = p[:, j] @ p[:, j - 1]
    if r > 1:
        # row i carries the product of every map before it: the prefix
        # product of the totals of rows 0 to i-1
        p[1:] = p[1:] @ scan(p[:-1, -1])[:, None]
    return p.reshape(r * c, d, d)[:n]


def checked_inverse(a):
    """Inverse of a square matrix or ``(..., n, n)`` stack, real or complex.

    Raises :class:`SingularMatrixError` when LAPACK meets an exact zero
    pivot or the reciprocal condition number ``1 / (||a||_1 ||a^-1||_1)`` of
    any matrix of the stack falls below ``RCOND_MIN``, and ``ValueError``
    naming the shape, before LAPACK is called, when ``a`` is not square.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"checked_inverse needs square matrices, got shape {a.shape}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(0.0, RCOND_MIN) from None
    norm_a = np.abs(a).sum(axis=-2).max(axis=-1)
    norm_inv = np.abs(inv).sum(axis=-2).max(axis=-1)
    rcond = np.min(1.0 / (norm_a * norm_inv))
    if not rcond >= RCOND_MIN:
        raise SingularMatrixError(rcond, RCOND_MIN)
    return inv
