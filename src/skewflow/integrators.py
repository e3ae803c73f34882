"""Fixed-step integrators for the linear matrix flow Q' = S*Q.

Three step families are provided: the general s-stage Runge-Kutta step
driven by a Butcher tableau, and two closed forms obtained by eliminating
the stage equations for specific tableaus — the Cayley-transform implicit
midpoint step and the explicit second-order step.  Every scheme is linear
in Q, which is what makes transfer-matrix extraction (stepping the
identity) exact.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory
from .linalg import OrthogonalState, SingularMatrixError, checked_solve
from .tableaus import ButcherTableau

CLOSED_FORM_METHODS = ("cayley-midpoint", "rk2-closed")


class StageSolveError(ValueError):
    """The linear stage system could not be solved."""


class ConvergenceError(ValueError):
    """Fixed-point stage iteration failed to converge; carries the residual."""

    def __init__(self, residual, iterations):
        self.residual = float(residual)
        self.iterations = int(iterations)
        super().__init__(
            f"stage iteration did not converge within {iterations} iterations "
            f"(last residual {self.residual:.3e})"
        )


class NonFiniteStateError(ArithmeticError):
    """The propagated state overflowed; carries the first bad step and its time."""

    def __init__(self, step, t):
        self.step = int(step)
        self.t = float(t)
        super().__init__(f"state became non-finite at step {self.step} (t = {self.t!r})")


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection plus fixed step size and stage-solver options.

    ``method`` is a :class:`ButcherTableau` or one of the closed-form labels
    in :data:`CLOSED_FORM_METHODS`.  The implicit stage system is solved
    directly by default; ``stage_solver="fixed-point"`` switches to simple
    iteration (useful for cross-validation, converges for small h*||S||).
    """

    method: object
    step: float
    stage_solver: str = "direct"
    fp_tol: float = 1e-14
    fp_max_iters: int = 100

    def __post_init__(self):
        if not (isinstance(self.method, ButcherTableau) or self.method in CLOSED_FORM_METHODS):
            raise ValueError(
                f"method must be a ButcherTableau or one of {CLOSED_FORM_METHODS}, "
                f"got {self.method!r}"
            )
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")
        if self.stage_solver not in ("direct", "fixed-point"):
            raise ValueError(f"unknown stage solver {self.stage_solver!r}")
        if self.fp_tol <= 0:
            raise ValueError("fixed-point tolerance must be positive")
        if self.fp_max_iters < 1:
            raise ValueError("fixed-point iteration limit must be >= 1")


@dataclass(frozen=True)
class TransferMatrix:
    """One-step map phi with Q_next = phi @ Q, plus its provenance."""

    phi: np.ndarray
    method: str
    step: float


def method_label(method):
    """Human-readable label for a method object."""
    if isinstance(method, ButcherTableau):
        return method.name or f"rk-{method.stages}-stage"
    return str(method)


def one_step_map(config, m, h):
    """The one-step map phi(S, h) of the configured method, as an array.

    Built by stepping the identity once: every scheme here is linear in Q,
    so a step of any state is exactly ``phi @ Q`` and a run with constant S
    is a chain of matrix products with one phi.  ``m`` is the coefficient
    array; ``h`` may be negative (for the adjoint).
    """
    method = config.method
    eye = np.eye(m.shape[0])
    if method == "cayley-midpoint":
        # (I - (h/2) S)^-1 (I + (h/2) S) via one linear solve, never inversion
        try:
            return checked_solve(eye - (h / 2.0) * m, eye + (h / 2.0) * m)
        except SingularMatrixError as exc:
            raise StageSolveError(f"Cayley step failed: {exc}") from exc
    if method == "rk2-closed":
        return eye + h * m + (h * h / 2.0) * (m @ m)

    s = method.stages
    a, b = method.a, method.b
    if method.is_explicit:
        sy = [None] * s
        for i in range(s):
            yi = eye.copy()
            for j in range(i):
                if a[i, j] != 0.0:
                    yi += (h * a[i, j]) * sy[j]
            sy[i] = m @ yi
    elif config.stage_solver == "direct":
        dim = m.shape[0]
        system = np.eye(s * dim) - h * np.kron(a, m)
        try:
            stacked = checked_solve(system, np.tile(eye, (s, 1)))
        except SingularMatrixError as exc:
            raise StageSolveError(f"stacked stage system is singular: {exc}") from exc
        sy = [m @ stacked[i * dim : (i + 1) * dim] for i in range(s)]
    else:
        sy = _fixed_point_stages(method, m, eye, h, config.fp_tol, config.fp_max_iters)

    out = eye.copy()
    for i in range(s):
        if b[i] != 0.0:
            out += (h * b[i]) * sy[i]
    return out


def _fixed_point_stages(tab, m, q, h, tol, max_iters):
    s = tab.stages
    a = tab.a
    scale = max(1.0, float(np.linalg.norm(q)))
    y = [q.copy() for _ in range(s)]
    residual = np.inf
    for _ in range(max_iters):
        sy = [m @ yi for yi in y]
        new = []
        for i in range(s):
            yi = q.copy()
            for j in range(s):
                if a[i, j] != 0.0:
                    yi += (h * a[i, j]) * sy[j]
            new.append(yi)
        residual = max(float(np.linalg.norm(n_ - o)) for n_, o in zip(new, y))
        y = new
        if residual <= tol * scale:
            return [m @ yi for yi in y]
    raise ConvergenceError(residual, max_iters)


def _step(config, s, q):
    phi = one_step_map(config, s.mat, config.step)
    return OrthogonalState(phi @ q.q, q.t + config.step)


def rk_step(tableau, s, q, h, stage_solver="direct", fp_tol=1e-14, fp_max_iters=100):
    """One Runge-Kutta step for Q' = S*Q.

    The stages satisfy ``Y_i = Q + h sum_j a_ij S Y_j`` and the update is
    ``Q + h sum_i b_i S Y_i``.  Explicit tableaus are evaluated by forward
    substitution; implicit tableaus solve the stacked linear stage system
    ``(I - h A (x) S)`` (all columns share one factorization), or iterate to
    the same fixed point when requested.  The stages are solved for the
    identity, giving phi, and the step is ``phi @ Q``.

    Parameters
    ----------
    tableau : ButcherTableau
    s : SkewMatrix
    q : OrthogonalState
    h : float
        Step size, > 0.

    Returns
    -------
    OrthogonalState
        The state advanced to ``q.t + h``.
    """
    return _step(IntegratorConfig(tableau, h, stage_solver, fp_tol, fp_max_iters), s, q)


def cayley_step(s, q, h):
    """Implicit midpoint step in closed form: the Cayley transform of S.

    Computes ``(I - (h/2)S)^-1 (I + (h/2)S) Q`` with a linear solve.  For a
    genuinely skew S the system matrix has eigenvalues ``1 - i*h*theta/2``
    and is nonsingular for every real h, so no step-size restriction
    applies; the map is orthogonal and preserves the Gram matrix of Q up to
    rounding.
    """
    return _step(IntegratorConfig("cayley-midpoint", h), s, q)


def rk2_closed_step(s, q, h):
    """Explicit second-order step in closed form: (I + hS + (h^2/2)S^2) Q."""
    return _step(IntegratorConfig("rk2-closed", h), s, q)


def transfer_matrix(method, s, h, stage_solver="direct", fp_tol=1e-14, fp_max_iters=100):
    """Extract the one-step map phi by stepping the identity.

    Valid because every implemented scheme is linear in Q, so
    ``step(Q) == phi @ Q`` exactly (to rounding) for any Q.
    """
    config = IntegratorConfig(method, h, stage_solver, fp_tol, fp_max_iters)
    phi = one_step_map(config, s.mat, config.step)
    phi.setflags(write=False)
    return TransferMatrix(phi=phi, method=method_label(method), step=config.step)


def adjoint_defect(method, s, h, stage_solver="direct", fp_tol=1e-14, fp_max_iters=100):
    """Symmetry meter ``||phi(h) @ phi(-h) - I||_F``.

    A method equal to its adjoint (phi(-h)^-1) is symmetric and yields zero
    up to rounding; the Cayley midpoint is, the explicit RK2 map is not.
    """
    config = IntegratorConfig(method, h, stage_solver, fp_tol, fp_max_iters)
    forward = one_step_map(config, s.mat, config.step)
    backward = one_step_map(config, s.mat, -config.step)
    return float(np.linalg.norm(forward @ backward - np.eye(s.dim)))


class Span:
    """The fixed-step grid over ``(t0, t_end]`` and its one-step maps.

    ``n`` steps: ``n - 1`` of length h at times ``t0 + k*h`` (recomputed from
    the step index, so long runs do not accumulate additive drift), then one
    shortened step landing exactly on ``t_end``.  phi is built once for h and
    once more for the last step when its length differs.
    """

    def __init__(self, config, m, t0, t_end):
        h = config.step
        self.t0, self.t_end, self.h = t0, t_end, h
        self.n = self.count(t0, t_end, h)
        h_last = t_end - (t0 + (self.n - 1) * h)
        self.phi = one_step_map(config, m, h)
        self.phi_last = self.phi if h_last == h else one_step_map(config, m, h_last)

    @staticmethod
    def count(t0, t_end, h):
        """Number of steps; the 1e-9 slack keeps an interval that is a multiple
        of h up to rounding from growing a spurious extra step."""
        return max(int(np.ceil((t_end - t0) / h - 1e-9)), 1)

    def time(self, k):
        """Time of the state after step k."""
        return self.t0 + k * self.h if k < self.n else self.t_end

    def march(self, q, out=None, stride=None):
        """Advance q over the span and return the final state.

        With ``out``, every stride-th state and the final one are written to
        ``out[0], out[1], ...`` in order.
        """
        phi = self.phi
        stride = stride or self.n
        j = 0
        for k in range(1, self.n):
            q = phi @ q
            if k % stride == 0:
                out[j] = q
                j += 1
        q = self.phi_last @ q
        if out is not None:
            out[j] = q
        return q

    def first_nonfinite(self, q, k0=0):
        """First step after ``k0`` (where the state is ``q``) with a non-finite state."""
        for k in range(k0 + 1, self.n + 1):
            q = (self.phi if k < self.n else self.phi_last) @ q
            if not np.all(np.isfinite(q)):
                return k
        return None


def propagate(config, s, q0, t_end, record_every=1):
    """Propagate a state to ``t_end`` with a fixed step, recording meters.

    A record is kept for the initial state, after every
    ``record_every``-th step, and for the final state; the states are
    stacked and metered in one pass by
    :class:`~skewflow.diagnostics.Trajectory`.  Energy and determinant
    drifts are measured against the first record.  Raises
    :class:`NonFiniteStateError` when the state overflows.

    Parameters
    ----------
    config : IntegratorConfig
    s : SkewMatrix
    q0 : OrthogonalState
        Starting state; ``t_end`` must exceed ``q0.t``.
    t_end : float
    record_every : int, optional

    Returns
    -------
    Trajectory
    """
    t_end = float(t_end)
    if not np.isfinite(t_end) or t_end <= q0.t:
        raise ValueError(f"t_end ({t_end}) must exceed the starting time ({q0.t})")
    record_every = int(record_every)
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if s.dim != q0.dim:
        raise ValueError(
            f"coefficient dimension {s.dim} does not match state dimension {q0.dim}"
        )

    # overflow surfaces as NonFiniteStateError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        span = Span(config, s.mat, q0.t, t_end)
        ks = np.append(np.arange(0, span.n, record_every), span.n)
        qs = np.empty((ks.shape[0], s.dim, s.dim))
        qs[0] = q0.q
        span.march(q0.q, qs[1:], record_every)
        finite = np.isfinite(qs).all(axis=(1, 2))
        if not finite.all():
            bad = int(np.argmin(finite))
            k = span.first_nonfinite(qs[bad - 1], int(ks[bad - 1]))
            raise NonFiniteStateError(k, span.time(k))
    times = q0.t + ks * config.step
    times[-1] = t_end
    return Trajectory(method_label(config.method), config.step, times, qs)
