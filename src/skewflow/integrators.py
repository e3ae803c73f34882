"""Fixed-step integrators for the linear matrix flow Q' = S*Q.

A method is a general s-stage Runge-Kutta tableau or one of two closed
forms obtained by eliminating the stage equations for specific tableaus —
the Cayley-transform implicit midpoint step and the explicit second-order
step.  Every method is linear in Q, so a step is ``Q -> phi(S, h) @ Q``
with the one-step map phi built by stepping the identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory
from .linalg import SingularMatrixError, checked_solve
from .tableaus import ButcherTableau

CLOSED_FORM_METHODS = ("cayley-midpoint", "rk2-closed")


class StageSolveError(ValueError):
    """The linear stage system could not be solved."""


class NonFiniteStateError(ArithmeticError):
    """The propagated state or one of its meters overflowed; carries the
    first bad step and its time."""

    def __init__(self, step, t):
        self.step = int(step)
        self.t = float(t)
        super().__init__(
            f"state or its meters became non-finite at step {self.step} (t = {self.t!r})"
        )


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection plus fixed step size.

    ``method`` is a :class:`ButcherTableau` or one of the closed-form labels
    in :data:`CLOSED_FORM_METHODS`.
    """

    method: object
    step: float

    def __post_init__(self):
        if not (isinstance(self.method, ButcherTableau) or self.method in CLOSED_FORM_METHODS):
            raise ValueError(
                f"method must be a ButcherTableau or one of {CLOSED_FORM_METHODS}, "
                f"got {self.method!r}"
            )
        if not (np.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be positive and finite")


def method_label(method):
    """Human-readable label for a method object."""
    if isinstance(method, ButcherTableau):
        return method.name or f"rk-{method.stages}-stage"
    return str(method)


def one_step_map(method, m, h):
    """The one-step map phi(S, h) of ``method``, as an array.

    Built by stepping the identity once: every scheme here is linear in Q,
    so a step of any state is exactly ``phi @ Q`` and a run with constant S
    is a chain of matrix products with one phi.  ``m`` is the coefficient
    array; ``h`` may be negative (for the adjoint).

    Explicit tableaus are evaluated by forward substitution; implicit ones
    solve the stacked linear stage system ``(I - h A (x) S)`` for all
    identity columns with one factorization.
    """
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
    else:
        dim = m.shape[0]
        system = np.eye(s * dim) - h * np.kron(a, m)
        try:
            stacked = checked_solve(system, np.tile(eye, (s, 1)))
        except SingularMatrixError as exc:
            raise StageSolveError(f"stacked stage system is singular: {exc}") from exc
        sy = [m @ stacked[i * dim : (i + 1) * dim] for i in range(s)]

    out = eye.copy()
    for i in range(s):
        if b[i] != 0.0:
            out += (h * b[i]) * sy[i]
    return out


def transfer_matrix(method, s, h):
    """The read-only one-step map phi of ``method`` for coefficient ``s`` and step h.

    One step of any state Q is ``transfer_matrix(method, s, h) @ Q``.  For a
    genuinely skew S the Cayley map is orthogonal for every real h and
    preserves the Gram matrix of Q up to rounding.
    """
    config = IntegratorConfig(method, h)
    phi = one_step_map(method, s.mat, config.step)
    phi.setflags(write=False)
    return phi


def adjoint_defect(method, s, h):
    """Symmetry meter ``||phi(h) @ phi(-h) - I||_F``.

    A method equal to its adjoint (phi(-h)^-1) is symmetric and yields zero
    up to rounding; the Cayley midpoint is, the explicit RK2 map is not.
    """
    forward = transfer_matrix(method, s, h)
    backward = one_step_map(method, s.mat, -h)
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
        self.phi = one_step_map(config.method, m, h)
        self.phi_last = self.phi if h_last == h else one_step_map(config.method, m, h_last)

    @staticmethod
    def count(t0, t_end, h):
        """Number of steps; the 1e-9 slack keeps an interval that is a multiple
        of h up to rounding from growing a spurious extra step.  The last full
        grid point ``t0 + (n-1)*h`` must fall short of ``t_end`` in floating
        point, or the last step would be empty or negative, so it is dropped
        when it does not."""
        n = max(math.ceil((t_end - t0) / h - 1e-9), 1)
        return n - 1 if n > 1 and t0 + (n - 1) * h >= t_end else n

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
    :class:`NonFiniteStateError` when the state or a meter overflows.

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
    return metered(config, times, qs, lambda j: ks[j])


def metered(config, times, qs, step_of):
    """The :class:`Trajectory` of a run, refusing meters that overflowed.

    A meter can overflow while the state is still finite: the energy once
    entries pass about 1e154, the Gram defect once they pass about 1e77.
    That raises :class:`NonFiniteStateError` at the first such record j,
    whose step index is ``step_of(j)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        traj = Trajectory(method_label(config.method), config.step, times, qs)
    finite = (np.isfinite(traj.energy_errors) & np.isfinite(traj.orth_defects)
              & np.isfinite(traj.det_drifts))
    if not finite.all():
        j = int(np.argmin(finite))
        raise NonFiniteStateError(step_of(j), traj.times[j])
    return traj
