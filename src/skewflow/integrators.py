"""Fixed-step integrators for the linear matrix flow Q' = S*Q.

A method is a general s-stage Runge-Kutta tableau or one of two closed
forms obtained by eliminating the stage equations for specific tableaus —
the Cayley-transform implicit midpoint step and the explicit second-order
step.  Every method is linear in Q, so a step is ``Q -> phi(S, h) @ Q``
with the one-step map phi, the method's stability function at hS.
"""

from dataclasses import dataclass

import numpy as np

from .diagnostics import Trajectory
from .linalg import (SingularMatrixError, checked_inverse, checked_solve, power, rodrigues,
                     scan, stack_rows)
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
    """The one-step map phi(S, h) of ``method``: ``Q -> phi @ Q`` is one step.

    A Runge-Kutta map is the stability function ``R(z) = 1 + z b^T (I -
    z A)^-1 1`` at ``z = hS``; ``h`` may be negative (for the adjoint).
    Explicit tableaus evaluate their polynomial R by Horner's rule.  For an
    exactly antisymmetric ``m`` of dimension at most 3 the other maps come
    in closed form (:func:`~skewflow.linalg.rodrigues`), with no stage
    solve.  These paths and ``rk2-closed`` also take a ``(k, d, d)`` stack
    of ``m`` with a scalar or ``(k,)`` array of ``h``, each map bit for bit
    its own call's.  Otherwise an implicit map solves the stacked linear
    stage system ``(I - h A (x) S)`` for all identity columns at once.
    """
    h = np.asarray(h, dtype=float)[..., None, None]
    eye = np.eye(m.shape[-1])
    if method == "rk2-closed":
        return eye + h * m + (h * h / 2.0) * (m @ m)
    x = h * m
    if isinstance(method, ButcherTableau) and method.is_explicit:
        # R(x) = I + x (r_1 I + x (r_2 I + ...)) with r_k = b^T A^(k-1) 1
        r = [method.b @ np.linalg.matrix_power(method.a, k) @ np.ones(method.stages)
             for k in range(method.stages)]
        p = r[-1] * eye
        for rk in r[-2::-1]:
            p = rk * eye + x @ p
        return eye + x @ p
    if m.shape[-1] <= 3 and np.array_equal(m, -np.swapaxes(m, -1, -2)):
        if method == "cayley-midpoint":
            # the Gibbs-vector form I + 2 / (1 + |a|^2) (A + A^2) with A = x / 2
            return rodrigues(x / 2.0, lambda a2: (2.0 / (1.0 + a2),) * 2)
        return rodrigues(x, lambda th2: _stage_coefficients(method, np.sqrt(th2)))

    if method == "cayley-midpoint":
        # (I - x/2)^-1 (I + x/2) via one linear solve, never inversion
        try:
            return checked_solve(eye - x / 2.0, eye + x / 2.0)
        except SingularMatrixError as exc:
            raise StageSolveError(f"Cayley step failed: {exc}") from exc
    s, d = method.stages, m.shape[0]
    try:
        y = checked_solve(np.eye(s * d) - np.kron(method.a, x), np.tile(eye, (s, 1)))
    except SingularMatrixError as exc:
        raise StageSolveError(f"stacked stage system is singular: {exc}") from exc
    # phi = I + sum_i b_i x Y_i over the stage blocks Y_i of the solution
    return eye + x @ sum(b * y[i * d : (i + 1) * d] for i, b in enumerate(method.b))


def _stage_coefficients(method, th):
    # u = (I - i th A)^-1 1 gives R(i th) = 1 + i th b.1 - th^2 (b^T A) u, so
    # k1 = b.1 - th Im((b^T A) u) and k2 = Re((b^T A) u) cancel nothing as
    # th -> 0.  hS has eigenvalues 0 and +-i th, so the stage system
    # I - h A (x) S is singular exactly when I - i th A is.
    a, b, s = method.a, method.b, method.stages
    try:
        inv = checked_inverse(np.eye(s) - 1j * np.multiply.outer(th, a))
    except SingularMatrixError as exc:
        raise StageSolveError(f"stage system is singular: {exc}") from exc
    ba = b @ a
    bau = sum(ba[i] * inv[..., i, j] for i in range(s) for j in range(s))
    return b.sum() - th * bau.imag, bau.real


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
    once more for the last step when its length differs.  :func:`propagate`
    reaches its records through powers and prefix products of phi;
    :meth:`first_nonfinite` is the per-step march that defines where a
    failed run went bad.
    """

    def __init__(self, config, m, t0, t_end):
        h = config.step
        self.t0, self.t_end, self.h = t0, t_end, h
        n, h_last = self.grid(t0, t_end, h)
        self.n = int(n)
        self.phi = one_step_map(config.method, m, h)
        self.phi_last = self.phi if h_last == h else one_step_map(config.method, m, h_last)

    @staticmethod
    def grid(t0, t_end, h):
        """Step count and last-step length of each interval ``(t0, t_end]``.

        ``t0`` and ``t_end`` are scalars or arrays, taken elementwise.  The
        count is ``ceil((t_end - t0) / h)`` less a slack, so an interval
        that is a whole number of steps up to rounding does not grow a
        sliver of an extra step.  The slack is 1e-9 of a step plus four
        ulps of the larger endpoint, the most by which rounding of the
        endpoints can lengthen ``t_end - t0``; so the last step can exceed h
        by at most that slack.  The last full grid point
        ``t0 + (n-1)*h`` must fall short of ``t_end`` in floating point, or
        the last step would be empty or negative, so it is dropped when it
        does not.
        """
        t0, t_end = np.asarray(t0, dtype=float), np.asarray(t_end, dtype=float)
        slack = 1e-9 + 4.0 * np.spacing(np.maximum(np.abs(t0), np.abs(t_end))) / h
        n = np.maximum(np.ceil((t_end - t0) / h - slack), 1.0)
        n = np.where((n > 1) & (t0 + (n - 1) * h >= t_end), n - 1, n)
        return n.astype(np.int64), t_end - (t0 + (n - 1) * h)

    def time(self, k):
        """Time of the state after step k."""
        return self.t0 + k * self.h if k < self.n else self.t_end

    def first_nonfinite(self, q, k0=0, k1=None):
        """First step in ``(k0, k1]`` with a non-finite state, else ``k1``.

        The state after step ``k0`` is ``q``; ``k1`` defaults to the last
        step.  This is the slow per-step definition of the failure step.
        The march forms powers and products of the maps before it applies
        them to a state, so a record at step ``k1`` can overflow where the
        per-step states up to it stay finite; that record's step is then
        the failure.
        """
        k1 = self.n if k1 is None else k1
        for k in range(k0 + 1, k1 + 1):
            q = (self.phi if k < self.n else self.phi_last) @ q
            if not np.all(np.isfinite(q)):
                return k
        return k1


def propagate(config, s, q0, t_end, record_every=1):
    """Propagate a state to ``t_end`` with a fixed step, recording meters.

    A record is kept for the initial state, after every
    ``record_every``-th step, and for the final state.  No step is taken
    one at a time: with ``P = phi^record_every`` formed by binary powering,
    a table of the prefix products ``P, P^2, ...`` (as many as fit a
    ``STACK_ENTRIES`` temporary) carries each block of records on from the
    last record of the block before, and the final state is
    ``phi_last @ phi^(n-1) @ q0``, taken straight from the start so that it
    does not depend on ``record_every``.  The records are
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
        qs[0] = q = q0.q
        inner = qs[1:-1]
        if len(inner):
            # table[j] = (phi^record_every)^(j+1): each block of records
            # starts from the last record of the block before
            rows = min(stack_rows(s.dim), len(inner))
            stride_map = power(span.phi, record_every)
            table = scan(np.broadcast_to(stride_map, (rows, s.dim, s.dim)))
            for i in range(0, len(inner), rows):
                block = inner[i : i + rows]
                np.matmul(table[: len(block)], q, out=block)
                q = block[-1]
        qs[-1] = (span.phi_last @ power(span.phi, span.n - 1)) @ q0.q
    times = q0.t + ks * config.step
    times[-1] = t_end

    def state_failure(j):
        k = span.first_nonfinite(qs[j - 1], int(ks[j - 1]), int(ks[j]))
        return k, span.time(k)

    return metered(config, times, qs, lambda j: ks[j], state_failure)


def metered(config, times, qs, step_of, state_failure):
    """The :class:`Trajectory` of a run, refusing a state or meter that overflowed.

    A meter can overflow while the state is still finite: the energy once
    entries pass about 1e154, the Gram defect once they pass about 1e77.
    The meters are taken over the records before the first non-finite
    state, and the earlier failure raises :class:`NonFiniteStateError`:
    the first record j with a non-finite meter, at step ``step_of(j)``, or
    else the first non-finite state, whose step and time
    ``state_failure(j)`` finds from the last finite record ``j - 1``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(qs).all(axis=(1, 2))
        n = len(qs) if finite.all() else int(np.argmin(finite))
        traj = Trajectory(method_label(config.method), config.step, times[:n], qs[:n])
        meters = (np.isfinite(traj.energy_errors) & np.isfinite(traj.orth_defects)
                  & np.isfinite(traj.det_drifts))
        if not meters.all():
            j = int(np.argmin(meters))
            raise NonFiniteStateError(step_of(j), traj.times[j])
        if n < len(qs):
            raise NonFiniteStateError(*state_failure(n))
    return traj
