"""Fixed-step integrators for the linear matrix flow Q' = S*Q.

Every method is an s-stage Runge-Kutta tableau; the labels
``cayley-midpoint`` and ``rk2-closed`` name the built-in ``midpoint`` and
``rk2-explicit`` tableaus.  Every method is linear in Q, so a step is
``Q -> phi(S, h) @ Q`` with the one-step map phi, the method's stability
function at hS, and :func:`one_step_map` builds the map of any number of
steps at once: for an exactly antisymmetric S of any dimension, from
:func:`~skewflow.linalg.skew_function` of S with h only in its ``w``;
for any other S, from the stage system and a matrix power.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import Trajectory
from .linalg import (
    InputError, SingularMatrixError, checked_inverse, cis, skew_function, stack_rows,
)
from .tableaus import ButcherTableau, builtin, symplecticity

# each label and the built-in tableau it names
_LABELS = {"cayley-midpoint": "midpoint", "rk2-closed": "rk2-explicit"}
CLOSED_FORM_METHODS = tuple(_LABELS)
# the most bytes of records propagate allocates (4 GiB): per record, the
# d x d state and the five meter columns of its Trajectory
RECORD_BYTES_MAX = 2**32


class StageSolveError(ValueError):
    """The linear stage system could not be solved."""


class NonFiniteStateError(ArithmeticError):
    """The first record whose state or a meter overflowed; carries that
    record's step and time."""

    def __init__(self, step, t):
        self.step = int(step)
        self.t = float(t)
        super().__init__(
            f"non-finite state or meter in the record at step {self.step} (t = {self.t!r})"
        )


@dataclass(frozen=True)
class IntegratorConfig:
    """Method selection plus fixed step size.

    ``method`` is a :class:`ButcherTableau` or a label in
    :data:`CLOSED_FORM_METHODS`, which resolves here to its built-in
    tableau renamed to the label; after construction it is a tableau.
    """

    method: ButcherTableau
    step: float

    def __post_init__(self):
        if isinstance(self.method, str) and self.method in _LABELS:
            tableau = replace(builtin(_LABELS[self.method]), name=self.method)
            object.__setattr__(self, "method", tableau)
        if not isinstance(self.method, ButcherTableau):
            raise InputError(
                f"method must be a ButcherTableau or one of {CLOSED_FORM_METHODS}, "
                f"got {self.method!r}"
            )
        if not (np.isfinite(self.step) and self.step > 0):
            raise InputError("step must be positive and finite")


def one_step_map(tableau, m, h, n=1, h_last=None):
    """The map of n steps of ``tableau``: ``phi(S, h_last) @ phi(S, h)^(n-1)``.

    One step is ``Q -> phi(S, h) @ Q``, with phi the stability function
    ``R(z) = 1 + z b^T (I - z A)^-1 1`` at ``z = hS``; ``h`` may be negative
    (for the adjoint), and ``h_last`` defaults to ``h``.  ``m`` may be a
    ``(k, d, d)`` stack and ``h``, ``n``, ``h_last`` arrays; they broadcast
    as numpy's arrays do, one map for each entry.  Two paths:

    - an exactly antisymmetric ``m``, of any dimension, takes one
      :func:`~skewflow.linalg.skew_function` call on S itself: Rodrigues'
      formula up to dimension 3, one eigendecomposition of each S above
      it, for all its maps.  ``h`` enters only through the n-step map's
      value ``w`` at each eigenvalue ``i lam`` of S, so a huge h cannot
      overflow the decomposition.  R is evaluated at ``h_last lam`` and at
      ``first lam`` (see below), each in its own shape, and only its values
      broadcast over the maps.  ``w`` is
      ``R(ih lam)^(n-1) R(ih_last lam)``, or, when ``tableau`` is
      symplectic, the unit-modulus ``exp(i((n-1) arg R(ih lam) + arg
      R(ih_last lam)))``: its maps stay
      orthogonal to rounding at any n;
    - an ``m`` that is not exactly antisymmetric walks the maps in their
      broadcast order and takes phi of each matrix at each step from a
      per-call cache, so each distinct ``(matrix, step)`` pair is built
      once, by Horner's rule or the Kronecker stage inverse; each map is
      ``phi(S, h_last) @ np.linalg.matrix_power(phi(S, first), n - 1)``.

    A map of one step takes no step of length h: the power of phi(S, h) it
    takes is I.  So ``first``, the step each map takes before its last, is
    h, or h_last for a map of one step, and neither path evaluates R or
    builds phi at an h that no map steps by.

    R is Horner's rule for explicit tableaus; otherwise it takes a guarded
    inverse, and :class:`StageSolveError` when that is singular.
    """
    h_last = h if h_last is None else h_last
    first = h if h_last is h else np.where(np.asarray(n) > 1, h, h_last)
    try:
        if np.array_equal(m, -np.swapaxes(m, -1, -2)):
            unit = symplecticity(tableau).symplectic
            # a trailing axis for the eigenvalues: R is evaluated in the shapes
            # of first and h_last, and only its values broadcast over the maps
            n, step, last = (np.asarray(x)[..., None] for x in (n, first, h_last))

            def w(y):
                r_last = _stability(tableau, 1j * (last * y))
                r = r_last if first is h_last else _stability(tableau, 1j * (step * y))
                if unit:
                    return cis((n - 1) * np.angle(r) + np.angle(r_last))
                return r ** (n - 1) * r_last

            return skew_function(m, w)
        stack = m.reshape((-1,) + m.shape[-2:])
        broadcast = np.broadcast(np.arange(len(stack)).reshape(m.shape[:-2]), n, first, h_last)
        # each distinct (matrix, step) pair costs one stage inverse; every
        # power comes before any phi at h_last, so a singular system at h is
        # the one reported even when h_last's is singular too
        phi = functools.cache(lambda i, step: _step_map(tableau, stack[i], step))
        powers = [(i, last, np.linalg.matrix_power(phi(i, step), k - 1))
                  for i, k, step, last in broadcast]
        maps = [phi(i, last) @ power for i, last, power in powers]
    except SingularMatrixError as exc:
        raise StageSolveError(f"stage system is singular: {exc}") from exc
    return np.reshape(maps, broadcast.shape + m.shape[-2:])


def _stability(tableau, z):
    """R(z) at each entry of a complex array z."""
    a, b = tableau.a, tableau.b
    if tableau.is_explicit:
        return _horner(tableau, z, 1.0, np.multiply)
    if tableau.stages == 1:
        # |1 - a z| >= 1 on the imaginary axis: nothing singular
        return 1.0 + z * b[0] / (1.0 - z * a[0, 0])
    # z runs over the eigenvalues of hS, so the stage system I - h A (x) S
    # is singular exactly when one of these s x s systems is
    inv = checked_inverse(np.eye(tableau.stages) - z[..., None, None] * a)
    return 1.0 + z * (inv.sum(axis=-1) * b).sum(axis=-1)


def _horner(tableau, x, one, mul):
    # R(x) = one + r_1 x + r_2 x^2 + ... with r_k = b^T A^(k-1) 1, the
    # polynomial of an explicit tableau: nothing to invert
    r = [tableau.b @ np.linalg.matrix_power(tableau.a, k) @ np.ones(tableau.stages)
         for k in range(tableau.stages)]
    p = r[-1] * one
    for rk in r[-2::-1]:
        p = rk * one + mul(x, p)
    return one + mul(x, p)


def _step_map(tableau, m, h):
    """phi(S, h) of a scalar h by Horner's matrix rule or the stage inverse."""
    eye = np.eye(m.shape[-1])
    x = h * m
    if tableau.is_explicit:
        return _horner(tableau, x, eye, np.matmul)
    s, d = tableau.stages, m.shape[-1]
    inv = checked_inverse(np.eye(s * d) - np.kron(tableau.a, x))
    # phi = I + x (b^T kron I) Y, where Y = (I - A kron x)^-1 (1 kron I) is
    # the inverse summed over its s column blocks
    y = inv.reshape(s * d, s, d).sum(axis=1)
    return eye + x @ (np.kron(tableau.b, eye) @ y)


def transfer_matrix(method, s, h):
    """The read-only one-step map phi of ``method`` for coefficient ``s`` and step h.

    One step of any state Q is ``transfer_matrix(method, s, h) @ Q``.  For a
    genuinely skew S the Cayley map is orthogonal for every real h and
    preserves the Gram matrix of Q up to rounding.
    """
    config = IntegratorConfig(method, h)
    phi = one_step_map(config.method, s.mat, config.step)
    phi.setflags(write=False)
    return phi


def adjoint_defect(method, s, h):
    """Symmetry meter ``||phi(h) @ phi(-h) - I||_F``.

    A method equal to its adjoint (phi(-h)^-1) is symmetric and yields zero
    up to rounding; the Cayley midpoint is, the explicit RK2 map is not.
    """
    forward = transfer_matrix(method, s, h)
    backward = one_step_map(IntegratorConfig(method, h).method, s.mat, -h)
    return float(np.linalg.norm(forward @ backward - np.eye(s.dim)))


def grid(t0, t_end, h):
    """Step count and last-step length of each interval ``(t0, t_end]``.

    ``n`` steps: ``n - 1`` of length h at times ``t0 + k*h`` (recomputed
    from the step index, so long runs do not accumulate additive drift),
    then one shortened step landing exactly on ``t_end``.  ``t0`` and
    ``t_end`` are scalars or arrays, taken elementwise.  The count is
    ``ceil((t_end - t0) / h)`` less a slack, so an interval that is a whole
    number of steps up to rounding does not grow a sliver of an extra step.
    The slack is 1e-9 of a step plus four ulps of the larger endpoint, the
    most by which rounding of the endpoints can lengthen ``t_end - t0``; so
    the last step can exceed h by at most that slack.  The last full grid
    point ``t0 + (n-1)*h`` must fall short of ``t_end`` in floating point,
    or the last step would be empty or negative, so it is dropped when it
    does not.  A count that does not fit an int64 is refused.
    """
    t0, t_end = np.asarray(t0, dtype=float), np.asarray(t_end, dtype=float)
    slack = 1e-9 + 4.0 * np.spacing(np.maximum(np.abs(t0), np.abs(t_end))) / h
    n = np.maximum(np.ceil((t_end - t0) / h - slack), 1.0)
    if not np.all(n < 2.0**63):
        i = np.unravel_index(np.argmin(n < 2.0**63), n.shape)
        raise InputError(f"step {h!r} is too short for ({float(t0[i])!r}, "
                         f"{float(t_end[i])!r}]: it takes more than 2**63 - 1 steps")
    n = np.where((n > 1) & (t0 + (n - 1) * h >= t_end), n - 1, n)
    return n.astype(np.int64), t_end - (t0 + (n - 1) * h)


def march(q, records, block, prefixes):
    """The stack of ``records`` states from ``q``, ``block`` records at a time:
    ``prefixes(a, b)`` maps record ``a`` to records ``a + 1`` to ``b``, so a run
    cut at a block boundary and resumed from its last state is the same bits."""
    qs = np.empty((records,) + q.shape)
    qs[0] = q
    for a in range(0, records - 1, block):
        b = min(a + block, records - 1)
        np.matmul(prefixes(a, b), q, out=qs[a + 1 : b + 1])
        q = qs[b]
    return qs


def propagate(config, s, q0, t_end, record_every=1):
    """Propagate a state to ``t_end`` with a fixed step, recording meters.

    A record is kept for the initial state, after every
    ``record_every``-th step, and for the final state.  No step is taken
    one at a time: one :func:`one_step_map` call gives every map the run
    uses, the table of n-step maps ``P, P^2, ...`` of the stride map ``P =
    phi^record_every`` (as many as fit a ``STACK_ENTRIES`` temporary, each
    built directly, so it is orthogonal to rounding for a symplectic
    tableau) and the end map ``phi_last @ phi^(n-1)``.  :func:`march`
    carries each block of records on from the last record of the block
    before with that table, and the final state is the end map applied to
    ``q0``, taken straight from the start so that it does not depend on
    ``record_every``.  The records are
    stacked in a :class:`~skewflow.diagnostics.Trajectory`, each of whose
    meters is one pass over the stack.  Energy and determinant
    drifts are measured against the first record.  Raises
    :class:`NonFiniteStateError` at the first record whose state or a meter
    overflowed, with that record's step and time, so a failure is seen at
    the records kept: with ``record_every=1`` it is the first bad step.
    Raises :class:`~skewflow.linalg.InputError` for a refused argument and,
    before the records are allocated, when they and their meters would take
    more than ``RECORD_BYTES_MAX`` bytes.

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
    if not np.isfinite(t_end):
        raise InputError(f"t_end ({t_end}) must be finite")
    if t_end <= q0.t:
        raise InputError(f"t_end ({t_end}) must exceed the starting time ({q0.t})")
    record_every = int(record_every)
    if record_every < 1:
        raise InputError("record_every must be >= 1")
    if s.dim != q0.dim:
        raise InputError(
            f"coefficient dimension {s.dim} does not match state dimension {q0.dim}"
        )

    # overflow surfaces as NonFiniteStateError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        n, h_last = grid(q0.t, t_end, config.step)
        n = int(n)
        records = -(-n // record_every) + 1
        if records * (s.dim**2 + 5) * 8 > RECORD_BYTES_MAX:
            raise InputError(
                f"{records} records of {s.dim}x{s.dim} states and 5 meters exceed the "
                f"{RECORD_BYTES_MAX}-byte record budget; use a --record-every "
                f"(record_every) larger than {record_every}")
        ks = np.append(np.arange(0, n, record_every), n)
        # maps[j] = phi^((j+1) record_every), a row for each record between
        # the first and the last, then the end map, which redoes the march's
        # last record; with no record between them, the end map is the table
        rows = min(stack_rows(s.dim), len(ks) - 2)
        maps = one_step_map(config.method, s.mat, config.step,
                            np.append(min(record_every, n) * np.arange(1, rows + 1), n),
                            np.append(np.full(rows, config.step), h_last))
        qs = march(q0.q, len(ks), max(rows, 1), lambda a, b: maps[: b - a])
        qs[-1] = maps[-1] @ q0.q
    times = q0.t + ks * config.step
    times[-1] = t_end
    return metered(config, times, qs, lambda j: ks[j])


def metered(config, times, qs, step_of, origin=None):
    """The :class:`Trajectory` of a run, or of a block of its records whose
    drifts are taken against ``origin`` (see :class:`Trajectory`), refusing
    a record that overflowed.

    Every record is metered once.  A meter can overflow while the state is
    still finite: the energy once entries pass about 1e154, the Gram defect
    once they pass about 1e77.  The first record j whose state or any meter
    is non-finite raises :class:`NonFiniteStateError` with its step
    ``step_of(j)`` and its time.  A non-finite entry makes its record's
    energy, a sum of squares, non-finite, so the energy errors check the
    states too.  The check reads each column's min and max, which carry
    nan and +-inf; a mask over the records is built only after it fails.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        label = config.method.name or f"rk-{config.method.stages}-stage"
        traj = Trajectory(label, config.step, times, qs, origin)
        columns = (traj.energy_errors, traj.det_drifts, traj.orth_defects)
        if not all(np.isfinite(c.min()) and np.isfinite(c.max()) for c in columns):
            ok = np.logical_and.reduce([np.isfinite(c) for c in columns])
            j = int(np.argmin(ok))
            raise NonFiniteStateError(step_of(j), traj.times[j])
    return traj
