"""Conservation meters and analysis oracles for matrix trajectories.

The flow Q' = S*Q with skew-symmetric S conserves the energy trace(Q^T Q),
the full Gram matrix Q^T Q, and det(Q).  The meters here measure how far a
numerical trajectory drifts from those laws; the forecast and order
estimators provide closed-form and asymptotic cross-checks that are
independent of the stepping code they judge.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import STACK_ENTRIES, InputError, stack_rows

Q0_ORTH_TOL = 1e-8


class IndeterminateOrderError(ArithmeticError):
    """All sampled errors sit at rounding level; no order can be fitted."""


def _sum_squares(qs):
    return np.einsum("nij,nij->n", qs, qs)


def _entry_blocks(qs):
    # (9, n) views of blocks of up to STACK_ENTRIES 3 x 3 records (a count of
    # records here), row 3i + j holding entry (i, j); the arithmetic on rows is
    # elementwise, so a record's meters are the same bits alone and anywhere in
    # any stack.  Both meters of 20001 records took 2.3 / 1.7 / 1.4 / 1.3 / 3.1 ms
    # in blocks of 1024 / 2048 / 4096 / 8192 / all (2-vCPU x86-64): too little
    # gain past 4096 for a block size of the meters' own
    for i in range(0, qs.shape[0], STACK_ENTRIES):
        yield i, qs[i : i + STACK_ENTRIES].reshape(-1, 9).T


def _dets(qs):
    """det of each matrix of a stack; a 3 x 3 one by its triple product."""
    if qs.shape[1] != 3:
        return np.linalg.det(qs)
    out = np.empty(qs.shape[0])
    for i, (a, b, c, d, e, f, g, h, k) in _entry_blocks(qs):
        out[i : i + a.shape[0]] = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
    return out


def _dot(x, y):
    # the dot products of two columns over a block, each a (3, n) array
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _orth_defects(qs):
    """||Q^T Q - I||_F of each matrix of a stack.

    A 3 x 3 one comes from the six dot products of its columns c_i,
    ``sum (c_i.c_i - 1)^2 + 2 sum_{i<j} (c_i.c_j)^2``; any other d from
    its Gram matrix, built a block at a time so its temporary stays near
    32 KB however large d is.
    """
    n, d, _ = qs.shape
    out = np.empty(n)
    if d == 3:
        for i, e in _entry_blocks(qs):
            c0, c1, c2 = e[0::3], e[1::3], e[2::3]
            diag = (_dot(c0, c0) - 1.0) ** 2 + (_dot(c1, c1) - 1.0) ** 2 \
                + (_dot(c2, c2) - 1.0) ** 2
            off = _dot(c0, c1) ** 2 + _dot(c0, c2) ** 2 + _dot(c1, c2) ** 2
            out[i : i + e.shape[1]] = np.sqrt(diag + 2.0 * off)
        return out
    rows = stack_rows(d)
    eye = np.eye(d)
    for i in range(0, n, rows):
        block = qs[i : i + rows]
        gram = np.matmul(block.transpose(0, 2, 1), block)
        gram -= eye
        out[i : i + rows] = np.sqrt(_sum_squares(gram))
    return out


def _read_only(column):
    column.setflags(write=False)
    return column


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one propagation run, as parallel arrays.

    Built from the record ``times`` (strictly increasing) and the
    ``(n, d, d)`` stack ``qs`` of recorded states.  Each meter column is
    computed over the whole stack when it is first read, and then kept;
    a run that reads only ``qs`` meters nothing.  ``energy_errors`` and
    ``det_drifts`` are signed differences against the first record, or
    against ``origin`` when given: the first state of the run whose later
    records ``qs`` holds, so that a run metered a block at a time gives
    the columns of the whole run bit for bit.  All columns are read-only;
    ``qs`` is a read-only view, not a copy.
    """

    method: str
    step: float
    times: np.ndarray
    qs: np.ndarray
    origin: np.ndarray = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float).reshape(-1)
        qs = np.asarray(self.qs, dtype=float).view()
        if qs.ndim != 3 or qs.shape[1] != qs.shape[2] or qs.shape[0] != times.shape[0]:
            raise ValueError(
                f"states must have shape (n, d, d) matching {times.shape[0]} times, "
                f"got {qs.shape}"
            )
        if times.shape[0] < 1:
            raise ValueError("a trajectory needs at least one record")
        if np.any(times[1:] <= times[:-1]):
            raise ValueError("record times must be strictly increasing")
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "qs", _read_only(qs))
        if self.origin is not None:
            origin = np.array(self.origin, dtype=float)
            if origin.shape != qs.shape[1:]:
                raise ValueError(f"origin must have shape {qs.shape[1:]}, got {origin.shape}")
            object.__setattr__(self, "origin", _read_only(origin))

    def _first(self, kernel, column):
        # record 0's meter: a record's meters are the same bits alone
        return column[0] if self.origin is None else kernel(self.origin[None])[0]

    @cached_property
    def energies(self):
        return _read_only(_sum_squares(self.qs))

    @cached_property
    def energy_errors(self):
        return _read_only(self.energies - self._first(_sum_squares, self.energies))

    @cached_property
    def orth_defects(self):
        return _read_only(_orth_defects(self.qs))

    @cached_property
    def det_drifts(self):
        dets = _dets(self.qs)
        return _read_only(dets - self._first(_dets, dets))

    def __len__(self):
        return self.times.shape[0]


def energy(q):
    """Energy trace(q^T q), i.e. the sum of squared entries."""
    return float(_sum_squares(np.asarray(q, dtype=float)[None])[0])


def orthogonality_defect(q):
    """Distance from the orthogonal group: ||q^T q - I||_F."""
    return float(_orth_defects(np.asarray(q, dtype=float)[None])[0])


def require_orthogonal_start(q, what, override):
    """Refuse a starting matrix farther than ``Q0_ORTH_TOL`` from orthogonal.

    ``what`` names the matrix and ``override`` the way the caller lets a
    non-orthogonal start through; both are quoted in the error.
    """
    # entries past about 1e154 overflow the meter to inf or nan, which fail
    with np.errstate(over="ignore", invalid="ignore"):
        defect = orthogonality_defect(q)
    if not defect <= Q0_ORTH_TOL:
        raise InputError(
            f"{what} is not orthogonal (defect {defect:.3e} > {Q0_ORTH_TOL:.0e}); "
            f"pass {override} to override"
        )


def det_drift(q, det0):
    """Signed determinant drift det(q) - det0."""
    return float(_dets(np.asarray(q, dtype=float)[None])[0]) - float(det0)


def pseudo_symplectic_defect(phi, s):
    """How far a transfer matrix is from satisfying phi^T S phi = S.

    For one-step maps Q -> phi @ Q this measures (in Frobenius norm) the
    violation of the two-form conservation that symplectic tableaus
    guarantee.
    """
    p = np.asarray(phi, dtype=float)
    m = s.mat
    return float(np.linalg.norm(p.T @ m @ p - m))


def rk2_energy_forecast(theta_sq, h, k, m=3):
    """Closed-form energy after k explicit-RK2 steps on a single-axis problem.

    For Q0 = I and a 3x3 rank-2 skew coefficient whose nonzero eigenvalue
    pair is +/- i*theta, the RK2 one-step map phi = I + h*S + (h^2/2) S^2
    satisfies phi^T phi = I + (h^4/4) S^4, so the energy after k steps is
    ``(m - 2) + 2 * (1 + h^4 * theta_sq^2 / 4)**k``.

    ``theta_sq`` is the squared rate norm ||omega||^2, supplied by the
    caller so the forecast stays independent of the matrix code it checks.
    Valid only for the single-rotation-axis case.
    """
    theta_sq = float(theta_sq)
    h = float(h)
    k = int(k)
    m = int(m)
    if theta_sq < 0:
        raise InputError("theta_sq must be nonnegative")
    if h <= 0:
        raise InputError("step must be positive")
    if k < 0:
        raise InputError("step count must be nonnegative")
    growth = 1.0 + (h**4) * theta_sq**2 / 4.0
    return (m - 2) + 2.0 * growth**k


def convergence_order(method, s, q0, t_end, steps):
    """Least-squares slope of log global error against log step size.

    For each step size the problem is propagated from ``q0`` to ``t_end``
    and the terminal state is compared (Frobenius norm) against the exact
    flow ``exp((t_end - t0) S) @ q0``.  Raises
    :class:`IndeterminateOrderError` when every error is at rounding level,
    since a fit through noise would be meaningless.
    """
    from .integrators import IntegratorConfig, propagate
    from .linalg import expm

    steps = [float(h) for h in steps]
    if len(steps) < 3:
        raise InputError("need at least 3 step sizes for an order fit")
    if any(h <= 0 for h in steps):
        raise InputError("step sizes must be positive")

    reference = expm(s, t_end - q0.t) @ q0.q
    errors = []
    for h in steps:
        config = IntegratorConfig(method=method, step=h)
        traj = propagate(config, s, q0, t_end, record_every=2**62)
        errors.append(float(np.linalg.norm(traj.qs[-1] - reference)))

    if max(errors) < 1e-14:
        raise IndeterminateOrderError(
            "all errors below 1e-14; order cannot be determined"
        )
    slope, _ = np.polyfit(np.log(steps), np.log(errors), 1)
    return float(slope)
