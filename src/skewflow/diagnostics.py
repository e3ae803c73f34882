"""Conservation meters and analysis oracles for matrix trajectories.

The flow Q' = S*Q with skew-symmetric S conserves the energy trace(Q^T Q),
the full Gram matrix Q^T Q, and det(Q).  The meters here measure how far a
numerical trajectory drifts from those laws; the forecast and order
estimators provide closed-form and asymptotic cross-checks that are
independent of the stepping code they judge.
"""

from dataclasses import dataclass, field

import numpy as np

Q0_ORTH_TOL = 1e-8


class IndeterminateOrderError(ArithmeticError):
    """All sampled errors sit at rounding level; no order can be fitted."""


def _sum_squares(qs):
    return np.einsum("nij,nij->n", qs, qs)


def _orth_defects(qs):
    # the Gram stack is built a block at a time so its temporary stays near
    # 32 KB however large d is; each row's arithmetic is unchanged
    n, d, _ = qs.shape
    rows = max(1, 4096 // (d * d))
    eye = np.eye(d)
    out = np.empty(n)
    for i in range(0, n, rows):
        block = qs[i : i + rows]
        gram = np.matmul(block.transpose(0, 2, 1), block)
        gram -= eye
        out[i : i + rows] = np.sqrt(_sum_squares(gram))
    return out


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of one propagation run, as parallel arrays.

    Built from the record ``times`` (strictly increasing) and the
    ``(n, d, d)`` stack ``qs`` of recorded states; every meter is computed
    here in one batched pass over the stack.  ``energy_errors`` and
    ``det_drifts`` are signed differences against the first record.  All
    columns are read-only; ``qs`` is a read-only view, not a copy.
    """

    method: str
    step: float
    times: np.ndarray
    qs: np.ndarray
    energies: np.ndarray = field(init=False)
    energy_errors: np.ndarray = field(init=False)
    orth_defects: np.ndarray = field(init=False)
    det_drifts: np.ndarray = field(init=False)

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
        if np.any(np.diff(times) <= 0):
            raise ValueError("record times must be strictly increasing")
        energies = _sum_squares(qs)
        dets = np.linalg.det(qs)
        columns = {
            "times": times,
            "qs": qs,
            "energies": energies,
            "energy_errors": energies - energies[0],
            "orth_defects": _orth_defects(qs),
            "det_drifts": dets - dets[0],
        }
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)

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
    defect = orthogonality_defect(q)
    if defect > Q0_ORTH_TOL:
        raise ValueError(
            f"{what} is not orthogonal (defect {defect:.3e} > {Q0_ORTH_TOL:.0e}); "
            f"pass {override} to override"
        )


def det_drift(q, det0):
    """Signed determinant drift det(q) - det0."""
    return float(np.linalg.det(np.asarray(q, dtype=float))) - float(det0)


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
        raise ValueError("theta_sq must be nonnegative")
    if h <= 0:
        raise ValueError("step must be positive")
    if k < 0:
        raise ValueError("step count must be nonnegative")
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
        raise ValueError("need at least 3 step sizes for an order fit")
    if any(h <= 0 for h in steps):
        raise ValueError("step sizes must be positive")

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
