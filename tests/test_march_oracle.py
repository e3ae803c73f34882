"""Per-step oracles for the one-step map phi(S, h) and the march of ``propagate``.

The oracles advance Q one step at a time on their own time grid and solve
the Runge-Kutta stage equations written out here with plain numpy, either
stacked or by fixed-point iteration, so they share no code with the
library: no cached map, no tableau catalogue, no closed forms beyond the
textbook step formulas.
"""

import math

import numpy as np
import pytest

from conftest import random_skew
from skewflow import IntegratorConfig, OrthogonalState, SkewMatrix, builtin, propagate

R = math.sqrt(3.0) / 6.0
# (A, b) of the two tableaus, copied from the literature, not the catalogue
GAUSS2 = ([[0.25, 0.25 - R], [0.25 + R, 0.25]], [0.5, 0.5])
RK4 = (
    [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]],
    [1 / 6, 1 / 3, 1 / 3, 1 / 6],
)
METHODS = {
    "cayley-midpoint": "cayley-midpoint",
    "rk2-closed": "rk2-closed",
    "gauss2": GAUSS2,
    "rk4-classical": RK4,
}


def oracle_step(method, s, q, h):
    d = s.shape[0]
    eye = np.eye(d)
    if method == "cayley-midpoint":
        return np.linalg.solve(eye - (h / 2) * s, q + (h / 2) * (s @ q))
    if method == "rk2-closed":
        return q + h * (s @ q) + (h * h / 2) * (s @ (s @ q))
    # stages Y_i = Q + h sum_j a_ij S Y_j, stacked: (I - h A (x) S) Y = 1 (x) Q
    a, b = (np.array(x, dtype=float) for x in method)
    stages = len(b)
    system = np.eye(stages * d)
    for i in range(stages):
        for j in range(stages):
            system[i * d : (i + 1) * d, j * d : (j + 1) * d] -= h * a[i, j] * s
    y = np.linalg.solve(system, np.vstack([q] * stages))
    return q + sum(h * b[i] * (s @ y[i * d : (i + 1) * d]) for i in range(stages))


def fixed_point_step(method, s, q, h, tol=1e-14, max_iters=100):
    """One Runge-Kutta step with the stages found by simple iteration.

    Iterates ``Y_i <- Q + h sum_j a_ij S Y_j`` to a fixed point, which
    converges for small ``h * ||S||``; ``method`` is an ``(A, b)`` pair.
    """
    a, b = (np.array(x, dtype=float) for x in method)
    stages = len(b)
    scale = max(1.0, float(np.linalg.norm(q)))
    y = [q.copy() for _ in range(stages)]
    for _ in range(max_iters):
        sy = [s @ yi for yi in y]
        new = [q + h * sum(a[i, j] * sy[j] for j in range(stages)) for i in range(stages)]
        residual = max(float(np.linalg.norm(n - o)) for n, o in zip(new, y))
        y = new
        if residual <= tol * scale:
            return q + h * sum(b[i] * (s @ y[i]) for i in range(stages))
    raise AssertionError(f"stage iteration did not converge (residual {residual:.3e})")


def oracle_run(method, s, q0, t_end, h, stride):
    n = max(math.ceil(t_end / h - 1e-9), 1)
    times, states = [0.0], [q0]
    q = q0
    for k in range(1, n + 1):
        t, hk = (k * h, h) if k < n else (t_end, t_end - (n - 1) * h)
        q = oracle_step(method, s, q, hk)
        if k % stride == 0 or k == n:
            times.append(t)
            states.append(q)
    return np.array(times), np.array(states)


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("dim", [1, 2, 3, 10])
@pytest.mark.parametrize("t_end, stride", [(2.05, 1), (2.05, 4), (2.0, 3)])
def test_cached_map_march_matches_per_step_oracle(name, dim, t_end, stride):
    rng = np.random.default_rng(1000 * dim + stride)
    s = random_skew(rng, dim, norm=2.0)
    q0 = rng.standard_normal((dim, dim))
    method = builtin(name) if name in ("gauss2", "rk4-classical") else name
    config = IntegratorConfig(method=method, step=0.1)
    traj = propagate(config, SkewMatrix(s), OrthogonalState(q0, 0.0), t_end, stride)

    times, states = oracle_run(METHODS[name], s, q0, t_end, 0.1, stride)
    assert np.array_equal(traj.times, times)
    for got, want in zip(traj.qs, states):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    energies = np.array([np.sum(q * q) for q in states])
    assert np.max(np.abs(traj.energies - energies) / energies) <= 1e-12
