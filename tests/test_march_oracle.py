"""Per-step oracles for the one-step map phi(S, h) and the march of ``propagate``.

The oracles advance Q one step at a time on their own time grid (per
interval of a gyro log, under zero-order hold) and solve
the Runge-Kutta stage equations written out here with plain numpy, either
stacked or by fixed-point iteration, so they share no code with the
library: no cached map, no tableau catalogue, no closed forms beyond the
textbook step formulas.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_skew
from skewflow import (
    CLOSED_FORM_METHODS,
    GyroLog,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    builtin,
    expm,
    propagate,
    propagate_gyro,
    reference_gyro,
)
from skewflow.gyro import _BLOCK
from skewflow.linalg import stack_rows

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
# every built-in tableau and both labels
ALL_METHODS = {
    **METHODS,
    "midpoint": ([[0.5]], [1.0]),
    "rk2-explicit": ([[0, 0], [0.5, 0]], [0, 1]),
}
SYMPLECTIC = ("cayley-midpoint", "gauss2", "midpoint")


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


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("dim, records", [(3, 600), (10, 300), (40, 300)])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("leak", [0.0, 1e-3])
def test_march_across_record_tables_matches_per_step_oracle(name, dim, records, stride, leak):
    # more records than one table of n-step maps holds, so each later block
    # of records starts from the last record of the block before; a leaky
    # S, not antisymmetric, takes the general path's table
    assert records > stack_rows(dim)
    rng = np.random.default_rng(100 * dim + stride)
    s = random_skew(rng, dim, norm=1.0) + leak * np.eye(dim)
    q0 = rng.standard_normal((dim, dim))
    t_end = (records * stride - 0.5) * 0.1
    method = builtin(name) if name in ("gauss2", "rk4-classical") else name
    config = IntegratorConfig(method=method, step=0.1)
    traj = propagate(config, SkewMatrix(s, tol=1e-2), OrthogonalState(q0, 0.0), t_end, stride)

    times, states = oracle_run(METHODS[name], s, q0, t_end, 0.1, stride)
    assert len(traj) == records + 1
    assert np.array_equal(traj.times, times)
    err = np.linalg.norm(traj.qs - states, axis=(1, 2)) / np.linalg.norm(states, axis=(1, 2))
    assert np.max(err) <= 1e-12


def oracle_gyro(method, times, rates, h):
    """Per-step zero-order-hold march of a gyro log, one state per sample."""
    q = np.eye(3)
    states = [q]
    for t0, t1, (w1, w2, w3) in zip(times[:-1], times[1:], rates):
        s = np.array([[0.0, -w3, w2], [w3, 0.0, -w1], [-w2, w1, 0.0]])
        n = max(math.ceil((t1 - t0) / h - 1e-9), 1)
        for k in range(1, n + 1):
            q = oracle_step(method, s, q, h if k < n else t1 - (t0 + (n - 1) * h))
        states.append(q)
    return np.array(states)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_batched_gyro_matches_per_step_oracle(name):
    # uneven intervals from 0.2 h to 3.7 h, so some take one shortened step
    # and the rest a few, over more than two blocks of stacked maps
    rng = np.random.default_rng(7)
    samples = 2 * _BLOCK + 77
    h = 0.01
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 3.7, samples - 1) * h)])
    rates = rng.uniform(-2.0, 2.0, size=(samples, 3))
    method = builtin(name) if name in ("gauss2", "rk4-classical") else name
    traj = propagate_gyro(GyroLog(times, rates), IntegratorConfig(method=method, step=h))

    want = oracle_gyro(METHODS[name], times.tolist(), rates.tolist(), h)
    assert np.array_equal(traj.times, times)
    err = np.linalg.norm(traj.qs - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("name", sorted(METHODS))
def test_long_gyro_intervals_match_per_step_oracle(name):
    # intervals of 0.2 h to 40 h take up to 40 steps, so each interval's
    # map is one complex power of up to 40 steps, across a block boundary
    rng = np.random.default_rng(9)
    samples = _BLOCK + 89
    h = 0.01
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 40.0, samples - 1) * h)])
    rates = rng.uniform(-2.0, 2.0, size=(samples, 3))
    method = builtin(name) if name in ("gauss2", "rk4-classical") else name
    traj = propagate_gyro(GyroLog(times, rates), IntegratorConfig(method=method, step=h))

    want = oracle_gyro(METHODS[name], times.tolist(), rates.tolist(), h)
    assert np.array_equal(traj.times, times)
    err = np.linalg.norm(traj.qs - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(err) <= 1e-12


@pytest.mark.parametrize("name", [*sorted(METHODS), "exact"])
def test_a_gyro_run_resumed_at_a_block_boundary_is_the_same_bits(name):
    # blocks start at multiples of _BLOCK from the state the block before
    # ended on, so a log cut at block boundaries and run part by part, each
    # part from the last state of the one before, gives the whole run's states
    rng = np.random.default_rng(13)
    samples = 2 * _BLOCK + 77
    h = 0.01
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 3.7, samples - 1) * h)])
    rates = rng.uniform(-2.0, 2.0, size=(samples, 3))
    if name == "exact":
        def run(log, q0):
            return reference_gyro(log, q0, allow_nonorthogonal=True)
    else:
        method = builtin(name) if name in ("gauss2", "rk4-classical") else name
        config = IntegratorConfig(method=method, step=h)

        def run(log, q0):
            return propagate_gyro(log, config, q0, allow_nonorthogonal=True)
    whole = run(GyroLog(times, rates), None).qs

    parts = [whole[:1]]
    q0 = None
    for lo, hi in [(0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, samples - 1)]:
        part = run(GyroLog(times[lo : hi + 1], rates[lo : hi + 1]), q0).qs
        parts.append(part[1:])
        q0 = OrthogonalState(part[-1], float(times[hi]))
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("name", sorted(ALL_METHODS))
@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    rate=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    h=st.floats(1e-3, 0.5),
    steps=st.integers(1, 150),
    short=st.floats(0.0, 0.9),
    stride=st.integers(1, 10),
)
def test_dims_1_and_2_match_the_per_step_oracle_and_expm(name, dim, rate, h, steps, short,
                                                         stride):
    # S = 0, and in dimension 2 the generator of plane rotations at any rate;
    # the last step falls short of h by ``short`` of a step
    s = rate * np.array([[0.0, 1.0], [-1.0, 0.0]]) if dim == 2 else np.zeros((1, 1))
    q0 = np.random.default_rng(steps).standard_normal((dim, dim))
    t_end = (steps - short) * h
    method = name if name in CLOSED_FORM_METHODS else builtin(name)
    config = IntegratorConfig(method=method, step=h)
    traj = propagate(config, SkewMatrix(s), OrthogonalState(q0, 0.0), t_end, stride)

    times, states = oracle_run(ALL_METHODS[name], s, q0, t_end, h, stride)
    assert np.array_equal(traj.times, times)
    err = np.linalg.norm(traj.qs - states, axis=(1, 2)) / np.linalg.norm(states, axis=(1, 2))
    assert np.max(err) <= 1e-12
    exact = np.array([expm(SkewMatrix(s), t) @ q0 for t in times])
    if not s.any():
        # every map of S = 0 is the identity, exactly
        assert np.array_equal(traj.qs, exact)
    if name in SYMPLECTIC:
        # the Gram matrix of the exact flow, kept for every rate and step
        gram = np.einsum("kij,kil->kjl", traj.qs, traj.qs)
        want = np.einsum("kij,kil->kjl", exact, exact)
        assert np.max(np.abs(gram - want)) <= 1e-12 * np.sum(q0 * q0)
