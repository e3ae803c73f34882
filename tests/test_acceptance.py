"""End-to-end acceptance checks at their contractual tolerances.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); the long benchmark runs are shared module-scoped fixtures.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import (
    BENCH_MAT,
    BENCH_RATE,
    BENCH_STEP,
    BENCH_T_END,
    BENCH_THETA_SQ,
    convergence_order,
    mp_rk2_energy,
    pseudo_symplectic_defect,
    random_skew,
)
from skewflow import (
    GyroLog,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    adjoint_defect,
    builtin,
    propagate,
    propagate_gyro,
    symplecticity,
    transfer_matrix,
)

BENCH = SkewMatrix(BENCH_MAT)
QUARTER = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])


def identity_state():
    return OrthogonalState(np.eye(3), 0.0)


@pytest.fixture(scope="module")
def midpoint_run():
    config = IntegratorConfig(method="cayley-midpoint", step=BENCH_STEP)
    return propagate(config, BENCH, identity_state(), BENCH_T_END, record_every=1)


@pytest.fixture(scope="module")
def rk2_run():
    config = IntegratorConfig(method="rk2-closed", step=BENCH_STEP)
    return propagate(config, BENCH, identity_state(), BENCH_T_END, record_every=1)


@pytest.fixture(scope="module")
def random_transfer_samples():
    """100 random (skew matrix, step) pairs, dims 2-6, spectral norm <= 5."""
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.05, 5.0)))
        samples.append((s, float(rng.uniform(1e-3, 1.0))))
    return samples


def test_criterion_1_midpoint_long_run_conserves(midpoint_run):
    assert len(midpoint_run) == 20001
    max_energy_err = float(np.max(np.abs(midpoint_run.energies - 3.0)))
    max_orth = float(np.max(midpoint_run.orth_defects))
    assert max_energy_err <= 1e-8
    assert max_orth <= 1e-9
    print(
        f"criterion 1 (midpoint long run: |E-3| {max_energy_err:.2e} <= 1e-8, "
        f"orth {max_orth:.2e} <= 1e-9): PASS"
    )


def test_criterion_2_rk2_energy_growth(rk2_run):
    errs = rk2_run.energy_errors
    assert bool(np.all(np.diff(errs) >= 0.0)), "energy error must not decrease"
    final = rk2_run.energies[-1]
    oracle = mp_rk2_energy(BENCH_THETA_SQ, BENCH_STEP, len(rk2_run) - 1)
    rel = abs(final - oracle) / oracle
    assert rel <= 5e-3
    print(
        f"criterion 2 (rk2 growth monotone, final {final:.6g} vs oracle "
        f"{oracle:.6g}, rel dev {rel:.2e} <= 0.5%): PASS"
    )


def test_criterion_3_symplecticity_checker():
    assert symplecticity(builtin("midpoint")).defect == 0.0
    assert symplecticity(builtin("gauss2")).defect <= 1e-15
    rk2_defect = symplecticity(builtin("rk2-explicit")).defect
    assert abs(rk2_defect - np.sqrt(1.5)) <= 1e-15
    print("criterion 3 (symplecticity defects: 0, <=1e-15, sqrt(3/2)): PASS")


def test_criterion_4_transfer_two_form_suite(random_transfer_samples):
    worst = 0.0
    for s, h in random_transfer_samples:
        s_norm = float(np.linalg.norm(s.mat))
        for method in ("cayley-midpoint", builtin("gauss2")):
            defect = pseudo_symplectic_defect(transfer_matrix(method, s, h), s)
            worst = max(worst, defect / s_norm)
            assert defect <= 1e-12 * s_norm
    hand = pseudo_symplectic_defect(transfer_matrix("rk2-closed", QUARTER, 1.0), QUARTER)
    assert hand == pytest.approx(0.3535533905932738, abs=1e-6)
    print(
        f"criterion 4 (two-form defect over {len(random_transfer_samples)} samples, "
        f"worst {worst:.2e} <= 1e-12 relative; rk2 hand case): PASS"
    )


def test_criterion_5_gram_preserved_for_arbitrary_starts():
    rng = np.random.default_rng(517)
    tableaus = [builtin("midpoint"), builtin("gauss2")]
    worst = 0.0
    for i in range(100):
        tableau = tableaus[i % 2]
        assert symplecticity(tableau).defect <= 1e-14
        dim = int(rng.integers(2, 7))
        s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.05, 5.0)))
        q = rng.standard_normal((dim, dim)) * rng.uniform(0.5, 3.0)
        h = float(rng.uniform(1e-3, 1.0))
        out = transfer_matrix(tableau, s, h) @ q
        gram0 = q.T @ q
        change = float(np.linalg.norm(out.T @ out - gram0) / np.linalg.norm(gram0))
        worst = max(worst, change)
        assert change <= 1e-12
    print(f"criterion 5 (Gram change over 100 arbitrary starts, worst {worst:.2e}): PASS")


def test_criterion_6_determinant_invariance(midpoint_run):
    dets = midpoint_run.det_drifts  # det0 of the identity is exactly 1
    max_drift = float(np.max(np.abs(dets)))
    assert max_drift <= 1e-9
    rk2_det = np.linalg.det(transfer_matrix("rk2-closed", QUARTER, 1.0))
    assert abs(rk2_det - 1.25) <= 1e-12
    print(
        f"criterion 6 (|det-1| {max_drift:.2e} <= 1e-9 over long run; "
        f"rk2 transfer det 1.25): PASS"
    )


def test_criterion_7_convergence_orders():
    h_set = (0.2, 0.1, 0.05, 0.025)
    slopes = {}
    for label, method, target, tol in (
        ("midpoint", "cayley-midpoint", 2.0, 0.1),
        ("rk2", "rk2-closed", 2.0, 0.1),
        ("gauss2", builtin("gauss2"), 4.0, 0.2),
    ):
        slope = convergence_order(method, BENCH, identity_state(), 10.0, h_set)
        assert abs(slope - target) <= tol, f"{label}: slope {slope}"
        slopes[label] = slope
    print(
        "criterion 7 (orders: "
        + ", ".join(f"{k} {v:.3f}" for k, v in slopes.items())
        + "): PASS"
    )


def test_criterion_8_symmetric_method_property(random_transfer_samples):
    worst = 0.0
    for s, h in random_transfer_samples:
        defect = adjoint_defect("cayley-midpoint", s, h)
        worst = max(worst, defect)
        assert defect <= 1e-13
    hand = adjoint_defect("rk2-closed", QUARTER, 1.0)
    assert hand == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-6)
    print(
        f"criterion 8 (cayley adjoint defect worst {worst:.2e} <= 1e-13; "
        f"rk2 hand case sqrt(2)/4): PASS"
    )


def test_criterion_9_gyro_pipeline(midpoint_run):
    config = IntegratorConfig(method="cayley-midpoint", step=1e-3)
    quarter_log = GyroLog([0.0, np.pi / 2], np.tile([0.0, 0.0, 1.0], (2, 1)))
    traj = propagate_gyro(quarter_log, config)
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    final_err = float(np.linalg.norm(traj.qs[-1] - quarter))
    assert final_err <= 1e-6

    bench_log = GyroLog([0.0, BENCH_T_END], np.tile(BENCH_RATE, (2, 1)))
    bench_config = IntegratorConfig(method="cayley-midpoint", step=BENCH_STEP)
    from_log = propagate_gyro(bench_log, bench_config)
    ends = [0, -1]
    assert_array_equal(from_log.times, midpoint_run.times[ends])
    assert_array_equal(from_log.qs, midpoint_run.qs[ends])
    assert_array_equal(from_log.energies, midpoint_run.energies[ends])
    assert_array_equal(from_log.orth_defects, midpoint_run.orth_defects[ends])
    assert_array_equal(from_log.det_drifts, midpoint_run.det_drifts[ends])
    print(
        f"criterion 9 (gyro quarter-turn err {final_err:.2e} <= 1e-6; "
        f"constant-rate log reproduces the long-run records exactly): PASS"
    )
