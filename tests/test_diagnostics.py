import numpy as np
import pytest

from conftest import (
    BENCH_MAT,
    BENCH_STEP,
    BENCH_THETA_SQ,
    mp_rk2_energy,
    random_skew,
)
from skewflow import (
    BUILTIN_NAMES,
    IndeterminateOrderError,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    Trajectory,
    assert_skew,
    builtin,
    convergence_order,
    det_drift,
    energy,
    expm,
    hat,
    orthogonality_defect,
    propagate,
    pseudo_symplectic_defect,
    rk2_energy_forecast,
    rk_step,
    transfer_matrix,
)

BENCH = assert_skew(BENCH_MAT)


class TestEnergy:
    def test_identity_3x3(self):
        assert energy(np.eye(3)) == 3.0

    def test_scaled_identity(self):
        assert energy(2.0 * np.eye(2)) == 8.0

    def test_hand_sum_of_squares(self):
        assert energy([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_identity_energy_equals_dimension(self, dim):
        assert energy(np.eye(dim)) == float(dim)

    def test_exact_flow_conserves_energy(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            q0, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            e0 = energy(q0)
            e1 = energy(expm(s, rng.uniform(-5, 5)) @ q0)
            assert abs(e1 - e0) <= 1e-12 * e0


class TestOrthogonalityDefect:
    def test_identity(self):
        assert orthogonality_defect(np.eye(5)) == 0.0

    def test_scaled_identity(self):
        assert orthogonality_defect(2.0 * np.eye(2)) == pytest.approx(
            3.0 * np.sqrt(2.0), abs=1e-15
        )

    def test_exact_flow_defect_at_rounding_level(self):
        assert orthogonality_defect(expm(BENCH, 7.3)) <= 1e-13


class TestDetDrift:
    def test_identity(self):
        assert det_drift(np.eye(3), 1.0) == 0.0

    def test_rk2_transfer(self):
        assert det_drift(np.array([[0.5, 1.0], [-1.0, 0.5]]), 1.0) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_cayley_transfer_drift_at_rounding_level(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = SkewMatrix(random_skew(rng, int(rng.integers(2, 6)), norm=3.0))
            phi = transfer_matrix("cayley-midpoint", s, rng.uniform(0.05, 1.0))
            assert abs(det_drift(phi.phi, 1.0)) <= 1e-13


class TestPseudoSymplecticDefect:
    def test_identity_transfer(self):
        assert pseudo_symplectic_defect(np.eye(3), BENCH) == 0.0

    def test_cayley_transfer(self):
        phi = transfer_matrix("cayley-midpoint", BENCH, 0.3)
        assert pseudo_symplectic_defect(phi, BENCH) <= 1e-12 * np.linalg.norm(BENCH.mat)

    def test_rk2_quarter_turn_value(self):
        quarter = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
        phi = transfer_matrix("rk2-closed", quarter, 1.0)
        assert pseudo_symplectic_defect(phi, quarter) == pytest.approx(
            np.sqrt(2.0) / 4.0, abs=1e-15
        )

    @pytest.mark.parametrize(
        "method", list(BUILTIN_NAMES) + ["cayley-midpoint", "rk2-closed"]
    )
    def test_covanishes_with_orthogonality_defect(self, method):
        # both meters reduce to phi^T phi = I for maps that are rational in S
        m = builtin(method) if method in BUILTIN_NAMES else method
        phi = transfer_matrix(m, BENCH, 0.4)
        two_form = pseudo_symplectic_defect(phi, BENCH)
        orth = orthogonality_defect(phi.phi)
        assert (two_form <= 1e-12 * np.linalg.norm(BENCH.mat)) == (orth <= 1e-12)


class TestRecordsAndTrajectory:
    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(method="x", step=0.1, times=[0.0, 0.0], qs=np.stack([np.eye(3)] * 2))

    def test_column_properties(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, OrthogonalState(np.eye(3), 0.0), 0.5)
        assert traj.times.shape == (6,)
        assert traj.energies[0] == 3.0
        assert traj.energy_errors[0] == 0.0
        assert np.all(traj.orth_defects >= 0.0)
        assert traj.det_drifts.shape == (6,)


class TestRk2EnergyForecast:
    def test_zero_steps_returns_initial_energy(self):
        assert rk2_energy_forecast(BENCH_THETA_SQ, BENCH_STEP, 0) == 3.0

    def test_single_step_value(self):
        got = rk2_energy_forecast(BENCH_THETA_SQ, BENCH_STEP, 1)
        assert got == pytest.approx(3.000804005, abs=1e-12)

    def test_long_horizon_matches_high_precision(self):
        got = rk2_energy_forecast(BENCH_THETA_SQ, BENCH_STEP, 20000)
        exact = mp_rk2_energy(BENCH_THETA_SQ, BENCH_STEP, 20000)
        assert got == pytest.approx(exact, rel=1e-10)

    def test_matches_measured_energy_for_short_runs(self):
        config = IntegratorConfig(method="rk2-closed", step=BENCH_STEP)
        traj = propagate(config, BENCH, OrthogonalState(np.eye(3), 0.0), 10.0)
        for k, rec in enumerate(traj.records):
            predicted = rk2_energy_forecast(BENCH_THETA_SQ, BENCH_STEP, k)
            assert abs(rec.energy - predicted) <= 1e-9 * predicted

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rk2_energy_forecast(-1.0, 0.1, 1)
        with pytest.raises(ValueError, match="positive"):
            rk2_energy_forecast(1.0, 0.0, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            rk2_energy_forecast(1.0, 0.1, -1)


class TestConvergenceOrder:
    H_SET = (0.2, 0.1, 0.05, 0.025)

    def test_cayley_midpoint_is_second_order(self):
        slope = convergence_order(
            "cayley-midpoint", BENCH, OrthogonalState(np.eye(3), 0.0), 10.0, self.H_SET
        )
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_gauss2_is_fourth_order(self):
        slope = convergence_order(
            builtin("gauss2"), BENCH, OrthogonalState(np.eye(3), 0.0), 10.0, self.H_SET
        )
        assert slope == pytest.approx(4.0, abs=0.2)

    def test_zero_field_is_indeterminate(self):
        with pytest.raises(IndeterminateOrderError):
            convergence_order(
                "rk2-closed",
                SkewMatrix(np.zeros((3, 3))),
                OrthogonalState(np.eye(3), 0.0),
                10.0,
                self.H_SET,
            )

    def test_input_validation(self):
        q0 = OrthogonalState(np.eye(3), 0.0)
        with pytest.raises(ValueError, match="3 step sizes"):
            convergence_order("rk2-closed", BENCH, q0, 10.0, [0.1, 0.05])
        with pytest.raises(ValueError, match="positive"):
            convergence_order("rk2-closed", BENCH, q0, 10.0, [0.1, 0.05, -0.01])


class TestNonSkewEnergyLeak:
    def test_loose_gate_breaks_conservation(self):
        # rationale for the construction-time skew gate: a 1e-3 symmetric
        # perturbation already leaks energy well past eps*h*E/2 in ONE step
        eps, h = 1e-3, 0.1
        leaky = assert_skew(BENCH_MAT + eps * np.eye(3), tol=1e-2)
        out = rk_step(builtin("midpoint"), leaky, OrthogonalState(np.eye(3), 0.0), h)
        change = abs(energy(out.q) - 3.0)
        assert change > eps * h * 3.0 / 2.0

    def test_true_skew_does_not_leak(self):
        out = rk_step(builtin("midpoint"), BENCH, OrthogonalState(np.eye(3), 0.0), 0.1)
        assert abs(energy(out.q) - 3.0) <= 1e-13
