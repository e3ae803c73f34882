import dataclasses

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import (
    BENCH_MAT,
    BENCH_STEP,
    BENCH_THETA_SQ,
    convergence_order,
    mp_meters,
    mp_rk2_energy,
    pseudo_symplectic_defect,
    random_orthogonal,
    random_skew,
)
from skewflow import (
    BUILTIN_NAMES,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    Trajectory,
    builtin,
    energy,
    expm,
    hat,
    orthogonality_defect,
    propagate,
    rk2_energy_forecast,
    transfer_matrix,
)
from skewflow.diagnostics import _dets, _orth_defects
from skewflow.linalg import STACK_ENTRIES

BENCH = SkewMatrix(BENCH_MAT)


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
        traj = Trajectory("x", 1.0, np.arange(2.0), np.stack([np.eye(3)] * 2))
        assert_array_equal(traj.det_drifts, [0.0, 0.0])

    def test_rk2_transfer(self):
        qs = np.stack([np.eye(2), np.array([[0.5, 1.0], [-1.0, 0.5]])])
        traj = Trajectory("x", 1.0, np.arange(2.0), qs)
        assert traj.det_drifts[1] == pytest.approx(0.25, abs=1e-15)

    def test_cayley_transfer_drift_at_rounding_level(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = SkewMatrix(random_skew(rng, int(rng.integers(2, 6)), norm=3.0))
            phi = transfer_matrix("cayley-midpoint", s, rng.uniform(0.05, 1.0))
            assert abs(_dets(phi[None])[0] - 1.0) <= 1e-13


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
        orth = orthogonality_defect(phi)
        assert (two_form <= 1e-12 * np.linalg.norm(BENCH.mat)) == (orth <= 1e-12)


class TestRecordsAndTrajectory:
    def test_trajectory_requires_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(method="x", step=0.1, times=[0.0, 0.0], qs=np.stack([np.eye(3)] * 2))

    @pytest.mark.parametrize("times, qs", [
        ([0.0, 1.0], np.zeros((2, 3, 4))),  # not square
        ([0.0, 1.0], np.zeros((2, 9))),  # not a stack of matrices
        ([0.0, 1.0, 2.0], np.zeros((2, 3, 3))),  # one state short
    ])
    def test_trajectory_requires_a_state_per_time(self, times, qs):
        with pytest.raises(ValueError, match="states must have shape"):
            Trajectory("x", 0.1, times, qs)

    def test_trajectory_requires_a_record(self):
        with pytest.raises(ValueError, match="at least one record"):
            Trajectory("x", 0.1, [], np.zeros((0, 3, 3)))

    def test_column_properties(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, OrthogonalState(np.eye(3), 0.0), 0.5)
        assert traj.times.shape == (6,)
        assert traj.energies[0] == 3.0
        assert traj.energy_errors[0] == 0.0
        assert np.all(traj.orth_defects >= 0.0)
        assert traj.det_drifts.shape == (6,)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_blocks_metered_against_the_origin_give_the_whole_columns(self, dim):
        rng = np.random.default_rng(21 + dim)
        n = STACK_ENTRIES + 50
        qs = rng.standard_normal((n, dim, dim))
        times = np.arange(n, dtype=float)
        whole = Trajectory("x", 0.1, times, qs)
        columns = ("energies", "energy_errors", "orth_defects", "det_drifts")
        cuts = [0, 1, 700, STACK_ENTRIES + 3, n]
        for a, b in zip(cuts[:-1], cuts[1:]):
            block = Trajectory("x", 0.1, times[a:b], qs[a:b], origin=None if a == 0 else qs[0])
            for name in columns:
                assert_array_equal(getattr(block, name), getattr(whole, name)[a:b])

    def test_an_origin_must_be_one_state(self):
        with pytest.raises(ValueError, match="origin must have shape"):
            Trajectory("x", 0.1, [0.0], np.eye(3)[None], origin=np.eye(2))

    def test_meter_columns_are_cached_and_cannot_be_replaced(self):
        qs = np.stack([np.eye(3), 2.0 * np.eye(3)])
        traj = Trajectory("x", 0.1, [0.0, 1.0], qs)
        assert traj.energy_errors is traj.energy_errors
        assert_array_equal(traj.energy_errors, [0.0, 9.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.orth_defects = np.zeros(2)


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
        for k, e in enumerate(traj.energies):
            predicted = rk2_energy_forecast(BENCH_THETA_SQ, BENCH_STEP, k)
            assert abs(e - predicted) <= 1e-9 * predicted

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
        # every step size lands on q0 exactly: no error to fit an order to
        q0 = OrthogonalState(np.eye(3), 0.0)
        for h in self.H_SET:
            traj = propagate(IntegratorConfig("rk2-closed", h), SkewMatrix(np.zeros((3, 3))),
                             q0, 10.0, record_every=2**62)
            assert_array_equal(traj.qs[-1], np.eye(3))


class TestNonSkewEnergyLeak:
    def test_loose_gate_breaks_conservation(self):
        # rationale for the construction-time skew gate: a 1e-3 symmetric
        # perturbation already leaks energy well past eps*h*E/2 in ONE step
        eps, h = 1e-3, 0.1
        leaky = SkewMatrix(BENCH_MAT + eps * np.eye(3), tol=1e-2)
        out = transfer_matrix(builtin("midpoint"), leaky, h) @ np.eye(3)
        change = abs(energy(out) - 3.0)
        assert change > eps * h * 3.0 / 2.0

    def test_true_skew_does_not_leak(self):
        out = transfer_matrix(builtin("midpoint"), BENCH, 0.1) @ np.eye(3)
        assert abs(energy(out) - 3.0) <= 1e-13


def _lu_det_and_matmul_gram(qs):
    # the meters before the closed forms: LAPACK's LU det and the matmul Gram
    gram = np.matmul(qs.transpose(0, 2, 1), qs) - np.eye(qs.shape[-1])
    return np.linalg.det(qs), np.sqrt(np.einsum("nij,nij->n", gram, gram))


def _errors(values, exact):
    # |value - exact| in units of max(1, |exact|), the scale of a meter
    # that starts near 1
    with mp.workdps(40):
        return np.array([float(abs(mp.mpf(x) - e) / max(1, abs(e)))
                         for x, e in zip(values.tolist(), exact)])


def _oracle_stacks():
    rng = np.random.default_rng(12)

    def orthogonal(n):
        return np.stack([random_orthogonal(rng, 3) for _ in range(n)])

    return {
        "orthogonal": orthogonal(200),
        "non-orthogonal": rng.standard_normal((200, 3, 3)),
        # products of small integers are exact, so the zero and rank-1
        # matrices have det exactly 0 by either route
        "singular": np.stack([np.zeros((3, 3)), np.outer([1.0, -2.0, 3.0], [4.0, 5.0, -6.0])]),
        "scaled-1e60": 1e60 * orthogonal(100),
        "scaled-1e100": 1e100 * orthogonal(100),
    }


class TestStackKernels:
    """The closed-form 3 x 3 meters against 40-digit mpmath and against the
    LU det and matmul Gram they replace."""

    @pytest.mark.parametrize("kind", sorted(_oracle_stacks()))
    def test_closed_forms_within_twice_the_lu_and_matmul_error(self, kind):
        qs = _oracle_stacks()[kind]
        exact_det, exact_orth = zip(*(mp_meters(q) for q in qs))
        with np.errstate(over="ignore", invalid="ignore"):
            det_lu, gram_mm = _lu_det_and_matmul_gram(qs)
            dets, defects = _dets(qs), _orth_defects(qs)
        det_err = _errors(dets, exact_det)
        assert det_err.max() <= 2.0 * _errors(det_lu, exact_det).max()
        assert det_err.max() <= 4.0 * np.finfo(float).eps
        # the Gram defect overflows where it did before, once entries pass
        # about 1e77 (all of the 1e100 stack), which the first-bad-record
        # failures rely on; the finite ones are compared
        assert_array_equal(np.isinf(defects), np.isinf(gram_mm))
        finite = np.isfinite(gram_mm)
        exact_orth = [e for e, ok in zip(exact_orth, finite) if ok]
        orth_err = _errors(defects[finite], exact_orth)
        assert orth_err.max(initial=0.0) <= 2.0 * _errors(gram_mm[finite], exact_orth).max(initial=0.0)
        assert orth_err.max(initial=0.0) <= 4.0 * np.finfo(float).eps

    def test_det_of_a_rounded_rank_one_matrix_is_within_the_expansion_bound(self):
        # LU eliminates a rank-1 matrix to a Schur complement of rounding
        # size, so its det is off by about eps^2; the triple product's 2 x 2
        # minors cancel to rounding of their products, about eps times the
        # matrix's scale.  That is the a-priori bound of the expansion,
        # 6 eps perm(|q|), a few ulps of max(1, |det|) for a meter near 1
        rng = np.random.default_rng(13)
        qs = np.stack([np.outer(rng.standard_normal(3), rng.standard_normal(3))
                       for _ in range(100)])
        exact = [mp_meters(q)[0] for q in qs]
        a = np.abs(qs)
        perm = sum(a[:, 0, i] * a[:, 1, j] * a[:, 2, 3 - i - j]
                   for i in range(3) for j in range(3) if i != j)
        with mp.workdps(40):
            err = np.array([float(abs(mp.mpf(x) - e)) for x, e in zip(_dets(qs).tolist(), exact)])
        assert np.all(err <= 6.0 * np.finfo(float).eps * perm)

    def test_record_meters_are_the_same_bits_alone_and_across_a_block_boundary(self):
        rng = np.random.default_rng(14)
        n = STACK_ENTRIES + 40
        qs = np.stack([random_orthogonal(rng, 3) for _ in range(n)])
        qs[::3] += 1e-3 * rng.standard_normal((len(qs[::3]), 3, 3))
        dets, defects = _dets(qs), _orth_defects(qs)
        for j in range(n):
            assert dets[j] == _dets(qs[j : j + 1])[0]
            assert defects[j] == _orth_defects(qs[j : j + 1])[0]
        # and in a stack that starts elsewhere, so other records share a block
        assert_array_equal(_dets(qs[17:]), dets[17:])
        assert_array_equal(_orth_defects(qs[17:]), defects[17:])

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_scalar_meters_equal_the_trajectory_columns_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        qs = np.stack([random_orthogonal(rng, dim) for _ in range(6)]
                      + [rng.standard_normal((dim, dim)) for _ in range(6)])
        traj = Trajectory("x", 0.1, np.arange(len(qs), dtype=float), qs)
        det0 = _dets(qs[:1])[0]
        for j, q in enumerate(qs):
            assert traj.energies[j] == energy(q)
            assert traj.orth_defects[j] == orthogonality_defect(q)
            assert traj.det_drifts[j] == _dets(q[None])[0] - det0
