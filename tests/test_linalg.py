import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import BENCH_MAT, BENCH_RATE, random_skew, series_expm
from skewflow import (
    OrthogonalState,
    SingularMatrixError,
    SkewMatrix,
    SkewnessError,
    apply_velocity,
    Trajectory,
    checked_solve,
    det_drift,
    expm,
    hat,
    vee,
)
from skewflow.linalg import (
    ROT3_SERIES_CUTOFF,
    _exp_coefficients,
    checked_inverse,
    hat_stack,
    power,
    rodrigues,
    scan,
)

finite_rates = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=3, max_size=3
)


class TestHatVee:
    def test_hat_benchmark_rate(self):
        assert_array_equal(hat(BENCH_RATE).mat, BENCH_MAT)

    def test_hat_zero(self):
        assert_array_equal(hat([0.0, 0.0, 0.0]).mat, np.zeros((3, 3)))

    def test_hat_template(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert_array_equal(hat([1.0, 2.0, 3.0]).mat, expected)

    def test_hat_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="3-vector"):
            hat([1.0, 2.0])

    def test_hat_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            hat([np.nan, 0.0, 0.0])

    def test_vee_zero(self):
        assert_array_equal(vee(SkewMatrix(np.zeros((3, 3)))), np.zeros(3))

    def test_vee_benchmark_matrix(self):
        assert_array_equal(vee(SkewMatrix(BENCH_MAT)), BENCH_RATE)

    def test_vee_requires_dim_3(self):
        with pytest.raises(ValueError, match="dimension 3"):
            vee(SkewMatrix([[0.0, 1.0], [-1.0, 0.0]]))

    @given(finite_rates)
    def test_vee_hat_roundtrip_is_exact(self, omega):
        assert_array_equal(vee(hat(omega)), np.asarray(omega))


class TestSkewGate:
    def test_accepts_planar_rotation_generator(self):
        s = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]], tol=1e-12)
        assert s.dim == 2

    def test_rejects_symmetric_with_defect(self):
        with pytest.raises(SkewnessError) as excinfo:
            SkewMatrix([[0.0, 1.0], [1.0, 0.0]], tol=1e-12)
        assert excinfo.value.defect == 2.0

    def test_accepts_benchmark_matrix(self):
        assert SkewMatrix(BENCH_MAT, tol=1e-12).dim == 3

    def test_loose_tolerance_admits_small_perturbations(self):
        # deliberate escape hatch used to demonstrate conservation breakage
        nearly = BENCH_MAT + 1e-3 * np.eye(3)
        with pytest.raises(SkewnessError):
            SkewMatrix(nearly)
        assert SkewMatrix(nearly, tol=1e-2).dim == 3

    def test_matrix_is_read_only(self):
        s = hat([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            s.mat[0, 0] = 1.0
        with pytest.raises(AttributeError):
            s.mat = np.zeros((3, 3))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SkewMatrix(np.zeros((2, 3)))


class TestApplyVelocity:
    def test_unit_rotation_about_third_axis(self):
        assert_allclose(apply_velocity([0, 0, 1], [1, 0, 0]), [0, 1, 0], atol=0)

    def test_zero_rate(self):
        assert_array_equal(apply_velocity([0, 0, 0], [3.0, -1.0, 2.0]), np.zeros(3))

    def test_hand_cross_product(self):
        assert_allclose(apply_velocity([1, 2, 3], [4, 5, 6]), [-3.0, 6.0, -3.0], atol=0)

    @given(finite_rates, finite_rates)
    def test_matches_cross_product(self, omega, x):
        got = apply_velocity(omega, x)
        expected = np.cross(np.asarray(omega), np.asarray(x))
        scale = max(1.0, float(np.linalg.norm(omega) * np.linalg.norm(x)))
        assert_allclose(got, expected, rtol=1e-15, atol=1e-15 * scale)

    @given(finite_rates, finite_rates)
    def test_result_orthogonal_to_both_inputs(self, omega, x):
        v = apply_velocity(omega, x)
        # rounding in v is ~eps*|omega||x|, so the dot products carry an
        # extra factor of the vector they are taken against
        nw = float(np.linalg.norm(omega))
        nx = float(np.linalg.norm(x))
        scale = max(1.0, nw * nx * max(nw, nx))
        assert abs(v @ np.asarray(omega, dtype=float)) <= 1e-13 * scale
        assert abs(v @ np.asarray(x, dtype=float)) <= 1e-13 * scale


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert_array_equal(expm(SkewMatrix(np.zeros((3, 3))), 5.0), np.eye(3))
        assert_array_equal(expm(SkewMatrix(np.zeros((4, 4))), 5.0), np.eye(4))

    def test_quarter_turn(self):
        got = expm(hat([0.0, 0.0, 1.0]), np.pi / 2)
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(got - expected)) <= 1e-14
        oracle = series_expm((np.pi / 2) * hat([0.0, 0.0, 1.0]).mat)
        assert np.max(np.abs(got - oracle)) <= 1e-14

    def test_benchmark_flow_is_orthogonal(self):
        q = expm(SkewMatrix(BENCH_MAT), 0.1)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_series_oracle(self, dim):
        rng = np.random.default_rng(17 + dim)
        for _ in range(5):
            s = random_skew(rng, dim, norm=2.5)
            t = rng.uniform(-2.0, 2.0)
            got = expm(SkewMatrix(s), t)
            assert np.linalg.norm(got - series_expm(t * s)) <= 1e-13

    def test_small_angle_branch(self):
        s = hat([1e-6, -2e-6, 0.5e-6])
        got = expm(s, 1.0)
        assert np.linalg.norm(got - series_expm(s.mat)) <= 1e-15

    def test_rot3_agrees_with_generic_path(self):
        # embed a 3x3 skew block in 4x4 so the generic branch computes the
        # same rotation; the exponential of the padded matrix is block diagonal
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.uniform(-3, 3, size=3)
            t = rng.uniform(0.1, 4.0)
            padded = np.zeros((4, 4))
            padded[:3, :3] = hat(w).mat
            via_generic = expm(SkewMatrix(padded), t)
            assert np.linalg.norm(via_generic[:3, :3] - expm(hat(w), t)) <= 5e-14
            assert np.linalg.norm(via_generic[3] - np.array([0, 0, 0, 1.0])) <= 1e-15

    def test_orthogonality_determinant_group_properties(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 10.0)))
            t1 = rng.uniform(-10, 10)
            t2 = rng.uniform(-10, 10)
            e1 = expm(s, t1)
            assert np.linalg.norm(e1.T @ e1 - np.eye(dim)) <= 1e-13
            assert abs(np.linalg.det(e1) - 1.0) <= 1e-12
            both = expm(s, t1 + t2)
            assert np.linalg.norm(both - e1 @ expm(s, t2)) <= 1e-12


class TestSolveAndDet:
    def test_identity_system(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(checked_solve(np.eye(2), b), b)

    def test_scaled_identity(self):
        assert_allclose(checked_solve(2.0 * np.eye(3), np.eye(3)), 0.5 * np.eye(3), atol=0)

    def test_hand_inversion(self):
        a = np.array([[1.0, -1.0], [1.0, 1.0]])
        expected = np.array([[0.5, 0.5], [-0.5, 0.5]])
        assert_allclose(checked_solve(a, np.eye(2)), expected, atol=1e-16)

    def test_vector_right_hand_side(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        x = checked_solve(a, np.array([3.0, 5.0]))
        assert x.shape == (2,)
        assert_allclose(a @ x, [3.0, 5.0], rtol=1e-14)

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal((n, max(1, n // 2)))
            x = checked_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            checked_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_complex_matrix_is_refused_not_truncated(self):
        # the suite turns numpy's complex-to-real casting warning into an
        # error, so a complex system cannot silently lose its imaginary part
        with pytest.raises(Warning, match="Casting complex values to real"):
            checked_solve(np.eye(2) * (1.0 + 1.0j), np.eye(2))

    def test_nonconformable_raises(self):
        with pytest.raises(ValueError, match="conform"):
            checked_solve(np.eye(2), np.eye(3))

    def test_det_examples(self):
        assert det_drift(np.eye(4), 0.0) == 1.0
        assert det_drift(np.array([[0.5, 1.0], [-1.0, 0.5]]), 0.0) == pytest.approx(
            1.25, abs=1e-15
        )
        assert det_drift(np.zeros((2, 2)), 0.0) == 0.0

    def test_det_matches_numpy(self):
        # the batched meter over an (n, d, d) stack against one matrix at a time
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            qs = np.stack([np.eye(n), rng.standard_normal((n, n))])
            got = Trajectory("x", 0.1, [0.0, 1.0], qs).det_drifts[1] + 1.0
            expected = np.linalg.det(qs[1])
            assert got == pytest.approx(expected, rel=1e-11, abs=1e-12)


class TestOrthogonalState:
    def test_holds_matrix_and_time(self):
        state = OrthogonalState(np.eye(3), 2.5)
        assert state.t == 2.5
        assert state.dim == 3

    def test_nonorthogonal_matrices_are_allowed(self):
        OrthogonalState(np.full((2, 2), 3.0), 0.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            OrthogonalState(np.zeros((2, 3)), 0.0)

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError, match="finite"):
            OrthogonalState(np.eye(2), np.inf)

    def test_matrix_read_only(self):
        state = OrthogonalState(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            state.q[0, 0] = 7.0


class TestStacks:
    def test_hat_stack_matches_hat_bitwise(self):
        rates = np.random.default_rng(2).uniform(-5.0, 5.0, size=(20, 3))
        rates[0] = 0.0
        for w, m in zip(rates, hat_stack(rates)):
            assert_array_equal(m, hat(w).mat)

    def test_stacked_rotations_match_expm(self):
        # every branch of the closed form: th = 0, the series below the
        # cutoff, either side of the cutoff, and th on and around pi
        rng = np.random.default_rng(4)
        angles = np.array([0.0, 1e-12, 1e-6, 0.5 * ROT3_SERIES_CUTOFF, ROT3_SERIES_CUTOFF,
                           1.5 * ROT3_SERIES_CUTOFF, 0.3, 2.0, np.pi - 1e-7, np.pi,
                           np.pi + 1e-7, 7.5])
        axes = rng.standard_normal((angles.shape[0], 3))
        rates = axes / np.linalg.norm(axes, axis=1)[:, None] * angles[:, None]
        stacked = rodrigues(hat_stack(rates), _exp_coefficients)
        for w, r in zip(rates, stacked):
            assert np.max(np.abs(r - expm(hat(w)))) <= 2e-16

    @pytest.mark.parametrize(
        "bad", [[[1.0, 1.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]],
        ids=["exactly-singular", "below-rcond"],
    )
    def test_one_singular_matrix_in_a_stack_raises(self, bad):
        # the stage-system guard: a stack of complex s x s matrices, one of
        # them (numerically) singular
        a = np.tile(np.eye(2) + 0.5j * np.eye(2)[::-1], (5, 1, 1))
        assert_allclose(checked_inverse(a) @ a, np.tile(np.eye(2), (5, 1, 1)), atol=1e-15)
        a[3] = np.array(bad) * (1.0 + 1.0j)
        with pytest.raises(SingularMatrixError):
            checked_inverse(a)


def repeated_product(a, k):
    out = np.eye(a.shape[-1])
    for _ in range(k):
        out = a @ out
    return out


class TestPowerAndScan:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 31, 32, 63, 64, 100])
    def test_power_matches_repeated_products(self, k):
        # exponents 0, 1, 2^b - 1 and 2^b: the widest and narrowest bit patterns
        rng = np.random.default_rng(k)
        a = np.linalg.qr(rng.standard_normal((5, 5)))[0] + 0.01 * rng.standard_normal((5, 5))
        want = repeated_product(a, k)
        got = power(a, k)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        if k == 0:
            assert_array_equal(got, np.eye(5))
        if k == 1:
            assert_array_equal(got, a)

    def test_stacked_power_equals_per_matrix_power_bitwise(self):
        # mixed per-element exponents, so matrices drop out at different bits
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 3, 3)) / 2.0
        ks = np.array([0, 1, 2, 3, 5, 16, 31, 40, 0])
        for ai, ki, pi in zip(a, ks, power(a, ks)):
            assert_array_equal(pi, power(ai, ki))
            assert np.linalg.norm(pi - repeated_product(ai, ki)) <= (
                1e-13 * np.linalg.norm(repeated_product(ai, ki)))
        # one matrix raised to a stack of exponents, and a stack to one exponent
        for ki, pi in zip(ks, power(a[0], ks)):
            assert_array_equal(pi, power(a[0], ki))
        for ai, pi in zip(a, power(a, 6)):
            assert_array_equal(pi, power(ai, 6))

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            power(np.eye(2), np.array([1, -1]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 512, 513])
    def test_scan_matches_sequential_products(self, n):
        rng = np.random.default_rng(n)
        maps = np.array([np.linalg.qr(m)[0] for m in rng.standard_normal((n, 4, 4))])
        p = scan(maps)
        assert p.shape == maps.shape
        assert_array_equal(p[0], maps[0])
        want = maps[0]
        for j in range(1, n):
            want = maps[j] @ want
            assert np.linalg.norm(p[j] - want) <= 1e-13 * np.linalg.norm(want)

    def test_scan_leaves_its_input_alone(self):
        maps = np.random.default_rng(8).standard_normal((6, 2, 2))
        before = maps.copy()
        scan(maps)
        assert_array_equal(maps, before)
