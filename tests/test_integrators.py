import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import BENCH_MAT, random_orthogonal, random_skew
from skewflow import (
    BUILTIN_NAMES,
    ButcherTableau,
    ConvergenceError,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    assert_skew,
    builtin,
    cayley_step,
    energy,
    propagate,
    rk2_closed_step,
    rk_step,
    symplecticity,
    transfer_matrix,
)
from skewflow import adjoint_defect

QUARTER = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
BENCH = assert_skew(BENCH_MAT)


def eye_state(dim, t=0.0):
    return OrthogonalState(np.eye(dim), t)


def random_symplectic_dirk(rng, stages):
    """Diagonally implicit symplectic tableau: a_ii = b_i/2, a_ij = b_j below."""
    b = rng.uniform(0.1, 1.0, size=stages)
    a = np.zeros((stages, stages))
    for i in range(stages):
        a[i, i] = b[i] / 2.0
        a[i, :i] = b[:i]
    return ButcherTableau(a, b, a.sum(axis=1))


class TestConfig:
    def test_rejects_zero_step(self):
        with pytest.raises(ValueError, match="step"):
            IntegratorConfig(method="cayley-midpoint", step=0.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorConfig(method="leapfrog", step=0.1)

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="solver"):
            IntegratorConfig(method="rk2-closed", step=0.1, stage_solver="magic")

    def test_accepts_tableau(self):
        IntegratorConfig(method=builtin("gauss2"), step=0.5)


class TestSingleSteps:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_zero_field_leaves_state_fixed(self, name):
        rng = np.random.default_rng(0)
        q = OrthogonalState(rng.standard_normal((3, 3)), 1.0)
        out = rk_step(builtin(name), SkewMatrix(np.zeros((3, 3))), q, 0.25)
        assert_array_equal(out.q, q.q)
        assert out.t == 1.25

    def test_midpoint_hand_case(self):
        out = rk_step(builtin("midpoint"), QUARTER, eye_state(2), 2.0)
        assert_allclose(out.q, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_cayley_hand_case(self):
        out = cayley_step(QUARTER, eye_state(2), 2.0)
        assert_allclose(out.q, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_cayley_zero_field(self):
        q = OrthogonalState(np.diag([2.0, 3.0]), 0.0)
        assert_array_equal(cayley_step(SkewMatrix(np.zeros((2, 2))), q, 1.0).q, q.q)

    def test_cayley_benchmark_step_is_orthogonal(self):
        out = cayley_step(BENCH, eye_state(3), 0.1)
        assert np.linalg.norm(out.q.T @ out.q - np.eye(3)) <= 1e-14

    def test_cayley_preserves_gram_of_arbitrary_state(self):
        rng = np.random.default_rng(5)
        q = OrthogonalState(rng.standard_normal((3, 3)) * 2.0, 0.0)
        out = cayley_step(BENCH, q, 0.7)
        gram0 = q.q.T @ q.q
        gram1 = out.q.T @ out.q
        assert np.linalg.norm(gram1 - gram0) <= 1e-13 * np.linalg.norm(gram0)

    def test_rk2_closed_hand_case(self):
        out = rk2_closed_step(QUARTER, eye_state(2), 1.0)
        assert_array_equal(out.q, [[0.5, 1.0], [-1.0, 0.5]])

    def test_rk2_closed_single_step_energy(self):
        # eigenvalue arithmetic: E_1 = 1 + 2*(1 + h^4 theta^4 / 4) = 3.000804005
        out = rk2_closed_step(BENCH, eye_state(3), 0.1)
        assert energy(out.q) == pytest.approx(3.000804005, abs=1e-12)

    def test_rk2_closed_zero_field(self):
        q = eye_state(3)
        assert_array_equal(rk2_closed_step(SkewMatrix(np.zeros((3, 3))), q, 0.3).q, q.q)

    def test_step_must_be_positive(self):
        for fn in (cayley_step, rk2_closed_step):
            with pytest.raises(ValueError, match="positive"):
                fn(QUARTER, eye_state(2), -0.1)
        with pytest.raises(ValueError, match="positive"):
            rk_step(builtin("midpoint"), QUARTER, eye_state(2), 0.0)


class TestClosedFormTwins:
    def test_rk2_paths_agree_on_benchmark(self):
        explicit = rk_step(builtin("rk2-explicit"), BENCH, eye_state(3), 0.1)
        closed = rk2_closed_step(BENCH, eye_state(3), 0.1)
        assert np.max(np.abs(explicit.q - closed.q)) <= 1e-15

    def test_twins_agree_on_random_problems(self):
        rng = np.random.default_rng(23)
        midpoint = builtin("midpoint")
        rk2 = builtin("rk2-explicit")
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            q = OrthogonalState(rng.standard_normal((dim, dim)), 0.0)
            h = rng.uniform(1e-3, 1.0)
            scale = np.linalg.norm(q.q)
            a = rk_step(midpoint, s, q, h).q
            b = cayley_step(s, q, h).q
            assert np.linalg.norm(a - b) <= 1e-13 * scale
            a = rk_step(rk2, s, q, h).q
            b = rk2_closed_step(s, q, h).q
            assert np.linalg.norm(a - b) <= 1e-13 * scale


class TestStageSolvers:
    def test_direct_and_fixed_point_agree(self):
        for tableau in (builtin("midpoint"), builtin("gauss2")):
            direct = rk_step(tableau, BENCH, eye_state(3), 0.1, stage_solver="direct")
            fixed = rk_step(tableau, BENCH, eye_state(3), 0.1, stage_solver="fixed-point")
            assert np.linalg.norm(direct.q - fixed.q) <= 1e-12

    def test_fixed_point_divergence_reports_residual(self):
        strong = SkewMatrix(random_skew(np.random.default_rng(1), 3, norm=50.0))
        with pytest.raises(ConvergenceError) as excinfo:
            rk_step(
                builtin("midpoint"),
                strong,
                eye_state(3),
                1.0,
                stage_solver="fixed-point",
                fp_max_iters=20,
            )
        assert excinfo.value.residual > 0

    def test_explicit_tableaus_never_touch_the_stage_solver(self, monkeypatch):
        import skewflow.integrators as integrators

        def forbidden(*args, **kwargs):
            raise AssertionError("stage solver invoked for an explicit tableau")

        monkeypatch.setattr(integrators, "checked_solve", forbidden)
        for name in ("rk2-explicit", "rk4-classical"):
            rk_step(builtin(name), BENCH, eye_state(3), 0.1)


class TestTransferMatrix:
    def test_cayley_hand_case(self):
        phi = transfer_matrix("cayley-midpoint", QUARTER, 2.0)
        assert_allclose(phi.phi, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
        assert phi.method == "cayley-midpoint"
        assert phi.step == 2.0

    def test_rk2_hand_case_and_determinant(self):
        phi = transfer_matrix("rk2-closed", QUARTER, 1.0)
        assert_array_equal(phi.phi, [[0.5, 1.0], [-1.0, 0.5]])
        assert np.linalg.det(phi.phi) == pytest.approx(1.25, abs=1e-12)

    def test_zero_field_gives_identity(self):
        phi = transfer_matrix(builtin("gauss2"), SkewMatrix(np.zeros((4, 4))), 0.5)
        assert_array_equal(phi.phi, np.eye(4))

    def test_linearity_of_every_method(self):
        rng = np.random.default_rng(9)
        methods = ["cayley-midpoint", "rk2-closed"] + [builtin(n) for n in BUILTIN_NAMES]
        for method in methods:
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=3.0))
            h = rng.uniform(0.05, 1.0)
            phi = transfer_matrix(method, s, h)
            for _ in range(5):
                q = OrthogonalState(rng.standard_normal((dim, dim)), 0.0)
                if isinstance(method, ButcherTableau):
                    stepped = rk_step(method, s, q, h).q
                elif method == "cayley-midpoint":
                    stepped = cayley_step(s, q, h).q
                else:
                    stepped = rk2_closed_step(s, q, h).q
                assert np.linalg.norm(stepped - phi.phi @ q.q) <= 1e-13 * np.linalg.norm(q.q)

    def test_cayley_determinant_is_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            phi = transfer_matrix("cayley-midpoint", s, rng.uniform(0.01, 1.0))
            assert abs(np.linalg.det(phi.phi) - 1.0) <= 1e-13


class TestAdjointDefect:
    def test_zero_field(self):
        assert adjoint_defect("rk2-closed", SkewMatrix(np.zeros((3, 3))), 1.0) == 0.0

    def test_cayley_is_symmetric(self):
        assert adjoint_defect("cayley-midpoint", BENCH, 0.1) <= 1e-14

    def test_gauss2_is_symmetric(self):
        assert adjoint_defect(builtin("gauss2"), BENCH, 0.1) <= 1e-12

    def test_rk2_hand_value(self):
        # (I + S + S^2/2)(I - S + S^2/2) - I = S^4/4 with S^2 = -I
        got = adjoint_defect("rk2-closed", QUARTER, 1.0)
        assert got == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-12)


class TestPropagate:
    def test_zero_field_records_constant_state(self):
        config = IntegratorConfig(method="cayley-midpoint", step=0.25)
        traj = propagate(config, SkewMatrix(np.zeros((3, 3))), eye_state(3), 2.0)
        assert len(traj) == 9
        for rec in traj.records:
            assert_array_equal(rec.q, np.eye(3))
            assert rec.energy_err == 0.0
            assert rec.det_drift == 0.0

    def test_times_recomputed_from_step_index(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.0)
        for k, rec in enumerate(traj.records[:-1]):
            assert rec.t == 0.0 + k * 0.1
        assert traj.records[-1].t == 1.0

    def test_final_partial_step_lands_on_t_end(self):
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.05)
        assert len(traj) == 12  # initial + 11 steps (last one shrunk to 0.05)
        assert traj.records[-1].t == 1.05

    def test_interval_shorter_than_step(self):
        config = IntegratorConfig(method="cayley-midpoint", step=1.0)
        traj = propagate(config, BENCH, eye_state(3), 0.25)
        assert len(traj) == 2
        assert traj.records[-1].t == 0.25

    def test_record_every_stride_plus_final(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.0, record_every=3)
        assert [round(r.t, 10) for r in traj.records] == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_rejects_bad_horizon_and_stride(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        with pytest.raises(ValueError, match="t_end"):
            propagate(config, BENCH, eye_state(3, t=1.0), 1.0)
        with pytest.raises(ValueError, match="record_every"):
            propagate(config, BENCH, eye_state(3), 1.0, record_every=0)

    def test_rejects_dimension_mismatch(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        with pytest.raises(ValueError, match="dimension"):
            propagate(config, QUARTER, eye_state(3), 1.0)

    def test_method_label_recorded(self):
        config = IntegratorConfig(method=builtin("gauss2"), step=0.5)
        traj = propagate(config, BENCH, eye_state(3), 1.0)
        assert traj.method == "gauss2"
        assert traj.step == 0.5


class TestConservation:
    def test_gram_preserved_per_step_for_symplectic_tableaus(self):
        # holds for ANY starting matrix, orthogonal or not
        rng = np.random.default_rng(77)
        for _ in range(60):
            choice = rng.integers(0, 3)
            if choice == 0:
                tableau = builtin("midpoint")
            elif choice == 1:
                tableau = builtin("gauss2")
            else:
                tableau = random_symplectic_dirk(rng, int(rng.integers(1, 4)))
                assert symplecticity(tableau).defect <= 1e-14
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            q = OrthogonalState(rng.standard_normal((dim, dim)) * 3.0, 0.0)
            h = rng.uniform(1e-3, 1.0)
            out = rk_step(tableau, s, q, h)
            gram0 = q.q.T @ q.q
            gram1 = out.q.T @ out.q
            assert np.linalg.norm(gram1 - gram0) <= 1e-12 * np.linalg.norm(gram0)

    def test_transfer_two_form_identity_for_symplectic_methods(self):
        from skewflow import pseudo_symplectic_defect

        rng = np.random.default_rng(13)
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            h = rng.uniform(1e-3, 1.0)
            s_norm = np.linalg.norm(s.mat)
            for method in ("cayley-midpoint", builtin("gauss2"), builtin("midpoint")):
                phi = transfer_matrix(method, s, h)
                assert pseudo_symplectic_defect(phi, s) <= 1e-12 * s_norm

    def test_rk2_two_form_defect_hand_value(self):
        from skewflow import pseudo_symplectic_defect

        phi = transfer_matrix("rk2-closed", QUARTER, 1.0)
        expected = 0.25 * np.linalg.norm(QUARTER.mat)
        assert pseudo_symplectic_defect(phi, QUARTER) == pytest.approx(expected, abs=1e-15)

    def test_long_run_energy_flat_for_cayley(self):
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 50.0)
        assert np.max(np.abs(traj.energy_errors)) <= 1e-10

    def test_orthogonal_start_stays_orthogonal(self):
        rng = np.random.default_rng(2)
        q0 = OrthogonalState(random_orthogonal(rng, 3), 0.0)
        config = IntegratorConfig(method=builtin("gauss2"), step=0.1)
        traj = propagate(config, BENCH, q0, 20.0)
        assert np.max(traj.orth_defects) <= 1e-11
