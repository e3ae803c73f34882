import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import BENCH_MAT, random_orthogonal, random_skew
from skewflow import (
    BUILTIN_NAMES,
    CLOSED_FORM_METHODS,
    ButcherTableau,
    GyroLog,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    builtin,
    energy,
    hat,
    propagate,
    propagate_gyro,
    symplecticity,
    transfer_matrix,
)
from skewflow import adjoint_defect
from skewflow.integrators import NonFiniteStateError, Span, one_step_map
from test_march_oracle import fixed_point_step, oracle_step

QUARTER = SkewMatrix([[0.0, 1.0], [-1.0, 0.0]])
BENCH = SkewMatrix(BENCH_MAT)


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

    def test_accepts_tableau(self):
        IntegratorConfig(method=builtin("gauss2"), step=0.5)


class TestSingleSteps:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_zero_field_leaves_state_fixed(self, name):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 3))
        out = transfer_matrix(builtin(name), SkewMatrix(np.zeros((3, 3))), 0.25) @ q
        assert_array_equal(out, q)

    def test_midpoint_hand_case(self):
        out = transfer_matrix(builtin("midpoint"), QUARTER, 2.0) @ np.eye(2)
        assert_allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_cayley_hand_case(self):
        out = transfer_matrix("cayley-midpoint", QUARTER, 2.0) @ np.eye(2)
        assert_allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    def test_cayley_zero_field(self):
        q = np.diag([2.0, 3.0])
        phi = transfer_matrix("cayley-midpoint", SkewMatrix(np.zeros((2, 2))), 1.0)
        assert_array_equal(phi @ q, q)

    def test_cayley_benchmark_step_is_orthogonal(self):
        out = transfer_matrix("cayley-midpoint", BENCH, 0.1) @ np.eye(3)
        assert np.linalg.norm(out.T @ out - np.eye(3)) <= 1e-14

    def test_cayley_preserves_gram_of_arbitrary_state(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((3, 3)) * 2.0
        out = transfer_matrix("cayley-midpoint", BENCH, 0.7) @ q
        gram0 = q.T @ q
        gram1 = out.T @ out
        assert np.linalg.norm(gram1 - gram0) <= 1e-13 * np.linalg.norm(gram0)

    def test_rk2_closed_hand_case(self):
        out = transfer_matrix("rk2-closed", QUARTER, 1.0) @ np.eye(2)
        assert_array_equal(out, [[0.5, 1.0], [-1.0, 0.5]])

    def test_rk2_closed_single_step_energy(self):
        # eigenvalue arithmetic: E_1 = 1 + 2*(1 + h^4 theta^4 / 4) = 3.000804005
        out = transfer_matrix("rk2-closed", BENCH, 0.1) @ np.eye(3)
        assert energy(out) == pytest.approx(3.000804005, abs=1e-12)

    def test_rk2_closed_zero_field(self):
        q = np.eye(3)
        phi = transfer_matrix("rk2-closed", SkewMatrix(np.zeros((3, 3))), 0.3)
        assert_array_equal(phi @ q, q)

    def test_step_must_be_positive(self):
        for method in ("cayley-midpoint", "rk2-closed"):
            with pytest.raises(ValueError, match="positive"):
                transfer_matrix(method, QUARTER, -0.1)
        with pytest.raises(ValueError, match="positive"):
            transfer_matrix(builtin("midpoint"), QUARTER, 0.0)


class TestClosedFormTwins:
    def test_rk2_paths_agree_on_benchmark(self):
        explicit = transfer_matrix(builtin("rk2-explicit"), BENCH, 0.1) @ np.eye(3)
        closed = transfer_matrix("rk2-closed", BENCH, 0.1) @ np.eye(3)
        assert np.max(np.abs(explicit - closed)) <= 1e-15

    def test_twins_agree_on_random_problems(self):
        rng = np.random.default_rng(23)
        midpoint = builtin("midpoint")
        rk2 = builtin("rk2-explicit")
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            q = rng.standard_normal((dim, dim))
            h = rng.uniform(1e-3, 1.0)
            scale = np.linalg.norm(q)
            a = transfer_matrix(midpoint, s, h) @ q
            b = transfer_matrix("cayley-midpoint", s, h) @ q
            assert np.linalg.norm(a - b) <= 1e-13 * scale
            a = transfer_matrix(rk2, s, h) @ q
            b = transfer_matrix("rk2-closed", s, h) @ q
            assert np.linalg.norm(a - b) <= 1e-13 * scale


class TestStageSolvers:
    def test_direct_and_fixed_point_agree(self):
        for tableau in (builtin("midpoint"), builtin("gauss2")):
            direct = transfer_matrix(tableau, BENCH, 0.1) @ np.eye(3)
            fixed = fixed_point_step((tableau.a, tableau.b), BENCH.mat, np.eye(3), 0.1)
            assert np.linalg.norm(direct - fixed) <= 1e-12

    def test_explicit_tableaus_never_touch_the_stage_solver(self, monkeypatch):
        import skewflow.integrators as integrators

        def forbidden(*args, **kwargs):
            raise AssertionError("stage solver invoked for an explicit tableau")

        monkeypatch.setattr(integrators, "checked_solve", forbidden)
        for name in ("rk2-explicit", "rk4-classical"):
            transfer_matrix(builtin(name), BENCH, 0.1)

    @pytest.mark.parametrize("name", ["cayley-midpoint", "gauss2"])
    def test_gyro_runs_make_no_stage_solve(self, monkeypatch, name):
        # the maps of a hat log come in closed form
        import skewflow.integrators as integrators

        def forbidden(*args, **kwargs):
            raise AssertionError("stage solver invoked for a hat coefficient")

        monkeypatch.setattr(integrators, "checked_solve", forbidden)
        rates = np.random.default_rng(3).uniform(-2.0, 2.0, size=(600, 3))
        log = GyroLog(np.arange(600) * 0.01, rates)
        method = builtin(name) if name in BUILTIN_NAMES else name
        traj = propagate_gyro(log, IntegratorConfig(method=method, step=0.003))
        assert np.max(traj.orth_defects) <= 1e-12

    @pytest.mark.parametrize("name", ["cayley-midpoint", "rk2-closed", "gauss2", "rk4-classical"])
    def test_near_skew_coefficient_keeps_the_general_path(self, name):
        # inside a loose gate but not antisymmetric, so the closed form,
        # which assumes S^3 = -theta^2 S, would be off by about 2e-6
        s = SkewMatrix(BENCH_MAT + 1e-3 * np.eye(3), tol=1e-2)
        method = builtin(name) if name in BUILTIN_NAMES else name
        oracle = (method.a, method.b) if isinstance(method, ButcherTableau) else method
        want = oracle_step(oracle, s.mat, np.eye(3), 0.1)
        assert np.max(np.abs(transfer_matrix(method, s, 0.1) - want)) <= 1e-14


class TestTransferMatrix:
    def test_cayley_hand_case(self):
        phi = transfer_matrix("cayley-midpoint", QUARTER, 2.0)
        assert_allclose(phi, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)
        assert not phi.flags.writeable

    def test_rk2_hand_case_and_determinant(self):
        phi = transfer_matrix("rk2-closed", QUARTER, 1.0)
        assert_array_equal(phi, [[0.5, 1.0], [-1.0, 0.5]])
        assert np.linalg.det(phi) == pytest.approx(1.25, abs=1e-12)

    def test_zero_field_gives_identity(self):
        phi = transfer_matrix(builtin("gauss2"), SkewMatrix(np.zeros((4, 4))), 0.5)
        assert_array_equal(phi, np.eye(4))

    def test_linearity_of_every_method(self):
        rng = np.random.default_rng(9)
        methods = ["cayley-midpoint", "rk2-closed"] + [builtin(n) for n in BUILTIN_NAMES]
        for method in methods:
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=3.0))
            h = rng.uniform(0.05, 1.0)
            phi = transfer_matrix(method, s, h)
            oracle = (method.a, method.b) if isinstance(method, ButcherTableau) else method
            for _ in range(5):
                q = rng.standard_normal((dim, dim))
                stepped = oracle_step(oracle, s.mat, q, h)
                assert np.linalg.norm(stepped - phi @ q) <= 1e-13 * np.linalg.norm(q)

    def test_cayley_determinant_is_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            s = SkewMatrix(random_skew(rng, dim, norm=rng.uniform(0.1, 5.0)))
            phi = transfer_matrix("cayley-midpoint", s, rng.uniform(0.01, 1.0))
            assert abs(np.linalg.det(phi) - 1.0) <= 1e-13


class TestStackedMaps:
    @pytest.mark.parametrize("name", list(CLOSED_FORM_METHODS) + list(BUILTIN_NAMES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stacked_map_equals_per_matrix_map_bitwise(self, name, dim):
        rng = np.random.default_rng(dim)
        method = builtin(name) if name in BUILTIN_NAMES else name
        ms = np.array([random_skew(rng, dim, norm=x) for x in rng.uniform(0.1, 3.0, 6)])
        hs = np.array([0.1, -0.1, 0.37, -1.3, 1e-3, 0.1])
        for m, h, phi in zip(ms, hs, one_step_map(method, ms, hs)):
            assert_array_equal(phi, one_step_map(method, m, float(h)))
        for m, phi in zip(ms, one_step_map(method, ms, -0.25)):
            assert_array_equal(phi, one_step_map(method, m, -0.25))

    def test_zero_weight_tableau_keeps_the_stack_shape(self):
        tableau = ButcherTableau([[0.0]], [0.0], [0.0])
        ms = np.zeros((4, 3, 3))
        assert_array_equal(one_step_map(tableau, ms, 0.1), np.tile(np.eye(3), (4, 1, 1)))


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
        for q in traj.qs:
            assert_array_equal(q, np.eye(3))
        assert np.all(traj.energy_errors == 0.0)
        assert np.all(traj.det_drifts == 0.0)

    def test_times_recomputed_from_step_index(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.0)
        for k, t in enumerate(traj.times[:-1]):
            assert t == 0.0 + k * 0.1
        assert traj.times[-1] == 1.0

    def test_final_partial_step_lands_on_t_end(self):
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.05)
        assert len(traj) == 12  # initial + 11 steps (last one shrunk to 0.05)
        assert traj.times[-1] == 1.05

    def test_interval_shorter_than_step(self):
        config = IntegratorConfig(method="cayley-midpoint", step=1.0)
        traj = propagate(config, BENCH, eye_state(3), 0.25)
        assert len(traj) == 2
        assert traj.times[-1] == 0.25

    def test_record_every_stride_plus_final(self):
        config = IntegratorConfig(method="rk2-closed", step=0.1)
        traj = propagate(config, BENCH, eye_state(3), 1.0, record_every=3)
        assert [round(t, 10) for t in traj.times] == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_record_whose_map_power_overflows_fails_at_its_own_step(self):
        # from q0 = 1e-3 I the RK2 states stay finite to step 100 and overflow
        # at step 101, but phi**100 overflows, so the step-100 record does;
        # the per-step search from the start stops at that record's step
        config = IntegratorConfig(method="rk2-closed", step=1.0)
        q0 = OrthogonalState(1e-3 * np.eye(3), 0.0)
        with pytest.raises(NonFiniteStateError) as excinfo:
            propagate(config, hat([0.0, 0.0, 50.0]), q0, 150.0, record_every=100)
        assert excinfo.value.step == 100
        assert excinfo.value.t == 100.0

    @pytest.mark.parametrize("name", ["cayley-midpoint", "rk2-closed", "gauss2", "rk4-classical"])
    def test_final_state_does_not_depend_on_record_every(self, name):
        # 57 steps, the last one shortened; the final state comes straight
        # from q0 whatever records are kept on the way
        rng = np.random.default_rng(11)
        s = SkewMatrix(random_skew(rng, 6, norm=2.0))
        q0 = OrthogonalState(rng.standard_normal((6, 6)), 0.0)
        method = builtin(name) if name in BUILTIN_NAMES else name
        config = IntegratorConfig(method=method, step=0.1)
        ends = [propagate(config, s, q0, 5.65, record_every=r).qs[-1]
                for r in (1, 3, 7, 57, 2**62)]
        for q in ends[1:]:
            assert_array_equal(q, ends[0])

    @given(
        t0=st.one_of(st.sampled_from([0.0, 3.3e4, 1e6, 1e12]), st.floats(1.6e9, 1.8e9)),
        h=st.floats(1e-3, 1.0),
        steps=st.floats(1e-2, 200.0),
    )
    def test_grid_steps_are_positive_and_sum_to_the_interval(self, t0, h, steps):
        # at epoch-scale t0 the grid points t0 + k*h round; the last one must
        # still fall short of t_end, or the last step is empty or negative
        t_end = t0 + steps * h
        assume(t_end > t0)
        config = IntegratorConfig(method="rk2-closed", step=h)
        traj = propagate(config, hat([0.0, 0.0, 1.0]), eye_state(3, t0), t_end)
        dt = np.diff(traj.times)
        assert np.all(dt > 0)
        assert math.fsum(dt) == pytest.approx(t_end - t0, rel=1e-12)
        assert traj.times[-1] == t_end
        # each gyro interval is marched on the same grid
        span = Span(config, hat([0.0, 0.0, 1.0]).mat, t0, t_end)
        assert [span.time(k) for k in range(span.n + 1)] == traj.times.tolist()

    @given(
        t0=st.one_of(st.sampled_from([0.0, 3.3e4, 1e6, 1.7e9, 1.8e9]), st.floats(0.0, 1.8e9)),
        h=st.floats(1e-3, 1.0),
        steps=st.integers(1, 200),
        ulps=st.integers(-2, 2),
    )
    def test_whole_number_of_steps_up_to_rounding_takes_exactly_that_many(
        self, t0, h, steps, ulps
    ):
        # t_end rounds when it is formed and is then nudged by a few ulps, as
        # the sample times of a log are; no sliver of an extra step may appear
        t_end = t0 + steps * h
        for _ in range(abs(ulps)):
            t_end = math.nextafter(t_end, math.copysign(math.inf, ulps))
        n, h_last = Span.grid(t0, t_end, h)
        assert n == steps
        assert h_last > 0

    def test_gyro_benchmark_grid_is_unchanged(self):
        # a 100 Hz log of 10^4 samples marched at h = 0.0025
        times = np.arange(10_000) / 100
        n, _ = Span.grid(times[:-1], times[1:], 0.0025)
        assert np.all(n == 4) and n.sum() == 39_996

    @pytest.mark.parametrize(
        "base, dt, h, steps",
        [(3.3e4, 0.005, 0.001, 5), (1.7e9, 0.01, 0.0025, 4), (1.7e9, 0.01, 0.001, 10)],
    )
    def test_log_intervals_at_large_times_take_whole_steps(self, base, dt, h, steps):
        times = base + dt * np.arange(20_000)
        n, _ = Span.grid(times[:-1], times[1:], h)
        assert np.all(n == steps)

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
            q = rng.standard_normal((dim, dim)) * 3.0
            h = rng.uniform(1e-3, 1.0)
            out = transfer_matrix(tableau, s, h) @ q
            gram0 = q.T @ q
            gram1 = out.T @ out
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
