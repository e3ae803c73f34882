import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import BENCH_RATE, random_orthogonal
from skewflow import (
    GyroLog,
    GyroLogError,
    IntegratorConfig,
    NonFiniteStateError,
    OrthogonalState,
    expm,
    hat,
    parse_gyro_csv,
    propagate,
    propagate_gyro,
    reference_gyro,
)

CONSTANT_LOG = "t,wx,wy,wz\n0,0,0,1\n1,0,0,1\n"


def constant_rate_log(rate, t_end, n=2):
    times = np.linspace(0.0, t_end, n)
    return GyroLog(times, np.tile(np.asarray(rate, dtype=float), (n, 1)))


class TestParsing:
    def test_two_sample_constant_rate(self):
        log = parse_gyro_csv(CONSTANT_LOG)
        assert len(log) == 2
        assert_array_equal(log.times, [0.0, 1.0])
        assert_array_equal(log.rates, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])

    def test_repeated_timestamp_reports_line(self):
        with pytest.raises(GyroLogError, match="line 3") as excinfo:
            parse_gyro_csv("t,wx,wy,wz\n0,0,0,1\n0,0,0,1\n")
        assert excinfo.value.line == 3

    def test_benchmark_rate_as_constant_log(self):
        log = parse_gyro_csv("t,wx,wy,wz\n0,0,-0.1,-2\n2000,0,-0.1,-2\n")
        assert len(log) == 2
        assert_array_equal(log.rates[0], BENCH_RATE)
        assert log.times[-1] == 2000.0

    def test_comments_and_blank_lines_ignored(self):
        text = "# gyro dump\n\nt,wx,wy,wz\n# segment 1\n0,0,0,1\n1,0,0,1\n"
        assert len(parse_gyro_csv(text)) == 2

    def test_bad_header(self):
        with pytest.raises(GyroLogError, match="header"):
            parse_gyro_csv("time,x,y,z\n0,0,0,1\n")

    def test_missing_header(self):
        with pytest.raises(GyroLogError, match="header"):
            parse_gyro_csv("# only a comment\n")

    def test_wrong_field_count(self):
        with pytest.raises(GyroLogError, match="line 2") as excinfo:
            parse_gyro_csv("t,wx,wy,wz\n0,0,0\n")
        assert excinfo.value.line == 2

    def test_non_numeric_field(self):
        with pytest.raises(GyroLogError, match="non-numeric"):
            parse_gyro_csv("t,wx,wy,wz\n0,0,x,1\n")

    def test_empty_log(self):
        with pytest.raises(GyroLogError, match="no samples"):
            parse_gyro_csv("t,wx,wy,wz\n")

    def test_scientific_notation(self):
        log = parse_gyro_csv("t,wx,wy,wz\n0,1e-3,-2E2,0.5\n1,0,0,0\n")
        assert_array_equal(log.rates[0], [1e-3, -200.0, 0.5])


class TestGyroLog:
    def test_columns_hold_the_samples(self):
        log = parse_gyro_csv(CONSTANT_LOG)
        assert log.times[0] == 0.0
        assert_array_equal(log.rates[1], [0.0, 0.0, 1.0])

    def test_rejects_decreasing_times(self):
        with pytest.raises(GyroLogError, match="increasing"):
            GyroLog([1.0, 0.5], np.zeros((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GyroLogError, match="shape"):
            GyroLog([0.0, 1.0], np.zeros((2, 2)))


class TestPropagateGyro:
    def test_zero_rates_hold_attitude(self):
        log = constant_rate_log([0.0, 0.0, 0.0], 5.0, n=6)
        config = IntegratorConfig(method="cayley-midpoint", step=0.5)
        traj = propagate_gyro(log, config)
        assert len(traj) == 6
        for q in traj.qs:
            assert_array_equal(q, np.eye(3))

    def test_quarter_turn_against_exact_flow(self):
        log = constant_rate_log([0.0, 0.0, 1.0], np.pi / 2)
        config = IntegratorConfig(method="cayley-midpoint", step=1e-3)
        traj = propagate_gyro(log, config)
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.linalg.norm(traj.qs[-1] - quarter) <= 1e-6

    def test_matches_direct_propagation_bitwise(self):
        # a constant-rate log and a direct run share the marching code, so
        # the boundary records must agree exactly, not just to tolerance
        log = constant_rate_log(BENCH_RATE, 10.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        from_log = propagate_gyro(log, config)
        direct = propagate(
            config, hat(BENCH_RATE), OrthogonalState(np.eye(3), 0.0), 10.0,
            record_every=100,
        )
        assert len(from_log) == len(direct) == 2
        assert_array_equal(from_log.times, direct.times)
        assert_array_equal(from_log.qs, direct.qs)
        assert_array_equal(from_log.energies, direct.energies)
        assert_array_equal(from_log.orth_defects, direct.orth_defects)
        assert_array_equal(from_log.det_drifts, direct.det_drifts)

    def test_overflow_reports_the_same_step_as_direct_propagation(self):
        # two RK2 steps per interval, 312.5x growth per step: the state
        # overflows mid-log, at the step and time a direct run reports
        log = constant_rate_log([0.0, 0.0, 50.0], 150.0, n=151)
        config = IntegratorConfig(method="rk2-closed", step=0.5)
        with pytest.raises(NonFiniteStateError) as from_log:
            propagate_gyro(log, config)
        with pytest.raises(NonFiniteStateError) as direct:
            propagate(config, hat([0.0, 0.0, 50.0]), OrthogonalState(np.eye(3), 0.0), 150.0)
        assert from_log.value.step == direct.value.step == 124
        assert from_log.value.t == direct.value.t == 62.0

    def test_multi_interval_records_at_boundaries(self):
        times = np.array([0.0, 0.4, 1.0, 1.5])
        rates = np.array([[0, 0, 1.0], [0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])
        log = GyroLog(times, rates)
        config = IntegratorConfig(method="cayley-midpoint", step=0.05)
        traj = propagate_gyro(log, config)
        assert_array_equal(traj.times, times)

    def test_second_order_error_against_reference(self):
        times = np.array([0.0, 0.7, 1.3, 2.0])
        rates = np.array([[0.3, -1.0, 0.5], [-0.2, 0.8, 1.1], [1.0, 0.1, -0.6], [0, 0, 0]])
        log = GyroLog(times, rates)
        exact = reference_gyro(log).qs[-1]

        def final_error(h):
            config = IntegratorConfig(method="cayley-midpoint", step=h)
            return np.linalg.norm(propagate_gyro(log, config).qs[-1] - exact)

        ratio = final_error(0.02) / final_error(0.01)
        assert ratio == pytest.approx(4.0, abs=0.5)

    def test_orthogonality_and_energy_over_long_log(self):
        rng = np.random.default_rng(6)
        n = 20000
        times = np.arange(n, dtype=float) * 0.01
        rates = rng.uniform(-2.0, 2.0, size=(n, 3))
        log = GyroLog(times, rates)
        config = IntegratorConfig(method="cayley-midpoint", step=0.01)
        traj = propagate_gyro(log, config)
        assert np.max(traj.orth_defects) <= 1e-9
        assert np.max(np.abs(traj.energies - 3.0)) <= 1e-9

    def test_rejects_single_sample_log(self):
        log = GyroLog([0.0], np.zeros((1, 3)))
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        with pytest.raises(GyroLogError, match="2 samples"):
            propagate_gyro(log, config)

    def test_q0_time_must_match_first_sample(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        with pytest.raises(ValueError, match="first sample"):
            propagate_gyro(log, config, q0=OrthogonalState(np.eye(3), 0.5))

    def test_nonorthogonal_q0_gated(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        skewed = OrthogonalState(np.eye(3) + 1e-3, 0.0)
        with pytest.raises(ValueError, match="orthogonal"):
            propagate_gyro(log, config, q0=skewed)
        traj = propagate_gyro(log, config, q0=skewed, allow_nonorthogonal=True)
        assert len(traj) == 2

    def test_orthogonal_q0_accepted(self):
        log = constant_rate_log([0, 0, 1.0], 1.0)
        config = IntegratorConfig(method="cayley-midpoint", step=0.1)
        q0 = OrthogonalState(random_orthogonal(np.random.default_rng(1), 3), 0.0)
        traj = propagate_gyro(log, config, q0=q0)
        assert traj.energies[0] == pytest.approx(3.0, abs=1e-12)


class TestReferenceGyro:
    def test_zero_rates_hold_attitude(self):
        traj = reference_gyro(constant_rate_log([0.0, 0.0, 0.0], 3.0, n=4))
        for q in traj.qs:
            assert_array_equal(q, np.eye(3))

    def test_half_turn_single_interval(self):
        traj = reference_gyro(constant_rate_log([0, 0, 1.0], np.pi))
        half = np.diag([-1.0, -1.0, 1.0])
        assert np.linalg.norm(traj.qs[-1] - half) <= 1e-13

    def test_every_record_orthogonal(self):
        rng = np.random.default_rng(10)
        times = np.cumsum(rng.uniform(0.1, 1.0, size=40))
        rates = rng.uniform(-3, 3, size=(40, 3))
        traj = reference_gyro(GyroLog(times, rates))
        assert np.max(traj.orth_defects) <= 1e-12

    def test_matches_composed_exponentials(self):
        times = np.array([0.0, 0.5, 1.5])
        rates = np.array([[0, 0, 2.0], [1.0, 0, 0], [0, 0, 0]])
        traj = reference_gyro(GyroLog(times, rates))
        expected = expm(hat([1.0, 0, 0]), 1.0) @ expm(hat([0, 0, 2.0]), 0.5)
        assert np.linalg.norm(traj.qs[-1] - expected) <= 1e-14
