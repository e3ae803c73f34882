import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import (
    BENCH_MAT, BENCH_RATE, pseudo_symplectic_defect, random_orthogonal, random_skew,
)
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
    rk2_energy_forecast,
    symplecticity,
    transfer_matrix,
)
from skewflow import adjoint_defect
from skewflow.integrators import NonFiniteStateError, grid, metered, one_step_map
from skewflow.linalg import hat_stack
from test_march_oracle import fixed_point_step, oracle_step
from test_stability_oracle import TABLEAUS, library_method, stability

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


class TestLabels:
    @pytest.mark.parametrize("label, name", [("cayley-midpoint", "midpoint"),
                                             ("rk2-closed", "rk2-explicit")])
    def test_label_is_the_renamed_builtin(self, label, name):
        tableau = IntegratorConfig(method=label, step=0.1).method
        assert isinstance(tableau, ButcherTableau)
        assert tableau.name == label
        want = builtin(name)
        for got, ref in ((tableau.a, want.a), (tableau.b, want.b), (tableau.c, want.c)):
            assert_array_equal(got, ref)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cayley_map_is_the_gibbs_form_bitwise(self, dim):
        # I + 2 / (1 + |a|^2) (A + A^2) with A = hS / 2, the Cayley
        # transform of a skew matrix of dimension at most 3.  The map is
        # built from the complex R(i h theta), whose division and 1 - Re R
        # round differently from the Gibbs coefficients, so the two agree
        # to a few ulps of the unit-sized entries, not bit for bit
        def gibbs(m, h):
            a = np.asarray(h)[..., None, None] * m / 2.0
            a2 = (a * a).sum(axis=(-2, -1))[..., None, None] / 2.0
            return np.eye(m.shape[-1]) + 2.0 / (1.0 + a2) * (a + a @ a)

        tableau = IntegratorConfig(method="cayley-midpoint", step=0.1).method
        rng = np.random.default_rng(40 + dim)
        ms = np.array([random_skew(rng, dim, norm=x) for x in rng.uniform(0.0, 30.0, 200)])
        hs = rng.uniform(-2.0, 2.0, 200)
        ulps = 4 * np.finfo(float).eps
        assert np.max(np.abs(one_step_map(tableau, ms, hs) - gibbs(ms, hs))) <= ulps
        for m, h in zip(ms[:20], hs):
            assert np.max(np.abs(one_step_map(tableau, m, float(h)) - gibbs(m, float(h)))) <= ulps


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

        monkeypatch.setattr(integrators, "checked_inverse", forbidden)
        for name in ("rk2-explicit", "rk4-classical"):
            transfer_matrix(builtin(name), BENCH, 0.1)

    @pytest.mark.parametrize("name", ["cayley-midpoint", "gauss2"])
    def test_gyro_runs_make_no_stage_solve(self, monkeypatch, name):
        # the maps of a hat log come in closed form: at most an s x s
        # inverse per map, never the (s d) x (s d) stage system
        import skewflow.integrators as integrators

        config = IntegratorConfig(method=builtin(name) if name in BUILTIN_NAMES else name,
                                  step=0.003)
        inverse = integrators.checked_inverse

        def guarded(a):
            if a.shape[-1] > config.method.stages:
                raise AssertionError("stage system solved for a hat coefficient")
            return inverse(a)

        monkeypatch.setattr(integrators, "checked_inverse", guarded)
        rates = np.random.default_rng(3).uniform(-2.0, 2.0, size=(600, 3))
        log = GyroLog(np.arange(600) * 0.01, rates)
        traj = propagate_gyro(log, config)
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
        method = IntegratorConfig(method=builtin(name) if name in BUILTIN_NAMES else name,
                                  step=0.1).method
        ms = np.array([random_skew(rng, dim, norm=x) for x in rng.uniform(0.1, 3.0, 6)])
        hs = np.array([0.1, -0.1, 0.37, -1.3, 1e-3, 0.1])
        for m, h, phi in zip(ms, hs, one_step_map(method, ms, hs)):
            assert_array_equal(phi, one_step_map(method, m, float(h)))
        for m, phi in zip(ms, one_step_map(method, ms, -0.25)):
            assert_array_equal(phi, one_step_map(method, m, -0.25))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("leak", [0.0, 1e-3], ids=["skew", "leaky"])
    def test_stacks_above_dimension_3_equal_single_calls_bitwise(self, name, leak):
        # an exactly skew stack shares one spectral call, a leaky one takes
        # the general path matrix by matrix
        rng = np.random.default_rng(11)
        ms = np.array([random_skew(rng, 4, norm=x) + leak * np.eye(4) for x in (0.5, 2.0)])
        method = builtin(name)
        for h, n, h_last in ((0.1, 1, 0.1), (np.array([0.1, -0.3]), [3, 40], [0.05, 0.2])):
            got = one_step_map(method, ms, h, n, h_last)
            assert got.shape == ms.shape
            for m, phi, args in zip(ms, got, np.broadcast(h, n, h_last)):
                assert_array_equal(phi, one_step_map(method, m, *args))

    @staticmethod
    def spy_step_maps(monkeypatch):
        """Record the (matrix, step) of each phi the general path builds."""
        import skewflow.integrators as integrators

        calls, original = [], integrators._step_map

        def spy(tableau, m, h):
            calls.append((m.tobytes(), float(h)))
            return original(tableau, m, h)

        monkeypatch.setattr(integrators, "_step_map", spy)
        return calls

    def test_a_near_skew_run_builds_each_distinct_step_once(self, monkeypatch):
        # an ulp off skew: the general path, whose record table would build
        # 456 maps were each row to build its own phi
        near = BENCH_MAT.copy()
        near[0, 1] = np.nextafter(near[0, 1], np.inf)
        calls = self.spy_step_maps(monkeypatch)
        traj = propagate(IntegratorConfig("cayley-midpoint", 0.1), SkewMatrix(near),
                         eye_state(3), 2000.0)
        assert len(traj.times) == 20001
        _, h_last = grid(0.0, 2000.0, 0.1)
        assert sorted(h for _, h in calls) == sorted({0.1, float(h_last)})

    def test_a_leaky_stack_builds_each_distinct_matrix_and_step_once(self, monkeypatch):
        rng = np.random.default_rng(11)
        ms = np.array([random_skew(rng, 4, norm=x) + 1e-3 * np.eye(4) for x in (0.5, 2.0)])
        calls = self.spy_step_maps(monkeypatch)
        # a second row of step counts repeats every pair of the first
        got = one_step_map(builtin("gauss2"), ms, np.array([0.1, -0.3]), [[3, 40], [7, 2]],
                           [0.05, 0.2])
        assert got.shape == (2, 2, 4, 4)
        assert sorted(calls) == sorted({(ms[0].tobytes(), 0.1), (ms[0].tobytes(), 0.05),
                                        (ms[1].tobytes(), -0.3), (ms[1].tobytes(), 0.2)})

    def test_zero_weight_tableau_keeps_the_stack_shape(self):
        tableau = ButcherTableau([[0.0]], [0.0], [0.0])
        ms = np.zeros((4, 3, 3))
        assert_array_equal(one_step_map(tableau, ms, 0.1), np.tile(np.eye(3), (4, 1, 1)))


def oracle_n_steps(method, s, h, n, h_last):
    # R(-i h lam)^(n-1) R(-i h_last lam) on each eigenvector of the Hermitian i*S
    lam, u = np.linalg.eigh(1j * s)
    w = [stability(method, -1j * h * x) ** (n - 1) * stability(method, -1j * h_last * x)
         for x in lam]
    return ((u * w) @ u.conj().T).real


def mp_rotation(rate, angle):
    """The rotation by ``angle`` about ``rate``, in 40-digit arithmetic."""
    with mp.workdps(40):
        u = [mp.mpf(float(r)) for r in rate]
        norm = mp.sqrt(sum(r * r for r in u))
        k = mp.matrix([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]]) / norm
        rot = mp.eye(3) + mp.sin(angle) * k + (1 - mp.cos(angle)) * k * k
        return np.array(rot.tolist(), dtype=float)


class TestNStepMaps:
    """``one_step_map(tableau, m, h, n, h_last)`` is ``phi(h_last) @ phi(h)^(n-1)``."""

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_coefficient_gives_the_identity_exactly(self, name, dim):
        method = library_method(name)
        for n in (1, 2, 99, 100, 10**6, 2**40):
            for h_last in (0.1, 0.03):
                got = one_step_map(method, np.zeros((dim, dim)), 0.1, n, h_last)
                assert_array_equal(got, np.eye(dim))
        counts = np.array([1, 7, 2**40])
        got = one_step_map(method, np.zeros((3, dim, dim)), 0.1, counts, 0.05)
        assert_array_equal(got, np.tile(np.eye(dim), (3, 1, 1)))

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    @pytest.mark.parametrize("h, n, h_last", [(1.0, 1, 1.0), (1.0, 2, 0.4), (-1.0, 7, -0.25),
                                              (1.0, 5, 1.0)])
    def test_maps_match_the_stability_oracle_at_every_angle(self, name, h, n, h_last):
        # small angles, where 1 - Re w cancels, and on to h theta = 1e3
        rng = np.random.default_rng(n)
        angles = np.array([1e-12, 5e-5, 1e-4, 1.5e-4, 0.3, np.pi, 40.0, 1e3])
        axes = rng.standard_normal((len(angles), 3))
        rates = axes / np.linalg.norm(axes, axis=1)[:, None] * angles[:, None]
        method = library_method(name)
        for s in hat_stack(rates):
            got = one_step_map(method, s, h, n, h_last)
            want = oracle_n_steps(TABLEAUS[name], s, h, n, h_last)
            # the explicit maps grow like (h theta)^(s n) at large angles
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("name", sorted(TABLEAUS))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stacked_maps_equal_single_calls_bitwise(self, name, dim):
        rng = np.random.default_rng(10 + dim)
        method = library_method(name)
        ms = np.array([random_skew(rng, dim, norm=x) for x in rng.uniform(0.0, 3.0, 9)])
        counts = np.array([1, 2, 3, 5, 99, 100, 101, 4096, 10**6])
        lasts = rng.uniform(0.01, 0.1, 9)
        for h in (0.1, np.full(9, 0.1)):
            for m, k, h_last, phi in zip(ms, counts, lasts, one_step_map(method, ms, h, counts,
                                                                         lasts)):
                assert_array_equal(phi, one_step_map(method, m, 0.1, int(k), float(h_last)))
        # one coefficient with a stack of counts and last steps, as propagate asks
        for k, h_last, phi in zip(counts, lasts, one_step_map(method, ms[0], 0.1, counts, lasts)):
            assert_array_equal(phi, one_step_map(method, ms[0], 0.1, int(k), float(h_last)))

    @pytest.mark.parametrize("n", [10**3, 10**6, 2**40])
    @pytest.mark.parametrize("rate, h", [(BENCH_RATE, 1e-3), ((0.3, -1.0, 0.5), 1e-3),
                                         ((0.0, 0.0, 1.0), 1e-3), (BENCH_RATE, 0.1)])
    def test_cayley_power_is_the_rotation_by_n_angles(self, rate, h, n):
        # the Cayley map rotates by 2 atan(h theta / 2) a step; n steps round
        # no worse than n ulps
        method = library_method("cayley-midpoint")
        got = one_step_map(method, hat(rate).mat, h, n)
        with mp.workdps(40):
            theta = mp.sqrt(sum(mp.mpf(float(r)) ** 2 for r in rate))
            want = mp_rotation(rate, n * 2 * mp.atan(mp.mpf(h) * theta / 2))
        assert np.max(np.abs(got - want)) <= n * np.finfo(float).eps

    def test_general_path_takes_the_same_powers(self):
        # a skew 4 x 4 (the spectral path), and a near-skew 3 x 3 and 4 x 4:
        # Horner's or the stage inverse, then matrix_power, agree with
        # repeated steps
        rng = np.random.default_rng(5)
        for method in (builtin("gauss2"), builtin("rk4-classical"),
                       IntegratorConfig("cayley-midpoint", 1.0).method):
            for s in (random_skew(rng, 4, norm=2.0), BENCH_MAT + 1e-3 * np.eye(3),
                      random_skew(rng, 4) + 1e-3 * np.eye(4)):
                phi, last = one_step_map(method, s, 0.1), one_step_map(method, s, 0.04)
                want = last @ phi @ phi @ phi @ phi
                got = one_step_map(method, s, 0.1, 5, 0.04)
                assert np.max(np.abs(got - want)) <= 1e-14
                pair = one_step_map(method, s, 0.1, [5, 2], [0.04, 0.1])
                assert_array_equal(pair[0], got)
                assert np.max(np.abs(pair[1] - phi @ phi)) <= 1e-15

    @pytest.mark.parametrize("name", ["gauss2", "midpoint"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 40])
    def test_maps_stay_orthogonal_at_any_step_count_at_every_dimension(self, name, dim):
        # Rodrigues' formula or one eigendecomposition, and a unit-modulus
        # value per eigenvalue: no product of n one-step maps rounds into
        # the n-step map
        s = random_skew(np.random.default_rng(40), dim, norm=1.0)
        for n in (1, 10**4, 10**6, 2**30):
            phi = one_step_map(builtin(name), s, 0.05, n)
            assert np.linalg.norm(phi.T @ phi - np.eye(dim)) <= 1e-13

    def test_rk2_gate_forecast_stays_the_closed_form(self, monkeypatch):
        # the benchmark gate checks the maps against 1 + 2 (1 + h^4 theta^4 / 4)^k,
        # derived by hand, so the forecast must not be computed by the map code
        import skewflow.integrators as integrators
        import skewflow.linalg as linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("the forecast called the map code it checks")

        for name in ("one_step_map", "_stability", "skew_function", "_step_map"):
            monkeypatch.setattr(integrators, name, forbidden)
        monkeypatch.setattr(linalg, "skew_function", forbidden)
        for theta_sq, h, k in ((4.01, 0.1, 20000), (1.0, 0.5, 7), (9.0, 0.01, 0)):
            assert rk2_energy_forecast(theta_sq, h, k) == 1 + 2.0 * (
                1.0 + h**4 * theta_sq**2 / 4.0) ** k


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
        # a run fails at its first bad record, whatever the states between
        config = IntegratorConfig(method="rk2-closed", step=1.0)
        q0 = OrthogonalState(1e-3 * np.eye(3), 0.0)
        with pytest.raises(NonFiniteStateError) as excinfo:
            propagate(config, hat([0.0, 0.0, 50.0]), q0, 150.0, record_every=100)
        assert excinfo.value.step == 100
        assert excinfo.value.t == 100.0

    @pytest.mark.parametrize("record_every, step", [(1, 25), (2, 26), (7, 28), (10, 30),
                                                    (200, 200)])
    def test_failure_is_the_first_record_with_a_bad_state_or_meter(self, record_every, step):
        # the RK2 map scales the rotation plane by about 1250 a step: the
        # Gram defect overflows from step 25 (1250**25 ~ 2.6e77), the state
        # from step 100.  With records every 200 steps the first bad record
        # is step 200, whose state phi**200 @ q0 overflowed; the step-100
        # state in between is never recorded, so it is not the failure
        config = IntegratorConfig(method="rk2-closed", step=1.0)
        with pytest.raises(NonFiniteStateError) as excinfo:
            propagate(config, hat([0.0, 0.0, 50.0]), eye_state(3), 400.0,
                      record_every=record_every)
        assert excinfo.value.step == step
        assert excinfo.value.t == float(step)
        assert f"record at step {step} (t = {float(step)!r})" in str(excinfo.value)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dim, j", [(3, 0), (3, 4), (3, 9), (4, 6)])
    def test_a_single_non_finite_entry_fails_its_own_record(self, bad, dim, j):
        # one bad entry in record j of an otherwise orthogonal stack: the
        # run fails at record j, with the step the caller maps it to
        qs = np.tile(np.eye(dim), (10, 1, 1))
        qs[j, dim - 1, 1] = bad
        times = 0.5 * np.arange(10)
        config = IntegratorConfig(method="cayley-midpoint", step=0.5)
        with pytest.raises(NonFiniteStateError) as excinfo:
            metered(config, times, qs, lambda i: 7 * i + 2)
        assert excinfo.value.step == 7 * j + 2
        assert excinfo.value.t == times[j]

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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_records_of_a_symplectic_run_stay_orthogonal(self, seed):
        # every record of a table is its own n-step map, on the unit circle,
        # not a product of copies of the stride map that rounds as it grows
        s = SkewMatrix(random_skew(np.random.default_rng(seed), 4, norm=1.0))
        traj = propagate(IntegratorConfig(builtin("gauss2"), 0.1), s, eye_state(4), 200.0)
        assert len(traj) == 2001
        assert np.max(traj.orth_defects) < 1e-13

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
        n, _ = grid(t0, t_end, h)
        assert [t0 + k * h for k in range(n)] + [t_end] == traj.times.tolist()

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
        n, h_last = grid(t0, t_end, h)
        assert n == steps
        assert h_last > 0

    def test_gyro_benchmark_grid_is_unchanged(self):
        # a 100 Hz log of 10^4 samples marched at h = 0.0025
        times = np.arange(10_000) / 100
        n, _ = grid(times[:-1], times[1:], 0.0025)
        assert np.all(n == 4) and n.sum() == 39_996

    @pytest.mark.parametrize("t_end, h", [(1.0, 1e-300), (1e308, 0.1), (1.0, 5e-324)],
                             ids=["huge", "infinite", "nan"])
    def test_step_count_past_int64_is_refused(self, t_end, h):
        # the callers run the grid with overflow warnings off, as here
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"2\*\*63 - 1 steps"):
            grid(np.array([0.0, 0.0]), np.array([1.0, t_end]), h)

    def test_step_count_just_inside_int64_is_kept(self):
        n, h_last = grid(0.0, 1.0, 2.0**-62)
        assert 2**62 - 2**12 <= int(n) <= 2**62 and h_last > 0

    @pytest.mark.parametrize(
        "base, dt, h, steps",
        [(3.3e4, 0.005, 0.001, 5), (1.7e9, 0.01, 0.0025, 4), (1.7e9, 0.01, 0.001, 10)],
    )
    def test_log_intervals_at_large_times_take_whole_steps(self, base, dt, h, steps):
        times = base + dt * np.arange(20_000)
        n, _ = grid(times[:-1], times[1:], h)
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

    @pytest.mark.parametrize("method, dim, t_end, records", [
        ("midpoint", 3, 200.0, 2001),
        ("midpoint", 3, 2000.0, 20001),
        ("midpoint", 3, 20000.0, 200001),
        ("gauss2", 40, 20.0, 201),
        ("gauss2", 40, 200.0, 2001),
    ])
    def test_peak_memory_is_the_records_and_a_constant(self, method, dim, t_end, records):
        # each record holds its state, five meter columns, its step count and
        # its time, d^2 + 7 numbers; beyond them a run keeps one record table
        # of at most stack_rows(d) maps, so a run that held a map for every
        # record (1.4 MB more at 20001 3x3 records) would not fit
        s = BENCH if dim == 3 else SkewMatrix(random_skew(np.random.default_rng(dim), dim, 2.0))
        config = IntegratorConfig(builtin(method), step=0.1)
        tracemalloc.start()
        try:
            traj = propagate(config, s, eye_state(dim), t_end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == records
        assert peak <= records * (dim**2 + 7) * 8 + 512 * 1024, peak


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
