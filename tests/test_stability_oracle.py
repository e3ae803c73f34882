"""The stability-function oracle for phi(S, h), and what it says about symplecticity.

On the linear flow Q' = S*Q every Runge-Kutta map is the method's stability
function at hS: ``phi = R(hS)`` with ``R(z) = 1 + z b^T (I - z A)^-1 1``.
``i*S`` is Hermitian, so ``S = U diag(-i lam) U^H`` and
``phi = Re(U diag(R(-i h lam)) U^H)``, with R evaluated at each eigenvalue by
its own complex s x s solve.  The oracle shares no code with
``one_step_map``: no Kronecker stage system and no closed form.  Its own
orthogonality defect grows with d (about 1e-14 at d = 40), so it judges the
maps and does not replace them.  Above d = 3 ``one_step_map`` takes the
same eigendecomposition of ``i*S`` for an exactly skew S, so there this
oracle is not independent of it: the per-step Kronecker oracle of
``test_march_oracle.py`` (d = 10 and 40) is the independent check.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BENCH_MAT, BENCH_STEP, random_skew
from skewflow import (
    CLOSED_FORM_METHODS,
    ButcherTableau,
    IntegratorConfig,
    OrthogonalState,
    SkewMatrix,
    builtin,
    propagate,
    rk2_energy_forecast,
    symplecticity,
    transfer_matrix,
)
from skewflow.integrators import one_step_map
from skewflow.linalg import hat_stack
from test_march_oracle import GAUSS2, RK4

# (A, b) of each method from the literature, not the catalogue; the Cayley
# map is the implicit midpoint rule and rk2-closed the explicit midpoint rule
TABLEAUS = {
    "cayley-midpoint": ([[0.5]], [1.0]),
    "midpoint": ([[0.5]], [1.0]),
    "rk2-closed": ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0]),
    "gauss2": GAUSS2,
    "rk4-classical": RK4,
}
# the 2-stage Lobatto IIIA (trapezoidal) rule
LOBATTO3A = ButcherTableau([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0])


def stability(method, z):
    """R(z) = 1 + z b^T (I - z A)^-1 1 of an ``(A, b)`` pair, by one complex solve."""
    a, b = (np.array(x, dtype=float) for x in method)
    s = len(b)
    return 1.0 + z * (b @ np.linalg.solve(np.eye(s) - z * a, np.ones(s)))


def oracle_map(method, s, h):
    lam, u = np.linalg.eigh(1j * s)
    r = np.array([stability(method, -1j * h * x) for x in lam])
    return ((u * r) @ u.conj().T).real


def library_method(name):
    return IntegratorConfig(name, 1.0).method if name in CLOSED_FORM_METHODS else builtin(name)


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("dim", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("h", [0.3, -0.3])
def test_map_matches_stability_oracle(name, dim, h):
    rng = np.random.default_rng(dim)
    s = random_skew(rng, dim, norm=2.0)
    got = one_step_map(library_method(name), s, h)
    assert np.max(np.abs(got - oracle_map(TABLEAUS[name], s, h))) <= 1e-14


# rotation angles h*theta: zero, small angles where 1 - Re w cancels, and
# on to beyond pi
ANGLES = [0.0, 1e-12, 1e-6, 5e-5, 1e-4, 1.5e-4, 1e-3, 0.3, 2.0, np.pi, 7.5]


@pytest.mark.parametrize("name", sorted(TABLEAUS))
@pytest.mark.parametrize("h", [1.0, -1.0])
def test_closed_form_3x3_maps_match_stability_oracle_at_every_angle(name, h):
    rng = np.random.default_rng(4)
    axes = rng.standard_normal((len(ANGLES), 3))
    rates = axes / np.linalg.norm(axes, axis=1)[:, None] * np.array(ANGLES)[:, None]
    method = library_method(name)
    stacked = one_step_map(method, hat_stack(rates), h)
    for s, phi in zip(hat_stack(rates), stacked):
        want = oracle_map(TABLEAUS[name], s, h)
        # the explicit maps grow like (h theta)^s at large angles
        assert np.max(np.abs(phi - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        assert np.array_equal(phi, one_step_map(method, s, h))


@pytest.mark.parametrize("name", ["cayley-midpoint", "midpoint", "gauss2"])
@given(y=st.floats(-1e3, 1e3))
def test_symplectic_methods_have_unit_modulus_on_the_imaginary_axis(name, y):
    # R(z) R(-z) = 1 for a symplectic tableau, so |R(iy)| = 1 for real y:
    # every eigenvalue of R(hS) has modulus 1 and every skew S, of odd or
    # even dimension, keeps its energy and Gram matrix
    assert abs(abs(stability(TABLEAUS[name], 1j * y)) - 1.0) <= 1e-13


@pytest.mark.parametrize("theta_sq, h, k", [(4.01, 0.1, 20000), (1.0, 0.5, 7), (0.25, 1.0, 1),
                                            (9.0, 0.01, 100000)])
def test_rk2_energy_forecast_is_the_stability_function_modulus(theta_sq, h, k):
    # E_k = (m - 2) + 2 |R(i h theta)|^(2k) for m = 3: the two-dimensional
    # rotation plane grows by |R|^2 per step, the axis stays fixed
    r = stability(TABLEAUS["rk2-closed"], 1j * h * np.sqrt(theta_sq))
    want = 1.0 + 2.0 * abs(r) ** (2 * k)
    # the rounding of either growth factor is raised to the k-th power
    rel = 4 * k * np.finfo(float).eps
    assert rk2_energy_forecast(theta_sq, h, k, m=3) == pytest.approx(want, rel=rel)


class TestLobattoIIIA:
    """The symplecticity verdict is sufficient for Q' = S*Q, not necessary."""

    def test_is_not_symplectic(self):
        report = symplecticity(LOBATTO3A)
        assert not report.symplectic
        assert report.defect == pytest.approx(np.sqrt(2.0) / 4.0, rel=1e-15)

    def test_its_map_is_the_cayley_map(self):
        # R(z) = (1 + z/2) / (1 - z/2) for both, so the maps agree
        bench = SkewMatrix(BENCH_MAT)
        lobatto = transfer_matrix(LOBATTO3A, bench, BENCH_STEP)
        cayley = transfer_matrix("cayley-midpoint", bench, BENCH_STEP)
        assert np.max(np.abs(lobatto - cayley)) <= 4.5e-16
        s = SkewMatrix(random_skew(np.random.default_rng(6), 6, norm=2.0))
        assert np.max(np.abs(transfer_matrix(LOBATTO3A, s, 0.1)
                             - transfer_matrix("cayley-midpoint", s, 0.1))) <= 1e-15
        for y in (0.1, 1.0, 30.0):
            assert abs(abs(stability((LOBATTO3A.a, LOBATTO3A.b), 1j * y)) - 1.0) <= 1e-15

    def test_long_run_conserves_energy_and_orthogonality(self):
        # the benchmark problem and gates of the midpoint run
        config = IntegratorConfig(method=LOBATTO3A, step=BENCH_STEP)
        traj = propagate(config, SkewMatrix(BENCH_MAT), OrthogonalState(np.eye(3), 0.0), 2000.0)
        assert np.max(np.abs(traj.energy_errors)) <= 1e-8
        assert np.max(traj.orth_defects) <= 1e-9
