import numpy as np
import pytest

from conftest import orbit
from fastslow.exceptions import ShadowSolveError
from fastslow.shadowing import shadow_solve_batch


def test_theta_independent_fast_map_shadows_itself(lin):
    sol = shadow_solve_batch(lin, 1e-4, np.array([0.37]), np.array([[0.52]]),
                             np.array([[0.52]]), 60)[0]
    assert sol.y0 == 0.37
    assert sol.errors.max() == 0.0
    assert sol.defect <= 1e-15


def test_zero_steps(cpl):
    sol = shadow_solve_batch(cpl, 1e-4, np.array([0.41]), np.array([[0.3]]),
                             np.array([[0.30005]]), 0)[0]
    assert sol.y0 == pytest.approx(0.41, abs=1e-15)
    assert sol.n == 0


def test_endpoint_anchoring_and_bound(cpl):
    eps, n = 1e-4, 50
    x0, th0, ts = 0.123, 0.456, 0.45605
    sol = shadow_solve_batch(cpl, eps, np.array([x0]), np.array([[th0]]),
                             np.array([[ts]]), n)[0]
    orb = orbit(cpl, eps, x0, [th0], n)
    # endpoint is anchored exactly; per-step defect at solver tolerance
    assert sol.shadow_orbit[n] == orb.x[n]
    assert sol.defect <= 1e-12
    # deviation grows at most linearly in eps * k
    ks = np.arange(1, n + 1)
    assert np.all(sol.errors[1:] <= 5.0 * eps * ks)


def test_forward_composition_small_n(cpl):
    # for small n the n-fold composition is well conditioned: check H directly
    eps, n = 1e-4, 12
    x0, th0, ts = 0.321, 0.654, 0.65402
    sol = shadow_solve_batch(cpl, eps, np.array([x0]), np.array([[th0]]),
                             np.array([[ts]]), n)[0]
    orb = orbit(cpl, eps, x0, [th0], n)
    z = sol.y0
    for _ in range(n):
        z = float(cpl.f(z, np.array([ts])))
    assert abs(z - orb.x[n]) <= 1e-9


def test_pullback_derivative_against_finite_difference(cpl):
    # h must stay below the lam^-n oscillation scale of the pullback map,
    # otherwise the difference quotient averages over many wiggles
    eps, n, h = 1e-4, 10, 1e-7
    th0, ts = np.array([0.52]), np.array([0.52004])
    sols = shadow_solve_batch(cpl, eps, np.array([0.37 - h, 0.37, 0.37 + h]),
                              np.tile(th0, (3, 1)), np.tile(ts, (3, 1)), n)
    fd = (sols[2].y0 - sols[0].y0) / (2 * h)
    assert sols[1].y_prime == pytest.approx(fd, rel=1e-6)


def test_derivative_bounds_random_points(cpl):
    eps = 1e-4
    n = int(eps**-0.5)
    rng = np.random.default_rng(3)
    x0 = rng.random(50)
    th0 = rng.random((50, 1))
    ts = th0 + eps * (rng.random((50, 1)) - 0.5)
    sols = shadow_solve_batch(cpl, eps, x0, th0, ts, n)
    bound = 10.0 * eps * n * n
    assert all(abs(s.log_y_prime) <= bound for s in sols)
    assert all(s.defect <= 1e-12 for s in sols)


def test_preconditions(cpl):
    x0, th0 = np.array([0.3]), np.array([[0.4]])
    with pytest.raises(ShadowSolveError):
        shadow_solve_batch(cpl, 1e-4, x0, th0, np.array([[0.45]]), 10)      # theta gap > eps
    with pytest.raises(ShadowSolveError):
        shadow_solve_batch(cpl, 1e-4, x0, th0, np.array([[0.40005]]), 500)  # n beyond eps^-1/2
