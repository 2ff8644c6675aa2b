import numpy as np
import pytest

from conftest import orbit
from fastslow.orbits import step
from fastslow.shadowing import SHADOW_C_SHARP, shadow_diagnostic, shadow_solve_batch, \
    tangent_forward
from fastslow.systems import torus


def test_theta_independent_fast_map_shadows_itself(lin):
    sol = shadow_solve_batch(lin, 1e-4, np.array([0.37]), np.array([[0.52]]),
                             np.array([[0.52]]), 60)
    assert sol.y0[0] == 0.37
    assert sol.errors.max() == 0.0
    assert sol.defect[0] <= 1e-15


def test_zero_steps(cpl):
    sol = shadow_solve_batch(cpl, 1e-4, np.array([0.41]), np.array([[0.3]]),
                             np.array([[0.30005]]), 0)
    assert sol.y0[0] == pytest.approx(0.41, abs=1e-15)
    assert sol.shadow_orbit.shape == (1, 1)
    assert sol.log_y_prime[0] == 0.0 and sol.shadow_constant[0] == 0.0


def test_endpoint_anchoring_and_bound(cpl):
    eps, n = 1e-4, 50
    x0, th0, ts = 0.123, 0.456, 0.45605
    sol = shadow_solve_batch(cpl, eps, np.array([x0]), np.array([[th0]]),
                             np.array([[ts]]), n)
    orb = orbit(cpl, eps, x0, [th0], n)
    # endpoint is anchored exactly; per-step defect at solver tolerance
    assert sol.shadow_orbit[n, 0] == orb.x[n]
    assert sol.defect[0] <= 1e-12
    # deviation grows at most linearly in eps * k
    ks = np.arange(1, n + 1)
    assert np.all(sol.errors[1:, 0] <= 5.0 * eps * ks)


def test_forward_composition_small_n(cpl):
    # for small n the n-fold composition is well conditioned: check H directly
    eps, n = 1e-4, 12
    x0, th0, ts = 0.321, 0.654, 0.65402
    sol = shadow_solve_batch(cpl, eps, np.array([x0]), np.array([[th0]]),
                             np.array([[ts]]), n)
    orb = orbit(cpl, eps, x0, [th0], n)
    z = sol.y0[0]
    for _ in range(n):
        z = float(torus(cpl.f_lift(z, np.array([ts]))))
    assert abs(z - orb.x[n]) <= 1e-9


def test_pullback_derivative_against_finite_difference(cpl):
    # h must stay below the lam^-n oscillation scale of the pullback map,
    # otherwise the difference quotient averages over many wiggles
    eps, n, h = 1e-4, 10, 1e-7
    th0, ts = np.array([0.52]), np.array([0.52004])
    sol = shadow_solve_batch(cpl, eps, np.array([0.37 - h, 0.37, 0.37 + h]),
                             np.tile(th0, (3, 1)), np.tile(ts, (3, 1)), n)
    fd = (sol.y0[2] - sol.y0[0]) / (2 * h)
    assert np.exp(sol.log_y_prime[1]) == pytest.approx(fd, rel=1e-6)


def test_derivative_bounds_random_points(cpl):
    eps = 1e-4
    n = int(eps**-0.5)
    rng = np.random.default_rng(3)
    x0 = rng.random(50)
    th0 = rng.random((50, 1))
    ts = th0 + eps * (rng.random((50, 1)) - 0.5)
    sol = shadow_solve_batch(cpl, eps, x0, th0, ts, n)
    bound = 10.0 * eps * n * n
    assert np.all(np.abs(sol.log_y_prime) <= bound)
    assert np.all(sol.defect <= 1e-12)


def test_preconditions(cpl):
    x0, th0 = np.array([0.3]), np.array([[0.4]])
    with pytest.raises(ValueError, match="exceeds eps"):
        shadow_solve_batch(cpl, 1e-4, x0, th0, np.array([[0.45]]), 10)      # theta gap > eps
    with pytest.raises(ValueError, match="beyond shadowing range"):
        shadow_solve_batch(cpl, 1e-4, x0, th0, np.array([[0.40005]]), 500)  # n beyond eps^-1/2
    with pytest.raises(ValueError, match="shadowing needs eps > 0"):
        shadow_solve_batch(cpl, 0.0, x0, th0, th0, 10)                      # no range at eps = 0


def test_diagnostic_summarises_its_batch(cpl):
    eps = 1e-4
    batch, summary = shadow_diagnostic(cpl, eps, np.random.default_rng(5), 20)
    assert summary["n"] == 100 == batch.shadow_orbit.shape[0] - 1
    assert batch.y0.shape == batch.log_y_prime.shape == (20,)
    assert summary["max_defect"] == batch.defect.max()
    assert summary["shadow_constant"] == batch.shadow_constant.max()
    assert summary["max_log_y_prime"] == np.abs(batch.log_y_prime).max()
    assert summary["y_prime_bound"] == SHADOW_C_SHARP * eps * 100 ** 2


def test_batch_reductions_equal_a_per_point_loop(cpl):
    # each point's sums and maxima, taken column by column as a lone point's
    # would be, must match the batch to the last bit
    eps, n = 1e-4, 100
    rng = np.random.default_rng(11)
    x0, th0 = rng.random(40), rng.random((40, 1))
    ts = th0 + eps * (rng.random((40, 1)) - 0.5)
    sol = shadow_solve_batch(cpl, eps, x0, th0, ts, n)
    xs, ths = [x0], [th0]
    for _ in range(n):
        x, th, _ = step(cpl, eps, xs[-1], ths[-1])
        xs.append(x)
        ths.append(th)
    log_v = tangent_forward(*cpl.tangent(np.array(xs[:-1]), np.array(ths[:-1])), eps)[1][n]
    log_dfstar = np.log(cpl.df_dx(sol.shadow_orbit[:-1], ts))
    ks = np.arange(1, n + 1)
    for i in range(40):
        assert sol.log_y_prime[i] == float(log_v[i]) - float(log_dfstar[:, i].sum())
        assert sol.shadow_constant[i] == np.max(sol.errors[1:, i] / (eps * ks))
        assert sol.y0[i] == sol.shadow_orbit[0, i]
