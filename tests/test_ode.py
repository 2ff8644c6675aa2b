"""The in-package DOP853 against scipy's solve_ivp(method="DOP853"), bit for bit."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import DOP853

from fastslow import limits, ode
from fastslow.exceptions import FastSlowError
from fastslow.srb_cache import SRBCache
from fastslow.systems import fixture
from conftest import wall_bound
from test_experiments import B_PLANAR, SIGMA2_PLANAR


def reference(fun, T, y0, rtol, atol):
    return solve_ivp(fun, (0.0, T), y0, method="DOP853", dense_output=True,
                     rtol=rtol, atol=atol)


def scipy_dop853(fun, T, y0, rtol, atol):
    """Drop-in for ode.dop853 that returns scipy's OdeSolution."""
    res = reference(fun, T, y0, rtol, atol)
    res.sol.message = None if res.success else res.message
    return res.sol


def assert_same_solution(ours, ref, T, rng):
    """Equal steps, nfev and dense output: at scalar times, at an unsorted
    array with the step points among its entries, and at 0 and T."""
    assert ref.success and ours.message is None
    assert ours.nfev == ref.nfev
    assert np.array_equal(ours.ts, ref.t)
    inner = rng.uniform(0.0, T, 40)
    times = np.concatenate([inner, ref.t, [0.0, T]])
    rng.shuffle(times)
    assert np.array_equal(ours(times), ref.sol(times))
    for t in [0.0, T, *ref.t[1:4], *inner[:8]]:
        assert np.array_equal(ours(t), ref.sol(t))


def test_tableau_is_scipys():
    assert np.array_equal(ode.A, dop853_coefficients.A)
    assert np.array_equal(ode.C, dop853_coefficients.C)
    for name in ("B", "E3", "E5", "D"):
        assert np.array_equal(getattr(ode, name), getattr(DOP853, name)), name


@pytest.mark.parametrize("seed", range(5))
def test_random_linear_systems_match_solve_ivp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    M = rng.normal(size=(n, n))
    y0 = rng.normal(size=n)
    T = float(rng.uniform(0.5, 3.0))
    tol = 10.0 ** rng.uniform(-12.0, -6.0)

    def fun(t, y):
        return M @ y

    assert_same_solution(ode.dop853(fun, T, y0, tol, 0.01 * tol),
                         reference(fun, T, y0, tol, 0.01 * tol), T, rng)


@pytest.fixture(scope="module")
def caches():
    return {name: SRBCache(fixture(name), N=512) for name in ("LIN", "CBD", "CPL")}


def planar_providers():
    return lambda th: np.zeros(2), [0.3, 0.6], lambda th: SIGMA2_PLANAR, lambda th: B_PLANAR


@pytest.mark.parametrize("name", ["LIN", "CBD", "CPL", "planar"])
def test_limits_solves_match_solve_ivp(name, caches, monkeypatch):
    if name == "planar":
        drift, theta0, sigma2, jac = planar_providers()
    else:
        cache = caches[name]
        drift, theta0, sigma2, jac = cache.omega_bar, [0.25], cache.sigma2, cache.d_omega_bar
    runs = []

    def paired(fun, T, y0, rtol, atol):
        ours = ode.dop853(fun, T, y0, rtol, atol)
        runs.append((ours, reference(fun, T, y0, rtol, atol), T))
        return ours

    def solve():
        avg = limits.solve_averaged(drift, theta0, 1.0)
        return avg, limits.covariance_evolve(avg, sigma2, jac, 1.0)

    monkeypatch.setattr(limits, "dop853", paired)
    avg, cov = solve()
    rng = np.random.default_rng(3)
    assert len(runs) == 2
    for ours, ref, T in runs:
        assert_same_solution(ours, ref, T, rng)

    # the public trajectories equal those built on scipy's solution
    monkeypatch.setattr(limits, "dop853", scipy_dop853)
    avg_ref, cov_ref = solve()
    times = np.array([0.7, 0.0, 0.31, 1.0, 0.5])
    assert np.array_equal(avg.at(times), avg_ref.at(times))
    for t in np.linspace(0.0, 1.0, 33):
        for field in ("Sigma_at", "S_at"):
            assert np.array_equal(getattr(cov, field)(t), getattr(cov_ref, field)(t)), (field, t)
    assert cov.cross_check == cov_ref.cross_check
    for s, t in [(0.0, 1.0), (0.25, 0.6), (0.5, 0.5)]:
        assert np.array_equal(cov.Sigma_at(t), cov_ref.Sigma_at(t))
        assert np.array_equal(cov.flow(s, t), cov_ref.flow(s, t))
        assert np.array_equal(cov.conditional_covariance(s, t),
                              cov_ref.conditional_covariance(s, t))


def test_blow_up_stops_like_solve_ivp():
    def fun(t, y):
        return y * y

    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference(fun, 2.0, [1.0], 1e-10, 1e-12)
        ours = ode.dop853(fun, 2.0, [1.0], 1e-10, 1e-12)
        assert not ref.success
        assert (ours.message, ours.nfev) == (ref.message, ref.nfev)
        with pytest.raises(FastSlowError, match="averaged solve failed: Required step size"):
            limits.solve_averaged(lambda th: th * th, [1.0], 2.0)


@pytest.mark.parametrize("y0, T", [([np.nan], 1.0), ([0.2, np.inf], 1.0), ([-np.inf], 1.0),
                                   ([0.2], np.inf), ([0.2], np.nan), ([0.2], 0.0)])
def test_non_finite_start_or_horizon_returns_with_a_message(y0, T):
    # each once looped for ever: a NaN step size survives max() and never
    # falls below the minimum step, and t < inf always holds
    calls = []
    with wall_bound(10.0):
        out = ode.dop853(lambda t, y: calls.append(t) or -y, T, y0, 1e-10, 1e-12)
        with pytest.raises(FastSlowError, match="averaged solve failed"):
            limits.solve_averaged(lambda th: -th, y0, T)
    assert out.message is not None and calls == [] and out.nfev == 0


def test_non_finite_right_hand_side_returns_with_a_message():
    with np.errstate(invalid="ignore"), wall_bound(10.0):
        out = ode.dop853(lambda t, y: np.full_like(y, np.nan), 1.0, [1.0], 1e-10, 1e-12)
    assert out.message == "The initial step size is not finite." and out.nfev == 2


def test_dense_output_answers_only_on_its_interval():
    sol = ode.dop853(lambda t, y: -y, 2.0, [1.0], 1e-10, 1e-12)
    assert sol(2.0)[0] == pytest.approx(np.exp(-2.0), rel=1e-9)
    for t in (-1e-300, np.nextafter(2.0, 3.0), np.inf, np.nan):
        with pytest.raises(ValueError, match="outside"):
            sol(t)
    with pytest.raises(ValueError, match="outside"):
        sol(np.array([0.0, 1.0, 2.5]))
