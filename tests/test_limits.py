import math

import numpy as np
import pytest

from fastslow import limits
from fastslow.diffusion import sym_sqrt
from fastslow.exceptions import FastSlowError
from fastslow.limits import covariance_evolve, solve_averaged
from fastslow.srb_cache import SRBCache
from fastslow.systems import fixture


def sde_sample(cov, rng, dt, T, n_paths=1):
    """Euler-Maruyama paths of the limiting linear diffusion (weak order 1).

    zeta_{k+1} = zeta_k + B(t_k) zeta_k dt + sigma(t_k) sqrt(dt) xi_k with
    standard Gaussian xi_k drawn from the given stream in step order. All
    paths start at zero. Requires dt <= 1e-2.
    """
    if dt > 1e-2:
        raise ValueError("dt must be <= 1e-2")
    d = cov.d
    n_steps = int(round(T / dt))
    times = dt * np.arange(n_steps + 1)
    B = np.empty((n_steps, d, d))
    sig = np.empty((n_steps, d, d))
    for k in range(n_steps):
        theta = cov.avg.at(float(times[k]))
        B[k] = np.asarray(cov.jac_provider(theta), dtype=float).reshape(d, d)
        sig[k] = sym_sqrt(np.asarray(cov.sigma2_provider(theta), dtype=float).reshape(d, d))
    paths = np.zeros((n_paths, n_steps + 1, d))
    z = np.zeros((n_paths, d))
    sq = np.sqrt(dt)
    for k in range(n_steps):
        xi = rng.standard_normal((n_paths, d))
        z = z + dt * z @ B[k].T + sq * xi @ sig[k].T
        paths[:, k + 1, :] = z
    return times, paths


def test_zero_drift_is_constant():
    avg = solve_averaged(lambda th: np.zeros(1), [0.37], 1.0)
    ts = np.linspace(0, 1, 9)
    assert np.allclose(avg.at(ts), 0.37, atol=1e-12)


def test_constant_drift_is_linear():
    avg = solve_averaged(lambda th: np.array([0.3]), [0.1], 2.0)
    assert avg.at(2.0)[0] == pytest.approx(0.7, abs=1e-10)


def test_sine_drift_against_fixed_step_rk4(monkeypatch):
    # oracle: classical fixed-step fourth-order integrator at h = 1e-6
    monkeypatch.setattr(limits, "AVERAGED_TOL", 1e-12)
    kappa = 0.03

    def drift(th):
        return np.array([math.sin(2 * math.pi * float(np.atleast_1d(th)[0])) + kappa])

    avg = solve_averaged(drift, [0.2], 1.0)

    def rhs(y):
        return math.sin(2 * math.pi * y) + kappa

    h, y = 1e-6, 0.2
    for _ in range(1_000_000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert avg.at(1.0)[0] == pytest.approx(y, abs=1e-8)


def test_averaged_residual_at_dyadic_probes(monkeypatch):
    # dense output satisfies the integral equation to integrator accuracy
    def drift(th):
        return np.array([np.sin(2 * np.pi * float(np.atleast_1d(th)[0])) + 0.1])

    tol = 1e-10
    monkeypatch.setattr(limits, "AVERAGED_TOL", tol)
    avg = solve_averaged(drift, [0.2], 1.0)
    for j in range(1, 6):
        h = 2.0 ** -j
        for t in np.arange(0.0, 1.0 - h + 1e-12, h):
            fine = np.linspace(t, t + h, 129)
            vals = np.array([drift(avg.at(float(s)))[0] for s in fine])
            w = np.ones(129)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            integral = (fine[1] - fine[0]) / 3.0 * (w @ vals)
            resid = abs(avg.at(t + h)[0] - avg.at(t)[0] - integral)
            assert resid <= 100 * tol


def test_gronwall_stability_of_averaged_solve(monkeypatch):
    monkeypatch.setattr(limits, "AVERAGED_TOL", 1e-12)

    def drift(th):
        return np.array([np.sin(2 * np.pi * float(np.atleast_1d(th)[0]))])

    a1 = solve_averaged(drift, [0.2], 1.0)
    a2 = solve_averaged(drift, [0.2 + 1e-8], 1.0)
    # Lipschitz estimate: largest difference quotient of 64 steps along the
    # unit cell from theta0
    probe = np.array([drift(0.2 + i / 64)[0] for i in range(65)])
    lip = float(np.abs(np.diff(probe)).max() * 64)
    ts = np.linspace(0, 1, 33)
    gap = np.abs(a1.at(ts) - a2.at(ts))[:, 0]
    bound = 1e-8 * np.exp(lip * ts)
    assert np.all(gap <= bound * (1 + 1e-3) + 1e-12)


def _avg_const(d: int, T: float = 1.0):
    vel = np.zeros(d)
    vel[0] = 1.0
    return solve_averaged(lambda th: vel, np.zeros(d), T)


def test_flat_covariance_grows_linearly():
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]),
                            lambda th: np.array([[0.0]]), 1.0)
    for t in (0.25, 0.5, 1.0):
        assert cov.Sigma_at(t)[0, 0] == pytest.approx(0.5 * t, abs=1e-10)


def test_zero_noise_means_zero_covariance():
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.zeros((1, 1)),
                            lambda th: np.array([[0.8]]), 1.0)
    assert max(np.abs(cov.Sigma_at(t)).max() for t in np.linspace(0.0, 1.0, 33)) <= 1e-12


def test_scalar_closed_form():
    b, s2 = 0.9, 0.3
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.array([[s2]]),
                            lambda th: np.array([[b]]), 1.0)
    exact = s2 * (np.exp(2 * b) - 1.0) / (2 * b)
    assert cov.Sigma_at(1.0)[0, 0] == pytest.approx(exact, rel=1e-9)


def test_covariance_solve_on_a_cpl_table_takes_few_provider_calls():
    # each RHS evaluation calls each provider once: 614 with the 8th-order
    # pair, 1556 with the 4/5 pair
    cache = SRBCache(fixture("CPL"), N=512)
    avg = solve_averaged(cache.omega_bar, [0.25], 1.0)
    calls = {"sigma2": 0, "jac": 0}

    def counted(name, provider):
        def wrapped(theta):
            calls[name] += 1
            return provider(theta)
        return wrapped

    covariance_evolve(avg, counted("sigma2", cache.sigma2), counted("jac", cache.d_omega_bar),
                      1.0)
    assert calls["sigma2"] == calls["jac"] <= 800


def _random_profile(d: int, seed: int):
    rng = np.random.default_rng(seed)
    BA = rng.normal(size=(d, d))
    BB = rng.normal(size=(d, d))
    L = rng.normal(size=(d, d)) * 0.5

    def jac(th):
        t = float(np.atleast_1d(th)[0])
        return BA * np.sin(2 * np.pi * t) + BB * np.cos(np.pi * t)

    def sig2(th):
        t = float(np.atleast_1d(th)[0])
        M = L @ L.T
        return M * (1.2 + np.sin(2 * np.pi * t))

    return jac, sig2


@pytest.mark.parametrize("d,seed", [(1, 0), (2, 1), (2, 2), (3, 3), (3, 4),
                                    (1, 5), (2, 6), (3, 7), (2, 8), (3, 9)])
def test_covariance_routes_agree_random_profiles(d, seed):
    jac, sig2 = _random_profile(d, seed)
    avg = _avg_const(d)
    cov = covariance_evolve(avg, sig2, jac, 1.0)
    assert cov.cross_check <= 1e-8
    # PSD at all outputs, inverse-flow identity, positive determinant
    for t in np.linspace(0.0, 1.0, 33):
        assert np.linalg.eigvalsh(cov.Sigma_at(t)).min() >= -1e-10
        assert np.linalg.det(cov.S_at(t)) > 0
    Phi = cov.flow(0.0, 1.0)
    assert np.abs(cov.S_at(1.0) @ Phi - np.eye(d)).max() <= 1e-8


def test_covariance_beyond_the_averaged_horizon_raises():
    # theta_bar on [0, 0.5] is not extrapolated to feed a solve to T = 1
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), [0.25], 0.5)
    with pytest.raises(ValueError, match="outside"):
        covariance_evolve(avg, lambda th: np.array([[0.5]]), lambda th: np.array([[-0.2]]), 1.0)
    with pytest.raises(ValueError, match="outside"):
        avg.at(0.5 + 1e-12)


def test_route_disagreement_raises(monkeypatch):
    # the two routes follow different arithmetic, so an absurd tolerance trips
    monkeypatch.setattr(limits, "ROUTE_TOL", 1e-16)
    jac, sig2 = _random_profile(2, 1)
    avg = _avg_const(2)
    with pytest.raises(FastSlowError, match="covariance routes disagree"):
        covariance_evolve(avg, sig2, jac, 1.0)


def test_conditional_covariance_degenerate_cases():
    # B = 0, sigma2 = 1/2: the flow is the identity and Cov(zeta(t) | zeta(s)) = (t - s)/2
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]),
                            lambda th: np.array([[0.0]]), 1.0)
    assert cov.conditional_covariance(0.5, 0.5)[0, 0] == 0.0
    assert cov.conditional_covariance(0.0, 1.0)[0, 0] == pytest.approx(0.5, abs=1e-10)
    assert cov.conditional_covariance(0.5, 1.0)[0, 0] == pytest.approx(0.25, abs=1e-10)
    assert cov.flow(0.5, 1.0)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_sde_zero_noise_stays_at_zero():
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.zeros((1, 1)),
                            lambda th: np.array([[0.4]]), 1.0)
    _, paths = sde_sample(cov, np.random.default_rng(0), 1e-3, 1.0, n_paths=16)
    assert np.all(paths == 0.0)


def test_sde_flat_case_variance_and_skewness():
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]),
                            lambda th: np.array([[0.0]]), 1.0)
    _, paths = sde_sample(cov, np.random.default_rng(4), 1e-3, 1.0, n_paths=10_000)
    z = paths[:, -1, 0]
    # 3 sigma band for the variance of 1e4 Gaussians plus O(dt) weak bias
    assert z.var(ddof=1) == pytest.approx(0.5, abs=3 * np.sqrt(2 / 10_000) * 0.5 + 5e-3)
    skew = ((z - z.mean()) ** 3).mean() / z.std(ddof=0) ** 3
    assert abs(skew) <= 0.08


def test_charfn_consistency_with_sampler():
    # 1e5 weak-sampled paths match the analytic characteristic function
    b = -0.6

    def jac(th):
        return np.array([[b]])

    def sig2(th):
        t = float(np.atleast_1d(th)[0])
        return np.array([[0.4 + 0.2 * np.sin(2 * np.pi * t)]])

    avg = _avg_const(1)
    cov = covariance_evolve(avg, sig2, jac, 1.0)
    _, paths = sde_sample(cov, np.random.default_rng(9), 1e-3, 1.0, n_paths=100_000)
    z = paths[:, -1, 0]
    C = cov.conditional_covariance(0.0, 1.0)   # zeta(0) = 0, so this is Sigma(1)
    for lv in (0.5, 1.0, 1.5, 2.0, 3.0):
        lam = np.array([lv])
        logmag = float(-0.5 * lam @ C @ lam)
        re, im = np.cos(lv * z), np.sin(lv * z)
        # EM has O(dt) weak bias on top of Monte Carlo noise
        assert re.mean() == pytest.approx(np.exp(logmag),
                                          abs=3 * re.std() / np.sqrt(z.size) + 2e-3)
        assert im.mean() == pytest.approx(0.0, abs=3 * im.std() / np.sqrt(z.size) + 2e-3)


def test_two_time_covariance_formula_against_sampler():
    # flow-based prediction Cov(z(s), z(t)) = Sigma(s) Phi(s,t)^T, checked
    # against 1e5 weak-sampled paths for a noncommuting planar profile
    jac, sig2 = _random_profile(2, 42)
    avg = _avg_const(2)
    cov = covariance_evolve(avg, sig2, jac, 1.0)
    times, paths = sde_sample(cov, np.random.default_rng(12), 1e-3, 1.0, n_paths=100_000)
    i_s, i_t = 500, 1000
    zs, zt = paths[:, i_s, :], paths[:, i_t, :]
    zs = zs - zs.mean(axis=0)
    zt = zt - zt.mean(axis=0)
    emp = zs.T @ zt / (zs.shape[0] - 1)
    pred = cov.Sigma_at(0.5) @ cov.flow(0.5, 1.0).T
    se = np.sqrt((zs**2).T @ (zt**2) / zs.shape[0]) / np.sqrt(zs.shape[0])
    assert np.all(np.abs(emp - pred) <= 3 * se + 2e-3)


def test_sde_step_guard():
    avg = _avg_const(1)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]),
                            lambda th: np.array([[0.0]]), 1.0)
    with pytest.raises(ValueError):
        sde_sample(cov, np.random.default_rng(0), 0.1, 1.0)
