import numpy as np
import pytest

from fastslow import diffusion
from fastslow.diffusion import (autocovariances, average_drift,
                                diffusion_matrix, drift_jacobian, green_kubo, sym_sqrt)
from fastslow.exceptions import NegativeEigenvalueError, TruncationTailError
from fastslow.systems import FastSlowSystem, TrigTerm, fixture
from fastslow.ulam import srb_density, ulam_operator
from test_srb_cache import counted_pushes, per_node_autocovariances, tail_tol_between_windows


def theta_only_drift():
    return FastSlowSystem(d=1, degree=3, f_terms=[],
                          omega_terms=[[TrigTerm(1.0, lt=(1,), ft="sin")]])


def test_lin_drift_vanishes(lin):
    dens = srb_density(ulam_operator(lin, [0.0], 300))
    assert abs(average_drift(lin, dens)[0]) <= 1e-14


def test_pure_theta_drift_and_jacobian():
    system = theta_only_drift()
    theta = 0.3
    dens = srb_density(ulam_operator(system, [theta], 256))
    wbar = average_drift(system, dens)
    assert wbar[0] == pytest.approx(np.sin(2 * np.pi * theta), abs=1e-12)
    jac = drift_jacobian(system, [theta], 1e-4, 256)
    assert jac[0, 0] == pytest.approx(2 * np.pi * np.cos(2 * np.pi * theta), abs=1e-5)


def test_cpl_drift_splits_into_parts(cpl):
    # omega = sin(2 pi theta) + cos(2 pi x): the average splits by linearity
    dens = srb_density(ulam_operator(cpl, [0.25], 2048))
    wbar = average_drift(cpl, dens)
    part = dens.integrate(lambda x: np.cos(2 * np.pi * x))
    assert wbar[0] == pytest.approx(1.0 + part, abs=1e-12)


def test_jacobian_richardson_ratio():
    # error(h)/error(h/2) ~ 4 for a second-order difference
    system = theta_only_drift()
    theta, exact = 0.3, 2 * np.pi * np.cos(2 * np.pi * 0.3)
    e1 = abs(drift_jacobian(system, [theta], 1e-2, 256)[0, 0] - exact)
    e2 = abs(drift_jacobian(system, [theta], 5e-3, 256)[0, 0] - exact)
    assert 3.5 <= e1 / e2 <= 4.5


def test_jacobian_step_bounds():
    with pytest.raises(ValueError):
        drift_jacobian(theta_only_drift(), [0.3], 1e-7, 64)


def test_lin_autocovariances(lin):
    op = ulam_operator(lin, [0.0], 300)
    dens = srb_density(op)
    gam = autocovariances(lin, [op], [dens], 6)[0]
    assert gam[0, 0, 0] == pytest.approx(0.5, abs=1e-13)
    assert np.abs(gam[1:]).max() <= 1e-10


def test_lin_diffusion_value(lin):
    ctx = diffusion_matrix(lin, [0.0], 300, with_jacobian=False)
    assert ctx.sigma2[0, 0] == pytest.approx(0.5, abs=1e-3)
    assert ctx.sigma[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-3)
    assert not ctx.coboundary


def test_coboundary_flagged_and_degenerate(cbd):
    ctx = diffusion_matrix(cbd, [0.0], 300, with_jacobian=False)
    assert ctx.sigma2[0, 0] <= 1e-3
    assert ctx.coboundary


def test_cpl_not_flagged_and_decay_reported(cpl):
    ctx = diffusion_matrix(cpl, [0.25], 2048, with_jacobian=False)
    assert not ctx.coboundary
    assert ctx.decay_rate is not None and ctx.decay_rate > 0.2
    assert ctx.tail_estimate <= 1e-9


def test_cpl_autocovariances_against_time_series(cpl):
    # oracle: ensemble time average over 1e6 frozen-orbit points
    theta = 0.25
    op = ulam_operator(cpl, [theta], 4096)
    dens = srb_density(op)
    gam = autocovariances(cpl, [op], [dens], 5)[0]
    rng = np.random.default_rng(555)
    R = 1_000_000
    x = rng.random(R)
    th = np.full((R, 1), theta)
    for _ in range(60):
        x = cpl.f(x, th)
    w0 = cpl.omega(x, th)[:, 0]
    mean_emp = w0.mean()
    what0 = w0 - mean_emp
    xk = x.copy()
    for k in range(1, 6):
        xk = cpl.f(xk, th)
        prod = (cpl.omega(xk, th)[:, 0] - mean_emp) * what0
        se = prod.std(ddof=1) / np.sqrt(R)
        assert gam[k, 0, 0] == pytest.approx(prod.mean(), abs=3 * se + 1e-5)


def test_cpl_sigma2_against_variance_growth(cpl):
    # oracle: limit of Var(sum of centered drift / sqrt(n)) over frozen orbits
    theta = 0.25
    ctx = diffusion_matrix(cpl, [theta], 4096, with_jacobian=False)
    wbar = ctx.omega_bar[0]
    rng = np.random.default_rng(987)
    R = 10_000
    x = rng.random(R)
    th = np.full((R, 1), theta)
    for _ in range(60):
        x = cpl.f(x, th)
    acc = np.zeros(R)
    checks = {}
    for n in range(1, 10_001):
        acc += cpl.omega(x, th)[:, 0] - wbar
        x = cpl.f(x, th)
        if n in (1000, 10_000):
            checks[n] = (acc / np.sqrt(n)).var(ddof=1)
    sig2 = ctx.sigma2[0, 0]
    stat = 3 * np.sqrt(2.0 / R)    # 3 relative standard errors of a variance
    assert checks[1000] == pytest.approx(sig2, rel=stat + 0.01)
    assert checks[10_000] == pytest.approx(sig2, rel=0.02)


def test_sigma2_symmetric_psd_random_thetas(cpl):
    rng = np.random.default_rng(31)
    for theta in rng.random(20):
        ctx = diffusion_matrix(cpl, [theta], 1024, with_jacobian=False)
        s2 = ctx.sigma2
        assert np.abs(s2 - s2.T).max() <= 1e-12
        assert np.linalg.eigvalsh(s2).min() >= -1e-9
        assert np.abs(ctx.sigma @ ctx.sigma - s2).max() <= 1e-10


def test_sigma2_theta_continuity(cpl):
    vals = [diffusion_matrix(cpl, [t], 1024, with_jacobian=False).sigma2[0, 0]
            for t in (0.30, 0.301, 0.302)]
    assert abs(vals[1] - vals[0]) <= 0.05
    assert abs(vals[2] - vals[1]) <= 0.05


def test_tail_check_raises_for_short_truncation(cpl):
    op = ulam_operator(cpl, [0.25], 512)
    dens = srb_density(op)
    with pytest.raises(TruncationTailError):
        green_kubo(autocovariances(cpl, [op], [dens], 4)[0])


@pytest.mark.parametrize("name", ["LIN", "CBD", "CPL"])
def test_diffusion_matrix_equals_per_node_push_bitwise(name, monkeypatch):
    system = fixture(name)
    for theta in (0.13, 0.7):
        batched = diffusion_matrix(system, [theta], 4096)
        with monkeypatch.context() as m:
            m.setattr(diffusion, "autocovariances",
                      lambda system, ops, densities, kmax:
                      per_node_autocovariances(system, ops[0], densities[0], kmax)[None])
            oracle = diffusion_matrix(system, [theta], 4096)
        for field in ("omega_bar", "sigma2", "D_omega_bar"):
            assert getattr(batched, field).tobytes() == getattr(oracle, field).tobytes()
        assert batched.tail_estimate == oracle.tail_estimate
        assert batched.decay_rate == oracle.decay_rate
        # the sized sum equals one of 280 lags, the CPL truncation of the fixed
        # rule 10 log(1/TAIL_TOL)/log(lam) that it replaced
        op = ulam_operator(system, [theta], 4096)
        density = srb_density(op)
        assert batched.M == diffusion.default_truncation(system.lam)
        assert batched.sigma2.tobytes() == green_kubo(
            autocovariances(system, [op], [density], 280)[0])[0].tobytes()
        assert batched.omega_bar.tobytes() == average_drift(system, density).tobytes()


def test_green_kubo_sum_equals_a_per_lag_loop():
    # gamma_k decaying like 0.9^k, with a symmetric PSD gamma_0 that dominates
    rng = np.random.default_rng(21)
    L = rng.normal(size=(3, 3))
    gam = rng.normal(size=(281, 3, 3)) * 0.05 * 0.9 ** np.arange(281)[:, None, None]
    gam[0] = L @ L.T + 3 * np.eye(3)
    gam[140:] = 0.0
    loop = gam[0].copy()
    for m in range(1, gam.shape[0]):
        loop += gam[m] + gam[m].T
    sigma2 = green_kubo(gam)[0]
    # the two orders of summation differ by rounding: at most a few ulp per lag
    tol = 4 * gam.shape[0] * np.finfo(float).eps * np.abs(loop).max()
    assert np.abs(sigma2 - 0.5 * (loop + loop.T)).max() <= tol


def test_sym_sqrt_and_negative_rejection():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    S = sym_sqrt(A)
    assert np.abs(S @ S - A).max() <= 1e-12
    with pytest.raises(NegativeEigenvalueError):
        sym_sqrt(np.array([[-1.0]]))


def test_default_truncation_puts_the_window_where_lam_decay_meets_the_tail_check():
    assert [diffusion.default_truncation(fixture(name).lam) for name in ("LIN", "CBD", "CPL")] \
        == [38, 38, 56]
    for lam in (2.1, 3.0, 7.5):
        half = diffusion.default_truncation(lam) // 2
        assert lam ** -half <= diffusion.TAIL_TOL < lam ** -(half - 1)
    assert diffusion.default_truncation(1e6) == 8


def test_failed_tail_check_doubles_the_truncation(cpl, monkeypatch):
    # TAIL_TOL between the tails of the windows [M0/2, M0] and [M0, 2 M0];
    # the start M0 stays the one the real TAIL_TOL gives
    tol, m0 = tail_tol_between_windows(cpl, [[0.3]], 512)
    monkeypatch.setattr(diffusion, "TAIL_TOL", tol)
    monkeypatch.setattr(diffusion, "default_truncation", lambda lam: m0)
    pushes = counted_pushes(monkeypatch)
    ctx = diffusion_matrix(cpl, [0.3], 512, with_jacobian=False)
    assert pushes == [m0, 2 * m0]
    assert ctx.M == 2 * m0 and ctx.tail_estimate <= tol


def test_tail_check_raises_past_the_ceiling(cpl, monkeypatch):
    # a TAIL_TOL below the rounding floor of ||Gamma_k||: every window fails
    m0 = diffusion.default_truncation(cpl.lam)
    monkeypatch.setattr(diffusion, "TAIL_TOL", 1e-40)
    monkeypatch.setattr(diffusion, "default_truncation", lambda lam: m0)
    pushes = counted_pushes(monkeypatch)
    with pytest.raises(TruncationTailError):
        diffusion_matrix(cpl, [0.3], 512, with_jacobian=False)
    assert pushes == [56, 112, 224, diffusion.MAX_TRUNCATION] and diffusion.MAX_TRUNCATION == 400
