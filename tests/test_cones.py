import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import orbit
from fastslow.shadowing import tangent_forward
from fastslow.systems import FastSlowSystem, TrigTerm


def forward_tangents(system, eps, x0, theta0, n):
    """df/dx and the forward slopes and log expansion factors along one orbit."""
    orb = orbit(system, eps, x0, theta0, n)
    der = system.tangent(orb.x[:-1, None], orb.theta[:-1, None])
    u, log_v = tangent_forward(*der, eps)
    return der[0][:, 0], u[:, 0], log_v[:, 0]


def cone_constant(system):
    return (system.K + 1.0) / (system.lam - 2.0)


def assert_cone_bounds(system, eps, x0, th0, n):
    """|u_k| <= c, and the expansion factor v_k within exp(+-a*eps*k) of the
    product of df/dx, with a = c * sup|df/dtheta| / lam."""
    c = cone_constant(system)
    fx, u, log_v = forward_tangents(system, eps, x0, [th0], n)
    assert np.all(np.linalg.norm(u, axis=-1) <= c * (1 + 1e-12))
    a = c * system.dft_sup / system.lam
    log_gamma = np.concatenate([[0.0], np.cumsum(np.log(fx))])
    assert np.all(np.abs(log_v - log_gamma) <= a * eps * np.arange(n + 1) + 1e-9)


def test_zero_slope_is_invariant_when_drift_is_x_independent():
    # f = 3x, omega = sin(2 pi theta): d omega / dx = 0
    system = FastSlowSystem(d=1, degree=3, f_terms=[],
                            omega_terms=[[TrigTerm(1.0, lt=(1,), ft="sin")]])
    _, u, _ = forward_tangents(system, 1e-3, 0.3, [0.4], 15)
    assert np.all(u == 0.0)


def test_lin_expansion_factors(lin):
    _, _, log_v = forward_tangents(lin, 1e-3, 0.3, [0.4], 12)
    assert np.exp(log_v[12]) == pytest.approx(3.0**12, rel=1e-14)
    assert_cone_bounds(lin, 1e-3, 0.3, 0.4, 12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(2.05, 4.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_cone_invariance_random_systems(lam_target, x0, th0):
    degree = 4
    amp = (degree - lam_target) / (2 * np.pi)
    system = FastSlowSystem(
        d=1, degree=degree,
        f_terms=[TrigTerm(amp, kx=1, fx="sin", lt=(1,), ft="cos")],
        omega_terms=[[TrigTerm(1.0, kx=1, fx="cos"), TrigTerm(0.7, lt=(1,), ft="sin")]],
    )
    eps = min(0.9 / (system.K * cone_constant(system)), 1e-2)
    assert_cone_bounds(system, eps, x0, th0, 25)


def test_cpl_gamma_matches_independent_product(cpl):
    eps, n = 1e-3, 20
    fx, _, _ = forward_tangents(cpl, eps, 0.37, [0.52], n)
    # separate scalar accumulation of the derivative product
    x, th = 0.37, 0.52
    log_prod = 0.0
    for _ in range(n):
        dfx = 3 + 0.9 * np.sin(2 * np.pi * th) * np.cos(2 * np.pi * x)
        log_prod += np.log(dfx)
        w = np.sin(2 * np.pi * th) + np.cos(2 * np.pi * x)
        x = (3 * x + 0.9 / (2 * np.pi) * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * x)) % 1.0
        th = (th + eps * w) % 1.0
    assert np.sum(np.log(fx)) == pytest.approx(log_prod, abs=1e-11)


def test_cpl_frame_bounds_hold(cpl):
    assert_cone_bounds(cpl, 1e-3, 0.11, 0.87, 40)
