import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.cones import ConeFrame, check_frames, cone_constant, cone_frames
from fastslow.exceptions import ConeConditionError, ConeViolationError
from fastslow.orbits import orbit
from fastslow.systems import FastSlowSystem, TrigTerm


def theta_only_drift():
    """f = 3x, omega = sin(2 pi theta): d omega / dx = 0."""
    return FastSlowSystem(d=1, degree=3, f_terms=[],
                          omega_terms=[[TrigTerm(1.0, lt=(1,), ft="sin")]])


def test_zero_slope_is_invariant_when_drift_is_x_independent():
    system = theta_only_drift()
    frames = cone_frames(system, 1e-3, 0.3, [0.4], 15)
    for fr in frames:
        assert fr.u[0] == 0.0


def test_lin_expansion_factors(lin):
    frames = cone_frames(lin, 1e-3, 0.3, [0.4], 12)
    assert frames[12].v == pytest.approx(3.0**12, rel=1e-14)
    assert frames[12].Gamma == pytest.approx(3.0**12, rel=1e-14)
    assert frames[12].a == 0.0
    check_frames(lin, frames, 1e-3)


def test_cpl_gamma_matches_independent_product(cpl):
    eps, n = 1e-3, 20
    frames = cone_frames(cpl, eps, 0.37, [0.52], n)
    # separate scalar accumulation of the derivative product
    x, th = 0.37, 0.52
    log_prod = 0.0
    for _ in range(n):
        dfx = 3 + 0.9 * np.sin(2 * np.pi * th) * np.cos(2 * np.pi * x)
        log_prod += np.log(dfx)
        w = np.sin(2 * np.pi * th) + np.cos(2 * np.pi * x)
        x = (3 * x + 0.9 / (2 * np.pi) * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * x)) % 1.0
        th = (th + eps * w) % 1.0
    assert frames[n].log_Gamma == pytest.approx(log_prod, abs=1e-11)


def test_cpl_frame_bounds_hold(cpl):
    frames = cone_frames(cpl, 1e-3, 0.11, [0.87], 40)
    info = check_frames(cpl, frames, 1e-3)
    assert info["b_measured"] >= 0.0
    assert all(np.linalg.norm(fr.s) <= cpl.K for fr in frames)


def test_central_slopes_match_per_horizon_loop(cpl):
    # scalar backward run from sigma = 0 at each horizon m, as the batch must do
    eps, n = 1e-3, 12
    frames = cone_frames(cpl, eps, 0.37, [0.52], n)
    orb = orbit(cpl, eps, 0.37, [0.52], n)
    fx = cpl.df_dx(orb.x, orb.theta)
    ft = cpl.df_dtheta(orb.x, orb.theta)[:, 0]
    ox = cpl.domega_dx(orb.x, orb.theta)[:, 0]
    ot = cpl.domega_dtheta(orb.x, orb.theta)[:, 0, 0]
    for m in range(n + 1):
        sig = np.zeros(m + 1)
        for k in range(m - 1, -1, -1):
            sig[k] = ((1 + eps * ot[k]) * sig[k + 1] - ft[k]) / (fx[k] - eps * sig[k + 1] * ox[k])
        r = np.prod([1 + eps * (ox[k] * sig[k] + ot[k]) for k in range(m)])
        assert frames[m].s[0] == pytest.approx(sig[0], rel=1e-14, abs=1e-300)
        assert frames[m].r == pytest.approx(r, rel=1e-14)


def test_standing_assumption_guard(cpl):
    c = cone_constant(cpl)
    bad_eps = 1.1 / (cpl.K * c)
    with pytest.raises(ConeConditionError):
        cone_frames(cpl, bad_eps, 0.3, [0.4], 5)


def test_check_frames_detects_violation(lin):
    frames = cone_frames(lin, 1e-3, 0.3, [0.4], 3)
    doctored = list(frames)
    fr = frames[2]
    doctored[2] = ConeFrame(n=fr.n, v=fr.v, log_v=fr.log_v,
                            u=np.array([100.0]), s=fr.s, r=fr.r,
                            Gamma=fr.Gamma, log_Gamma=fr.log_Gamma,
                            c=fr.c, a=fr.a)
    with pytest.raises(ConeViolationError) as err:
        check_frames(lin, doctored, 1e-3)
    assert err.value.step == 2


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
    c = cone_constant(system)
    eps = min(0.9 / (system.K * c), 1e-2)
    frames = cone_frames(system, eps, x0, [th0], 25)
    check_frames(system, frames, eps)
    for fr in frames[1:]:
        assert np.linalg.norm(fr.u) <= c * (1 + 1e-12)
