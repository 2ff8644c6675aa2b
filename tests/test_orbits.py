import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import orbit
from fastslow import orbits
from fastslow.exceptions import OrbitLengthError
from fastslow.experiments import default_out_times, run_ensemble
from fastslow.limits import solve_averaged
from fastslow.orbits import sample_paths_batch, step
from fastslow.standard_pairs import constant_pair
from fastslow.systems import FastSlowSystem, TrigTerm, fixture, torus


def unit_drift_system():
    """f = 3x with constant slow drift omega = 1."""
    return FastSlowSystem(d=1, degree=3, f_terms=[],
                          omega_terms=[[TrigTerm(1.0)]], name="UNIT")


@pytest.mark.parametrize("name", ["LIN", "CBD", "CPL"])
def test_step_freezes_slow_at_eps_zero(name):
    system = fixture(name)
    rng = np.random.default_rng(0)
    x = rng.random(1000)
    th = rng.random((1000, 1))
    _, th1, dth = step(system, 0.0, x, th)
    assert np.array_equal(th1, th)
    assert np.all(dth == 0.0)


def test_step_lin_fixed_point(lin):
    x1, th1, _ = step(lin, 0.01, 0.0, [0.3])
    assert x1 == 0.0          # x = 0 is fixed under 3x mod 1
    assert th1[0] == pytest.approx(0.31, abs=1e-15)   # omega(0) = 1


def test_step_cpl_derived_value(cpl):
    # direct evaluation of the closed form at (0.2, 0.5), eps = 1e-3
    x1, th1, _ = step(cpl, 1e-3, 0.2, [0.5])
    w = np.sin(2 * np.pi * 0.5) + np.cos(2 * np.pi * 0.2)
    f = (3 * 0.2 + 0.9 / (2 * np.pi) * np.sin(2 * np.pi * 0.5) * np.sin(2 * np.pi * 0.2)) % 1.0
    assert x1 == pytest.approx(f, abs=1e-15)
    assert th1[0] == pytest.approx((0.5 + 1e-3 * w) % 1.0, abs=1e-15)


def test_orbit_identity_case(lin):
    orb = orbit(lin, 1e-3, 0.37, [0.2], 0)
    assert len(orb) == 1
    assert orb.x[0] == 0.37


def test_orbit_lin_period_two(lin):
    orb = orbit(lin, 0.0, 0.25, [0.0], 2)
    assert np.array_equal(orb.x, [0.25, 0.75, 0.25])


def test_orbit_lift_matches_independent_accumulation(cpl):
    eps, n = 1e-2, 100
    orb = orbit(cpl, eps, 0.37, [0.52], n)
    # recompute the Birkhoff sum with a separate scalar pass
    x, th = 0.37, 0.52
    acc = 0.52
    for _ in range(n):
        w = np.sin(2 * np.pi * th) + np.cos(2 * np.pi * x)
        x = (3 * x + 0.9 / (2 * np.pi) * np.sin(2 * np.pi * th) * np.sin(2 * np.pi * x)) % 1.0
        th = (th + eps * w) % 1.0
        acc += eps * w
    assert orb.lift[n, 0] == pytest.approx(acc, abs=1e-10)
    assert orb.theta[n, 0] == pytest.approx(acc % 1.0, abs=1e-10)


def test_orbit_length_guard(lin, monkeypatch):
    # run_ensemble at T/eps above MAX_ORBIT_STEPS raises before a single step is taken
    def no_step(*args):
        raise AssertionError("iterated past the step limit")

    monkeypatch.setattr(orbits, "step", no_step)
    eps = 0.5 / orbits.MAX_ORBIT_STEPS
    pair = constant_pair([0.3], 0.2, 0.3, eps)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    with pytest.raises(OrbitLengthError):
        run_ensemble(lin, pair, eps, 4, 1.0, default_out_times(1.0), 1, avg)


def test_lift_reduces_to_torus_values(cpl):
    orb = orbit(cpl, 5e-3, 0.3, [0.4], 2000)
    gap = np.abs(np.mod(orb.lift, 1.0) - orb.theta)
    gap = np.minimum(gap, 1.0 - gap)   # wrap-safe comparison
    assert gap.max() <= 1e-9


def test_polygonalization_nodes_and_midpoints(cpl):
    eps, T = 1e-2, 0.5
    orb = orbit(cpl, eps, 0.3, [0.4], 60)
    k = 17
    node, mid = sample_paths_batch(cpl, eps, np.array([0.3]), np.array([[0.4]]),
                                   [eps * k, eps * (k + 0.5)], T)[0]
    assert node == pytest.approx(orb.lift[k], abs=1e-14)
    assert mid == pytest.approx(0.5 * (orb.lift[k] + orb.lift[k + 1]), abs=1e-14)


def test_polygonalization_constant_drift_has_unit_slope():
    system = unit_drift_system()
    eps, T = 1e-3, 1.0
    ts = np.linspace(0, T, 101)
    path = sample_paths_batch(system, eps, np.array([0.2]), np.array([[0.1]]), ts, T)
    assert np.allclose(path[0, :, 0], 0.1 + ts, atol=1e-12)


def test_polygonalization_lipschitz_bound(cpl):
    eps, T = 2e-3, 0.5
    ts = eps * np.arange(int(T / eps) + 2)
    path = sample_paths_batch(cpl, eps, np.array([0.11]), np.array([[0.73]]), ts, ts[-1])[0]
    slopes = np.linalg.norm(np.diff(path, axis=0), axis=1) / np.diff(ts)
    assert slopes.max() <= cpl.omega_sup + 1e-9


def test_batch_paths_match_single_orbits(cpl):
    eps, T = 1e-2, 0.3
    out_times = np.linspace(0, T, 7)
    x0 = np.array([0.1, 0.5, 0.9])
    th0 = np.array([[0.2], [0.4], [0.6]])
    rec = sample_paths_batch(cpl, eps, x0, th0, out_times, T)
    for i in range(3):
        orb = orbit(cpl, eps, x0[i], th0[i], int(T / eps) + 2)
        path = np.interp(out_times, eps * np.arange(len(orb)), orb.lift[:, 0])
        assert np.allclose(rec[i, :, 0], path, atol=1e-13)


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan")], ids=["zero", "negative", "nan"])
def test_batch_paths_reject_eps_that_is_not_positive(cpl, eps):
    # there is no zeta = (theta - theta_bar) / sqrt(eps) at eps <= 0
    with pytest.raises(ValueError, match="outside"):
        sample_paths_batch(cpl, eps, np.array([0.3]), np.array([[0.7]]),
                           np.linspace(0, 1.0, 5), 1.0)


def test_batch_paths_reject_an_unsorted_grid(cpl):
    # rows 1 and 2 of an unsorted grid were never written: np.empty memory came back
    with pytest.raises(ValueError, match="outside"):
        sample_paths_batch(cpl, 1e-2, np.array([0.3]), np.array([[0.7]]),
                           np.array([0.5, 0.0, 1.0]), 1.0)


@pytest.mark.parametrize("t", [1.5, 1.0 + 1e-9, -1e-9])
def test_batch_paths_reject_a_time_outside_the_horizon(cpl, t):
    # a path run to T = 1 read at 1.5 extrapolated its last segment: 0.5264
    # here, where the path run to T = 1.5 reads 0.5110
    x0, th0 = np.array([0.3]), np.array([[0.7]])
    with pytest.raises(ValueError, match="outside"):
        sample_paths_batch(cpl, 1e-2, x0, th0, np.array([0.0, t]), 1.0)
    # within the horizon a reading does not depend on how far the path runs
    end = max(t, 1.0)
    inside = sample_paths_batch(cpl, 1e-2, x0, th0, np.array([0.0, end]), end)
    longer = sample_paths_batch(cpl, 1e-2, x0, th0, np.array([0.0, end]), 2.0)
    assert np.array_equal(inside, longer)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.02, exclude_min=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_lipschitz_property_random(eps, x0, th0):
    cpl = fixture("CPL")
    n = 50
    ts = eps * np.arange(n - 1)
    path = sample_paths_batch(cpl, eps, np.array([x0]), np.array([[th0]]), ts, eps * (n - 2))[0]
    slopes = np.linalg.norm(np.diff(path, axis=0), axis=1) / np.diff(ts)
    assert slopes.max() <= cpl.omega_sup + 1e-9


@pytest.mark.parametrize("name", ["LIN", "CBD", "CPL"])
def test_batch_paths_equal_loop_over_f_omega_and_mod(name):
    # the update order of the skew product, spelled out with np.mod
    system = fixture(name)
    rng = np.random.default_rng(4)
    eps, T = 1e-2, 0.5
    x0 = rng.uniform(-1.0, 2.0, 256)
    th0 = rng.uniform(-1.0, 2.0, (256, 1))
    out_times = np.linspace(0.0, T, 9)
    got = sample_paths_batch(system, eps, x0, th0, out_times, T)

    n_steps = int(np.floor(T / eps)) + 1
    node = np.minimum(np.floor(out_times / eps).astype(int), n_steps)
    frac = out_times / eps - node
    x, th = np.mod(x0, 1.0), np.mod(th0, 1.0)
    lift = th.copy()
    expected = np.empty_like(got)
    for k in range(n_steps + 1):
        dth = eps * system.omega(x, th)
        x, th, lift_next = torus(system.f_lift(x, th)), np.mod(th + dth, 1.0), lift + dth
        for p in np.flatnonzero(node == k):
            expected[:, p] = lift + frac[p] * (lift_next - lift)
        lift = lift_next
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
