import dataclasses
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm

from fastslow.diffusion import diffusion_matrix
from fastslow.experiments import (
    CHUNK, Ensemble, Observable, averaging_error, clt_test, cylinder_weight, default_out_times,
    martingale_residual, moment_scaling, run_ensemble,
)
from fastslow.experiments import observable_library as function_library
from fastslow.limits import covariance_evolve, solve_averaged
from fastslow.orbits import sample_paths_batch
from fastslow.rng import stream_uniforms
from fastslow.standard_pairs import constant_pair, sample_from_uniform
from fastslow.systems import FastSlowSystem, TrigTerm, fixture, torus
from test_srb_cache import planar_system


def unit_weight(th):
    """The constant cylinder weight 1."""
    return np.ones(np.shape(th)[:-1])


def lin_setup(eps, n, seed=42, T=1.0, theta0=0.3, m=33):
    lin = fixture("LIN")
    pair = constant_pair([theta0], 0.2, 0.3, eps)
    avg = solve_averaged(lambda th: np.zeros(1), [theta0], T)
    ot = default_out_times(T, m)
    ens = run_ensemble(lin, pair, eps, n, T, ot, seed, avg)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]),
                            lambda th: np.array([[0.0]]), T, out_times=ot)
    return lin, ens, cov


B_PLANAR = np.array([[-0.3, 1.0], [0.0, -0.5]])      # constant and not normal
SIGMA2_PLANAR = np.array([[1.0, 0.4], [0.4, 0.5]])


def planar_setup(zeta):
    """d = 2 law with constant B_PLANAR and SIGMA2_PLANAR, and an Ensemble of given zeta."""
    T = 1.0
    ot = default_out_times(T, zeta.shape[1])
    avg = solve_averaged(lambda th: np.zeros(2), [0.3, 0.6], T)
    cov = covariance_evolve(avg, lambda th: SIGMA2_PLANAR, lambda th: B_PLANAR, T,
                            out_times=ot)
    ens = Ensemble(eps=1e-3, n_traj=zeta.shape[0], root_seed=0, T=T, out_times=ot,
                   theta_lift=np.broadcast_to(avg.at(ot), zeta.shape).copy(), zeta=zeta)
    return ens, cov


def frozen_fluctuation_sums(system, pair, theta_freeze, n_steps, n_traj, root_seed,
                            omega_bar_value):
    """Normalized Birkhoff sums (1/sqrt(n)) sum (omega - omega_bar)(x_k, theta).

    The slow coordinate is held at theta_freeze, so the ensemble variance of
    the result converges to the summed-autocovariance diffusion matrix.
    """
    theta = np.atleast_1d(np.asarray(theta_freeze, dtype=float))
    wbar = np.asarray(omega_bar_value, dtype=float)
    us = stream_uniforms(root_seed, n_traj)
    x, _ = sample_from_uniform(pair, us)
    th = np.broadcast_to(theta, (n_traj, system.d))
    acc = np.zeros((n_traj, system.d))
    for _ in range(n_steps):
        x, w = system.f_omega(x, th)
        acc += w - wbar
    return acc / np.sqrt(n_steps)


def test_eps_zero_ensemble_is_rejected():
    # at eps = 0 zeta was set to 0, clt_test and moment_scaling wrote NaN, and
    # a martingale row passed at threshold 0.0
    lin = fixture("LIN")
    pair = constant_pair([0.4], 0.2, 0.3, 0.0)
    avg = solve_averaged(lambda th: np.zeros(1), [0.4], 1.0)
    with pytest.raises(ValueError, match="eps > 0"):
        run_ensemble(lin, pair, 0.0, 2, 1.0, default_out_times(1.0), 1, avg, threads=2)


def test_same_seed_bit_identical():
    _, e1, _ = lin_setup(1e-3, 200)
    _, e2, _ = lin_setup(1e-3, 200)
    assert np.array_equal(e1.theta_lift, e2.theta_lift)
    assert np.array_equal(e1.zeta, e2.zeta)


def test_thread_count_does_not_change_results():
    # 5000 trajectories: one slice on one thread, three on three; CPL's f depends on theta
    pair = constant_pair([0.3], 0.2, 0.3, 1e-3)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    ot = default_out_times(1.0)
    for name in ("LIN", "CPL"):
        outs = [run_ensemble(fixture(name), pair, 1e-3, 5000, 1.0, ot, 9, avg, threads=k)
                for k in (1, 3)]
        assert np.array_equal(outs[0].theta_lift.view(np.int64),
                              outs[1].theta_lift.view(np.int64)), name


def test_concurrent_f_omega_equals_serial_bitwise():
    # more threads than cores run one system's evaluation plan at once, each on
    # its own points, switching as often as the interpreter allows
    cpl = fixture("CPL")
    rng = np.random.default_rng(21)
    inputs = [(rng.random(8192), rng.random((8192, 1))) for _ in range(4)]
    serial = [cpl.f_omega(x, th) for x, th in inputs]
    start = threading.Barrier(len(inputs))

    def work(k):
        start.wait(timeout=30)
        return [cpl.f_omega(*inputs[k]) for _ in range(25)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(inputs)) as pool:
            futures = [pool.submit(work, k) for k in range(len(inputs))]
            runs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, run in enumerate(runs):
        for got in run:
            for g, e in zip(got, serial[k]):
                assert np.array_equal(g.view(np.int64), e.view(np.int64))


def test_fluctuation_mean_is_centered():
    _, ens, _ = lin_setup(1e-3, 10_000)
    zT = ens.zeta[:, -1, 0]
    assert abs(zT.mean()) <= 3 * np.sqrt(0.5 / 10_000)


def test_averaging_error_scaling_lin():
    setups = [lin_setup(e, 2000) for e in (4e-3, 1e-3, 2.5e-4)]
    rep = averaging_error([ens for _, ens, _ in setups], setups[0][2].avg)
    assert rep.data["monotone_decreasing"]
    assert 0.4 <= rep.data["fitted_exponent"] <= 0.6


def test_averaging_error_stderr_halves_with_4x_samples():
    import numpy as _np

    def sup_stderr(ens, avg):
        sup = _np.linalg.norm(ens.theta_lift - avg.at(ens.out_times)[None], axis=2).max(axis=1)
        return sup.std(ddof=1) / _np.sqrt(ens.n_traj)

    _, e1, c1 = lin_setup(1e-3, 1000)
    _, e2, c2 = lin_setup(1e-3, 4000)
    ratio = sup_stderr(e1, c1.avg) / sup_stderr(e2, c2.avg)
    assert 1.4 <= ratio <= 2.6


def test_deterministic_unit_drift_has_no_averaging_error():
    system = FastSlowSystem(d=1, degree=3, f_terms=[],
                            omega_terms=[[TrigTerm(1.0)]])
    eps = 1e-3
    pair = constant_pair([0.1], 0.2, 0.3, eps)
    avg = solve_averaged(lambda th: np.ones(1), [0.1], 1.0)
    ens = run_ensemble(system, pair, eps, 50, 1.0, default_out_times(1.0), 3, avg)
    sup = np.abs(ens.theta_lift - avg.at(ens.out_times)[None]).max()
    assert sup <= eps


def test_moment_scaling_ranges():
    _, ens, _ = lin_setup(1e-3, 10_000)
    rep = moment_scaling(ens)
    assert 0.4 <= rep.data["min_m2_ratio"]
    assert rep.data["max_m2_ratio"] <= 0.6
    assert rep.data["m4_exponent"] >= 1.8
    assert rep.data["m2_exponent"] == pytest.approx(1.0, abs=0.15)


def test_moment_scaling_needs_dyadic_grid():
    _, ens, _ = lin_setup(1e-3, 100, m=30)
    with pytest.raises(ValueError, match=r"needs 2\^j \+ 1 output times"):
        moment_scaling(ens)


def test_generator_residual_exact_zero_cases():
    # the unconditioned martingale residual over [0, T] is the generator residual;
    # on paths held at zeta = 0 every term of the z0 residual is an exact zero
    _, _, cov = lin_setup(1e-3, 2)
    ot = default_out_times(1.0)
    ens = Ensemble(eps=1e-3, n_traj=50, root_seed=42, T=1.0, out_times=ot,
                   theta_lift=np.full((50, 33, 1), 0.3), zeta=np.zeros((50, 33, 1)))
    z0 = function_library(1)[0]
    rep = martingale_residual(ens, z0, [], 0.0, 1.0, cov)
    assert rep.data["mean"] == 0.0
    const = Observable("const",
                         lambda z: np.ones(np.shape(z)[:-1]),
                         lambda z: np.zeros(np.shape(z)),
                         lambda z: np.zeros(np.shape(z) + (1,)))
    _, ens2, cov2 = lin_setup(1e-3, 100)
    rep2 = martingale_residual(ens2, const, [], 0.0, 1.0, cov2)
    assert rep2.data["mean"] == 0.0


def test_generator_residual_shrinks_with_eps():
    funcs = {f.name: f for f in function_library(1)}
    A = funcs["z0z0"]
    means = {}
    for eps in (1e-3, 1e-4):
        _, ens, cov = lin_setup(eps, 4000)
        rep = martingale_residual(ens, A, [], 0.0, 1.0, cov)
        assert rep.passed
        means[eps] = abs(rep.data["mean"])
    assert means[1e-4] < means[1e-3]


def test_generator_residual_detects_wrong_covariance():
    # the slack band must not be so wide that a wrong diffusion slips through
    _, ens, cov = lin_setup(1e-3, 10_000)
    bad = covariance_evolve(cov.avg, lambda th: np.array([[0.8]]),
                            lambda th: np.array([[0.0]]), 1.0,
                            out_times=ens.out_times)
    funcs = {f.name: f for f in function_library(1)}
    rep = martingale_residual(ens, funcs["z0z0"], [], 0.0, 1.0, bad)
    assert not rep.passed


def test_martingale_residual_degenerate_and_reduction():
    _, ens, cov = lin_setup(1e-3, 2000)
    A = function_library(1)[0]
    rep = martingale_residual(ens, A, [], 0.5, 0.5, cov)
    assert rep.data["mean"] == 0.0
    a = martingale_residual(ens, A, [(0.25, unit_weight)], 0.5, 1.0, cov)
    b = martingale_residual(ens, A, [], 0.5, 1.0, cov)
    assert a.data["mean"] == b.data["mean"]


def test_martingale_residual_rejects_bad_times():
    _, ens, cov = lin_setup(1e-3, 100)
    A = function_library(1)[0]
    with pytest.raises(ValueError, match="conditioning times must precede s"):
        martingale_residual(ens, A, [(0.6, unit_weight)], 0.5, 1.0, cov)
    with pytest.raises(ValueError, match="not on the output grid"):
        martingale_residual(ens, A, [], 0.513, 1.0, cov)


def test_martingale_residual_beyond_the_law_horizon_raises():
    # an ensemble over [0, 2] against a law over [0, 1]: the compensator at
    # (s, t) = (1.5, 2) would read the law past its horizon
    lin = fixture("LIN")
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 2.0)
    ens = run_ensemble(lin, constant_pair([0.3], 0.2, 0.3, 1e-3), 1e-3, 50, 2.0,
                       default_out_times(2.0), 42, avg)
    _, _, cov = lin_setup(1e-3, 10)
    with pytest.raises(ValueError, match="outside"):
        martingale_residual(ens, function_library(1)[0], [], 1.5, 2.0, cov)
    with pytest.raises(ValueError, match="outside"):
        clt_test(ens, cov)


def test_clt_reads_the_law_at_the_ensemble_times_whatever_its_grid():
    # a 17-point ensemble against laws checked on 33 and on 17 points: one dense
    # solve, so the same report bits; varying sigma2 and B make Sigma(t) nonlinear
    lin = fixture("LIN")
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), [0.3], 1.0)
    ot = default_out_times(1.0, 17)
    ens = run_ensemble(lin, constant_pair([0.3], 0.2, 0.3, 1e-3), 1e-3, 300, 1.0, ot, 7, avg)
    laws = [covariance_evolve(avg, lambda th: np.array([[0.5 + 0.4 * np.sin(2 * np.pi * th[0])]]),
                              lambda th: np.array([[-0.2 * np.cos(2 * np.pi * th[0])]]), 1.0,
                              out_times=default_out_times(1.0, m)) for m in (33, 17)]
    assert clt_test(ens, laws[0]).to_json() == clt_test(ens, laws[1]).to_json()


def test_clt_two_time_prediction_transposes_the_flow_in_2d():
    # Cov(zeta(s), zeta(t)) = Sigma(s) expm(B (t - s))^T for constant B; this B
    # makes the prediction far from symmetric, so Phi(s, t) Sigma(s) would miss
    ens, cov = planar_setup(np.random.default_rng(3).normal(size=(200, 5, 2)))
    rows = clt_test(ens, cov).data["two_time"]
    assert len(rows) == 2
    for row in rows:
        want = cov.Sigma_at(row["s"]) @ expm(B_PLANAR * (row["t"] - row["s"])).T
        assert np.abs(want - want.T).max() >= 1e-2
        assert np.abs(np.array(row["pred"]) - want).max() <= 1e-9


def test_martingale_generator_term_applies_b_in_2d():
    # zeta frozen at z*: A(zeta(t)) - A(zeta(s)) = 0, so for A = z0 the residual
    # is minus the generator integral, -(t - s) (B z*)_0; (B^T z*)_0 differs
    z_star = np.array([0.7, -1.2])
    ens, cov = planar_setup(np.broadcast_to(z_star, (10, 5, 2)).copy())
    z0 = function_library(2)[0]
    rep = martingale_residual(ens, z0, [], 0.25, 1.0, cov)
    want = -0.75 * (B_PLANAR @ z_star)[0]
    transposed = -0.75 * (B_PLANAR.T @ z_star)[0]
    assert abs(want - transposed) >= 0.5
    assert abs(rep.data["mean"] - want) <= 1e-12


def test_clt_report_lin():
    _, ens, cov = lin_setup(1e-3, 10_000)
    rep = clt_test(ens, cov)
    row = rep.data["times"][-1]
    assert row["cov"][0][0] == pytest.approx(0.5, rel=0.05)
    assert abs(row["skew"][0]) <= 0.08
    assert abs(row["excess_kurtosis"][0]) <= 0.15
    assert rep.data["mean_consistent"] and rep.data["charfn_consistent"]


def test_clt_cbd_degenerate():
    cbd = fixture("CBD")
    pair = constant_pair([0.3], 0.2, 0.3, 1e-3)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    ens = run_ensemble(cbd, pair, 1e-3, 2000, 1.0, default_out_times(1.0), 5, avg)
    assert ens.zeta[:, -1, 0].var(ddof=1) <= 1e-2


def test_null_calibration_against_diffusion():
    lin = fixture("LIN")
    ctx = diffusion_matrix(lin, [0.3], 300, with_jacobian=False)
    pair = constant_pair([0.3], 0.2, 0.3, 0.0)
    for n_steps in (1000, 10_000):
        sums = frozen_fluctuation_sums(lin, pair, [0.3], n_steps, 4000, 13,
                                       ctx.omega_bar)
        var = sums[:, 0].var(ddof=1)
        assert var == pytest.approx(ctx.sigma2[0, 0], rel=3 * np.sqrt(2 / 4000) + 0.01)


def test_reports_are_deterministic_json():
    _, e1, c1 = lin_setup(1e-3, 500)
    _, e2, c2 = lin_setup(1e-3, 500)
    assert clt_test(e1, c1).to_json() == clt_test(e2, c2).to_json()
    assert moment_scaling(e1).to_json() == moment_scaling(e2).to_json()


def test_cylinder_weights():
    bump = cylinder_weight("bump", [0.5], 0.2)
    th = np.array([[0.5], [0.65], [0.8]])
    vals = bump(th)
    assert vals[0] == pytest.approx(1.0)
    assert 0 < vals[1] < 1
    assert vals[2] == 0.0
    cosw = cylinder_weight("coswave", [0.5])
    assert cosw(np.array([[0.5]]))[0] == pytest.approx(1.0)
    assert cosw(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(KeyError):
        cylinder_weight("nope", [0.0])


# -- one array per ensemble, against the concatenating formulation ---------------

def concatenated_paths(system, pair, eps, n, T, ot, seed, avg):
    """theta_lift and zeta as first formulated: one fresh path-major array per
    CHUNK trajectories, joined by np.concatenate, and
    zeta = (lifts - theta_bar) / sqrt(eps); oracle."""
    x0, theta0 = sample_from_uniform(pair, stream_uniforms(seed, n))
    parts = [sample_paths_batch(system, eps, x0[c:c + CHUNK], theta0[c:c + CHUNK], ot, T)
             for c in range(0, n, CHUNK)]
    lifts = np.concatenate(parts, axis=0)
    return lifts, (lifts - avg.at(ot)[None]) / np.sqrt(eps)


def trapezoid_residual(ens, A, conditioning, s, t, cov):
    """Mean and stderr of the martingale residual with the whole (n, K)
    integrand kept and integrated by np.trapezoid; oracle."""
    i_s, i_t = ens.time_index(s), ens.time_index(t)
    z = ens.zeta
    w = np.ones(ens.n_traj)
    for ti, Bi in conditioning:
        w = w * np.asarray(Bi(torus(ens.theta_lift[:, ens.time_index(ti)])))
    ts = ens.out_times[i_s:i_t + 1]
    integrand = np.zeros((ens.n_traj, ts.shape[0]))
    for k, tt in enumerate(ts):
        B = cov.B_at(float(tt))
        s2 = np.asarray(cov.sigma2_provider(cov.avg.at(float(tt))), dtype=float)
        zi = z[:, i_s + k]
        integrand[:, k] = np.einsum("nj,nj->n", A.grad(zi), zi @ B.T) \
            + 0.5 * np.einsum("ij,nij->n", s2, A.hess(zi))
    resid = w * (A.value(z[:, i_t]) - A.value(z[:, i_s]) - np.trapezoid(integrand, ts, axis=1))
    return float(resid.mean()), float(resid.std(ddof=1) / np.sqrt(ens.n_traj))


def fancy_index_moments(ens):
    """(m2, m2_se, m4, m4_se) per dyadic gap, read through a fancy-index copy; oracle."""
    m = ens.out_times.shape[0] - 1
    out = []
    for j in range(int(np.log2(m)) + 1):
        dz = np.diff(ens.zeta[:, np.arange(0, m + 1, m // 2 ** j), :], axis=1)
        sq = np.sum(dz * dz, axis=2)
        q2, q4 = sq.mean(axis=1), (sq * sq).mean(axis=1)
        se = np.sqrt(ens.n_traj)
        out.append((float(q2.mean()), float(q2.std(ddof=1) / se),
                    float(q4.mean()), float(q4.std(ddof=1) / se)))
    return out


def full_sup_error(ens, avg):
    """Mean and stderr of sup_t |Theta - Theta_bar| from the whole (n, m, d) difference; oracle."""
    sup = np.linalg.norm(ens.theta_lift - avg.at(ens.out_times)[None], axis=2).max(axis=1)
    return float(sup.mean()), float(sup.std(ddof=1) / np.sqrt(ens.n_traj))


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("name, threads", [("CPL", 1), ("CPL", 2), ("planar", 2)])
def test_one_array_ensemble_and_reports_equal_the_concatenating_oracle(name, threads):
    # 5000 trajectories: one slice at threads 1, two of 2500 at threads 2
    system = planar_system() if name == "planar" else fixture(name)
    d = system.d
    theta0 = [0.3, 0.6][:d]
    T, n = 1.0, 5000
    ot = default_out_times(T)
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), theta0, T)
    cov = covariance_evolve(avg, lambda th: SIGMA2_PLANAR[:d, :d], lambda th: B_PLANAR[:d, :d],
                            T, out_times=ot)
    enss = []
    for eps in (4e-3, 2e-3, 1e-3):
        pair = constant_pair(theta0, 0.2, 0.3, eps)
        ens = run_ensemble(system, pair, eps, n, T, ot, 77, avg, threads=threads)
        lifts, zeta = concatenated_paths(system, pair, eps, n, T, ot, 77, avg)
        assert np.array_equal(bits(ens.theta_lift), bits(lifts))
        assert np.array_equal(bits(ens.zeta), bits(zeta))
        enss.append(ens)

    rows = averaging_error(enss, avg).data["rows"]
    assert [(r["mean_sup_error"], r["stderr"]) for r in rows] == \
        [full_sup_error(e, avg) for e in enss]
    ens = enss[-1]
    rows = moment_scaling(ens).data["rows"]
    assert [(r["m2"], r["m2_se"], r["m4"], r["m4_se"]) for r in rows] == fancy_index_moments(ens)
    bump = cylinder_weight("bump", avg.at(0.25), 0.3)
    for A in function_library(d):
        for conditioning in ([], [(0.25, bump)]):
            for t in (0.75, 1.0):
                data = martingale_residual(ens, A, conditioning, 0.5, t, cov).data
                assert (data["mean"], data["stderr"]) == \
                    trapezoid_residual(ens, A, conditioning, 0.5, t, cov), (A.name, t)


def test_chunks_fill_their_own_rows_of_the_shared_array_under_thread_switching(cpl):
    # 20 477 trajectories: two slices serially, and five slices of 4095 or 4096
    # (threads * ceil(n / (threads * CHUNK)) = 5) on five threads (more than
    # cores) that switch as often as the interpreter allows, all writing into
    # one lift array
    n = 20_477
    pair = constant_pair([0.3], 0.2, 0.3, 1e-2)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    ot = default_out_times(1.0)
    serial = run_ensemble(cpl, pair, 1e-2, n, 1.0, ot, 9, avg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=1) as runner:
            threaded = runner.submit(run_ensemble, cpl, pair, 1e-2, n, 1.0, ot, 9, avg,
                                     threads=5).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(bits(threaded.theta_lift), bits(serial.theta_lift))
    assert np.array_equal(bits(threaded.zeta), bits(serial.zeta))


def test_ensemble_and_residual_hold_each_array_once(cpl):
    # tracemalloc peaks on CPL at two threads, relative to the bytes of theta_lift + zeta:
    # the concatenating ensemble peaked at 1.56 and the (n, K) trapezoid residual added
    # 0.77 at n = 8192; n = 16 384 makes two slices of 8192, each with its step buffers
    T = 1.0
    ot = default_out_times(T)
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), [0.25], T)
    cov = covariance_evolve(avg, lambda th: np.array([[0.5]]), lambda th: np.array([[-0.2]]),
                            T, out_times=ot)
    pair = constant_pair([0.25], 0.2, 0.3, 1e-3)
    A = {f.name: f for f in function_library(1)}["bump2"]
    bump = cylinder_weight("bump", avg.at(0.25), 0.3)
    cpl.f_omega(np.full(4, 0.5), np.full((4, 1), 0.5))
    for n in (8192, 16_384):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ens = run_ensemble(cpl, pair, 1e-3, n, T, ot, 5, avg, threads=2)
            ensemble_peak = tracemalloc.get_traced_memory()[1] - base
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            martingale_residual(ens, A, [(0.25, bump)], 0.5, 1.0, cov)
            residual_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        stored = ens.theta_lift.nbytes + ens.zeta.nbytes
        assert ensemble_peak <= 1.2 * stored, n
        assert residual_peak <= 0.5 * stored, n
        del ens


# -- time-major storage, one slice per worker, one compensator per observable -----

def recorded_batch_sizes(monkeypatch, n, threads):
    """Sizes of the f_omega batches of a CPL run_ensemble at eps = 0.25 and T = 1."""
    system = fixture("CPL")
    sizes = []
    f_omega = system.f_omega

    def recording(x, theta):
        sizes.append(x.shape[0])
        return f_omega(x, theta)

    monkeypatch.setattr(system, "f_omega", recording)
    pair = constant_pair([0.3], 0.2, 0.3, 0.25)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    run_ensemble(system, pair, 0.25, n, 1.0, default_out_times(1.0, 5), 3, avg, threads=threads)
    return sizes


@pytest.mark.parametrize("n, threads, slices", [
    (1237, 1, [1237]),
    (1237, 3, [412, 412, 413]),
    (CHUNK, 2, [8192, 8192]),                      # the benchmark's ensemble
    (2 * CHUNK + 5, 1, [10924, 10924, 10925]),
    (2 * CHUNK + 5, 2, [8193, 8193, 8193, 8194]),
])
def test_run_ensemble_makes_one_slice_per_worker_of_at_most_chunk(monkeypatch, n, threads,
                                                                   slices):
    # threads * ceil(n / (threads * CHUNK)) near-equal slices, each stepped
    # floor(T / eps) + 2 = 6 times with one f_omega call per step
    assert len(slices) == threads * -(-n // (threads * CHUNK))
    assert sum(slices) == n and max(slices) <= CHUNK
    assert Counter(recorded_batch_sizes(monkeypatch, n, threads)) == \
        Counter(size for size in slices for _ in range(6))


@pytest.mark.parametrize("name", ["CPL", "planar"])
def test_slicing_and_thread_count_leave_every_bit_unchanged(name):
    # against one sample_paths_batch call over all trajectories: n below CHUNK
    # (1 to 5 slices at threads 1 to 5) and a prime n above 2 * CHUNK (3, 4, 3,
    # 4 and 5 slices)
    system = planar_system() if name == "planar" else fixture(name)
    theta0 = [0.3, 0.6][:system.d]
    eps, T = 2e-2, 1.0
    ot = default_out_times(T)
    pair = constant_pair(theta0, 0.2, 0.3, eps)
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), theta0, T)
    for n in (1237, 32_771):
        x0, th0 = sample_from_uniform(pair, stream_uniforms(31, n))
        lifts = sample_paths_batch(system, eps, x0, th0, ot, T)
        zeta = (lifts - avg.at(ot)[None]) / np.sqrt(eps)
        for threads in range(1, 6):
            ens = run_ensemble(system, pair, eps, n, T, ot, 31, avg, threads=threads)
            assert np.array_equal(bits(ens.theta_lift), bits(lifts)), (n, threads)
            assert np.array_equal(bits(ens.zeta), bits(zeta)), (n, threads)


def test_ensemble_arrays_are_time_major_and_read_only(cpl):
    pair = constant_pair([0.3], 0.2, 0.3, 1e-2)
    avg = solve_averaged(lambda th: np.zeros(1), [0.3], 1.0)
    ens = run_ensemble(cpl, pair, 1e-2, 300, 1.0, default_out_times(1.0), 4, avg, threads=2)
    assert ens.theta_lift.shape == ens.zeta.shape == (300, 33, 1)
    for i in range(33):
        assert ens.theta_lift[:, i].flags.c_contiguous and ens.zeta[:, i].flags.c_contiguous
    for arr in (ens.theta_lift, ens.zeta):
        with pytest.raises(ValueError):
            arr[0, -1, 0] = 1.0


def path_major(ens):
    """The ensemble with C-contiguous (n, m, d) copies of its arrays and no residuals kept."""
    return dataclasses.replace(ens, theta_lift=np.ascontiguousarray(ens.theta_lift),
                               zeta=np.ascontiguousarray(ens.zeta))


@pytest.mark.parametrize("name", ["CPL", "planar"])
def test_reports_read_time_major_and_path_major_ensembles_to_the_same_bits(name):
    system = planar_system() if name == "planar" else fixture(name)
    d = system.d
    theta0 = [0.3, 0.6][:d]
    T = 1.0
    ot = default_out_times(T)
    avg = solve_averaged(lambda th: 0.3 * np.sin(2 * np.pi * th), theta0, T)
    cov = covariance_evolve(avg, lambda th: SIGMA2_PLANAR[:d, :d], lambda th: B_PLANAR[:d, :d],
                            T, out_times=ot)
    enss = [run_ensemble(system, constant_pair(theta0, 0.2, 0.3, eps), eps, 3001, T, ot, 8,
                         avg, threads=2) for eps in (4e-3, 2e-3, 1e-3)]
    copies = [path_major(e) for e in enss]
    assert copies[0].zeta.flags.c_contiguous and not enss[0].zeta.flags.c_contiguous
    assert averaging_error(enss, avg).to_json() == averaging_error(copies, avg).to_json()
    ens, copy = enss[-1], copies[-1]
    assert clt_test(ens, cov).to_json() == clt_test(copy, cov).to_json()
    assert moment_scaling(ens).to_json() == moment_scaling(copy).to_json()
    bump = cylinder_weight("bump", avg.at(0.25), 0.3)
    wave = cylinder_weight("coswave", avg.at(0.375))
    for A in function_library(d):
        for conditioning in ([], [(0.25, bump)], [(0.25, bump), (0.375, wave)]):
            for t in (0.75, 1.0):
                assert martingale_residual(ens, A, conditioning, 0.5, t, cov).to_json() == \
                    martingale_residual(copy, A, conditioning, 0.5, t, cov).to_json(), A.name


def counted(A, calls):
    """A with its gradient and Hessian counting their calls into calls."""
    def wrap(fn, key):
        def inner(z):
            calls[key] += 1
            return fn(z)
        return inner
    return Observable(A.name, A.value, wrap(A.grad, "grad"), wrap(A.hess, "hess"))


def test_martingale_residual_computes_each_compensator_once():
    _, ens, cov = lin_setup(1e-3, 500)
    calls = Counter()
    plain = {f.name: f for f in function_library(1)}["bump2"]
    A = counted(plain, calls)
    bump = cylinder_weight("bump", [0.3], 0.3)
    first = martingale_residual(ens, A, [], 0.5, 1.0, cov)
    assert calls == {"grad": 17, "hess": 17}                # 17 grid times in [0.5, 1]
    for conditioning in ([(0.25, bump)], [(0.25, bump), (0.375, bump)], []):
        rep = martingale_residual(ens, A, conditioning, 0.5, 1.0, cov)
        assert calls == {"grad": 17, "hess": 17}            # no observable evaluated
        assert rep.to_json() == martingale_residual(path_major(ens), plain, conditioning,
                                                    0.5, 1.0, cov).to_json()
    calls.clear()
    # an equal covariance object is another key, and a different law another result
    assert martingale_residual(ens, A, [], 0.5, 1.0, dataclasses.replace(cov)).data == first.data
    wrong = dataclasses.replace(cov, sigma2_provider=lambda th: np.array([[0.8]]))
    assert martingale_residual(ens, A, [], 0.5, 1.0, wrong).data["mean"] != first.data["mean"]
    assert calls == {"grad": 34, "hess": 34}
    calls.clear()
    martingale_residual(ens, A, [], 0.5, 0.75, cov)
    martingale_residual(ens, A, [], 0.25, 1.0, cov)
    assert calls == {"grad": 9 + 25, "hess": 9 + 25}
