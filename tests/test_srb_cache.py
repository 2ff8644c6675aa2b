"""The tabulated drift/diffusion provider against point solves and closed forms."""
import copy

import numpy as np
import pytest

from fastslow import diffusion, srb_cache
from fastslow.diffusion import (ULAM_N, autocovariances, average_drift, centered_drift_values,
                                diffusion_matrix, green_kubo, push_autocovariances)
from fastslow.exceptions import TableResolutionError, TruncationTailError
from fastslow.srb_cache import SRBCache
from fastslow.systems import FastSlowSystem, TrigTerm, fixture
from fastslow.ulam import srb_density, ulam_operator

GRID = np.linspace(0.0, 1.0, 1001)


def planar_system() -> FastSlowSystem:
    """d = 2 system with both slow coordinates in the fast map and the drift."""
    tp = 2.0 * np.pi
    return FastSlowSystem(
        d=2, degree=3,
        f_terms=[TrigTerm(0.5 / tp, kx=1, fx="sin", lt=(1, 0), ft="sin"),
                 TrigTerm(0.2 / tp, kx=1, fx="cos", lt=(0, 1), ft="cos")],
        omega_terms=[[TrigTerm(1.0, lt=(1, 0), ft="sin"), TrigTerm(1.0, kx=1, fx="cos")],
                     [TrigTerm(0.5, lt=(0, 1), ft="cos"),
                      TrigTerm(0.8, kx=1, fx="sin", lt=(1, 0), ft="cos")]],
        name="planar",
    )


def per_node_autocovariances(system, op, density, kmax):
    """Gamma_0..Gamma_kmax of one operator, one sparse product per lag: oracle."""
    what = centered_drift_values(system, density)
    gam = np.empty((kmax + 1, system.d, system.d))
    push = what * density.rho[:, None]
    for k in range(kmax + 1):
        gam[k] = (what.T @ push) / density.N
        if k < kmax:
            push = op.P @ push
    return gam


def tail_tol_between_windows(system, thetas, N):
    """A TAIL_TOL that fails the tail check at M0 = default_truncation(lam) and
    passes it at 2 M0, for the block of solves at thetas; and M0."""
    m0 = diffusion.default_truncation(system.lam)
    ops = [ulam_operator(system, theta, N) for theta in thetas]
    norms = np.linalg.norm(autocovariances(system, ops, [srb_density(op) for op in ops],
                                           2 * m0), axis=(2, 3))
    first, second = norms[:, m0 // 2:m0 + 1].max(), norms[:, m0:].max()
    assert first > 1e3 * second
    return float(np.sqrt(first * second)), m0


def counted_pushes(monkeypatch):
    """Record the kmax of every diffusion.autocovariances call."""
    pushes = []

    def counted(system, ops, densities, kmax):
        pushes.append(kmax)
        return autocovariances(system, ops, densities, kmax)

    monkeypatch.setattr(diffusion, "autocovariances", counted)
    return pushes


def per_node_solve(table, thetas):
    """SRBCache._solve as one frozen solve per node: oracle of the batched fill.

    Every node is pushed to the truncation M that the batched fill gives its
    level; the pushes of the batched call only size M.
    """
    ops = [ulam_operator(table.system, theta, table.N) for theta in thetas]
    densities = [srb_density(op) for op in ops]
    M = push_autocovariances(table.system, ops, densities).shape[1] - 1
    rows = []
    for op, density in zip(ops, densities):
        sigma2 = green_kubo(per_node_autocovariances(table.system, op, density, M))[0]
        rows.append(np.concatenate([average_drift(table.system, density), sigma2.ravel()]))
    return np.array(rows)


@pytest.fixture(scope="module")
def cpl_table(cpl):
    return SRBCache(cpl, N=512)


def test_cpl_table_matches_point_solves(cpl, cpl_table):
    # The table's accuracy is the Ulam noise at N = 512: about 4e-6 of sup for
    # omega_bar and 4e-4 for sigma2 (the last midpoint misses). D omega_bar is
    # compared with the finite-difference Jacobian at the sweep tolerance 1e-4.
    sup_w = max(abs(cpl_table.omega_bar([t])[0]) for t in GRID)
    sup_s = max(abs(cpl_table.sigma2([t])[0, 0]) for t in GRID)
    sup_j = max(abs(cpl_table.d_omega_bar([t])[0, 0]) for t in GRID)
    for theta in np.random.default_rng(11).random(8):
        ctx = diffusion_matrix(cpl, [theta], 512)
        assert abs(cpl_table.omega_bar([theta])[0] - ctx.omega_bar[0]) <= 4e-6 * sup_w
        assert abs(cpl_table.sigma2([theta])[0, 0] - ctx.sigma2[0, 0]) <= 5e-4 * sup_s
        assert abs(cpl_table.d_omega_bar([theta])[0, 0] - ctx.D_omega_bar[0, 0]) <= 1e-4 * sup_j


def test_table_size_and_stats(cpl_table):
    stats = cpl_table.stats()
    assert stats["nodes"] == stats["nodes_per_dim"] == 32
    assert stats["N"] == 512 and stats["fill_s"] > 0
    assert 0 < stats["miss_omega_bar"] <= 1e-5
    assert 0 < stats["miss_sigma2"] <= 1e-3


def test_interpolant_reproduces_nodes_and_is_periodic(cpl, cpl_table):
    n = cpl_table.stats()["nodes_per_dim"]
    for k in (0, 5, n - 1):
        ctx = diffusion_matrix(cpl, [k / n], 512, with_jacobian=False)
        for theta in (k / n, k / n + 1.0, k / n - 3.0):
            assert cpl_table.omega_bar([theta]) == pytest.approx(ctx.omega_bar, abs=1e-12)
            assert cpl_table.sigma2([theta]) == pytest.approx(ctx.sigma2, abs=1e-12)
    assert cpl_table.d_omega_bar([0.3]).shape == (1, 1)


def test_lin_closed_forms(lin):
    table = SRBCache(lin, N=512)
    assert table.stats()["nodes"] == 16
    for theta in (0.0, 0.13, 0.5, 0.91):
        assert abs(table.omega_bar([theta])[0]) <= 1e-12
        assert abs(table.d_omega_bar([theta])[0, 0]) <= 1e-12
        assert table.sigma2([theta])[0, 0] == pytest.approx(0.5, abs=1e-3)


def test_cbd_interpolant_stays_above_clamp(cbd):
    table = SRBCache(cbd, N=512)
    values = np.array([table.sigma2([t])[0, 0] for t in GRID])
    assert values.min() >= -1e-9
    assert values.max() <= 1e-3


def test_planar_table_matches_point_solves():
    # d = 2 at N = 64: a 32 x 32 table, compared with fresh solves off the grid
    system = planar_system()
    table = SRBCache(system, N=64)
    assert table.stats()["nodes"] == table.stats()["nodes_per_dim"] ** 2
    for theta in np.random.default_rng(5).random((4, 2)):
        ctx = diffusion_matrix(system, theta, 64)
        assert np.abs(table.omega_bar(theta) - ctx.omega_bar).max() <= 2e-6
        assert np.abs(table.sigma2(theta) - ctx.sigma2).max() <= 2e-3
        assert np.abs(table.d_omega_bar(theta) - ctx.D_omega_bar).max() <= 5e-4
        assert np.allclose(table.sigma2(theta), table.sigma2(theta).T, atol=0)


def test_node_ceiling_raises_before_solving(lin, monkeypatch):
    solves = []
    monkeypatch.setattr(srb_cache, "MAX_NODES", 8)
    monkeypatch.setattr(srb_cache, "ulam_operator", lambda *a: solves.append(a))
    with pytest.raises(TableResolutionError):
        SRBCache(lin, N=64)
    assert solves == []


@pytest.mark.parametrize("name, N", [("LIN", 512), ("CBD", 512), ("CPL", 512), ("planar", 64)])
def test_batched_fill_equals_per_node_fill_bitwise(name, N, monkeypatch):
    system = planar_system() if name == "planar" else fixture(name)
    batched = SRBCache(system, N=N)
    monkeypatch.setattr(SRBCache, "_solve", per_node_solve)
    oracle = SRBCache(system, N=N)
    assert batched.n == oracle.n and batched.miss == oracle.miss
    for got, want in zip(batched._series, oracle._series):
        assert got.tobytes() == want.tobytes()


def test_cpl_fill_pushes_each_level_once(cpl, monkeypatch):
    batches, sums = [], []

    def counted_autocovariances(system, ops, densities, kmax):
        batches.append(len(ops))
        return autocovariances(system, ops, densities, kmax)

    def counted_green_kubo(gam):
        sums.append(gam.shape)
        return green_kubo(gam)

    monkeypatch.setattr(diffusion, "autocovariances", counted_autocovariances)
    monkeypatch.setattr(srb_cache, "green_kubo", counted_green_kubo)
    SRBCache(cpl, N=512)
    assert batches == [8, 8, 16]
    assert len(sums) == 32


def test_fill_still_raises_on_a_long_tail(cpl, monkeypatch):
    monkeypatch.setattr(diffusion, "TAIL_TOL", 1e-40)
    with pytest.raises(TruncationTailError):
        SRBCache(cpl, N=512)


def test_level_that_fails_the_tail_check_is_pushed_again_at_twice_m(cpl, cpl_table, monkeypatch):
    # TAIL_TOL between the tails of the windows [M0/2, M0] and [M0, 2 M0] of
    # the first level's nodes; the start M0 stays the one the real TAIL_TOL gives
    thetas = np.arange(srb_cache.START_NODES)[:, None] / srb_cache.START_NODES
    tol, m0 = tail_tol_between_windows(cpl, thetas, cpl_table.N)
    table = copy.copy(cpl_table)
    monkeypatch.setattr(diffusion, "TAIL_TOL", tol)
    monkeypatch.setattr(diffusion, "default_truncation", lambda lam: m0)
    pushes = counted_pushes(monkeypatch)
    rows = table._solve(thetas)
    assert pushes == [m0, 2 * m0]
    assert table.M == table.stats()["M"] == 2 * m0
    assert rows.tobytes() == per_node_solve(table, thetas).tobytes()


@pytest.mark.parametrize("N", [512, ULAM_N])
def test_fixtures_need_no_restart(N):
    # tripwire: at 16 uniform theta every fixture passes the tail check at the
    # first M, so pushing further would only spend lags
    thetas = np.arange(16)[:, None] / 16
    for name in ("LIN", "CBD", "CPL"):
        system = fixture(name)
        ops = [ulam_operator(system, theta, N) for theta in thetas]
        gam = push_autocovariances(system, ops, [srb_density(op) for op in ops])
        assert gam.shape[1] - 1 == diffusion.default_truncation(system.lam)
