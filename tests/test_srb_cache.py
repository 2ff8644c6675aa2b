"""The tabulated drift/diffusion provider against point solves and closed forms."""
import numpy as np
import pytest

from fastslow import srb_cache
from fastslow.diffusion import diffusion_matrix
from fastslow.exceptions import TableResolutionError
from fastslow.srb_cache import SRBCache
from fastslow.systems import FastSlowSystem, TrigTerm

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
