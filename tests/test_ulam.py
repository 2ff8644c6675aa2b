import numpy as np
import pytest
import scipy.sparse as sp

from conftest import birkhoff_fast_orbit
from fastslow import systems, ulam
from fastslow.systems import fixture, invert_monotone, torus
from fastslow.ulam import srb_density, ulam_operator
from test_srb_cache import planar_system


def coo_ulam_matrix(system, theta, N):
    """Ulam matrix built COO -> CSR -> P @ diag(1 / column sums): oracle.

    The crossings come from the same chord-started inversion as
    ulam_operator, so the two builds differ only in how they assemble.
    """
    theta = torus(np.atleast_1d(np.asarray(theta, dtype=float)))
    F = system.frozen_map(theta)
    xb = np.arange(N + 1) / N
    Fb = F(xb)
    k_lo = np.floor(Fb[:-1] * N).astype(np.int64) + 1
    k_hi = np.ceil(Fb[1:] * N).astype(np.int64) - 1
    counts = np.maximum(k_hi - k_lo + 1, 0)
    total = int(counts.sum())
    col_of = np.repeat(np.arange(N), counts)
    start = np.concatenate([[0], np.cumsum(counts)])
    within = np.arange(total) - np.repeat(start[:-1], counts)
    ylev = (np.repeat(k_lo, counts) + within) / N
    chord = xb[col_of] + (ylev - Fb[col_of]) / (Fb[col_of + 1] - Fb[col_of]) / N
    x = invert_monotone(F, lambda x: system.df_dx(x, theta), xb[col_of], xb[col_of + 1], ylev,
                        chord)

    seg_counts = counts + 1
    seg_col = np.repeat(np.arange(N), seg_counts)
    seg_start = np.concatenate([[0], np.cumsum(seg_counts)])
    w = np.arange(int(seg_counts.sum())) - np.repeat(seg_start[:-1], seg_counts)
    first = w == 0
    last = w == np.repeat(seg_counts, seg_counts) - 1
    cross_base = np.repeat(start[:-1], seg_counts)
    left_idx = np.clip(cross_base + w - 1, 0, total - 1)
    right_idx = np.clip(cross_base + w, 0, total - 1)
    x_left = np.where(first, xb[seg_col], x[left_idx])
    x_right = np.where(last, xb[seg_col + 1], x[right_idx])
    y_left = np.where(first, Fb[seg_col], ylev[left_idx])
    y_right = np.where(last, Fb[seg_col + 1], ylev[right_idx])
    cell = np.mod(np.floor(0.5 * (y_left + y_right) * N).astype(np.int64), N)
    P = sp.coo_matrix(((x_right - x_left) * N, (cell, seg_col)), shape=(N, N)).tocsr()
    P = P @ sp.diags(1.0 / np.asarray(P.sum(axis=0)).ravel())
    return P.tocsr()


@pytest.mark.parametrize("name", ["LIN", "CBD", "CPL", "planar"])
@pytest.mark.parametrize("N", [16, 64, 4096])
def test_one_pass_assembly_matches_the_coo_build(name, N):
    system = planar_system() if name == "planar" else fixture(name)
    for theta in (0.13, 0.7):
        theta = [theta] * system.d
        got = ulam_operator(system, theta, N).P
        want = coo_ulam_matrix(system, theta, N).sorted_indices()
        assert got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15
        assert np.abs(np.asarray(got.sum(axis=0)).ravel() - 1.0).max() <= 1e-14


def test_chord_start_converges_in_one_newton_step(cpl, monkeypatch):
    # from the chord of its cell a crossing is O(N^-2) from its root, so one
    # Newton step reaches rounding level and the second evaluation of F only
    # confirms it; a third pass comes from the 4 ulp stop rule. Against the
    # midpoint start the chord saves one pass at every theta.
    calls, seen = [], []

    def passes(theta, midpoint):
        def inverse(F, dF, lo, hi, target, x):
            x = 0.5 * (lo + hi) if midpoint else x
            root = systems.invert_monotone(lambda y: calls.append(1) or F(y), dF, lo, hi,
                                           target, x)
            seen.append((F, dF, target, x, root))
            return root

        calls.clear()
        monkeypatch.setattr(ulam, "invert_monotone", inverse)
        ulam_operator(cpl, [theta], 4096)
        return len(calls)

    for theta in np.arange(8) / 8 + 0.05:
        chord = passes(theta, midpoint=False)
        assert chord == passes(theta, midpoint=True) - 1 and chord <= 3
        F, dF, target, x0, root = seen[-2]
        assert np.abs(x0 - (F(x0) - target) / dF(x0) - root).max() <= 1e-15


def test_lin_matrix_is_exactly_uniform(lin):
    op = ulam_operator(lin, [0.0], 48)
    P = op.P.toarray()
    assert op.column_defect <= 1e-12
    nz = P[P > 0]
    assert nz.shape[0] == 3 * 48
    assert np.allclose(nz, 1.0 / 3.0, atol=1e-13)


def test_lin_density_is_lebesgue(lin):
    dens = srb_density(ulam_operator(lin, [0.0], 300))
    assert np.abs(dens.rho - 1.0).max() <= 1e-10
    assert dens.residual <= 1e-12


def test_columns_stochastic_and_nonnegative(cpl):
    op = ulam_operator(cpl, [0.37], 512)
    colsums = np.asarray(op.P.sum(axis=0)).ravel()
    assert np.abs(colsums - 1.0).max() <= 1e-12
    assert op.P.data.min() >= 0.0


def test_density_is_fixed_point(cpl):
    op = ulam_operator(cpl, [0.25], 1024)
    dens = srb_density(op)
    again = op.P @ dens.rho
    assert np.abs(again - dens.rho).mean() <= 1e-12
    assert dens.rho.mean() == pytest.approx(1.0, abs=1e-12)


def test_cpl_density_against_long_orbit_histogram(cpl):
    # oracle: 1e8 frozen-orbit samples (1e5 points x 1000 steps, 100 burn-in)
    theta = 0.25
    dens = srb_density(ulam_operator(cpl, [theta], 4096))
    rng = np.random.default_rng(20240901)
    x = rng.random(100_000)
    th = np.full((100_000, 1), theta)
    for _ in range(100):
        x = cpl.f(x, th)
    bins = 128
    counts = np.zeros(bins)
    for _ in range(1000):
        counts += np.bincount((x * bins).astype(np.int64), minlength=bins)
        x = cpl.f(x, th)
    hist = counts / counts.sum() * bins
    coarse = dens.rho.reshape(bins, -1).mean(axis=1)
    l1 = np.abs(hist - coarse).mean()
    assert l1 <= 2e-3


def test_cpl_observable_against_birkhoff_average(cpl):
    theta = 0.25
    dens = srb_density(ulam_operator(cpl, [theta], 4096))
    spectral = dens.integrate(lambda x: np.cos(2 * np.pi * x))
    rng = np.random.default_rng(77)
    x = rng.random(100_000)
    th = np.full((100_000, 1), theta)
    for _ in range(100):
        x = cpl.f(x, th)
    acc = 0.0
    for _ in range(1000):
        acc += np.cos(2 * np.pi * x).mean()
        x = cpl.f(x, th)
    assert spectral == pytest.approx(acc / 1000, abs=1e-3)


def test_grid_floor(lin):
    with pytest.raises(ValueError):
        ulam_operator(lin, [0.0], 8)


def test_nonconvergence_reports_second_eigenvalue(cpl):
    from fastslow.exceptions import SRBConvergenceError
    op = ulam_operator(cpl, [0.25], 512)
    with pytest.raises(SRBConvergenceError) as err:
        srb_density(op, max_iter=2)
    assert 0.0 < err.value.second_eig < 1.0


def test_oracle_helper_matches_map(cpl):
    xs = birkhoff_fast_orbit(cpl, [0.25], np.array([0.3, 0.7]), 3)
    assert xs.shape == (3, 2)
    assert xs[1, 0] == pytest.approx(float(cpl.f(0.3, np.array([0.25]))))
