import json

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from fastslow import standard_pairs
from fastslow.exceptions import PairInvariantError
from fastslow.standard_pairs import (
    GRID, PairConstants, StandardFamily, StandardPair, _not_a_knot, _Splines,
    as_family, class_margins, constant_pair, default_constants, integrate,
    pushforward_decompose, random_admissible_pair, sample_from_uniform,
)
from fastslow.systems import torus


def test_integrate_normalization():
    pair = constant_pair([0.4], 0.1, 0.2, 1e-3)
    assert integrate(pair, lambda x, th: np.ones_like(x)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_constant_curve_reads_theta():
    pair = constant_pair([0.4], 0.1, 0.2, 1e-3)
    assert integrate(pair, lambda x, th: th[..., 0]) == pytest.approx(0.4, abs=1e-12)


def test_integrate_uniform_mean():
    pair = constant_pair([0.0], 0.1, 0.6, 1e-3)
    assert integrate(pair, lambda x, th: x) == pytest.approx(0.35, abs=1e-12)


def test_default_margins_at_least_quarter(lin, cpl):
    for system in (lin, cpl):
        consts = default_constants(system)
        margins = class_margins(system, 1e-3, consts)
        assert min(margins["slope"], margins["curvature"], margins["logdensity"]) >= 0.25


def test_lin_decompose_full_circle(lin):
    # [0, 1/3] maps onto the whole circle; uniformity is preserved exactly
    consts = default_constants(lin)
    pair = constant_pair([0.7], 0.0, 1.0 / 3.0, 1e-3)
    out = pushforward_decompose(as_family(pair, consts), lin)
    assert len(out.pairs) == 10          # image length 1 cut into delta pieces
    assert out.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.weights, 0.1, atol=1e-10)
    for p in out.pairs:
        assert np.allclose(p.rho, p.rho[0], atol=1e-9)


def test_decompose_eps_zero_keeps_constant_curves(lin):
    consts = default_constants(lin)
    pair = constant_pair([0.7], 0.1, 0.2, 0.0)
    out = pushforward_decompose(as_family(pair, consts), lin)
    for p in out.pairs:
        assert np.allclose(p.G, 0.7, atol=1e-13)


@pytest.mark.parametrize("name", ["LIN", "CPL"])
def test_pushforward_identity(name, lin, cpl):
    system = {"LIN": lin, "CPL": cpl}[name]
    eps = 1e-3
    consts = default_constants(system)
    rng = np.random.default_rng(101)
    def g(x, th):
        return np.cos(2 * np.pi * x) * (1.0 + np.sin(2 * np.pi * th[..., 0]))
    for _ in range(6):
        pair = random_admissible_pair(system, eps, consts, rng)
        family = as_family(pair, consts)
        family.validate()
        out = pushforward_decompose(family, system)
        out.validate()

        def g_pull(x, th):
            x1 = torus(system.f_lift(x, th))
            th1 = np.mod(th + eps * system.omega(x, th), 1.0)
            return g(x1, th1)

        lhs = integrate(out, g)
        rhs = integrate(pair, g_pull, refine=8)
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_iterated_decomposition_conserves_mass(lin):
    eps = 0.02
    consts = default_constants(lin)
    family = as_family(constant_pair([0.3], 0.2, 0.3, eps), consts)
    n = int(np.ceil(eps ** -0.5))
    for _ in range(n):
        family = pushforward_decompose(family, lin)
        assert family.mass_defect <= 1e-9
    assert family.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(family.pairs) < 20_000
    family.validate()


def test_sampling_uniform_inverse(lin):
    pair = constant_pair([0.5], 0.2, 0.3, 1e-3)
    u = np.array([0.0, 0.25, 0.5, 1.0 - 1e-12])
    x, th = sample_from_uniform(pair, u)
    assert np.allclose(x, 0.2 + 0.1 * u, atol=1e-12)
    assert np.all(th == 0.5)


def test_sampling_statistics(cpl):
    consts = default_constants(cpl)
    pair = random_admissible_pair(cpl, 1e-3, consts, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x, th = sample_from_uniform(pair, rng.random(1_000_000))
    target = integrate(pair, lambda x, th: x)
    se = x.std(ddof=1) / 1000.0
    assert x.mean() == pytest.approx(target, abs=4 * se + 1e-5)
    # mean slow coordinate agrees with the pair functional as well
    mean_theta = integrate(pair, lambda x, th: th[..., 0])
    se_t = th[:, 0].std(ddof=1) / 1000.0
    assert th[:, 0].mean() == pytest.approx(mean_theta, abs=4 * se_t + 1e-6)


def test_serialization_roundtrip(cpl):
    consts = default_constants(cpl)
    rng = np.random.default_rng(17)
    fam = pushforward_decompose(
        as_family(random_admissible_pair(cpl, 1e-3, consts, rng), consts), cpl)
    data = json.loads(fam.dumps())
    assert data["format"] == "fastslow-family/1"
    recs = data["pairs"]
    constants = dict(data["constants"])
    assert constants.pop("grid") == len(recs[0]["rho"]) - 1 == GRID
    clone = StandardFamily(*(np.array([rec[key] for rec in recs], dtype=float)
                             for key in ("a", "b", "G", "rho", "nu")),
                           constants=PairConstants(**constants), eps=data["eps"])
    assert clone.dumps() == fam.dumps()
    assert len(clone.pairs) == len(fam.pairs)
    assert np.allclose(clone.weights, fam.weights)
    g = lambda x, th: np.sin(2 * np.pi * x) + th[..., 0] * 0
    assert integrate(clone, g) == pytest.approx(integrate(fam, g), abs=1e-14)


def test_family_record_declares_the_grid_of_its_arrays(lin):
    # the record's "grid" is read off the arrays, so it cannot disagree with them
    consts = default_constants(lin)
    coarse = StandardPair(0.2, 0.3, np.full((33, 1), 0.3), np.full(33, 10.0), 1e-3)
    for pair, grid in ((coarse, 32), (constant_pair([0.3], 0.2, 0.3, 1e-3), GRID)):
        data = json.loads(as_family(pair, consts).dumps())
        assert data["constants"]["grid"] == grid == len(data["pairs"][0]["rho"]) - 1


def test_validation_rejects_bad_pairs():
    consts = PairConstants(delta=0.1, c1=10.0, c2=5.0, curv=10.0)
    # wrong interval length
    pair = constant_pair([0.1], 0.0, 0.5, 1e-3)
    with pytest.raises(PairInvariantError):
        as_family(pair, consts).validate()
    # mass not normalized
    pair = StandardPair(0.0, 0.1, np.full((65, 1), 0.2), np.full(65, 1.0), 1e-3)   # integrates to 0.1
    with pytest.raises(PairInvariantError):
        as_family(pair, consts).validate()
    # curve slope beyond eps * c1
    xg = np.linspace(0.0, 0.1, 65)
    steep = StandardPair(0.0, 0.1, (0.5 + 0.05 * xg)[:, None], np.full(65, 10.0), 1e-3)
    with pytest.raises(PairInvariantError):
        as_family(steep, consts).validate()


def test_decompose_rejects_oversized_eps(cpl):
    consts = default_constants(cpl)
    pair = constant_pair([0.25], 0.2, 0.3, 5e-2)
    with pytest.raises(PairInvariantError):
        pushforward_decompose(as_family(pair, consts), cpl)


@pytest.mark.parametrize("name", ["LIN", "CPL"])
def test_batched_spline_matches_per_pair_splines(name, lin, cpl):
    system = {"LIN": lin, "CPL": cpl}[name]
    consts = default_constants(system)
    rng = np.random.default_rng(31)
    pairs = [random_admissible_pair(system, 1e-3, consts, rng) for _ in range(6)]
    a = np.array([p.a for p in pairs])
    b = np.array([p.b for p in pairs])
    splines = _Splines(a, b, np.stack([p.G for p in pairs]), np.stack([p.rho for p in pairs]))
    s = np.concatenate([np.linspace(0.0, 1.0, 4 * GRID + 1), rng.random(300)])
    x = a[:, None] + (b - a)[:, None] * s
    got = {nu: splines(x, np.arange(len(pairs))[:, None], nu) for nu in (0, 1, 2)}

    def close(value, want):
        assert np.abs(value - want).max() <= 1e-12 * np.abs(want).max()

    for k, p in enumerate(pairs):
        # the per-pair representation: one spline each for G and rho on the pair's own knots
        xg = np.linspace(p.a, p.b, GRID + 1)
        curve, density = CubicSpline(xg, p.G, axis=0), CubicSpline(xg, p.rho)
        for nu in (0, 1):
            close(got[nu][0][k], curve(x[k], nu))
            close(got[nu][1][k], density(x[k], nu))
        # linspace(a, b) is uniform only to ~5e-14 of its step, which moves the
        # second derivative of the spline above by ~1e-10 of its sup; compare
        # G'' with the spline on the exactly uniform knots j/grid instead
        uniform = CubicSpline(np.linspace(0.0, 1.0, GRID + 1), p.G, axis=0)
        close(got[2][0][k], uniform((x[k] - p.a) / (p.b - p.a), 2) / (p.b - p.a) ** 2)


@pytest.mark.parametrize("grid", [4, 5, 16, 64])
@pytest.mark.parametrize("columns", [1, 2, 500])
def test_not_a_knot_fit_equals_cubic_spline_bitwise(grid, columns):
    rng = np.random.default_rng(1000 * grid + columns)
    knots = np.linspace(0.0, 1.0, grid + 1)
    y = rng.normal(size=(grid + 1, columns))
    assert np.array_equal(_not_a_knot(knots, y), CubicSpline(knots, y).c)
    if columns == 1:
        assert np.array_equal(_not_a_knot(knots, y[:, 0]), CubicSpline(knots, y[:, 0]).c)


@pytest.mark.parametrize("name", ["LIN", "CPL"])
def test_family_spline_coefficients_equal_cubic_spline_bitwise(name, lin, cpl):
    system = {"LIN": lin, "CPL": cpl}[name]
    consts = default_constants(system)
    rng = np.random.default_rng(11)
    pairs = [random_admissible_pair(system, 1e-3, consts, rng) for _ in range(7)]
    G, rho = np.stack([p.G for p in pairs]), np.stack([p.rho for p in pairs])
    splines = _Splines(np.array([p.a for p in pairs]), np.array([p.b for p in pairs]), G, rho)
    want = CubicSpline(splines.knots, np.concatenate([G, rho[..., None]], axis=-1), axis=1).c
    assert np.array_equal(splines.coef, np.ascontiguousarray(
        want.transpose(0, 3, 2, 1)).reshape(4, want.shape[-1], -1))


def test_pushforward_makes_the_same_calls_for_any_number_of_pairs(lin, monkeypatch):
    consts = default_constants(lin)
    families = [as_family(constant_pair([0.3], 0.2, 0.3, 0.02), consts)]
    while len(families[-1].pairs) < 90:
        families.append(pushforward_decompose(families[-1], lin))
    assert len(families[1].pairs) == 3

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("invert_monotone", "_not_a_knot"):
        monkeypatch.setattr(standard_pairs, name, counted(name, getattr(standard_pairs, name)))
    seen = []
    for family in (families[1], families[-1]):
        counts.clear()
        pushforward_decompose(family, lin)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["invert_monotone"] == 1


@pytest.mark.parametrize("corrupt", ["slope", "positivity"])
def test_blocked_validation_reports_what_one_pass_reports(cpl, monkeypatch, corrupt):
    consts = default_constants(cpl)
    rng = np.random.default_rng(5)
    pairs = [random_admissible_pair(cpl, 1e-3, consts, rng) for _ in range(10)]
    family = StandardFamily(a=np.array([p.a for p in pairs]), b=np.array([p.b for p in pairs]),
                            G=np.stack([p.G for p in pairs]), rho=np.stack([p.rho for p in pairs]),
                            weights=np.full(10, 0.1), constants=consts, eps=1e-3)
    s = np.linspace(0.0, 1.0, GRID + 1)
    for k, factor in ((1, 2.0), (8, 3.0)):      # the steeper slope sits in a later block
        family.G[k, :, 0] += factor * 1e-3 * consts.c1 * (family.b[k] - family.a[k]) * s
    if corrupt == "positivity":                 # a later block breaks the first bound checked
        family.rho[6, GRID // 2] = -family.rho[6].max()
        w = standard_pairs._simpson_weights(family.a[6], family.b[6], GRID)
        family.rho[6] /= w @ family.rho[6]
    messages = []
    for block in (3, 10):
        monkeypatch.setattr(standard_pairs, "CHECK_BLOCK", block)
        with pytest.raises(PairInvariantError) as exc:
            family.validate()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("density must" if corrupt == "positivity" else "|G'|")
