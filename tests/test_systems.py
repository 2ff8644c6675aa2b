import inspect
import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import system_dict
from fastslow import shadowing, standard_pairs, ulam
from fastslow.shadowing import shadow_diagnostic, shadow_solve_batch
from fastslow.standard_pairs import as_family, constant_pair, default_constants, \
    pushforward_decompose, random_admissible_pair
from fastslow.systems import FastSlowSystem, TrigTerm, fixture, invert_monotone, torus
from fastslow.ulam import ulam_operator
from test_srb_cache import planar_system


def assert_derivatives_match_differences(system):
    """Oracle of the derivative accessors: central differences at h = 1e-6 to a
    relative 1e-6 on a 13 x 13 probe grid, plus df/dx >= lam and K >= the
    three first-derivative sup-norms at the probes."""
    h, rtol, n_probe = 1e-6, 1e-6, 13
    xs = (np.arange(n_probe) + 0.383) / n_probe
    rows = np.stack(
        [torus((np.arange(n_probe) * (j + 2) + 0.271) / n_probe) for j in range(system.d)],
        axis=-1,
    )
    xg, ig = np.meshgrid(xs, np.arange(n_probe), indexing="ij")
    x = xg.ravel()
    theta = rows[ig.ravel()]

    def close(a, b, what):
        rel = np.abs(a - b) / (1.0 + np.abs(a))
        assert np.all(rel <= rtol), f"{what}: worst rel err {float(rel.max()):.2e}"

    _, ft, ox, ot = system.tangent(x, theta)
    fd_fx = (system.f_lift(x + h, theta) - system.f_lift(x - h, theta)) / (2 * h)
    close(system.df_dx(x, theta), fd_fx, "df/dx")
    fd_ox = (system.omega(x + h, theta) - system.omega(x - h, theta)) / (2 * h)
    close(ox, fd_ox, "domega/dx")
    for j in range(system.d):
        e = np.zeros(system.d)
        e[j] = h
        fd_ft = (system.f_lift(x, theta + e) - system.f_lift(x, theta - e)) / (2 * h)
        close(ft[..., j], fd_ft, "df/dtheta")
        fd_ot = (system.omega(x, theta + e) - system.omega(x, theta - e)) / (2 * h)
        close(ot[..., j], fd_ot, "domega/dtheta")

    assert system.df_dx(x, theta).min() >= system.lam - 1e-9
    sup = max(
        float(np.abs(ox).max()),
        float(np.abs(ot).max()),
        float(np.abs(ft).max()),
    )
    assert sup <= system.K + 1e-9


def test_fixtures_validate():
    for name in ("LIN", "CBD", "CPL"):
        assert_derivatives_match_differences(fixture(name))


def test_certified_constants():
    cpl = fixture("CPL")
    assert cpl.lam == pytest.approx(2.1)
    assert cpl.K == pytest.approx(2 * np.pi)
    lin = fixture("LIN")
    assert lin.lam == 3
    assert lin.f_second_sup == 0.0


def test_cpl_pointwise_against_high_precision():
    # independent 50-digit evaluation of the closed-form fixture
    mpmath.mp.dps = 50
    x, th = mpmath.mpf("0.2"), mpmath.mpf("0.5")
    two_pi = 2 * mpmath.pi
    f_exact = 3 * x + mpmath.mpf("0.9") / two_pi * mpmath.sin(two_pi * th) * mpmath.sin(two_pi * x)
    w_exact = mpmath.sin(two_pi * th) + mpmath.cos(two_pi * x)
    cpl = fixture("CPL")
    assert float(cpl.f_lift(0.2, [0.5])) == pytest.approx(float(f_exact), abs=1e-15)
    assert float(cpl.omega(0.2, [0.5])[0]) == pytest.approx(float(w_exact), abs=1e-15)
    dfx_exact = 3 + mpmath.mpf("0.9") * mpmath.sin(two_pi * th) * mpmath.cos(two_pi * x)
    assert float(cpl.df_dx(0.2, [0.5])) == pytest.approx(float(dfx_exact), abs=1e-15)


def test_broadcasting_shapes():
    cpl = fixture("CPL")
    x = np.linspace(0, 1, 7, endpoint=False)
    th = np.linspace(0, 1, 7, endpoint=False)[:, None]
    assert torus(cpl.f_lift(x, th)).shape == (7,)
    assert cpl.omega(x, th).shape == (7, 1)
    assert cpl.tangent(x, th)[3].shape == (7, 1, 1)


ACCESSORS = ("f_lift", "f_omega", "omega", "df_dx", "tangent")


def _assert_roundtrip(system):
    """from_dict of the system's inline description, through JSON as an inline
    config arrives, is the same system."""
    clone = FastSlowSystem.from_dict(json.loads(json.dumps(system_dict(system))))
    assert (clone.name, clone.d, clone.degree, clone.lam, clone.K) == \
        (system.name, system.d, system.degree, system.lam, system.K)
    rng = np.random.default_rng(3)
    x, th = rng.uniform(-1.0, 2.0, 64), rng.uniform(-1.0, 2.0, (64, system.d))
    for name in ACCESSORS:
        got, expected = getattr(clone, name)(x, th), getattr(system, name)(x, th)
        for g, e in _parts(got, expected):
            _assert_bitwise(g, e)


def test_roundtrip_serialization():
    for system in (fixture("LIN"), fixture("CBD"), fixture("CPL"), planar_system()):
        _assert_roundtrip(system)


def test_expansion_below_two_rejected():
    with pytest.raises(ValueError, match="expansion bound lam="):
        FastSlowSystem(d=1, degree=2, f_terms=[],
                       omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]])


@pytest.mark.parametrize("degree, f_term, omega_term, message", [
    (3.7, TrigTerm(0.1, kx=1, fx="sin"), TrigTerm(1.0, kx=1, fx="cos"), "is not an integer"),
    (3, TrigTerm(0.1, kx=0.5, fx="sin"), TrigTerm(1.0, kx=1, fx="cos"), "non-integer frequency"),
    (3, TrigTerm(0.1, kx=1, fx="sin"), TrigTerm(1.0, kx=0.5, fx="cos"), "non-integer frequency"),
    (3, TrigTerm(0.1, kx=1, fx="sin", lt=(1.5,), ft="cos"), TrigTerm(1.0, kx=1, fx="cos"),
     "non-integer frequency"),
    (3, TrigTerm(0.1, kx=1, fx="sin"), TrigTerm(1.0, lt=(0.25,), ft="sin"),
     "non-integer frequency"),
], ids=["degree", "f-kx", "omega-kx", "f-lt", "omega-lt"])
def test_non_integral_degree_or_frequency_rejected(degree, f_term, omega_term, message):
    with pytest.raises(ValueError, match=message):
        FastSlowSystem(d=1, degree=degree, f_terms=[f_term], omega_terms=[[omega_term]])


def test_integral_floats_are_integers():
    ints = FastSlowSystem(d=1, degree=3,
                          f_terms=[TrigTerm(0.05, kx=2, fx="sin", lt=(1,), ft="cos")],
                          omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]])
    floats = FastSlowSystem(d=1, degree=3.0,
                            f_terms=[TrigTerm(0.05, kx=2.0, fx="sin", lt=(1.0,), ft="cos")],
                            omega_terms=[[TrigTerm(1.0, kx=1.0, fx="cos")]])
    assert (floats.degree, floats.lam, floats.K) == (ints.degree, ints.lam, ints.K)
    x, th = np.linspace(-0.5, 1.5, 9), np.linspace(0.0, 1.0, 9)[:, None]
    for name in ACCESSORS:
        got, expected = getattr(floats, name)(x, th), getattr(ints, name)(x, th)
        for g, e in _parts(got, expected):
            _assert_bitwise(g, e)


@st.composite
def random_trig_systems(draw):
    lam_target = draw(st.floats(2.05, 3.9))
    degree = 4
    amp = (degree - lam_target) / (2 * np.pi)
    phase = draw(st.floats(0.0, 1.0))
    w_amp = draw(st.floats(0.1, 1.5))
    return FastSlowSystem(
        d=1, degree=degree,
        f_terms=[TrigTerm(amp, kx=1, px=phase, fx="sin")],
        omega_terms=[[TrigTerm(w_amp, kx=1, fx="cos"),
                      TrigTerm(0.5, lt=(1,), ft="sin")]],
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(random_trig_systems())
def test_random_systems_validate(system):
    assert_derivatives_match_differences(system)
    assert system.lam > 2


def test_constant_factor_frequency_does_not_enter_bounds():
    # fx = "none" makes the x-factor the constant 1 whatever kx says
    def system(kx):
        return FastSlowSystem(d=1, degree=3, f_terms=[],
                              omega_terms=[[TrigTerm(1.0, kx=kx, fx="none", lt=(1,), ft="sin")]])

    plain, padded = system(0), system(5)
    assert (padded.K, padded.domx_sup, padded.oxx_sup) == (plain.K, plain.domx_sup, plain.oxx_sup)
    assert padded.K == pytest.approx(2 * np.pi)


@st.composite
def admissible_systems(draw):
    """Random trig systems with d = 1 or 2, 'none' factors included, lam > 2."""
    d = draw(st.sampled_from([1, 2]))
    kinds = st.sampled_from(["sin", "cos", "none"])

    def term(amp):
        lt = draw(st.one_of(st.just(()), st.tuples(*[st.integers(-2, 2)] * d)))
        return TrigTerm(amp, kx=draw(st.integers(0, 3)), px=draw(st.floats(0, 1)),
                        fx=draw(kinds), lt=lt, pt=draw(st.floats(0, 1)), ft=draw(kinds))

    degree = draw(st.integers(3, 5))
    # a subnormal amplitude would make the rescaling below overflow to inf
    f_terms = [term(draw(st.floats(-1, 1, allow_subnormal=False)))
               for _ in range(draw(st.integers(0, 3)))]
    wobble = sum(abs(t.amp) * 2 * np.pi * t.kx for t in f_terms if t.fx != "none")
    scale = draw(st.floats(0.1, 0.95)) * (degree - 2.05) / wobble if wobble else 1.0
    f_terms = [TrigTerm(t.amp * scale, t.kx, t.px, t.fx, t.lt, t.pt, t.ft) for t in f_terms]
    omega_terms = [[term(draw(st.floats(-1.5, 1.5))) for _ in range(draw(st.integers(1, 3)))]
                   for _ in range(d)]
    return FastSlowSystem(d=d, degree=degree, f_terms=f_terms, omega_terms=omega_terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(admissible_systems())
def test_certified_bounds_dominate_derivatives(system):
    rng = np.random.default_rng(5)
    x = rng.random(64)
    th = rng.random((64, system.d))
    h = 1e-5

    def le(values, bound):
        assert np.abs(values).max() <= bound + 1e-6 * (1 + bound)

    dfx = system.df_dx(x, th)
    assert dfx.min() >= system.lam - 1e-12 and dfx.max() <= system.dfx_sup + 1e-12
    _, ft, ox, ot = system.tangent(x, th)
    le(ft, system.dft_sup)
    le(ox, system.domx_sup)
    le(ot, system.domt_sup)
    le(np.linalg.norm(system.omega(x, th), axis=-1), system.omega_sup)
    assert system.K >= max(system.dft_sup, system.domx_sup, system.domt_sup)


    # second-order bounds against central differences of the first-order accessors
    le((system.df_dx(x + h, th) - system.df_dx(x - h, th)) / (2 * h), system.fxx_sup)
    le((system.tangent(x + h, th)[2] - system.tangent(x - h, th)[2]) / (2 * h), system.oxx_sup)
    for j in range(system.d):
        e = np.zeros(system.d)
        e[j] = h
        le((system.df_dx(x, th + e) - system.df_dx(x, th - e)) / (2 * h), system.fxt_sup)
        up, down = system.tangent(x, th + e), system.tangent(x, th - e)
        le((up[1] - down[1]) / (2 * h), system.ftt_sup)
        le((up[2] - down[2]) / (2 * h), system.oxt_sup)
        le((up[3] - down[3]) / (2 * h), system.ott_sup)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(admissible_systems())
def test_roundtrip_serialization_on_random_systems(system):
    _assert_roundtrip(system)


@pytest.mark.parametrize("width", [1 / 16, 1 / 4096, 0.5])
def test_invert_monotone_on_cpl_lift(width):
    # widths of the Ulam cells, the shadowing brackets and the pair intervals
    cpl = fixture("CPL")
    theta = np.array([0.3])

    def F(x):
        return cpl.f_lift(x, theta)

    def dF(x):
        return cpl.df_dx(x, np.broadcast_to(theta, x.shape + (1,)))

    rng = np.random.default_rng(11)
    lo = rng.random(200) * (1 - width)
    hi = lo + width
    target = F(lo + rng.random(200) * width)
    x, r = invert_monotone(F, dF, lo, hi, target, 0.5 * (lo + hi))
    assert np.all((lo <= x) & (x <= hi))
    assert np.array_equal(r, F(x) - target)
    assert np.abs(r).max() <= 1e-12
    empty = np.empty(0)
    assert all(a.shape == (0,) for a in invert_monotone(F, dF, empty, empty, empty, empty))


def _counted(F, calls):
    def G(*args):
        calls.append(1)
        return F(*args)
    return G


def test_invert_monotone_stops_on_lifted_values_near_1e3():
    # an ulp is ~1e-13 here; the stop rule must still end the passes early
    cpl = fixture("CPL")
    theta = np.array([0.3])
    calls = []
    F = _counted(lambda x: cpl.f_lift(x, theta), calls)
    rng = np.random.default_rng(12)
    lo = 1e3 + rng.random(200) * 4.0
    hi = lo + 1 / 4096
    target = F(lo + rng.random(200) / 4096)
    calls.clear()
    x, r = invert_monotone(F, lambda x: cpl.df_dx(x, theta), lo, hi, target, 0.5 * (lo + hi))
    assert len(calls) <= 6
    assert np.all((lo <= x) & (x <= hi))
    assert np.array_equal(r, F(x) - target)
    assert (np.abs(r) / np.abs(target)).max() <= 1e-12


def test_invert_monotone_bisects_where_newton_leaves_the_bracket():
    # Newton on arctan from 3 lands at -9.5, below the bracket: the step is
    # clipped to -4, from where Newton lands at 18.5, above the bracket [-4, 3]
    # it has shrunk to, so the next iterate is the midpoint -0.5
    seen = []

    def F(x):
        seen.append(x.copy())
        return np.arctan(x)

    lo, hi = np.array([-4.0, -4.0]), np.array([10.0, 10.0])
    target = np.arctan(np.array([0.0, 0.4]))
    x, r = invert_monotone(F, lambda x: 1 / (1 + x * x), lo, hi, target, 0.5 * (lo + hi))
    assert [list(v) for v in seen[:3]] == [[3.0, 3.0], [-4.0, -4.0], [-0.5, -0.5]]
    assert np.abs(x - [0.0, 0.4]).max() <= 1e-15
    assert len(seen) <= 10
    assert np.array_equal(r, np.arctan(x) - target)


@pytest.mark.parametrize("case", ["lift across 1", "convex at 0"])
def test_invert_monotone_stops_at_a_root_on_a_bracket_end(case):
    # a graph-map lift across x = 1, where Newton overshoots a root at lo;
    # and 3x + x^2, whose iterates tend to the root at lo = 0 with steps far
    # above their own ulp
    if case == "lift across 1":
        lo = 1 - np.arange(1, 50) * 2.0**-53

        def F(x):
            return 3 * torus(x) + 3 * (x - torus(x)) + 0.4 * np.sin(2 * np.pi * x) / (2 * np.pi)

        def dF(x):
            return 3 + 0.4 * np.cos(2 * np.pi * x)
    else:
        lo = np.array([0.0, 0.0, 0.25])

        def F(x):
            return 3 * x + x * x

        def dF(x):
            return 3 + 2 * x
    calls = []
    hi = lo + 0.1
    target = F(lo)
    x, r = invert_monotone(_counted(F, calls), dF, lo, hi, target, 0.5 * (lo + hi))
    assert len(calls) <= 5
    assert np.all((lo <= x) & (x <= hi))
    assert np.array_equal(r, F(x) - target)
    assert np.abs(r).max() <= 1e-15


# (F, F') calls of one CPL build: F at the cell edges and at each new iterate,
# F' once per Newton step. N = 512 takes two steps; N = 4096 one, or two where
# the residual's rounding tops 4 ulp times the slope; at theta = 0.5 the lift
# is 3x to rounding, so the chord start is the root
ULAM_CALLS = {512: {0.03: (4, 2), 0.3: (4, 2), 0.5: (2, 1), 0.77: (4, 2)},
              4096: {0.03: (3, 1), 0.3: (4, 2), 0.5: (2, 1), 0.77: (4, 2)}}


@pytest.mark.parametrize("N", [512, 4096])
def test_ulam_crossings_take_at_most_six_passes(N, monkeypatch):
    cpl = fixture("CPL")
    calls, slopes = [], []
    monkeypatch.setattr(cpl, "f_lift", _counted(cpl.f_lift, calls))
    monkeypatch.setattr(cpl, "df_dx", _counted(cpl.df_dx, slopes))
    for theta, want in ULAM_CALLS[N].items():
        calls.clear()
        slopes.clear()
        ulam_operator(cpl, [theta], N)
        assert (len(calls), len(slopes)) == want


def _outside_lift_calls(monkeypatch, module, system):
    """x of each system.f_lift call made outside module.invert_monotone, and its roots."""
    inside, outside, roots = [], [], []
    lift, inverse = system.f_lift, module.invert_monotone

    def counted_lift(x, theta):
        if not inside:
            outside.append(np.array(x))
        return lift(x, theta)

    def recorded(*args):
        inside.append(1)
        try:
            x, r = inverse(*args)
        finally:
            inside.pop()
        roots.append(x.copy())
        return x, r

    monkeypatch.setattr(system, "f_lift", counted_lift)
    monkeypatch.setattr(module, "invert_monotone", recorded)
    return outside, roots


def test_shadowing_evaluates_no_lift_at_its_roots(monkeypatch):
    # one lift at each step's guess, the true orbit point; the defect is the
    # residual the inversion returns
    cpl = fixture("CPL")
    outside, roots = _outside_lift_calls(monkeypatch, shadowing, cpl)
    rng = np.random.default_rng(17)
    th0 = rng.random((20, 1))
    batch = shadow_solve_batch(cpl, 1e-3, rng.random(20), th0, th0 + 5e-4, 30)
    assert len(roots) == len(outside) == 30
    assert not any(np.array_equal(x, root) for x in outside for root in roots)
    assert batch.defect.max() <= 1e-12


def test_pushforward_evaluates_no_lift_at_its_roots(monkeypatch):
    # two lifts, at the pair ends a and b; the residual check reads the
    # residual the inversion returns
    cpl = fixture("CPL")
    family = as_family(constant_pair([0.3], 0.2, 0.3, 1e-3), default_constants(cpl))
    for _ in range(3):
        outside, roots = _outside_lift_calls(monkeypatch, standard_pairs, cpl)
        family = pushforward_decompose(family, cpl)
        assert len(roots) == 1 and len(outside) == 2
        assert not any(x.shape == roots[0].shape for x in outside)
        monkeypatch.undo()


def _step_rule_inverse(F, dF, lo, hi, target, x):
    """invert_monotone with the step stop alone: every pass takes F', and the
    passes end only once every step is within 4 ulp of its bracket end."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tol = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    x = np.asarray(x, dtype=float)
    clipped = np.zeros(x.shape, dtype=bool)
    for _ in range(64):
        r = F(x) - target
        lo = np.where(r <= 0, x, lo)
        hi = np.where(r <= 0, hi, x)
        xn = x - r / dF(x)
        out = ~((lo <= xn) & (xn <= hi))
        xn = np.where(out & clipped, 0.5 * (lo + hi), np.clip(xn, lo, hi))
        clipped = out & ~clipped
        x, step = xn, np.abs(xn - x)
        if np.all(step <= tol):
            break
    return x


def _against_step_rule(checked):
    """invert_monotone that asserts its residual is F(x) - target bitwise and its
    root within 4 ulp of the bracket end of the step rule's root."""
    def inverse(F, dF, lo, hi, target, x):
        root, r = invert_monotone(F, dF, lo, hi, target, x)
        assert np.array_equal(r, F(root) - target)
        tol = 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        assert np.all(np.abs(root - _step_rule_inverse(F, dF, lo, hi, target, x)) <= tol)
        checked.append(root.size)
        return root, r
    return inverse


@pytest.mark.parametrize("N", [512, 4096])
@pytest.mark.parametrize("make", [lambda: fixture("CPL"), planar_system], ids=["CPL", "planar"])
def test_ulam_roots_stay_within_4_ulp_of_the_step_rule(make, N, monkeypatch):
    system = make()
    checked = []
    monkeypatch.setattr(ulam, "invert_monotone", _against_step_rule(checked))
    for theta in np.random.default_rng(18).random((40, system.d)):
        ulam_operator(system, theta, N)
    assert len(checked) == 40


def test_shadowing_roots_stay_within_4_ulp_of_the_step_rule(monkeypatch):
    checked = []
    monkeypatch.setattr(shadowing, "invert_monotone", _against_step_rule(checked))
    shadow_diagnostic(fixture("CPL"), 1e-4, np.random.default_rng(19), 50)
    assert len(checked) == 100


def test_pair_roots_stay_within_4_ulp_of_the_step_rule(monkeypatch):
    cpl = fixture("CPL")
    consts = default_constants(cpl)
    checked = []
    monkeypatch.setattr(standard_pairs, "invert_monotone", _against_step_rule(checked))
    for family in (as_family(constant_pair([0.3], 0.2, 0.3, 1e-3), consts),
                   as_family(random_admissible_pair(cpl, 1e-3, consts,
                                                    np.random.default_rng(20)), consts)):
        for _ in range(3):
            family = pushforward_decompose(family, cpl)
    assert len(checked) == 6


@pytest.mark.parametrize("make, d", [(lambda: fixture("CPL"), 1), (planar_system, 2)])
def test_vector_theta_equals_broadcast_theta_bitwise(make, d):
    system = make()
    x = np.random.default_rng(13).random(1000)
    for theta in np.random.default_rng(14).random((3, d)):
        wide = np.broadcast_to(theta, x.shape + (d,))
        assert np.array_equal(system.f_lift(x, theta), system.f_lift(x, wide))
        assert np.array_equal(system.df_dx(x, theta), system.df_dx(x, wide))


def test_torus_equals_np_mod_bitwise():
    tiny = np.nextafter(0.0, 1.0)
    edges = np.array([0.0, -0.0, tiny, -tiny, -1e-300, -1e-17, 1e-17, 0.5, -0.5, 1.0, -1.0,
                      1 - 2.0**-53, -(1 - 2.0**-53), 2.0**52 + 0.5, -(2.0**52 + 0.5),
                      2.0**53, 1e300, -1e300, 3.75, -3.75])
    values = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 1e3, 10_000)])
    assert np.array_equal(torus(values).view(np.int64), np.mod(values, 1.0).view(np.int64))
    assert torus(-tiny) == np.mod(-tiny, 1.0) == 1.0
    assert float(torus(-0.37)) == -0.37 % 1.0


# -- evaluator against a plain per-term loop ---------------------------------------

def _reference_factor(kind, k, phase, u, order):
    if kind == "none":
        return np.ones_like(u) if order == 0 else np.zeros_like(u)
    arg = 2.0 * np.pi * (k * u + phase)
    w = 2.0 * np.pi * k
    if kind == "sin":
        return np.sin(arg) if order == 0 else w * np.cos(arg)
    return np.cos(arg) if order == 0 else -w * np.sin(arg)


def _reference_sum(terms, x, theta, ox, j=None):
    out = np.zeros(np.broadcast_shapes(x.shape, theta.shape[:-1]))
    for t in terms:
        u = theta @ np.asarray(t.lt, dtype=float) if t.lt else np.zeros(theta.shape[:-1])
        val = t.amp * _reference_factor(t.fx, t.kx, t.px, x, ox) \
            * _reference_factor(t.ft, 1.0, t.pt, u, int(j is not None))
        if j is not None:
            val = val * (t.lt[j] if t.lt else 0.0)
        out = out + val
    return out


def _reference_accessors(system, x, theta):
    comps = system.omega_terms
    lift = system.degree * x + _reference_sum(system.f_terms, x, theta, 0)
    omega = np.stack([_reference_sum(c, x, theta, 0) for c in comps], axis=-1)
    dfx = system.degree + _reference_sum(system.f_terms, x, theta, 1)
    return {
        "f_lift": lift,
        "omega": omega,
        "f_omega": (np.mod(lift, 1.0), omega),
        "df_dx": dfx,
        "tangent": (dfx,
                    np.stack([_reference_sum(system.f_terms, x, theta, 0, j)
                              for j in range(system.d)], axis=-1),
                    np.stack([_reference_sum(c, x, theta, 1) for c in comps], axis=-1),
                    np.stack([np.stack([_reference_sum(c, x, theta, 0, j)
                                        for j in range(system.d)], axis=-1)
                              for c in comps], axis=-2)),
    }


def _parts(got, expected):
    """(part, expected part) pairs of an evaluator's result: f_omega and tangent return tuples."""
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        return zip(got, expected)
    return [(got, expected)]


def _assert_bitwise(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _check_evaluators(system):
    rng = np.random.default_rng(8)
    x = np.concatenate([[0.0, -0.0, 0.5, 1 - 2.0**-53], rng.uniform(-1.0, 2.0, 252)])
    theta = np.concatenate([np.zeros((2, system.d)), -np.zeros((2, system.d)),
                            rng.uniform(-1.0, 2.0, (252, system.d))])
    # equal shapes, one theta for every x, and one x for every theta
    for xs, ths in ((x, theta), (x, theta[5]), (np.asarray(-0.0), theta)):
        for name, expected in _reference_accessors(system, xs, ths).items():
            for g, e in _parts(getattr(system, name)(xs, ths), expected):
                _assert_bitwise(g, e)


TP = 2.0 * np.pi
EDGE_SYSTEMS = {
    "planar-d2": planar_system,
    "sin-cos-one-x-harmonic": lambda: FastSlowSystem(
        d=1, degree=3,
        f_terms=[TrigTerm(0.05, kx=1, px=0.1, fx="sin"), TrigTerm(0.03, kx=1, px=0.1, fx="cos")],
        omega_terms=[[TrigTerm(0.7, kx=1, px=0.1, fx="cos"), TrigTerm(1.0, kx=1, px=0.1, fx="sin")]]),
    "theta-harmonic-in-f-and-omega": lambda: FastSlowSystem(
        d=1, degree=3,
        f_terms=[TrigTerm(0.05, kx=2, fx="cos", lt=(1,), pt=0.2, ft="cos")],
        omega_terms=[[TrigTerm(0.5, lt=(1,), pt=0.2, ft="cos"),
                      TrigTerm(0.3, kx=1, fx="sin", lt=(1,), pt=0.2, ft="sin")]]),
    "constant-terms": lambda: FastSlowSystem(
        d=2, degree=3,
        f_terms=[TrigTerm(0.25), TrigTerm(0.4 / TP, kx=1, fx="sin", lt=(1, -1), ft="cos")],
        omega_terms=[[TrigTerm(0.4), TrigTerm(1.0, lt=(0, 1), ft="sin")],
                     [TrigTerm(1.0, kx=2, fx="none", lt=(2, 0), ft="none")]]),
    "amp-1-beside-amp-not-1": lambda: FastSlowSystem(
        d=1, degree=3,
        f_terms=[TrigTerm(1.0, lt=(1,), ft="cos"), TrigTerm(-0.1 / TP, kx=1, fx="cos"),
                 TrigTerm(0.3 / TP, kx=1, fx="sin", lt=(1,), ft="cos")],
        omega_terms=[[TrigTerm(1.0, kx=1, fx="cos"), TrigTerm(-0.5, kx=1, fx="cos"),
                      TrigTerm(1.0, lt=(1,), ft="sin"), TrigTerm(2.5, lt=(1,), ft="sin")]]),
    "kx-2-and-up-with-phases": lambda: FastSlowSystem(
        d=1, degree=4,
        f_terms=[TrigTerm(0.02, kx=3, px=0.3, fx="sin", lt=(2,), pt=0.7, ft="cos")],
        omega_terms=[[TrigTerm(0.8, kx=2, px=0.25, fx="cos", lt=(1,), pt=0.1, ft="sin"),
                      TrigTerm(-0.6, kx=5, px=0.9, fx="sin", lt=(-1,), pt=0.45, ft="cos")]]),
    "signed-zero-phases": lambda: FastSlowSystem(
        d=1, degree=3,
        f_terms=[TrigTerm(0.05, kx=1, px=-0.0, fx="sin"), TrigTerm(0.05, kx=1, px=0.0, fx="sin"),
                 TrigTerm(0.5, lt=(1,), pt=-0.0, ft="sin")],
        omega_terms=[[TrigTerm(0.5, kx=1, px=-0.0, fx="sin", lt=(1,), pt=0.0, ft="cos")]]),
    "empty-f-terms": lambda: FastSlowSystem(
        d=1, degree=3, f_terms=[],
        omega_terms=[[TrigTerm(1.0, lt=(1,), ft="sin"), TrigTerm(0.5, kx=2, fx="sin")]]),
}


@pytest.mark.parametrize("make", [lambda: fixture("LIN"), lambda: fixture("CBD"),
                                  lambda: fixture("CPL"), *EDGE_SYSTEMS.values()],
                         ids=["LIN", "CBD", "CPL", *EDGE_SYSTEMS])
def test_evaluators_equal_per_term_loop_on_fixtures(make):
    _check_evaluators(make())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(admissible_systems())
def test_evaluators_equal_per_term_loop_on_random_systems(system):
    _check_evaluators(system)


@pytest.mark.parametrize("name, n_args, n_trigs", [("LIN", 1, 1), ("CBD", 2, 2), ("CPL", 2, 4)])
def test_tangent_program_lists_each_argument_and_trig_array_once(name, n_args, n_trigs):
    # CPL's four partials read sin and cos of 2 pi x and of 2 pi theta: one
    # argument each and four arrays, not six of each across four programs
    system = fixture(name)
    evaluators = {a for a in dir(system) if not a.startswith("_") and callable(getattr(system, a))
                  and list(inspect.signature(getattr(system, a)).parameters)[:2] == ["x", "theta"]}
    assert evaluators == set(system._plan.programs) == set(ACCESSORS)
    _, args, trigs, _ = system._plan.programs["tangent"]
    assert (len(args), len(trigs)) == (n_args, n_trigs)
