import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow.exceptions import SystemValidationError
from fastslow.systems import (FastSlowSystem, TrigTerm, fixture, invert_monotone, torus,
                              validate_system)
from fastslow.ulam import ulam_operator
from test_srb_cache import planar_system


def test_fixtures_validate():
    for name in ("LIN", "CBD", "CPL"):
        validate_system(fixture(name))


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
    assert cpl.f(x, th).shape == (7,)
    assert cpl.omega(x, th).shape == (7, 1)
    assert cpl.domega_dtheta(x, th).shape == (7, 1, 1)


def test_roundtrip_serialization():
    cpl = fixture("CPL")
    clone = FastSlowSystem.from_dict(cpl.to_dict())
    x, th = 0.37, np.array([0.81])
    assert clone.f_lift(x, th) == cpl.f_lift(x, th)
    assert np.array_equal(clone.omega(x, th), cpl.omega(x, th))


def test_overclaimed_lambda_rejected():
    with pytest.raises(SystemValidationError):
        FastSlowSystem(d=1, degree=3,
                       f_terms=[TrigTerm(0.9 / (2 * np.pi), kx=1, fx="sin")],
                       omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]],
                       lam=2.5)  # certified bound is 2.1


def test_underclaimed_K_rejected():
    with pytest.raises(SystemValidationError):
        FastSlowSystem(d=1, degree=3, f_terms=[],
                       omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]],
                       K=1.0)  # sup |domega/dx| = 2 pi


def test_expansion_below_two_rejected():
    with pytest.raises(SystemValidationError):
        FastSlowSystem(d=1, degree=2, f_terms=[],
                       omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]])


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
    validate_system(system)
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
    f_terms = [term(draw(st.floats(-1, 1))) for _ in range(draw(st.integers(0, 3)))]
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
    le(system.df_dtheta(x, th), system.dft_sup)
    le(system.domega_dx(x, th), system.domx_sup)
    le(system.domega_dtheta(x, th), system.domt_sup)
    le(np.linalg.norm(system.omega(x, th), axis=-1), system.omega_sup)
    assert system.K >= max(system.dft_sup, system.domx_sup, system.domt_sup)

    # second-order bounds against central differences of the first-order accessors
    le((system.df_dx(x + h, th) - system.df_dx(x - h, th)) / (2 * h), system.fxx_sup)
    le((system.domega_dx(x + h, th) - system.domega_dx(x - h, th)) / (2 * h), system.oxx_sup)
    for j in range(system.d):
        e = np.zeros(system.d)
        e[j] = h
        le((system.df_dx(x, th + e) - system.df_dx(x, th - e)) / (2 * h), system.fxt_sup)
        le((system.df_dtheta(x, th + e) - system.df_dtheta(x, th - e)) / (2 * h), system.ftt_sup)
        le((system.domega_dx(x, th + e) - system.domega_dx(x, th - e)) / (2 * h), system.oxt_sup)
        le((system.domega_dtheta(x, th + e) - system.domega_dtheta(x, th - e)) / (2 * h),
           system.ott_sup)


@pytest.mark.parametrize("width", [1 / 16, 1 / 4096, 0.5])
def test_invert_monotone_on_cpl_lift(width):
    # widths of the Ulam cells, the shadowing brackets and the pair intervals
    cpl = fixture("CPL")
    theta = np.array([0.3])
    F = cpl.frozen_map(theta)

    def dF(x):
        return cpl.df_dx(x, np.broadcast_to(theta, x.shape + (1,)))

    rng = np.random.default_rng(11)
    lo = rng.random(200) * (1 - width)
    hi = lo + width
    target = F(lo + rng.random(200) * width)
    x = invert_monotone(F, dF, lo, hi, target, 0.5 * (lo + hi))
    assert np.all((lo <= x) & (x <= hi))
    assert np.abs(F(x) - target).max() <= 1e-12
    empty = np.empty(0)
    assert invert_monotone(F, dF, empty, empty, empty, empty).shape == (0,)


def _counted(F, calls):
    def G(x):
        calls.append(1)
        return F(x)
    return G


def test_invert_monotone_stops_on_lifted_values_near_1e3():
    # an ulp is ~1e-13 here; the stop rule must still end the passes early
    cpl = fixture("CPL")
    theta = np.array([0.3])
    calls = []
    F = _counted(cpl.frozen_map(theta), calls)
    rng = np.random.default_rng(12)
    lo = 1e3 + rng.random(200) * 4.0
    hi = lo + 1 / 4096
    target = F(lo + rng.random(200) / 4096)
    calls.clear()
    x = invert_monotone(F, lambda x: cpl.df_dx(x, theta), lo, hi, target, 0.5 * (lo + hi))
    assert len(calls) <= 6
    assert np.all((lo <= x) & (x <= hi))
    assert (np.abs(F(x) - target) / np.abs(target)).max() <= 1e-12


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
    x = invert_monotone(F, lambda x: 1 / (1 + x * x), lo, hi, target, 0.5 * (lo + hi))
    assert [list(v) for v in seen[:3]] == [[3.0, 3.0], [-4.0, -4.0], [-0.5, -0.5]]
    assert np.abs(x - [0.0, 0.4]).max() <= 1e-15
    assert len(seen) <= 10


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
    x = invert_monotone(_counted(F, calls), dF, lo, hi, target, 0.5 * (lo + hi))
    assert len(calls) <= 5
    assert np.all((lo <= x) & (x <= hi))
    assert np.abs(F(x) - target).max() <= 1e-15


@pytest.mark.parametrize("N", [512, 4096])
def test_ulam_crossings_take_at_most_six_passes(N, monkeypatch):
    # ulam_operator calls its frozen map once for the cell edges, once per
    # inversion pass and once for the residual check
    cpl = fixture("CPL")
    calls = []
    frozen = cpl.frozen_map
    monkeypatch.setattr(cpl, "frozen_map", lambda theta: _counted(frozen(theta), calls))
    for theta in (0.03, 0.3, 0.5, 0.77):
        calls.clear()
        ulam_operator(cpl, [theta], N)
        assert 3 <= len(calls) <= 2 + 6


@pytest.mark.parametrize("make, d", [(lambda: fixture("CPL"), 1), (planar_system, 2)])
def test_vector_theta_equals_broadcast_theta_bitwise(make, d):
    system = make()
    x = np.random.default_rng(13).random(1000)
    for theta in np.random.default_rng(14).random((3, d)):
        wide = np.broadcast_to(theta, x.shape + (d,))
        assert np.array_equal(system.frozen_map(theta)(x), system.f_lift(x, wide))
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
    return {
        "f_lift": lift,
        "f": np.mod(lift, 1.0),
        "omega": omega,
        "f_omega": (np.mod(lift, 1.0), omega),
        "df_dx": system.degree + _reference_sum(system.f_terms, x, theta, 1),
        "df_dtheta": np.stack([_reference_sum(system.f_terms, x, theta, 0, j)
                               for j in range(system.d)], axis=-1),
        "domega_dx": np.stack([_reference_sum(c, x, theta, 1) for c in comps], axis=-1),
        "domega_dtheta": np.stack([np.stack([_reference_sum(c, x, theta, 0, j)
                                             for j in range(system.d)], axis=-1)
                                   for c in comps], axis=-2),
    }


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
            got = getattr(system, name)(xs, ths)
            if name == "f_omega":
                for g, e in zip(got, expected):
                    _assert_bitwise(g, e)
            else:
                _assert_bitwise(got, expected)


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
