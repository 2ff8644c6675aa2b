"""Standard pairs and standard families.

A standard pair is a nearly-horizontal curve x -> (x, G(x)) over an interval
[a, b] of length between delta/2 and delta, carrying a probability density
rho with bounded logarithmic derivative:

    |G'| <= eps*c1,  |G''| <= eps*curv*c1,  |rho'/rho| <= c2,  int rho = 1.

Convex combinations of pairs (standard families) are the measure class the
rest of the package uses for initial conditions, and the class is invariant:
pushing a family through one step of the skew product and cutting the image
into admissible intervals yields another family inducing exactly the image
measure.

A pair is its grid data: G (grid+1, d) and rho (grid+1,) at equally spaced
points of [a, b]; between them both are not-a-knot cubic interpolants. A
family stacks the grids of its pairs into arrays a, b (n,), G (n, grid+1, d)
and rho (n, grid+1). On the normalised coordinate s = (x - a)/(b - a) all
pairs share their knots, so one spline fit serves a whole family, and the
pushforward, validation, integration and sampling are array operations with
no loop over pairs. Since G varies by at most eps*c1*delta over its domain,
64 intervals are far more resolution than needed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import PairInvariantError
from .systems import FastSlowSystem, invert_monotone, torus

FAMILY_FORMAT = "fastslow-family/1"
PRUNE_WEIGHT = 1e-14
BOUND_RTOL = 1e-9      # relative slack of the derivative bounds in validation
DELTA = 0.1            # standard-curve base length
GRID = 64              # intervals per pair grid
CHECK_BLOCK = 256      # pairs per block of validation points


@dataclass(frozen=True)
class PairConstants:
    """Class constants (delta, c1, c2, curvature factor, grid intervals)."""

    delta: float
    c1: float
    c2: float
    curv: float
    grid: int = GRID


def default_constants(system: FastSlowSystem) -> PairConstants:
    """Defaults satisfying the invariance inequalities with >= 25% margin.

    c1 scales like (K+1)/(lam-2); the curvature factor must also dominate the
    drift-induced curvature (affine fast maps have ||f''|| = 0 but decomposed
    curves still bend by O(eps ||omega''||)), hence the max with 1. The
    validator recomputes the closure inequalities with measured constants, so
    a bad choice is caught at runtime rather than silently accepted.
    """
    c1 = 4.0 * (system.K + 1.0) / (system.lam - 2.0)
    curv = 10.0 * max(1.0, system.f_second_sup)
    c2 = 40.0 * (1.0 + curv * c1 * max(1.0, system.f_second_sup) / system.lam**2)
    return PairConstants(delta=DELTA, c1=c1, c2=c2, curv=curv)


@dataclass
class StandardPair:
    """Curve values G (grid+1, d) and density values rho (grid+1,) on [a, b]."""

    a: float
    b: float
    G: np.ndarray
    rho: np.ndarray
    eps: float

    def __post_init__(self):
        self.G = np.atleast_2d(np.asarray(self.G, dtype=float))
        self.rho = np.asarray(self.rho, dtype=float)
        if self.G.shape[0] < 4:
            raise PairInvariantError("curve grid too coarse")


def _simpson_weights(a, b, n: int) -> np.ndarray:
    """Composite Simpson weights on linspace(a, b, n+1), one row per (a, b)."""
    if n % 2:
        raise ValueError("Simpson rule needs an even number of intervals")
    h = (np.asarray(b) - np.asarray(a)) / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h[..., None] / 3.0


class _Splines:
    """One not-a-knot cubic spline through the G and rho grids of stacked pairs.

    The spline is fitted once on the knots of s = (x - a)/(b - a), which all
    pairs share, with every grid as a column; evaluation gathers its
    coefficients, and a derivative of order nu is scaled by (b - a)**-nu.
    """

    def __init__(self, a, b, G, rho):
        self.a = a
        self.length = b - a
        self.grid = rho.shape[1] - 1
        self.knots = np.linspace(0.0, 1.0, self.grid + 1)
        coef = CubicSpline(self.knots, np.concatenate([G, rho[..., None]], axis=-1),
                           axis=1).c                 # (4, grid, n, d+1)
        # (4, d+1, n*grid): entry pair*grid + interval, gathered by one np.take
        self.coef = np.ascontiguousarray(coef.transpose(0, 3, 2, 1)).reshape(
            4, coef.shape[-1], -1)

    def __call__(self, x, pair, nu: int = 0):
        """(G, rho) differentiated nu times at x on pairs `pair` (broadcast with x)."""
        length = np.take(self.length, pair)
        s = (x - np.take(self.a, pair)) / length
        entry = np.clip(np.floor(s * self.grid).astype(np.intp), 0, self.grid - 1)
        t = s - self.knots[entry]
        entry += pair * self.grid          # row pair*grid + interval
        # Horner in place: the temporaries are as large as the output
        out = np.zeros((self.coef.shape[1],) + t.shape)
        for k in range(4 - nu):
            out *= t
            c = np.take(self.coef[k], entry, axis=1)
            if nu:
                c *= math.perm(3 - k, nu)
            out += c
        if nu:
            out /= length**nu
        return np.moveaxis(out[:-1], 0, -1), out[-1]


@dataclass
class StandardFamily:
    """Weighted pairs stacked on one grid shape; weights sum to one."""

    a: np.ndarray                 # (n,)
    b: np.ndarray                 # (n,)
    G: np.ndarray                 # (n, grid+1, d)
    rho: np.ndarray               # (n, grid+1)
    weights: np.ndarray           # (n,)
    constants: PairConstants
    eps: float
    mass_defect: float = 0.0      # |sum of raw weights - 1| before renormalizing

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def pairs(self) -> list[StandardPair]:
        return [StandardPair(a, b, G, rho, self.eps)
                for a, b, G, rho in zip(self.a.tolist(), self.b.tolist(), self.G, self.rho)]

    def validate(self) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise PairInvariantError(f"family weights sum to {self.weights.sum()!r}")
        if np.any(self.weights <= 0):
            raise PairInvariantError("family weights must be positive")
        _check_pairs(self)

    def to_dict(self) -> dict:
        return {
            "format": FAMILY_FORMAT,
            "eps": self.eps,
            "constants": {
                "delta": self.constants.delta, "c1": self.constants.c1,
                "c2": self.constants.c2, "curv": self.constants.curv,
                "grid": self.constants.grid,
            },
            "pairs": [
                {"a": a, "b": b, "G": G.tolist(), "rho": rho.tolist(), "nu": nu}
                for a, b, G, rho, nu in zip(self.a.tolist(), self.b.tolist(),
                                            self.G, self.rho, self.weights.tolist())
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "StandardFamily":
        if data.get("format") != FAMILY_FORMAT:
            raise PairInvariantError(f"unsupported family format {data.get('format')!r}")
        recs = data["pairs"]

        def column(key):
            return np.array([rec[key] for rec in recs], dtype=float)

        return StandardFamily(a=column("a"), b=column("b"), G=column("G"), rho=column("rho"),
                              weights=column("nu"), constants=PairConstants(**data["constants"]),
                              eps=data["eps"])

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "StandardFamily":
        return StandardFamily.from_dict(json.loads(text))


def _stacked(obj) -> tuple:
    """(a, b, G, rho, weights) of a family, or of a pair as a family of one."""
    if isinstance(obj, StandardFamily):
        return obj.a, obj.b, obj.G, obj.rho, obj.weights
    return np.array([obj.a], dtype=float), np.array([obj.b], dtype=float), \
        obj.G[None], obj.rho[None], np.ones(1)


def as_family(pair: StandardPair, constants: PairConstants) -> StandardFamily:
    return StandardFamily(*_stacked(pair), constants=constants, eps=pair.eps)


def constant_pair(theta0, a: float, b: float, eps: float) -> StandardPair:
    """Flat curve at theta0 with the uniform density; admissible for any eps."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    return StandardPair(a, b, np.tile(theta0, (GRID + 1, 1)),
                        np.full(GRID + 1, 1.0 / (b - a)), eps)


# -- validation ------------------------------------------------------------------

def validate_pair(pair: StandardPair, constants: PairConstants) -> None:
    """Check all defining bounds; raises PairInvariantError with the culprit."""
    _check_pairs(as_family(pair, constants))


def _check_pairs(family: StandardFamily) -> None:
    """The defining bounds of every pair of a family."""
    consts, eps = family.constants, family.eps
    length = family.b - family.a
    bad = ~((consts.delta / 2 * (1 - 1e-12) <= length) & (length <= consts.delta * (1 + 1e-12)))
    if bad.any():
        raise PairInvariantError(
            f"interval length {length[bad][0]:.6g} outside [{consts.delta / 2}, {consts.delta}]"
        )
    grid = family.rho.shape[1] - 1
    mass = np.einsum("ij,ij->i", _simpson_weights(family.a, family.b, grid), family.rho)
    dev = np.abs(mass - 1.0)
    if dev.max() > 1e-10:
        worst = mass[dev.argmax()]
        raise PairInvariantError(f"density mass {worst!r} deviates from 1 by {dev.max():.2e}")
    # one fit, evaluated at 4*grid+1 points per pair in blocks of CHECK_BLOCK
    # pairs to bound the temporaries; each bound is checked on its maximum
    # over all blocks, so a family fails on the same bound with the same
    # worst value as in one pass
    splines = _Splines(family.a, family.b, family.G, family.rho)
    pairs = np.arange(length.size)[:, None]
    logd = g1 = g2 = 0.0
    for start in range(0, length.size, CHECK_BLOCK):
        rows = slice(start, start + CHECK_BLOCK)
        pair = pairs[rows]
        xr = np.linspace(family.a[rows], family.b[rows], 4 * grid + 1, axis=-1)
        rho = splines(xr, pair)[1]
        if np.any(rho <= 0):
            raise PairInvariantError("density must be strictly positive")
        d1, rho1 = splines(xr, pair, 1)
        logd = max(logd, float(np.abs(rho1 / rho).max()))
        g1 = max(g1, float(np.linalg.norm(d1, axis=-1).max()))
        g2 = max(g2, float(np.linalg.norm(splines(xr, pair, 2)[0], axis=-1).max()))
    if logd > consts.c2 * (1 + BOUND_RTOL):
        raise PairInvariantError(f"|rho'/rho| = {logd:.4g} exceeds c2 = {consts.c2:.4g}")
    if g1 > eps * consts.c1 * (1 + BOUND_RTOL) + 1e-15:
        raise PairInvariantError(f"|G'| = {g1:.4g} exceeds eps*c1 = {eps * consts.c1:.4g}")
    if g2 > eps * consts.curv * consts.c1 * (1 + BOUND_RTOL) + 1e-12:
        raise PairInvariantError(
            f"|G''| = {g2:.4g} exceeds eps*curv*c1 = {eps * consts.curv * consts.c1:.4g}"
        )


# -- integration ---------------------------------------------------------------

def integrate(obj, g: Callable, refine: int = 1) -> float:
    """Integral of g(x, theta) against a pair or family measure.

    g receives torus coordinates (x mod 1 and theta mod 1) and must broadcast;
    composite Simpson quadrature on each pair's grid. Pass refine > 1 to
    subdivide each grid interval (the curve and density are defined through
    their cubic interpolants, so refinement is exact in the pair's own terms);
    needed when g oscillates faster than the grid, e.g. pulled back through
    the expanding map.
    """
    a, b, G, rho, nu = _stacked(obj)
    n = (rho.shape[1] - 1) * refine
    x = np.linspace(a, b, n + 1, axis=-1)
    if refine > 1:
        G, rho = _Splines(a, b, G, rho)(x, np.arange(a.size)[:, None])
    vals = np.asarray(g(torus(x), torus(G)), dtype=float)
    return float(nu @ np.einsum("ij,ij->i", _simpson_weights(a, b, n), vals * rho))


# -- pushforward decomposition -------------------------------------------------

def pushforward_decompose(family: StandardFamily, system: FastSlowSystem) -> StandardFamily:
    """Decompose the image measure of a family under one step into pairs.

    For each pair, the graph map f_G = f(x, G(x)) is inverted branch by
    branch over an equal-length partition of the image interval (pieces in
    [delta/2, delta] with shared endpoints); each branch yields a new pair by
    the usual change of variables, with weight equal to its mass. The grids
    of all branches of all pairs are inverted together. Output pairs are
    validated against the same constants, so a failure here means the class
    constants do not close for this system and eps.
    """
    if isinstance(family, StandardPair):
        raise TypeError("wrap single pairs with as_family() first")
    eps, consts = family.eps, family.constants
    # class-level expansion bound: every admissible graph map must stay expanding
    class_fmin = system.lam - eps * consts.c1 * system.dft_sup
    if class_fmin <= 1.5:
        raise PairInvariantError(
            f"lam - eps*c1*|df/dtheta| = {class_fmin:.4f} <= 3/2; eps too large "
            f"for this class (c1 = {consts.c1:.3g})"
        )
    a, b = family.a, family.b
    grid = family.rho.shape[1] - 1
    splines = _Splines(a, b, family.G, family.rho)

    def fG(x, pair):
        return system.f_lift(torus(x), torus(splines(x, pair)[0])) \
            + system.degree * (x - torus(x))

    def dfG(x, pair):
        xm = torus(x)
        th = torus(splines(x, pair)[0])
        return system.df_dx(xm, th) + np.einsum(
            "...j,...j->...", system.df_dtheta(xm, th), splines(x, pair, 1)[0]
        )

    pairs = np.arange(a.size)
    fmin = float(dfG(np.linspace(a, b, 4 * grid + 1, axis=-1), pairs[:, None]).min())
    if fmin <= 1.5:
        raise PairInvariantError(
            f"graph-map expansion {fmin:.4f} <= 3/2; eps too large for c1 = {consts.c1:.3g}"
        )

    A0, B0 = fG(a, pairs), fG(b, pairs)
    count = np.ceil((B0 - A0) / consts.delta).astype(np.intp)
    piece = (B0 - A0) / count
    if piece.min() < consts.delta / 2 * (1 - 1e-12):
        raise PairInvariantError(f"image piece {piece.min():.4g} below delta/2")

    # branch k comes from pair src[k] and is branch j[k] of that pair; its
    # grid+1 image nodes are the inversion targets
    src = np.repeat(pairs, count)
    j = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
    targets = A0[src, None] + piece[src, None] * (j[:, None] + np.linspace(0, 1, grid + 1))
    at = np.broadcast_to(src[:, None], targets.shape)
    phi = invert_monotone(lambda x: fG(x, at), lambda x: dfG(x, at), a[at], b[at], targets,
                          0.5 * (a[at] + b[at]))
    resid = np.abs(fG(phi, at) - targets).max(axis=1)
    if np.any(resid > 1e-12 * np.maximum(1.0, np.abs(B0[src]))):
        raise PairInvariantError(f"branch inversion residual {resid.max():.2e}")
    first = j == 0
    phi[first, 0] = a
    phi[np.append(first[1:], True), -1] = b
    inner = np.flatnonzero(~first)
    phi[inner, 0] = phi[inner - 1, -1]   # shared branch endpoints

    Gx, rho_x = splines(phi, at)
    G_new = Gx + eps * system.omega(torus(phi), torus(Gx))
    rho_tilde = rho_x / dfG(phi, at)
    a_new = A0[src] + j * piece[src]
    a_new = a_new - np.floor(a_new)
    b_new = a_new + piece[src]
    nu = np.einsum("ij,ij->i", _simpson_weights(a_new, b_new, grid), rho_tilde)

    weights = family.weights[src] * nu
    defect = abs(float(weights.sum()) - 1.0)
    keep = weights >= PRUNE_WEIGHT
    weights = weights[keep]
    result = StandardFamily(a=a_new[keep], b=b_new[keep], G=G_new[keep],
                            rho=(rho_tilde / nu[:, None])[keep],
                            weights=weights / weights.sum(), constants=consts,
                            eps=eps, mass_defect=defect)
    result.validate()
    return result


# -- sampling --------------------------------------------------------------------

def sample_from_uniform(pair: StandardPair, u) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF transform of uniforms u in [0,1): returns (x, theta) mod 1.

    The CDF is trapezoidal on the grid and inverted linearly, which matches
    the density to O(h^2); deterministic given u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xg = np.linspace(pair.a, pair.b, pair.rho.shape[0])
    h = xg[1] - xg[0]
    incr = 0.5 * h * (pair.rho[:-1] + pair.rho[1:])
    cdf = np.concatenate([[0.0], np.cumsum(incr)])
    cdf /= cdf[-1]
    seg = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, xg.shape[0] - 2)
    x = xg[seg] + (u - cdf[seg]) / (cdf[seg + 1] - cdf[seg]) * h
    theta = _Splines(*_stacked(pair)[:4])(x, np.zeros(x.shape, dtype=np.intp))[0]
    return torus(x), torus(theta)


# -- class-closure margins ----------------------------------------------------------

def class_margins(system: FastSlowSystem, eps: float,
                  consts: PairConstants) -> dict:
    """Margins of the three invariance inequalities with measured constants.

    Each margin is (allowed - worst bound) / allowed; decomposition is only
    guaranteed to preserve the class when all margins are positive, and the
    defaults target >= 0.25.
    """
    ec1 = eps * consts.c1
    fmin = system.lam - ec1 * system.dft_sup
    if fmin <= 1.5:
        return {"fmin": fmin, "slope": -np.inf, "curvature": -np.inf, "logdensity": -np.inf}
    om1 = system.domx_sup + system.domt_sup * ec1
    slope_bound = (ec1 + eps * om1) / fmin
    m1 = 1.0 - slope_bound / ec1 if ec1 > 0 else 1.0

    ec2 = eps * consts.curv * consts.c1
    om2 = (
        system.oxx_sup
        + 2 * system.oxt_sup * ec1
        + system.ott_sup * ec1**2
        + system.domt_sup * ec2
    )
    fG2 = (
        system.fxx_sup
        + 2 * system.fxt_sup * ec1
        + system.ftt_sup * ec1**2
        + system.dft_sup * ec2
    )
    curv_bound = (ec2 + eps * om2) / fmin**2 + slope_bound * fG2 / fmin**2
    m2 = 1.0 - curv_bound / ec2 if ec2 > 0 else 1.0

    log_bound = consts.c2 / fmin + fG2 / fmin**2
    m3 = 1.0 - log_bound / consts.c2
    return {"fmin": fmin, "slope": m1, "curvature": m2, "logdensity": m3}


def random_admissible_pair(system: FastSlowSystem, eps: float,
                           consts: PairConstants,
                           rng: np.random.Generator) -> StandardPair:
    """A random pair near the middle of the admissible class, for tests."""
    length = consts.delta * (0.5 + 0.5 * rng.random())
    a = rng.random()
    grid = consts.grid
    xg = np.linspace(a, a + length, grid + 1)
    theta0 = rng.random(system.d)
    # slope and curvature both at most 60% of their allowed bounds
    amp_slope = 0.6 * eps * consts.c1 / (2 * np.pi)
    amp_curv = 0.6 * eps * consts.curv * consts.c1 / (2 * np.pi) ** 2
    amp = min(amp_slope, amp_curv) * rng.random()
    phase = rng.random()
    vals = theta0[None, :] + amp * np.sin(2 * np.pi * ((xg - a)[:, None] + phase))
    # half-wave modulation: oscillating near the grid Nyquist rate would put
    # the quadrature error of every h^4 method above the identity tolerances
    beta = min(consts.c2 * length / np.pi, 1.0) * rng.random()
    raw = np.exp(beta * np.sin(np.pi * (xg - a) / length))
    w = _simpson_weights(a, a + length, grid)
    return StandardPair(a, a + length, vals, raw / float(w @ raw), eps)
