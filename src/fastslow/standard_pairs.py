"""Standard pairs and standard families.

A standard pair is a nearly-horizontal curve x -> (x, G(x)) over an interval
of length between delta/2 and delta, carrying a probability density with
bounded logarithmic derivative:

    |G'| <= eps*c1,  |G''| <= eps*curv*c1,  |rho'/rho| <= c2,  int rho = 1.

Convex combinations of pairs (standard families) are the measure class the
rest of the package uses for initial conditions, and the class is invariant:
pushing a family through one step of the skew product and cutting the image
into admissible intervals yields another family inducing exactly the image
measure. Curves and densities live on uniform grids with cubic interpolation;
since G varies by at most eps*c1*delta over its domain, 64 intervals are far
more resolution than needed.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import PairInvariantError
from .systems import FastSlowSystem, invert_monotone, torus

FAMILY_FORMAT = "fastslow-family/1"
PRUNE_WEIGHT = 1e-14


@dataclass(frozen=True)
class PairConstants:
    """Class constants (delta, c1, c2, curvature factor, grid intervals)."""

    delta: float
    c1: float
    c2: float
    curv: float
    grid: int = 64


def default_constants(system: FastSlowSystem, delta: float = 0.1,
                      grid: int = 64) -> PairConstants:
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
    return PairConstants(delta=delta, c1=c1, c2=c2, curv=curv, grid=grid)


@dataclass
class StandardCurve:
    """Curve G over [a, b] (real endpoints, b - a <= delta), cubic nodes."""

    a: float
    b: float
    values: np.ndarray            # (grid+1, d), unreduced
    eps: float
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] < 4:
            raise PairInvariantError("curve grid too coarse")
        self._spline = CubicSpline(self.grid_x(), self.values, axis=0)

    def grid_x(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.values.shape[0])

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def at(self, x) -> np.ndarray:
        return self._spline(x)

    def deriv(self, x, order: int = 1) -> np.ndarray:
        return self._spline(x, nu=order)


@dataclass
class StandardDensity:
    """Probability density on [a, b], grid values + cubic interpolation."""

    a: float
    b: float
    values: np.ndarray            # (grid+1,)
    _spline: CubicSpline = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self._spline = CubicSpline(
            np.linspace(self.a, self.b, self.values.shape[0]), self.values
        )

    def at(self, x) -> np.ndarray:
        return self._spline(x)

    def deriv(self, x) -> np.ndarray:
        return self._spline(x, nu=1)


@dataclass
class StandardPair:
    curve: StandardCurve
    density: StandardDensity

    @property
    def eps(self) -> float:
        return self.curve.eps

    def grid_x(self) -> np.ndarray:
        return self.curve.grid_x()

    def theta_mean(self) -> np.ndarray:
        """Mean slow coordinate of the pair (reduced mod 1)."""
        xg = self.grid_x()
        w = _simpson_weights(xg)
        return torus((w[:, None] * self.curve.values * self.density.values[:, None]).sum(axis=0))


def _simpson_weights(xg: np.ndarray) -> np.ndarray:
    n = xg.shape[0] - 1
    if n % 2:
        raise ValueError("Simpson rule needs an even number of intervals")
    h = (xg[-1] - xg[0]) / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def constant_pair(theta0, a: float, b: float, eps: float,
                  grid: int = 64) -> StandardPair:
    """Flat curve at theta0 with the uniform density; admissible for any eps."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    nodes = np.tile(theta0, (grid + 1, 1))
    curve = StandardCurve(a=a, b=b, values=nodes, eps=eps)
    dens = StandardDensity(a, b, np.full(grid + 1, 1.0 / (b - a)))
    return StandardPair(curve=curve, density=dens)


def validate_pair(pair: StandardPair, constants: PairConstants,
                  rtol: float = 1e-9) -> None:
    """Check all defining bounds; raises PairInvariantError with the culprit."""
    a, b = pair.curve.a, pair.curve.b
    length = b - a
    if not (constants.delta / 2 * (1 - 1e-12) <= length <= constants.delta * (1 + 1e-12)):
        raise PairInvariantError(
            f"interval length {length:.6g} outside [{constants.delta / 2}, {constants.delta}]"
        )
    xg = pair.grid_x()
    w = _simpson_weights(xg)
    mass = float(w @ pair.density.values)
    if abs(mass - 1.0) > 1e-10:
        raise PairInvariantError(f"density mass {mass!r} deviates from 1 by {abs(mass-1):.2e}")
    xr = np.linspace(a, b, 4 * (xg.shape[0] - 1) + 1)
    rho = pair.density.at(xr)
    if np.any(rho <= 0):
        raise PairInvariantError("density must be strictly positive")
    logd = float(np.abs(pair.density.deriv(xr) / rho).max())
    if logd > constants.c2 * (1 + rtol):
        raise PairInvariantError(f"|rho'/rho| = {logd:.4g} exceeds c2 = {constants.c2:.4g}")
    eps = pair.eps
    g1 = float(np.linalg.norm(pair.curve.deriv(xr, 1), axis=-1).max())
    if g1 > eps * constants.c1 * (1 + rtol) + 1e-15:
        raise PairInvariantError(f"|G'| = {g1:.4g} exceeds eps*c1 = {eps * constants.c1:.4g}")
    g2 = float(np.linalg.norm(pair.curve.deriv(xr, 2), axis=-1).max())
    if g2 > eps * constants.curv * constants.c1 * (1 + rtol) + 1e-12:
        raise PairInvariantError(
            f"|G''| = {g2:.4g} exceeds eps*curv*c1 = {eps * constants.curv * constants.c1:.4g}"
        )


@dataclass
class StandardFamily:
    """Weighted collection of pairs; weights sum to one."""

    pairs: list[StandardPair]
    weights: np.ndarray
    constants: PairConstants
    eps: float
    mass_defect: float = 0.0      # |sum of raw weights - 1| before renormalizing

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)

    def validate(self, rtol: float = 1e-9) -> None:
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise PairInvariantError(f"family weights sum to {self.weights.sum()!r}")
        if np.any(self.weights <= 0):
            raise PairInvariantError("family weights must be positive")
        for pair in self.pairs:
            validate_pair(pair, self.constants, rtol=rtol)

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
                {
                    "a": p.curve.a,
                    "b": p.curve.b,
                    "G": p.curve.values.tolist(),
                    "rho": p.density.values.tolist(),
                    "nu": float(nu),
                }
                for p, nu in zip(self.pairs, self.weights)
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "StandardFamily":
        if data.get("format") != FAMILY_FORMAT:
            raise PairInvariantError(f"unsupported family format {data.get('format')!r}")
        consts = PairConstants(**data["constants"])
        eps = data["eps"]
        pairs, weights = [], []
        for rec in data["pairs"]:
            curve = StandardCurve(a=rec["a"], b=rec["b"], values=np.array(rec["G"]), eps=eps)
            dens = StandardDensity(rec["a"], rec["b"], np.array(rec["rho"]))
            pairs.append(StandardPair(curve=curve, density=dens))
            weights.append(rec["nu"])
        return StandardFamily(pairs=pairs, weights=np.array(weights), constants=consts, eps=eps)

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "StandardFamily":
        return StandardFamily.from_dict(json.loads(text))


def as_family(pair: StandardPair, constants: PairConstants) -> StandardFamily:
    return StandardFamily(pairs=[pair], weights=np.array([1.0]),
                          constants=constants, eps=pair.eps)


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
    if isinstance(obj, StandardFamily):
        return float(sum(nu * integrate(p, g, refine) for p, nu in zip(obj.pairs, obj.weights)))
    n = (obj.curve.values.shape[0] - 1) * refine
    xg = np.linspace(obj.curve.a, obj.curve.b, n + 1)
    w = _simpson_weights(xg)
    theta = obj.curve.at(xg) if refine > 1 else obj.curve.values
    rho = obj.density.at(xg) if refine > 1 else obj.density.values
    vals = np.asarray(g(torus(xg), torus(theta)), dtype=float)
    return float(w @ (vals * rho))


# -- pushforward decomposition -------------------------------------------------

def pushforward_decompose(family, system: FastSlowSystem,
                          eps: Optional[float] = None) -> StandardFamily:
    """Decompose the image measure of a family under one step into pairs.

    For each pair, the graph map f_G = f(x, G(x)) is inverted branch by
    branch over an equal-length partition of the image interval (pieces in
    [delta/2, delta] with shared endpoints); each branch yields a new pair by
    the usual change of variables, with weight equal to its mass. Output
    pairs are validated against the same constants, so a failure here means
    the class constants do not close for this system and eps.
    """
    if isinstance(family, StandardPair):
        raise TypeError("wrap single pairs with as_family() first")
    if eps is None:
        eps = family.eps
    elif abs(eps - family.eps) > 0:
        raise PairInvariantError("eps differs from the family's admissibility eps")
    consts = family.constants
    # class-level expansion bound: every admissible graph map must stay expanding
    class_fmin = system.lam - eps * consts.c1 * system.dft_sup
    if class_fmin <= 1.5:
        raise PairInvariantError(
            f"lam - eps*c1*|df/dtheta| = {class_fmin:.4f} <= 3/2; eps too large "
            f"for this class (c1 = {consts.c1:.3g})"
        )
    out_pairs: list[StandardPair] = []
    out_weights: list[float] = []
    for pair, nu in zip(family.pairs, family.weights):
        for branch in _decompose_pair(pair, system, eps, consts):
            out_pairs.append(branch[0])
            out_weights.append(nu * branch[1])
    weights = np.asarray(out_weights)
    defect = abs(float(weights.sum()) - 1.0)
    keep = weights >= PRUNE_WEIGHT
    pairs = [p for p, k in zip(out_pairs, keep) if k]
    weights = weights[keep]
    weights = weights / weights.sum()
    result = StandardFamily(pairs=pairs, weights=weights, constants=consts,
                            eps=eps, mass_defect=defect)
    result.validate()
    return result


def _decompose_pair(pair: StandardPair, system: FastSlowSystem, eps: float,
                    consts: PairConstants):
    a, b = pair.curve.a, pair.curve.b
    grid = pair.curve.values.shape[0] - 1

    def fG(x):
        return system.f_lift(torus(x), torus(pair.curve.at(x))) \
            + system.degree * (x - torus(x))

    def dfG(x):
        xm = torus(x)
        th = torus(pair.curve.at(x))
        return system.df_dx(xm, th) + np.einsum(
            "...j,...j->...", system.df_dtheta(xm, th), pair.curve.deriv(x, 1)
        )

    xr = np.linspace(a, b, 4 * grid + 1)
    fmin = float(dfG(xr).min())
    if fmin <= 1.5:
        raise PairInvariantError(
            f"graph-map expansion {fmin:.4f} <= 3/2; eps too large for c1 = {consts.c1:.3g}"
        )

    A0, B0 = float(fG(a)), float(fG(b))
    m = int(np.ceil((B0 - A0) / consts.delta))
    piece = (B0 - A0) / m
    if piece < consts.delta / 2 * (1 - 1e-12):
        raise PairInvariantError(f"image piece {piece:.4g} below delta/2")

    # invert all branch grids at once; targets are m*(grid+1) image nodes
    targets = (A0 + piece * (np.arange(m)[:, None] + np.linspace(0, 1, grid + 1)[None, :])).ravel()
    phi = invert_monotone(fG, dfG, np.full(targets.shape, a), np.full(targets.shape, b), targets)
    resid = np.abs(fG(phi) - targets)
    if resid.max() > 1e-12 * max(1.0, abs(B0)):
        raise PairInvariantError(f"branch inversion residual {resid.max():.2e}")
    phi = phi.reshape(m, grid + 1)
    phi[0, 0] = a
    phi[-1, -1] = b
    phi[1:, 0] = phi[:-1, -1]   # shared branch endpoints

    branches = []
    for j in range(m):
        xj = phi[j]
        Gx = pair.curve.at(xj)
        xm = torus(xj)
        thm = torus(Gx)
        new_vals = Gx + eps * system.omega(xm, thm)
        rho_tilde = pair.density.at(xj) / dfG(xj)
        a_new = A0 + j * piece
        shift = np.floor(a_new)
        curve = StandardCurve(a=a_new - shift, b=a_new - shift + piece,
                              values=new_vals, eps=eps)
        w = _simpson_weights(curve.grid_x())
        nu_j = float(w @ rho_tilde)
        dens = StandardDensity(curve.a, curve.b, rho_tilde / nu_j)
        branches.append((StandardPair(curve=curve, density=dens), nu_j))
    return branches


# -- sampling --------------------------------------------------------------------

def sample_from_uniform(pair: StandardPair, u) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF transform of uniforms u in [0,1): returns (x, theta) mod 1.

    The CDF is trapezoidal on the grid and inverted linearly, which matches
    the density to O(h^2); deterministic given u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    xg = pair.grid_x()
    h = xg[1] - xg[0]
    incr = 0.5 * h * (pair.density.values[:-1] + pair.density.values[1:])
    cdf = np.concatenate([[0.0], np.cumsum(incr)])
    cdf /= cdf[-1]
    seg = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, xg.shape[0] - 2)
    x = xg[seg] + (u - cdf[seg]) / (cdf[seg + 1] - cdf[seg]) * h
    theta = torus(pair.curve.at(x))
    return torus(x), theta


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
    curve = StandardCurve(a=a, b=a + length, values=vals, eps=eps)
    # half-wave modulation: oscillating near the grid Nyquist rate would put
    # the quadrature error of every h^4 method above the identity tolerances
    beta = min(consts.c2 * length / np.pi, 1.0) * rng.random()
    raw = np.exp(beta * np.sin(np.pi * (xg - a) / length))
    w = _simpson_weights(xg)
    dens = StandardDensity(a, a + length, raw / float(w @ raw))
    return StandardPair(curve=curve, density=dens)
