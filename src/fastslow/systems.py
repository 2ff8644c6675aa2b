"""Fast-slow skew products on the cylinder T^1 x T^d.

A system is a pair of maps

    x' = f(x, theta)            (fast, uniformly expanding: df/dx >= lam > 2)
    theta' = theta + eps * omega(x, theta)   (slow)

restricted here to trigonometric polynomials, so that every derivative is
available in closed form and the expansion bound lam and the derivative
bound K are certified by coefficient sums. All evaluators broadcast:
``x`` has shape ``(...)`` and ``theta`` shape ``(..., d)``.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import SystemValidationError

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TrigTerm:
    """One product term  amp * Fx(2*pi*(kx*x + px)) * Ft(2*pi*(<l,theta> + pt)).

    ``fx``/``ft`` are 'sin', 'cos' or 'none' (constant factor 1).
    """

    amp: float
    kx: int = 0
    px: float = 0.0
    fx: str = "none"
    lt: tuple[int, ...] = ()
    pt: float = 0.0
    ft: str = "none"


def torus(a):
    """Reduction to [0, 1); on finite floats bitwise equal to np.mod(a, 1.0)."""
    return a - np.floor(a)


def _cached(memo: Optional[dict], key, make):
    """make(), kept in ``memo`` under ``key`` when a memo is given."""
    if memo is None:
        return make()
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _factor(memo: Optional[dict], kind: str, k: float, phase: float, var, u: np.ndarray,
            order: int) -> np.ndarray:
    """Derivative of order 0/1 of sin|cos(2*pi*(k*u + phase)) w.r.t. u.

    A ``memo`` keeps each sin/cos array under (function, k, phase, var), where
    ``var`` names the variable u stands for, so sin' = w*cos reuses a cos
    another term already evaluated at the same point.
    """
    fn = np.cos if (kind == "sin") == bool(order) else np.sin
    val = _cached(memo, (fn, k, phase, var), lambda: fn(_TWO_PI * (k * u + phase)))
    if not order:
        return val
    w = _TWO_PI * k
    return w * val if kind == "sin" else -w * val


def _dot(theta: np.ndarray, lt: tuple) -> np.ndarray:
    """theta.l, zero for a theta-free term."""
    return theta @ np.asarray(lt, dtype=float) if lt else np.zeros(theta.shape[:-1])


def _coef_sup(terms, ox: int, js: tuple[int, ...]) -> float:
    """Coefficient-sum bound on sup |d^ox/dx^ox d/dtheta_js| of a sum of terms.

    A 'none' factor is the constant 1, so any derivative through it is zero;
    its frequency does not count.
    """
    total = 0.0
    for t in terms:
        if (ox and t.fx == "none") or (js and (t.ft == "none" or not t.lt)):
            continue
        freq = abs(t.kx) ** ox * math.prod(abs(t.lt[j]) for j in js)
        total += abs(t.amp) * _TWO_PI ** (ox + len(js)) * freq
    return total


class FastSlowSystem:
    """Trig-polynomial fast-slow system with analytic derivative accessors.

    Parameters
    ----------
    d : slow dimension (theta lives on T^d)
    degree : topological degree of the fast map (integer >= 2)
    f_terms : periodic part of f as a list of TrigTerm
    omega_terms : one list of TrigTerm per slow component
    name : identifier used in reports
    lam, K : optional certified bounds; derived from coefficients if omitted
    """

    def __init__(
        self,
        d: int,
        degree: int,
        f_terms: list[TrigTerm],
        omega_terms: list[list[TrigTerm]],
        name: str = "custom",
        lam: Optional[float] = None,
        K: Optional[float] = None,
    ):
        if d < 1:
            raise SystemValidationError("slow dimension d must be >= 1")
        if len(omega_terms) != d:
            raise SystemValidationError("omega_terms must have one list per component")
        self.d = d
        self.degree = int(degree)
        self.name = name
        self.f_terms = [TrigTerm(*t) if not isinstance(t, TrigTerm) else t for t in f_terms]
        self.omega_terms = [
            [TrigTerm(*t) if not isinstance(t, TrigTerm) else t for t in comp]
            for comp in omega_terms
        ]
        for t in self.f_terms + [t for comp in self.omega_terms for t in comp]:
            if len(t.lt) not in (0, d):
                raise SystemValidationError("theta frequency vector has wrong length")
            if {t.fx, t.ft} - {"sin", "cos", "none"}:
                raise ValueError(f"unknown trig kind in {t}")
            if not all(isinstance(v, numbers.Real) for v in (t.amp, t.kx, t.px, t.pt, *t.lt)):
                raise TypeError(f"non-numeric coefficient in {t}")

        # certified coefficient-sum bounds
        fs, comps = [self.f_terms], self.omega_terms

        def sup(lists, ox, nt):
            return max(_coef_sup(terms, ox, js) for terms in lists
                       for js in itertools.product(range(d), repeat=nt))

        fx_wobble = sup(fs, 1, 0)
        lam_cert = self.degree - fx_wobble
        self.lam = float(lam) if lam is not None else lam_cert
        if self.lam <= 2.0:
            raise SystemValidationError(f"expansion bound lam={self.lam:.4f} <= 2")
        if self.lam > lam_cert + 1e-12:
            raise SystemValidationError(
                f"claimed lam={self.lam} exceeds certified bound {lam_cert:.6f}"
            )
        self.dfx_sup = self.degree + fx_wobble
        self.dft_sup = sup(fs, 0, 1)
        self.domx_sup = sup(comps, 1, 0)
        self.domt_sup = sup(comps, 0, 1)
        K_cert = max(self.domx_sup, self.domt_sup, self.dft_sup)
        self.K = float(K) if K is not None else K_cert
        if self.K + 1e-12 < K_cert:
            raise SystemValidationError(
                f"claimed K={self.K} below certified bound {K_cert:.6f}"
            )
        # Euclidean bound on omega, for Lipschitz checks
        self.omega_sup = float(np.linalg.norm([_coef_sup(c, 0, ()) for c in comps]))
        # curvature bounds used by the standard-pair constants
        self.fxx_sup = sup(fs, 2, 0)
        self.fxt_sup = sup(fs, 1, 1)
        self.ftt_sup = sup(fs, 0, 2)
        self.f_second_sup = max(self.fxx_sup, self.fxt_sup, self.ftt_sup)
        self.oxx_sup = sup(comps, 2, 0)
        self.oxt_sup = sup(comps, 1, 1)
        self.ott_sup = sup(comps, 0, 2)

    # -- evaluation helpers ------------------------------------------------

    def _sum_terms(self, terms, x, theta, ox: int, otj=None, memo=None):
        """Sum of term derivatives; otj selects a theta component (None = value).

        A 'none' factor is the constant 1: it is left out of the product, and
        a derivative through it is zero, so the term is skipped. A ``memo``
        caches theta.l per frequency vector and each trig evaluation; only
        callers that share it between sums at the same (x, theta) pass one, so
        without it each factor is freed once its term is added.
        """
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, theta.shape[:-1]))
        for t in terms:
            if (ox and t.fx == "none") or (otj is not None and (t.ft == "none" or not t.lt)):
                continue
            val = t.amp
            if t.fx != "none":
                val = val * _factor(memo, t.fx, t.kx, t.px, "x", x, ox)
            if t.ft != "none":
                u = _cached(memo, t.lt, lambda: _dot(theta, t.lt))
                val = val * _factor(memo, t.ft, 1.0, t.pt, t.lt, u, otj is not None)
            if otj is not None:
                val = val * t.lt[otj]
            out = out + val
        return out

    # -- fast map ----------------------------------------------------------

    def _lift(self, x, theta, memo: Optional[dict]):
        return self.degree * np.asarray(x, dtype=float) \
            + self._sum_terms(self.f_terms, x, theta, 0, memo=memo)

    def f_lift(self, x, theta):
        """Lift of the fast map to the real line (degree * x + periodic part)."""
        return self._lift(x, theta, None)

    def f(self, x, theta):
        return torus(self.f_lift(x, theta))

    def f_omega(self, x, theta):
        """``(f(x, theta), omega(x, theta))`` from one shared trig evaluation."""
        memo = {}
        return torus(self._lift(x, theta, memo)), self._components(x, theta, 0, memo)

    def df_dx(self, x, theta):
        return self.degree + self._sum_terms(self.f_terms, x, theta, 1)

    def df_dtheta(self, x, theta):
        return np.stack(
            [self._sum_terms(self.f_terms, x, theta, 0, otj=j) for j in range(self.d)], axis=-1
        )

    # -- slow drift ----------------------------------------------------------

    def _components(self, x, theta, ox: int, memo: Optional[dict]):
        return np.stack(
            [self._sum_terms(comp, x, theta, ox, memo=memo) for comp in self.omega_terms], axis=-1
        )

    def omega(self, x, theta):
        return self._components(x, theta, 0, None)

    def domega_dx(self, x, theta):
        return self._components(x, theta, 1, None)

    def domega_dtheta(self, x, theta):
        """Entry (..., i, j) = d omega_i / d theta_j."""
        rows = [
            [self._sum_terms(comp, x, theta, 0, otj=j) for j in range(self.d)]
            for comp in self.omega_terms
        ]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    def frozen_map(self, theta):
        """The circle map f(., theta) with theta held fixed, plus its lift."""
        theta = np.asarray(theta, dtype=float)

        def fl(x):
            xs = np.asarray(x, dtype=float)
            return self.f_lift(xs, np.broadcast_to(theta, xs.shape + (self.d,)))

        return fl

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "d": self.d,
            "degree": self.degree,
            "lam": self.lam,
            "K": self.K,
            "f_terms": [list(dataclass_tuple(t)) for t in self.f_terms],
            "omega_terms": [
                [list(dataclass_tuple(t)) for t in comp] for comp in self.omega_terms
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "FastSlowSystem":
        return FastSlowSystem(
            d=data["d"],
            degree=data["degree"],
            f_terms=[TrigTerm(a, k, p, fx, tuple(lt), pt, ft) for a, k, p, fx, lt, pt, ft in data["f_terms"]],
            omega_terms=[
                [TrigTerm(a, k, p, fx, tuple(lt), pt, ft) for a, k, p, fx, lt, pt, ft in comp]
                for comp in data["omega_terms"]
            ],
            name=data.get("name", "custom"),
            lam=data.get("lam"),
            K=data.get("K"),
        )


def dataclass_tuple(t: TrigTerm):
    return (t.amp, t.kx, t.px, t.fx, list(t.lt), t.pt, t.ft)


def invert_monotone(F, dF, lo, hi, target) -> np.ndarray:
    """Solve F(x) = target elementwise for an increasing F with F(lo) <= target <= F(hi).

    Bisects until every bracket is at most 1e-6 wide, with the step count
    worked out from the widest bracket, then takes three Newton steps clipped
    to the bracket. Callers check the residual at their own tolerance.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    width = float((hi - lo).max(initial=0.0))
    for _ in range(math.ceil(math.log2(width / 1e-6)) if width > 1e-6 else 0):
        mid = 0.5 * (lo + hi)
        below = F(mid) <= target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        x = np.clip(x - (F(x) - target) / dF(x), lo, hi)
    return x


# -- fixture registry --------------------------------------------------------

def fixture(name: str) -> FastSlowSystem:
    """Named test systems used across the package.

    LIN : f = 3x mod 1, omega = cos(2 pi x). Closed-form everything.
    CBD : f as LIN, omega = cos(2 pi x) - cos(6 pi x), a dynamical coboundary
          g - g o f with g = cos(2 pi x); degenerate diffusion.
    CPL : f = 3x + (0.9/2pi) sin(2 pi theta) sin(2 pi x), omega =
          sin(2 pi theta) + cos(2 pi x); genuine theta coupling, lam = 2.1.
    """
    key = name.upper()
    if key == "LIN":
        return FastSlowSystem(
            d=1,
            degree=3,
            f_terms=[],
            omega_terms=[[TrigTerm(1.0, kx=1, fx="cos")]],
            name="LIN",
        )
    if key == "CBD":
        return FastSlowSystem(
            d=1,
            degree=3,
            f_terms=[],
            omega_terms=[[TrigTerm(1.0, kx=1, fx="cos"), TrigTerm(-1.0, kx=3, fx="cos")]],
            name="CBD",
        )
    if key == "CPL":
        return FastSlowSystem(
            d=1,
            degree=3,
            f_terms=[TrigTerm(0.9 / _TWO_PI, kx=1, fx="sin", lt=(1,), ft="sin")],
            omega_terms=[[TrigTerm(1.0, lt=(1,), ft="sin"), TrigTerm(1.0, kx=1, fx="cos")]],
            name="CPL",
        )
    raise KeyError(f"unknown fixture {name!r}")


FIXTURES = ("LIN", "CBD", "CPL")


# -- validation ---------------------------------------------------------------

def validate_system(system: FastSlowSystem) -> None:
    """Check analytic derivatives against finite differences, to a relative
    1e-6, on a 13 x 13 probe grid.

    Also verifies df/dx >= lam and that K dominates the three derivative
    sup-norms at the probes. Guards against inconsistent user-supplied data.
    """
    h, rtol, n_probe = 1e-6, 1e-6, 13
    xs = (np.arange(n_probe) + 0.383) / n_probe
    rows = np.stack(
        [torus((np.arange(n_probe) * (j + 2) + 0.271) / n_probe) for j in range(system.d)],
        axis=-1,
    )
    xg, ig = np.meshgrid(xs, np.arange(n_probe), indexing="ij")
    x = xg.ravel()
    theta = rows[ig.ravel()]

    def _close(a, b, what):
        scale = 1.0 + np.abs(a)
        bad = np.abs(a - b) > rtol * scale
        if np.any(bad):
            i = int(np.argmax(np.abs(a - b) / scale))
            raise SystemValidationError(
                f"{what}: analytic and finite-difference values disagree "
                f"(worst rel err {float((np.abs(a - b) / scale).ravel()[i]):.2e})"
            )

    fd_fx = (system.f_lift(x + h, theta) - system.f_lift(x - h, theta)) / (2 * h)
    _close(system.df_dx(x, theta), fd_fx, "df/dx")
    fd_ox = (system.omega(x + h, theta) - system.omega(x - h, theta)) / (2 * h)
    _close(system.domega_dx(x, theta), fd_ox, "domega/dx")
    for j in range(system.d):
        e = np.zeros(system.d)
        e[j] = h
        fd_ft = (system.f_lift(x, theta + e) - system.f_lift(x, theta - e)) / (2 * h)
        _close(system.df_dtheta(x, theta)[..., j], fd_ft, "df/dtheta")
        fd_ot = (system.omega(x, theta + e) - system.omega(x, theta - e)) / (2 * h)
        _close(system.domega_dtheta(x, theta)[..., j], fd_ot, "domega/dtheta")

    dfx = system.df_dx(x, theta)
    if np.any(dfx < system.lam - 1e-9):
        raise SystemValidationError(
            f"df/dx drops to {float(dfx.min()):.6f} < lam = {system.lam}"
        )
    sup = max(
        float(np.abs(system.domega_dx(x, theta)).max()),
        float(np.abs(system.domega_dtheta(x, theta)).max()),
        float(np.abs(system.df_dtheta(x, theta)).max()),
    )
    if sup > system.K + 1e-9:
        raise SystemValidationError(f"K={system.K} smaller than observed sup {sup:.6f}")
