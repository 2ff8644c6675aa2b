"""Fast-slow skew products on the cylinder T^1 x T^d.

A system is a pair of maps

    x' = f(x, theta)            (fast, uniformly expanding: df/dx >= lam > 2)
    theta' = theta + eps * omega(x, theta)   (slow)

restricted here to trigonometric polynomials, so that every derivative is
available in closed form and the expansion bound lam and the derivative
bound K are certified by coefficient sums. All evaluators broadcast:
``x`` has shape ``(...)`` and ``theta`` shape ``(..., d)``.

Each system compiles its terms once into an evaluation plan (``_Plan``): per
accessor, the distinct arguments 2*pi*(k*u + phase), the distinct sin/cos
arrays of them and each term as indices into those arrays. Evaluating it
runs the float operations of a plain per-term loop in the same order, minus
exact identities, so results are bit-identical to that loop; it holds no
state between calls, so the ensemble's threads share one system.
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


def _key(*values) -> tuple:
    """Exact dictionary key of coefficients: 0.0 and -0.0 differ, 3 and 3.0 do not."""
    return tuple(float(v).hex() for v in values)


class _Plan:
    """A system's trig polynomial compiled once into one program per accessor.

    A program lists each entry it needs once: ``thetas``, the theta.l it reads
    (None for theta_0 itself when l = (1,) in d = 1, an empty array for l = ()),
    ``args``, the arguments 2*pi*(k*u + phase) as (u, k or None for 1, phase)
    with u 0 = x and u i = thetas[i - 1], and ``trigs``, the arrays as
    (sin | cos, argument). So sin and cos of one harmonic share their argument,
    and a factor of both f and omega is computed once. ``code`` holds one
    tuple of terms per returned sum: a term is (amp or None for 1, factors,
    l_j or None for 1), a factor (trig, derivative scale +-2*pi*k or None).

    ``run`` performs the float operations of the per-term sum
    0 + sum_t amp * Fx(...) * Ft(...) * l_j in the same order, and leaves out
    only exact identities: k * u, amp * and * l_j where they are 1, the
    np.zeros that seeds a sum whose first term has the sum's shape (0.0 +
    first keeps its sign of zero) and theta @ [1.0], which is theta_0 + 0.0
    with the + 0.0 moved into the phase. Its arrays are local to the call, so
    threads can run one plan at once.
    """

    def __init__(self, d: int, f_terms, omega_terms):
        self.d = d
        self.programs = {
            "f_lift": self._compile([(f_terms, 0, None)]),
            "f_omega": self._compile([(terms, 0, None) for terms in [f_terms, *omega_terms]]),
            "omega": self._compile([(terms, 0, None) for terms in omega_terms]),
            "df_dx": self._compile([(f_terms, 1, None)]),
            "df_dtheta": self._compile([(f_terms, 0, j) for j in range(d)]),
            "domega_dx": self._compile([(terms, 1, None) for terms in omega_terms]),
            "domega_dtheta": self._compile([(terms, 0, j) for terms in omega_terms
                                            for j in range(d)]),
        }

    def _compile(self, sums) -> tuple:
        """Program of the sums [(terms, ox, j), ...]: d^ox/dx^ox, and d/dtheta_j if j is set."""
        thetas, args, trigs = {}, {}, {}   # key -> (index, entry)

        def entry(table: dict, key, value) -> int:
            return table.setdefault(key, (len(table), value))[0]

        def factor(kind, u, k, phase, order):
            a = entry(args, (u, *_key(k, phase)), (u, None if k == 1 else k, phase))
            fn = np.cos if (kind == "sin") == bool(order) else np.sin
            w = _TWO_PI * k
            return entry(trigs, (fn, a), (fn, a)), \
                (w if kind == "sin" else -w) if order else None

        def theta_factor(t, order):
            if self.d == 1 and tuple(t.lt) == (1,):
                u = 1 + entry(thetas, None, None)
                return factor(t.ft, u, 1.0, t.pt + 0.0, order)
            u = 1 + entry(thetas, _key(*t.lt), np.asarray(t.lt, dtype=float))
            return factor(t.ft, u, 1.0, t.pt, order)

        code = []
        for terms, ox, j in sums:
            ops = []
            for t in terms:
                if (ox and t.fx == "none") or (j is not None and (t.ft == "none" or not t.lt)):
                    continue
                factors = []
                if t.fx != "none":
                    factors.append(factor(t.fx, 0, t.kx, t.px, ox))
                if t.ft != "none":
                    factors.append(theta_factor(t, j is not None))
                amp = None if t.amp == 1 and factors else t.amp
                ops.append((amp, tuple(factors), None if j is None or t.lt[j] == 1 else t.lt[j]))
            code.append(tuple(ops))
        tables = (tuple(v for _, v in table.values()) for table in (thetas, args, trigs))
        return (*tables, tuple(code))

    def run(self, name: str, x, theta) -> list:
        """The sums of program ``name`` at (x, theta)."""
        thetas, args, trigs, code = self.programs[name]
        x, theta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
        us = [x] + [theta[..., 0] if lt is None else theta @ lt if lt.size
                    else np.zeros(theta.shape[:-1]) for lt in thetas]
        a = [_TWO_PI * ((us[u] if k is None else k * us[u]) + phase) for u, k, phase in args]
        vals = [fn(a[i]) for fn, i in trigs]
        shape = x.shape if x.shape == theta.shape[:-1] \
            else np.broadcast_shapes(x.shape, theta.shape[:-1])
        sums = []
        for ops in code:
            out = None
            for amp, factors, lj in ops:
                val = amp
                for i, w in factors:
                    f = vals[i] if w is None else w * vals[i]
                    val = f if val is None else val * f
                if lj is not None:
                    val = val * lj
                if out is not None:
                    out = out + val
                elif getattr(val, "shape", None) == shape:
                    out = 0.0 + val
                else:
                    out = np.zeros(shape) + val
            sums.append(np.zeros(shape) if out is None else out)
        return sums


def _stack(parts: list, axis: int):
    """np.stack(parts, axis) for axis -1 or -2; a single part gets a new axis, not a copy."""
    if len(parts) > 1:
        return np.stack(parts, axis=axis)
    return parts[0][(Ellipsis, None) + (slice(None),) * (-1 - axis)]


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
        self._plan = _Plan(d, self.f_terms, self.omega_terms)

    # -- fast map ----------------------------------------------------------

    def f_lift(self, x, theta):
        """Lift of the fast map to the real line (degree * x + periodic part)."""
        return self.degree * np.asarray(x, dtype=float) + self._plan.run("f_lift", x, theta)[0]

    def f(self, x, theta):
        return torus(self.f_lift(x, theta))

    def f_omega(self, x, theta):
        """``(f(x, theta), omega(x, theta))`` from one run of the plan.

        Its program lists each trig array of f and omega once, so a factor
        they share (CPL's sin(2 pi theta)) and sin and cos of one harmonic's
        argument are computed once per call.
        """
        s, *comps = self._plan.run("f_omega", x, theta)
        return torus(self.degree * np.asarray(x, dtype=float) + s), _stack(comps, -1)

    def df_dx(self, x, theta):
        return self.degree + self._plan.run("df_dx", x, theta)[0]

    def df_dtheta(self, x, theta):
        return _stack(self._plan.run("df_dtheta", x, theta), -1)

    # -- slow drift ----------------------------------------------------------

    def omega(self, x, theta):
        return _stack(self._plan.run("omega", x, theta), -1)

    def domega_dx(self, x, theta):
        return _stack(self._plan.run("domega_dx", x, theta), -1)

    def domega_dtheta(self, x, theta):
        """Entry (..., i, j) = d omega_i / d theta_j."""
        sums, d = self._plan.run("domega_dtheta", x, theta), self.d
        return _stack([_stack(sums[i * d:(i + 1) * d], -1) for i in range(d)], -2)

    def frozen_map(self, theta):
        """x -> f_lift(x, theta); theta stays (d,), so its trig factors are evaluated once."""
        theta = np.asarray(theta, dtype=float)
        return lambda x: self.f_lift(x, theta)

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


def invert_monotone(F, dF, lo, hi, target, x) -> np.ndarray:
    """Solve F(x) = target elementwise for an increasing F with F(lo) <= target <= F(hi).

    Safeguarded Newton from the caller's start x in [lo, hi]: each pass moves
    one end of every bracket to the iterate by the sign of F - target, then
    steps. A step leaving the bracket is clipped to the end it overshoots
    (landing on a root there, as at pair ends); a second overshoot in a row
    bisects. Passes stop once every step is within 4 ulp of the larger end of
    its first bracket (not of the iterate, whose ulp vanishes at a root at 0),
    or after 64 passes. Callers check the residual at their own tolerance.
    """
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
