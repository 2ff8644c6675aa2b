"""Seeded ensembles and statistical verification of the limit laws.

Ensembles iterate the skew product from standard-pair initial conditions,
with one counter-based stream per trajectory, and store the lifted slow path
and the rescaled deviation from the averaged trajectory on a fixed output
grid; the reports read the limit law, a dense function on [0, T], at those
times. The arrays are stored time-major, so the values of one output time
are contiguous, and every report reads them one time slice at a time.
Reports are pure functions of stored arrays, reduced in a fixed order, so
identical configurations give byte-identical JSON no matter how many threads
ran the simulation.

Every statistical pass/fail band comes from _band.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .limits import AveragedTrajectory, CovarianceTrajectory
from .orbits import sample_paths_batch
from .rng import stream_uniforms
from .standard_pairs import StandardPair, sample_from_uniform
from .systems import FastSlowSystem, torus

CHUNK = 16_384   # most trajectories in one slice; results do not depend on the slicing
# Slack of the statistical passes (see _band). Calibrated once on the LIN
# fixture (observed finite-eps bias ~0.3*sqrt(eps) on the worst test function)
# and frozen here; it is an engineering constant, not a derived rate.
RESIDUAL_SLACK = 1.0
CHARFN_LAMBDAS = (0.5, 1.0, 1.5, 2.0, 3.0)   # frequencies of the charfn check


# -- test functions on the fluctuation space R^d -------------------------------

@dataclass(frozen=True)
class Observable:
    """Smooth observable with gradient and Hessian, vectorized over (..., d)."""

    name: str
    value: Callable
    grad: Callable
    hess: Callable


def _bump_parts(z: np.ndarray, radius: float):
    w = np.sum(z * z, axis=-1) / radius**2
    inside = w < 1.0
    ws = np.where(inside, w, 0.5)
    q = 1.0 - ws                      # powers by products: array ** 3 is libm pow
    val = np.where(inside, np.exp(-ws / q), 0.0)
    dphi = np.where(inside, -1.0 / (q * q), 0.0)
    d2phi = np.where(inside, -2.0 / (q * q * q), 0.0)
    return val, dphi, d2phi


def bump_function(radius: float, d: int) -> Observable:
    """Compactly supported mollifier exp(-w/(1-w)), w = |z|^2/R^2 < 1."""

    def value(z):
        return _bump_parts(np.asarray(z, dtype=float), radius)[0]

    def grad(z):
        z = np.asarray(z, dtype=float)
        val, dphi, _ = _bump_parts(z, radius)
        return (val * dphi)[..., None] * (2.0 * z / radius**2)

    def hess(z):
        z = np.asarray(z, dtype=float)
        val, dphi, d2phi = _bump_parts(z, radius)
        dw = 2.0 * z / radius**2
        outer = dw[..., :, None] * dw[..., None, :]
        eye = np.eye(d)
        return (val * (dphi**2 + d2phi))[..., None, None] * outer \
            + (val * dphi)[..., None, None] * (2.0 / radius**2) * eye

    return Observable(f"bump{radius:g}", value, grad, hess)


def wave_function(lam: np.ndarray, kind: str) -> Observable:
    """Real or imaginary part of exp(i <lam, z>)."""
    lam = np.asarray(lam, dtype=float)
    ll = lam[:, None] * lam[None, :]
    if kind == "cos":
        return Observable(
            f"cos<l,z>|l|={np.linalg.norm(lam):g}",
            lambda z: np.cos(z @ lam),
            lambda z: -np.sin(z @ lam)[..., None] * lam,
            lambda z: -np.cos(z @ lam)[..., None, None] * ll,
        )
    return Observable(
        f"sin<l,z>|l|={np.linalg.norm(lam):g}",
        lambda z: np.sin(z @ lam),
        lambda z: np.cos(z @ lam)[..., None] * lam,
        lambda z: -np.sin(z @ lam)[..., None, None] * ll,
    )


def observable_library(d: int) -> list[Observable]:
    """Coordinates, coordinate pairs, |z|^2, a bump, and wave parts."""
    funcs: list[Observable] = []
    eye = np.eye(d)
    for i in range(d):
        e = eye[i]
        funcs.append(Observable(
            f"z{i}", lambda z, i=i: np.asarray(z)[..., i],
            lambda z, e=e: np.broadcast_to(e, np.shape(z)).copy(),
            lambda z, d=d: np.zeros(np.shape(z)[:-1] + (d, d)),
        ))
    for i in range(d):
        for j in range(i, d):
            h = np.outer(eye[i], eye[j]) + np.outer(eye[j], eye[i])
            funcs.append(Observable(
                f"z{i}z{j}",
                lambda z, i=i, j=j: np.asarray(z)[..., i] * np.asarray(z)[..., j],
                lambda z, i=i, j=j, eye=eye: np.asarray(z)[..., j:j + 1] * eye[i]
                + np.asarray(z)[..., i:i + 1] * eye[j],
                lambda z, h=h: np.broadcast_to(h, np.shape(z)[:-1] + h.shape).copy(),
            ))
    funcs.append(Observable(
        "sqnorm", lambda z: np.sum(np.asarray(z) ** 2, axis=-1),
        lambda z: 2.0 * np.asarray(z),
        lambda z, d=d: np.broadcast_to(2.0 * np.eye(d), np.shape(z)[:-1] + (d, d)).copy(),
    ))
    funcs.append(bump_function(2.0, d))
    lam = np.full(d, 1.0)
    funcs.append(wave_function(lam, "cos"))
    funcs.append(wave_function(lam, "sin"))
    return funcs


# -- smooth cylinder weights on the slow torus ---------------------------------

def cylinder_weight(name: str, center=None, width: float = 0.2) -> Callable:
    """Named smooth weight B(theta); input is a lifted (..., d) array."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if name == "bump":
        s = np.sin(np.pi * width) ** 2

        def weight(th):
            u = np.sin(np.pi * (np.asarray(th) - center)) ** 2 / s
            w = np.sum(u, axis=-1)
            inside = w < 1.0
            ws = np.where(inside, w, 0.5)
            return np.where(inside, np.exp(-ws / (1.0 - ws)), 0.0)

        return weight
    if name == "coswave":
        def weight(th):
            return np.prod(0.5 * (1.0 + np.cos(2 * np.pi * (np.asarray(th) - center))), axis=-1)

        return weight
    raise KeyError(f"unknown cylinder weight {name!r}")


# -- ensemble -------------------------------------------------------------------

@dataclass
class Ensemble:
    """Stored slow paths and fluctuations of a seeded trajectory collection.

    From run_ensemble, theta_lift and zeta are read-only (n_traj, m, d)
    views of time-major (m, n_traj, d) arrays, so ens.zeta[:, i] is
    contiguous. The reports give the same bits for either layout.

    residuals keeps each unweighted martingale residual computed on the
    ensemble (see martingale_residual). That memory is sound because the
    arrays do not change; an Ensemble built by hand must keep them unchanged.
    """

    eps: float
    n_traj: int
    root_seed: int
    T: float
    out_times: np.ndarray        # (m,)
    theta_lift: np.ndarray       # (n_traj, m, d)
    zeta: np.ndarray             # (n_traj, m, d)
    residuals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.theta_lift.shape[2]

    def time_index(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.out_times - t)))
        if abs(self.out_times[i] - t) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"time {t} not on the output grid")
        return i


def default_out_times(T: float, m: int = 33) -> np.ndarray:
    return np.linspace(0.0, T, m)


def run_ensemble(system: FastSlowSystem, pair: StandardPair, eps: float,
                 n_traj: int, T: float, out_times, root_seed: int,
                 avg: AveragedTrajectory, threads: int = 1) -> Ensemble:
    """Simulate n_traj trajectories from the pair and record path data; avg
    only forms zeta = (theta_lift - theta_bar) / sqrt(eps). As for
    sample_paths_batch, eps must be > 0 and out_times sorted within [0, T],
    else ValueError.

    Trajectory k draws its initial point with stream root_seed XOR k. The
    deterministic iteration is vectorized over threads * ceil(n_traj /
    (threads * CHUNK)) near-equal contiguous slices of trajectories: one per
    thread up to threads * CHUNK trajectories, and never more than CHUNK in
    one slice. A trajectory's arithmetic is elementwise, so the output is
    bit-identical for every slicing and thread count.

    The lift array is allocated once, time-major as (m, n_traj, d); each
    slice writes its trajectories into a strided view of it, and zeta is one
    more array of that layout, scaled in place. The ensemble exposes both as
    read-only (n_traj, m, d) views and holds about 2 * n_traj * m * d * 8
    bytes, plus the step buffers of the slices in flight.
    """
    out_times = np.asarray(out_times, dtype=float)
    us = stream_uniforms(root_seed, n_traj)
    x0, theta0 = sample_from_uniform(pair, us)
    lifts = np.empty((out_times.shape[0], n_traj, theta0.shape[1]))
    workers = max(threads, 1)
    k = workers * -(-n_traj // (workers * CHUNK))
    cuts = [n_traj * i // k for i in range(k + 1)]
    slices = [slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]

    def work(sl: slice) -> None:
        sample_paths_batch(system, eps, x0[sl], theta0[sl], out_times, T,
                           out=lifts[:, sl].transpose(1, 0, 2))

    if workers > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, slices))    # re-raises a slice's exception
    else:
        for sl in slices:
            work(sl)

    zeta = np.subtract(lifts, avg.at(out_times)[:, None])
    zeta /= np.sqrt(eps)
    lifts.flags.writeable = False
    zeta.flags.writeable = False
    return Ensemble(eps=eps, n_traj=n_traj, root_seed=root_seed, T=T, out_times=out_times,
                    theta_lift=lifts.transpose(1, 0, 2), zeta=zeta.transpose(1, 0, 2))


# -- reports ---------------------------------------------------------------------

def _f(x):
    """JSON-safe scalar."""
    return float(x)


def _band(se: float, eps: float):
    """Pass band of a statistical check: 3 standard errors plus an explicit
    slack RESIDUAL_SLACK * sqrt(eps); the slack absorbs the finite-eps bias of
    the limit identities, whose rate the theory leaves unquantified."""
    return 3.0 * se + RESIDUAL_SLACK * np.sqrt(eps)


@dataclass
class Report:
    kind: str
    inputs: dict
    data: dict
    passed: Optional[bool] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "inputs": self.inputs, "data": self.data}
        if self.passed is not None:
            out["passed"] = bool(self.passed)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1, allow_nan=False)

    def to_text(self) -> str:
        """Aligned-column rendering for humans; JSON stays the machine format."""
        lines = [f"report: {self.kind}"]
        for key, val in sorted(self.inputs.items()):
            lines.append(f"  {key} = {val}")
        if self.passed is not None:
            lines.append(f"  passed = {self.passed}")
        for key, val in sorted(self.data.items()):
            if isinstance(val, list) and val and isinstance(val[0], dict):
                cols = list(val[0].keys())
                widths = [max(len(c), 12) for c in cols]
                lines.append("  " + "  ".join(c.rjust(w) for c, w in zip(cols, widths)))
                for row in val:
                    cells = []
                    for c, w in zip(cols, widths):
                        v = row[c]
                        cells.append((f"{v:.6g}" if isinstance(v, float) else str(v)).rjust(w))
                    lines.append("  " + "  ".join(cells))
            else:
                lines.append(f"  {key} = {val}")
        return "\n".join(lines) + "\n"


def averaging_error(ensembles: Sequence[Ensemble], avg: AveragedTrajectory) -> Report:
    """E sup_t ||Theta_eps - Theta_bar|| per eps, Theta_bar from avg, with a log-log slope fit."""
    if len(ensembles) < 3:
        raise ValueError("need at least 3 eps values for a scaling fit")
    rows = []
    for ens in sorted(ensembles, key=lambda e: -e.eps):
        theta_bar = avg.at(ens.out_times)
        # running maximum over output times: no (n, m, d) temporary
        sup = np.linalg.norm(ens.theta_lift[:, 0] - theta_bar[0], axis=1)
        for i in range(1, ens.out_times.shape[0]):
            np.maximum(sup, np.linalg.norm(ens.theta_lift[:, i] - theta_bar[i], axis=1),
                       out=sup)
        rows.append({
            "eps": _f(ens.eps),
            "mean_sup_error": _f(sup.mean()),
            "stderr": _f(sup.std(ddof=1) / np.sqrt(ens.n_traj)),
            "n": ens.n_traj,
        })
    errs = np.array([r["mean_sup_error"] for r in rows])
    epss = np.array([r["eps"] for r in rows])
    slope = float(np.polyfit(np.log(epss), np.log(errs), 1)[0])
    monotone = bool(np.all(np.diff(errs) < 0))
    return Report(
        kind="averaging_error",
        inputs={"eps": [r["eps"] for r in rows], "n": rows[0]["n"],
                "T": _f(ensembles[0].T), "seed": ensembles[0].root_seed},
        data={"rows": rows, "fitted_exponent": slope, "monotone_decreasing": monotone},
    )


def moment_scaling(ensemble: Ensemble) -> Report:
    """Second and fourth moments of increments over dyadic gaps.

    For gap T/2^j the estimate averages over all aligned disjoint increments
    and all trajectories; the standard error treats per-trajectory averages
    as the independent unit. Ratios to gap and gap^2 plus log-log exponent
    fits quantify the Kolmogorov-criterion scaling.
    """
    m = ensemble.out_times.shape[0] - 1
    levels = int(np.log2(m))
    if 2 ** levels != m:
        raise ValueError("moment scaling needs 2^j + 1 output times")
    T = ensemble.T
    n = ensemble.n_traj
    rows = []
    for j in range(levels + 1):
        z = ensemble.zeta[:, ::m // 2 ** j]     # a view of the 2^j + 1 points
        # per-trajectory means over the increments, summed one increment at a
        # time in time order; 0.0 + sq is sq exactly, as sq >= +0
        q2 = np.zeros(n)
        q4 = np.zeros(n)
        for k in range(2 ** j):
            dz = z[:, k + 1] - z[:, k]
            sq = np.sum(dz * dz, axis=1)
            q2 += sq
            q4 += sq * sq
        q2 /= 2 ** j
        q4 /= 2 ** j
        gap = T / 2 ** j
        rows.append({
            "gap": _f(gap),
            "m2": _f(q2.mean()), "m2_se": _f(q2.std(ddof=1) / np.sqrt(n)),
            "m4": _f(q4.mean()), "m4_se": _f(q4.std(ddof=1) / np.sqrt(n)),
            "m2_over_gap": _f(q2.mean() / gap),
            "m4_over_gap2": _f(q4.mean() / gap**2),
        })
    gaps = np.array([r["gap"] for r in rows])
    m2 = np.array([r["m2"] for r in rows])
    m4 = np.array([r["m4"] for r in rows])
    fit2 = float(np.polyfit(np.log(gaps), np.log(m2), 1)[0])
    fit4 = float(np.polyfit(np.log(gaps), np.log(m4), 1)[0])
    return Report(
        kind="moment_scaling",
        inputs={"eps": _f(ensemble.eps), "n": ensemble.n_traj, "T": _f(T),
                "seed": ensemble.root_seed},
        data={"rows": rows, "m2_exponent": fit2, "m4_exponent": fit4,
              "max_m2_ratio": _f(max(r["m2_over_gap"] for r in rows)),
              "min_m2_ratio": _f(min(r["m2_over_gap"] for r in rows))},
    )


def _unweighted_residual(ensemble: Ensemble, A: Observable, i_s: int, i_t: int,
                         cov: CovarianceTrajectory) -> np.ndarray:
    """A(zeta(t)) - A(zeta(s)) - int_s^t L_tau A d tau per trajectory; L_tau
    reads B and sigma2 both along the covariance law's averaged path."""
    z = ensemble.zeta
    integral = np.zeros(ensemble.n_traj)
    if i_t > i_s:
        ts = ensemble.out_times[i_s:i_t + 1]
        dts = np.diff(ts)
        # np.trapezoid's panels dt_k * (g_k + g_{k-1}) / 2.0 and its row sums,
        # built as the integrand comes so no (n, K) integrand is kept
        panels = np.empty((ensemble.n_traj, dts.shape[0]))
        for k, tt in enumerate(ts):
            B = cov.B_at(float(tt))
            s2 = np.asarray(cov.sigma2_provider(cov.avg.at(float(tt))), dtype=float)
            zi = z[:, i_s + k]
            g = np.einsum("nj,nj->n", A.grad(zi), zi @ B.T) \
                + 0.5 * np.einsum("ij,nij->n", s2, A.hess(zi))
            if k:
                panels[:, k - 1] = dts[k - 1] * (g + g_prev) / 2.0
            g_prev = g
        integral = panels.sum(axis=1)
    return A.value(z[:, i_t]) - A.value(z[:, i_s]) - integral


def martingale_residual(ensemble: Ensemble, A: Observable,
                        conditioning: Sequence[tuple], s: float, t: float,
                        cov: CovarianceTrajectory) -> Report:
    """Conditioned residual E[ prod B_i(Theta(t_i)) * (A(zeta(t)) - A(zeta(s))
    - int_s^t L_tau A d tau) ]; the martingale property makes this vanish in
    the limit, so the pass band is _band(stderr, eps).

    conditioning is a sequence of (t_i, B_i) with t_i < s and B_i a callable
    weight on the slow torus; t beyond the law's horizon raises ValueError.
    The unweighted residual, compensator included, is computed once per
    (A, s, t, cov), keyed on the identity of A and cov, and kept on the
    ensemble; each conditioning then only multiplies it by its weight.
    """
    if not (0.0 <= s <= t <= ensemble.T):
        raise ValueError("need 0 <= s <= t <= T")
    i_s, i_t = ensemble.time_index(s), ensemble.time_index(t)
    w = np.ones(ensemble.n_traj)
    for (ti, Bi) in conditioning:
        if ti >= s:
            raise ValueError("conditioning times must precede s")
        w = w * np.asarray(Bi(torus(ensemble.theta_lift[:, ensemble.time_index(ti)])))
    key = (id(A), i_s, i_t, id(cov))
    if key not in ensemble.residuals:
        # the entry holds A and cov, so their ids cannot be reused while it lives
        ensemble.residuals[key] = (A, cov, _unweighted_residual(ensemble, A, i_s, i_t, cov))
    resid = w * ensemble.residuals[key][2]
    mean = _f(resid.mean())
    se = _f(resid.std(ddof=1) / np.sqrt(ensemble.n_traj)) if ensemble.n_traj > 1 else 0.0
    thr = _band(se, ensemble.eps)
    return Report(
        kind="martingale_residual",
        inputs={"A": A.name, "s": _f(s), "t": _f(t),
                "conditioning_times": [_f(ti) for ti, _ in conditioning],
                "eps": _f(ensemble.eps), "n": ensemble.n_traj,
                "seed": ensemble.root_seed},
        data={"mean": mean, "stderr": se, "threshold": _f(thr)},
        passed=bool(abs(mean) <= thr),
    )


def clt_test(ensemble: Ensemble, cov: CovarianceTrajectory) -> Report:
    """Compare the empirical fluctuation law with the Gaussian limit.

    Per output time: mean, covariance against Sigma(t), marginal skewness and
    excess kurtosis. At the final time: characteristic function at the
    CHARFN_LAMBDAS frequencies along e_1, against the limit's
    exp(-<lam, Sigma(T) lam>/2), Sigma(T) read as the law's conditional
    covariance given zeta(0) = 0. Across the time pairs (T/4, T/2) and (T/2, T):
    cross-covariance against the flow prediction
    Cov(zeta(s), zeta(t)^T) = Sigma(s) Phi(s, t)^T. The law is read at the
    ensemble's times; one beyond the law's horizon raises ValueError.
    """
    z = ensemble.zeta
    N, m, d = z.shape
    T = ensemble.T
    times_rows = []
    for i, t in enumerate(ensemble.out_times):
        if t == 0.0:
            continue
        zi = z[:, i, :]
        mu = zi.mean(axis=0)
        sd = zi.std(axis=0, ddof=1)
        emp = np.cov(zi.T, ddof=1).reshape(d, d)
        Sig = cov.Sigma_at(float(t))
        scale = max(float(np.abs(Sig).max()), 1e-12)
        centered = zi - mu
        c2 = centered * centered
        skew = (c2 * centered).mean(axis=0) / np.maximum(sd, 1e-300) ** 3
        kurt = (c2 * c2).mean(axis=0) / np.maximum(sd, 1e-300) ** 4 - 3.0
        times_rows.append({
            "t": _f(t),
            "mean": [_f(v) for v in mu],
            "mean_se": [_f(v) for v in sd / np.sqrt(N)],
            "cov": [[_f(v) for v in row] for row in emp],
            "sigma_limit": [[_f(v) for v in row] for row in Sig],
            "cov_rel_err": _f(np.abs(emp - Sig).max() / scale),
            "skew": [_f(v) for v in skew],
            "excess_kurtosis": [_f(v) for v in kurt],
        })
    mean_ok = all(
        abs(r["mean"][j]) <= _band(r["mean_se"][j], ensemble.eps)
        for r in times_rows for j in range(d)
    )

    zT = z[:, -1, :]
    char_rows = []
    for lv in CHARFN_LAMBDAS:
        lam = np.zeros(d)
        lam[0] = lv
        phase = zT @ lam
        re, im = np.cos(phase), np.sin(phase)
        logmag = float(-0.5 * lam @ cov.conditional_covariance(0.0, float(T)) @ lam)
        char_rows.append({
            "lambda": _f(lv),
            "emp_re": _f(re.mean()), "emp_re_se": _f(re.std(ddof=1) / np.sqrt(N)),
            "emp_im": _f(im.mean()), "emp_im_se": _f(im.std(ddof=1) / np.sqrt(N)),
            "analytic_re": _f(np.exp(logmag)),
            "analytic_im": 0.0,
        })
    char_ok = all(
        abs(r["emp_re"] - r["analytic_re"]) <= _band(r["emp_re_se"], ensemble.eps)
        and abs(r["emp_im"]) <= _band(r["emp_im_se"], ensemble.eps)
        for r in char_rows
    )

    two_rows = []
    for (s, t) in ((T / 4, T / 2), (T / 2, T)):
        i_s, i_t = ensemble.time_index(s), ensemble.time_index(t)
        zs = z[:, i_s, :] - z[:, i_s, :].mean(axis=0)
        zt = z[:, i_t, :] - z[:, i_t, :].mean(axis=0)
        emp = zs.T @ zt / (N - 1)
        pred = cov.Sigma_at(float(s)) @ cov.flow(float(s), float(t)).T
        scale = max(float(np.abs(pred).max()), 1e-12)
        two_rows.append({
            "s": _f(s), "t": _f(t),
            "emp": [[_f(v) for v in row] for row in emp],
            "pred": [[_f(v) for v in row] for row in pred],
            "rel_err": _f(np.abs(emp - pred).max() / scale),
        })

    return Report(
        kind="clt",
        inputs={"eps": _f(ensemble.eps), "n": N, "T": _f(T),
                "seed": ensemble.root_seed},
        data={"times": times_rows, "charfn": char_rows, "two_time": two_rows,
              "mean_consistent": bool(mean_ok), "charfn_consistent": bool(char_ok)},
    )

