"""Acceptance suite: one table of criteria, their checks, and a shared workspace.

CRITERIA maps each criterion id to its title, runtime cap, the fixtures it
checks and its check, a function criterion_N(ws) returning (passed, details).
run_criterion times one check and fails it past its cap; run_all and the
CLI's verify-all read the ids, and the criteria of one fixture, from the table.

Each check pins its sizes and tolerances here; nothing is deferred to later
calibration. Of the config only the seed reaches a verdict: the frozen
solves run at diffusion.ULAM_N cells and every ensemble and covariance on
the OUT_TIMES grid, whatever the config says. Expensive artifacts (drift
caches, averaged solves, ensembles) are shared through the Workspace so the
whole suite stays within its runtime budget on a desktop machine; the last
criterion to read an ensemble releases it.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig, configured_system
from .diffusion import ULAM_N, diffusion_matrix
from .experiments import (
    Ensemble,
    averaging_error,
    clt_test,
    cylinder_weight,
    default_out_times,
    martingale_residual,
    moment_scaling,
    run_ensemble,
    observable_library,
)
from .limits import AveragedTrajectory, CovarianceTrajectory, covariance_evolve, solve_averaged
from .orbits import step
from .shadowing import shadow_diagnostic
from .srb_cache import SRBCache
from .standard_pairs import (
    as_family,
    constant_pair,
    default_constants,
    integrate,
    pushforward_decompose,
    random_admissible_pair,
)
from .systems import FastSlowSystem, fixture
from .ulam import srb_density, ulam_operator

OUT_TIMES = 33          # output grid the statistical bands were calibrated on


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    runtime_s: float
    runtime_cap_s: float
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} [{self.cid:2d}] {self.title} ({self.runtime_s:.1f}s / cap {self.runtime_cap_s:.0f}s)"

    def to_dict(self) -> dict:
        return {
            "id": self.cid, "title": self.title, "passed": bool(self.passed),
            "runtime_s": round(self.runtime_s, 3),
            "runtime_cap_s": self.runtime_cap_s, "details": self.details,
        }


@dataclass
class Workspace:
    """Lazily built shared artifacts for the acceptance suite and the CLI.

    Systems, drift caches, averaged and covariance solves and ensembles share
    one memo, keyed on the artifact's kind and arguments; theta0 is a sequence
    of length d and keys as its tuple. Ensembles run on config.threads threads
    unless a call names another count. A call with release=True comes from
    the ensemble's last reader in CRITERIA order: the workspace hands the
    ensemble over and keeps no reference to it.
    """

    config: ExperimentConfig = field(default_factory=lambda: ExperimentConfig(fixture="CPL"))
    _memo: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    def _get(self, key: tuple, make, release: bool = False):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo.pop(key) if release else self._memo[key]

    def system(self, name: Optional[str] = None) -> FastSlowSystem:
        """A fixture by name; with no name, the configured system, fixture or inline."""
        return self._get(("system", name), lambda: fixture(name) if name is not None
                         else configured_system(self.config))

    def cache(self, name: Optional[str] = None) -> SRBCache:
        return self._get(("cache", name), lambda: SRBCache(self.system(name)))

    def averaged(self, name: Optional[str], theta0: Sequence[float] = (0.25,),
                 T: float = 1.0) -> AveragedTrajectory:
        return self._get(("averaged", name, tuple(theta0), T), lambda: solve_averaged(
            self.cache(name).omega_bar, list(theta0), T))

    def covariance(self, name: Optional[str], theta0: Sequence[float] = (0.25,),
                   T: float = 1.0) -> CovarianceTrajectory:
        return self._get(("covariance", name, tuple(theta0), T), lambda: covariance_evolve(
            self.averaged(name, theta0, T), self.cache(name).sigma2,
            self.cache(name).d_omega_bar, T,
            out_times=default_out_times(T, self.config.out_times)))

    def ensemble(self, name: Optional[str], eps: float, n: int,
                 theta0: Sequence[float] = (0.25,), T: float = 1.0,
                 threads: Optional[int] = None, release: bool = False) -> Ensemble:
        threads = threads or self.config.threads
        key = ("ensemble", name, eps, n, tuple(theta0), T, threads)
        return self._get(key, lambda: run_ensemble(
            self.system(name), constant_pair(list(theta0), 0.2, 0.3, eps), eps, n, T,
            default_out_times(T, self.config.out_times), self.seed,
            self.averaged(name, theta0, T), threads=threads), release)


# -- criteria -----------------------------------------------------------------------


def criterion_1(ws: Workspace) -> tuple[bool, dict]:
    """Uniform density is the exact fixed point for the affine fixture."""
    op = ulam_operator(ws.system("LIN"), [0.0], 300)
    dens = srb_density(op)
    sup = float(np.abs(dens.rho - 1.0).max())
    return sup <= 1e-10, {"sup_error": sup, "iterations": dens.iterations}


def criterion_2(ws: Workspace) -> tuple[bool, dict]:
    """Summed-autocovariance diffusion equals the analytic value 1/2."""
    ctx = diffusion_matrix(ws.system("LIN"), [0.0], ULAM_N, with_jacobian=False)
    val = float(ctx.sigma2[0, 0])
    return abs(val - 0.5) <= 1e-3 and not ctx.coboundary, \
        {"sigma2": val, "M": ctx.M, "tail": ctx.tail_estimate, "coboundary": ctx.coboundary}


def criterion_3(ws: Workspace) -> tuple[bool, dict]:
    """Coboundary drift has degenerate diffusion and is flagged."""
    ctx = diffusion_matrix(ws.system("CBD"), [0.0], ULAM_N, with_jacobian=False)
    val = float(ctx.sigma2[0, 0])
    return val <= 1e-3 and ctx.coboundary, {"sigma2": val, "coboundary": ctx.coboundary}


def criterion_4(ws: Workspace) -> tuple[bool, dict]:
    """Slow paths concentrate on the averaged trajectory at rate ~ sqrt(eps)."""
    eps_list = [4e-3, 1e-3, 2.5e-4]
    ensembles = [ws.ensemble("CPL", e, 2000, release=True) for e in eps_list]
    rep = averaging_error(ensembles, ws.averaged("CPL"))
    slope = rep.data["fitted_exponent"]
    ok = rep.data["monotone_decreasing"] and 0.35 <= slope <= 0.65
    return ok, rep.to_dict()


def criterion_5(ws: Workspace) -> tuple[bool, dict]:
    """Gaussian fluctuation marginals for the affine fixture."""
    ens = ws.ensemble("LIN", 1e-3, 10_000, theta0=[0.3])
    cov = ws.covariance("LIN", theta0=[0.3])
    rep = clt_test(ens, cov)
    row = rep.data["times"][-1]
    var = row["cov"][0][0]
    skew = abs(row["skew"][0])
    kurt = abs(row["excess_kurtosis"][0])
    ok = abs(var - 0.5) <= 0.05 * 0.5 and skew <= 0.08 and kurt <= 0.15
    return ok, {"var": var, "skew": row["skew"][0],
                "excess_kurtosis": row["excess_kurtosis"][0],
                "mean_consistent": rep.data["mean_consistent"],
                "charfn_consistent": rep.data["charfn_consistent"],
                "provider": ws.cache("LIN").stats()}


def criterion_6(ws: Workspace) -> tuple[bool, dict]:
    """Fluctuation covariance with drift coupling matches the Lyapunov law."""
    ens = ws.ensemble("CPL", 1e-3, 10_000)
    cov = ws.covariance("CPL")
    rep = clt_test(ens, cov)
    row = rep.data["times"][-1]
    ok = row["cov_rel_err"] <= 0.10
    return ok, {"cov_rel_err": row["cov_rel_err"], "cov": row["cov"],
                "sigma_limit": row["sigma_limit"], "route_cross_check": cov.cross_check,
                "provider": ws.cache("CPL").stats()}


def criterion_7(ws: Workspace) -> tuple[bool, dict]:
    """Kolmogorov-criterion moment scaling of path increments."""
    ens = ws.ensemble("LIN", 1e-3, 10_000, theta0=[0.3])
    rep = moment_scaling(ens)
    rows = [r for r in rep.data["rows"] if r["gap"] >= 16 * ens.eps]
    lo = min(r["m2_over_gap"] for r in rows)
    hi = max(r["m2_over_gap"] for r in rows)
    ok = 0.4 <= lo and hi <= 0.6 and rep.data["m4_exponent"] >= 1.8
    return ok, {"m2_ratio_range": [lo, hi], "m4_exponent": rep.data["m4_exponent"]}


def criterion_8(ws: Workspace) -> tuple[bool, dict]:
    """Pushforward of a standard family is again standard and measure-exact."""
    eps = 1e-3
    rng = np.random.default_rng(ws.seed)
    gs = [
        lambda x, th: np.ones_like(x),
        lambda x, th: np.cos(2 * np.pi * x),
        lambda x, th: np.sin(2 * np.pi * th[..., 0]),
        lambda x, th: np.cos(2 * np.pi * x) * np.sin(2 * np.pi * th[..., 0]) + 0.2 * np.sin(2 * np.pi * x),
        lambda x, th: np.sin(4 * np.pi * x) + np.cos(4 * np.pi * th[..., 0]),
    ]
    worst = 0.0
    for trial in range(25):
        name = "LIN" if trial % 2 == 0 else "CPL"
        system = ws.system(name)
        consts = default_constants(system)
        pair = random_admissible_pair(system, eps, consts, rng)
        family = as_family(pair, consts)
        family.validate()
        out = pushforward_decompose(family, system)
        out.validate()
        for g in gs:
            pulled = integrate(pair, lambda x, th: g(*step(system, eps, x, th)[:2]), refine=8)
            worst = max(worst, abs(integrate(out, g) - pulled))
    return worst <= 1e-7, {"worst_abs_error": worst, "pairs": 25, "functions": len(gs)}


def criterion_9(ws: Workspace) -> tuple[bool, dict]:
    """Shadowing: exact endpoint anchoring, stable error constant, pullback derivative."""
    system = ws.system("CPL")
    rng = np.random.default_rng(ws.seed + 9)
    details = {}
    consts = []
    ok = True
    for eps in (1e-4, 5e-5):
        _, s = shadow_diagnostic(system, eps, rng, 100)
        ok = ok and s["max_defect"] <= 1e-12 and s["max_log_y_prime"] <= s["y_prime_bound"]
        consts.append(s["shadow_constant"])
        details[f"eps={eps:g}"] = s
    ratio = max(consts) / min(consts)
    ok = ok and ratio <= 2.0
    details["constant_ratio_across_halving"] = ratio
    return ok, details


def criterion_10(ws: Workspace) -> tuple[bool, dict]:
    """Conditioned martingale residuals vanish within noise plus slack."""
    ens = ws.ensemble("CPL", 1e-3, 10_000, release=True)    # criterion 6 read it first
    cov = ws.covariance("CPL")
    funcs = [f for f in observable_library(1) if f.name in ("z0", "z0z0", "bump2", "cos<l,z>|l|=1")]
    c1 = float(cov.avg.at(0.25)[0])
    c2 = float(cov.avg.at(0.375)[0])
    conditionings = [
        [],
        [(0.25, cylinder_weight("bump", [c1], 0.3))],
        [(0.25, cylinder_weight("bump", [c1], 0.3)),
         (0.375, cylinder_weight("coswave", [c2]))],
    ]
    rows = []
    ok = True
    for ci, conditioning in enumerate(conditionings):
        for A in funcs:
            rep = martingale_residual(ens, A, conditioning, 0.5, 1.0, cov)
            ok = ok and rep.passed
            rows.append({"conditioning": ci, "A": A.name, **rep.data, "passed": rep.passed})
    return ok, {"rows": rows, "n_functions": len(funcs)}


def criterion_11(ws: Workspace) -> tuple[bool, dict]:
    """Thread count does not change report bytes."""
    reports = {}
    # 10 000 trajectories make one slice per thread, so every pool thread works;
    # criteria 5 and 7 read the ensemble at config.threads first
    for threads in (1, 2, 4):
        ens = ws.ensemble("LIN", 1e-3, 10_000, theta0=[0.3], threads=threads, release=True)
        cov = ws.covariance("LIN", theta0=[0.3])
        blob = clt_test(ens, cov).to_json() + moment_scaling(ens).to_json()
        reports[threads] = blob
    identical = reports[1] == reports[2] == reports[4]
    return identical, {"bytes": len(reports[1].encode()), "identical": identical}


def criterion_12(ws: Workspace) -> tuple[bool, dict]:
    """Supplementary: coboundary drift yields degenerate path fluctuations."""
    ens = ws.ensemble("CBD", 1e-3, 2000, theta0=[0.3], release=True)
    var = float(ens.zeta[:, -1, 0].var(ddof=1))
    ctx = diffusion_matrix(ws.system("CBD"), [0.3], ULAM_N, with_jacobian=False)
    ok = var <= 1e-2 and ctx.coboundary
    return ok, {"var_zeta_T": var, "coboundary_flag": bool(ctx.coboundary)}


# id -> (title, runtime cap in seconds, fixtures it checks, check); a criterion
# fails if its check fails or it overruns its cap. run_all keeps this order.
CRITERIA = {
    1: ("invariant density exactness (LIN, N=300)", 1.0, ("LIN",), criterion_1),
    2: ("diffusion coefficient analytic value (LIN)", 5.0, ("LIN",), criterion_2),
    3: ("coboundary degeneracy (CBD)", 5.0, ("CBD",), criterion_3),
    4: ("averaging over a decreasing eps ladder (CPL)", 300.0, ("CPL",), criterion_4),
    5: ("fluctuation variance / shape (LIN)", 300.0, ("LIN",), criterion_5),
    6: ("fluctuation covariance with drift coupling (CPL)", 600.0, ("CPL",), criterion_6),
    7: ("increment moment bounds (LIN)", 300.0, ("LIN",), criterion_7),
    8: ("standard-pair pushforward identity", 120.0, ("LIN", "CPL"), criterion_8),
    9: ("shadowing error and pullback derivative (CPL)", 120.0, ("CPL",), criterion_9),
    10: ("conditioned martingale residuals (CPL)", 600.0, ("CPL",), criterion_10),
    11: ("bit-identical reports across thread counts", 120.0, ("LIN",), criterion_11),
    12: ("degenerate fluctuations for coboundary drift (CBD)", 120.0, ("CBD",), criterion_12),
}


def run_criterion(cid: int, ws: Workspace) -> CriterionResult:
    """Time one criterion's check and hold it to the criterion's cap."""
    title, cap, _, check = CRITERIA[cid]
    t0 = time.time()
    passed, details = check(ws)
    dt = time.time() - t0
    return CriterionResult(cid, title, bool(passed) and dt <= cap, dt, cap, details)


def run_all(ws: Optional[Workspace] = None, ids: Optional[list[int]] = None,
            echo=print) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default) in CRITERIA order,
    printing one line each.

    A workspace whose config sets another output grid is replaced by one on
    OUT_TIMES, so out_times cannot change a verdict.
    """
    ws = ws or Workspace()
    if ws.config.out_times != OUT_TIMES:
        ws = Workspace(config=replace(ws.config, out_times=OUT_TIMES))
    results = []
    for cid in CRITERIA:
        if ids is None or cid in ids:
            results.append(run_criterion(cid, ws))
            echo(results[-1].line())
    return results


def results_to_json(results: list[CriterionResult]) -> str:
    return json.dumps({"criteria": [r.to_dict() for r in results],
                       "all_passed": all(r.passed for r in results)},
                      sort_keys=True, indent=1, allow_nan=False)
