"""Acceptance suite: one function per criterion, plus a shared workspace.

Each criterion pins its sizes and tolerances here; nothing is deferred to
later calibration. Of the config only the seed reaches a verdict: the frozen
solves run at diffusion.ULAM_N cells and every ensemble and covariance on
the OUT_TIMES grid, whatever the config says. Expensive artifacts (drift
caches, averaged solves, ensembles) are shared through the Workspace so the
whole suite stays within its runtime budget on a desktop machine.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .config import ExperimentConfig
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
from .shadowing import shadow_solve_batch
from .srb_cache import SRBCache
from .standard_pairs import (
    as_family,
    constant_pair,
    default_constants,
    integrate,
    pushforward_decompose,
    random_admissible_pair,
    validate_pair,
)
from .systems import FastSlowSystem, fixture, validate_system
from .ulam import srb_density, ulam_operator

SHADOW_C_SHARP = 10.0   # criterion 9: |log Y'| <= SHADOW_C_SHARP * eps * n**2
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

    theta0 is a sequence of length d; the averaged, covariance and ensemble
    caches key on its tuple.
    """

    config: ExperimentConfig = field(default_factory=lambda: ExperimentConfig(fixture="CPL"))
    threads: int = 1
    _systems: dict = field(default_factory=dict)
    _caches: dict = field(default_factory=dict)
    _avg: dict = field(default_factory=dict)
    _cov: dict = field(default_factory=dict)
    _ens: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    def system(self, name: Optional[str] = None) -> FastSlowSystem:
        """A fixture by name; with no name, the configured system, fixture or inline."""
        if name not in self._systems:
            if name is not None:
                self._systems[name] = fixture(name)
            elif self.config.fixture is not None:
                self._systems[name] = fixture(self.config.fixture)
            else:
                system = FastSlowSystem.from_dict(self.config.system)
                validate_system(system)
                self._systems[name] = system
        return self._systems[name]

    def cache(self, name: Optional[str] = None) -> SRBCache:
        if name not in self._caches:
            self._caches[name] = SRBCache(self.system(name))
        return self._caches[name]

    def averaged(self, name: Optional[str], theta0: Sequence[float] = (0.25,),
                 T: float = 1.0) -> AveragedTrajectory:
        key = (name, tuple(theta0), T)
        if key not in self._avg:
            self._avg[key] = solve_averaged(self.cache(name).omega_bar, list(theta0), T)
        return self._avg[key]

    def covariance(self, name: Optional[str], theta0: Sequence[float] = (0.25,),
                   T: float = 1.0) -> CovarianceTrajectory:
        key = (name, tuple(theta0), T)
        if key not in self._cov:
            cache = self.cache(name)
            self._cov[key] = covariance_evolve(
                self.averaged(name, theta0, T), cache.sigma2, cache.d_omega_bar, T,
                out_times=default_out_times(T, self.config.out_times),
            )
        return self._cov[key]

    def ensemble(self, name: Optional[str], eps: float, n: int,
                 theta0: Sequence[float] = (0.25,), T: float = 1.0,
                 threads: Optional[int] = None) -> Ensemble:
        key = (name, eps, n, tuple(theta0), T, threads or self.threads)
        if key not in self._ens:
            pair = constant_pair(list(theta0), 0.2, 0.3, eps)
            self._ens[key] = run_ensemble(
                self.system(name), pair, eps, n, T,
                default_out_times(T, self.config.out_times), self.seed,
                self.averaged(name, theta0, T),
                threads=threads or self.threads,
            )
        return self._ens[key]


def _result(cid, title, cap, t0, passed, details) -> CriterionResult:
    dt = time.time() - t0
    return CriterionResult(cid, title, bool(passed) and dt <= cap, dt, cap, details)


# -- criteria -----------------------------------------------------------------------


def criterion_1(ws: Workspace) -> CriterionResult:
    """Uniform density is the exact fixed point for the affine fixture."""
    t0 = time.time()
    op = ulam_operator(ws.system("LIN"), [0.0], 300)
    dens = srb_density(op)
    sup = float(np.abs(dens.rho - 1.0).max())
    return _result(1, "invariant density exactness (LIN, N=300)", 1.0, t0,
                   sup <= 1e-10, {"sup_error": sup, "iterations": dens.iterations})


def criterion_2(ws: Workspace) -> CriterionResult:
    """Summed-autocovariance diffusion equals the analytic value 1/2."""
    t0 = time.time()
    ctx = diffusion_matrix(ws.system("LIN"), [0.0], ULAM_N, with_jacobian=False)
    val = float(ctx.sigma2[0, 0])
    return _result(2, "diffusion coefficient analytic value (LIN)", 5.0, t0,
                   abs(val - 0.5) <= 1e-3 and not ctx.coboundary,
                   {"sigma2": val, "M": ctx.M, "tail": ctx.tail_estimate,
                    "coboundary": ctx.coboundary})


def criterion_3(ws: Workspace) -> CriterionResult:
    """Coboundary drift has degenerate diffusion and is flagged."""
    t0 = time.time()
    ctx = diffusion_matrix(ws.system("CBD"), [0.0], ULAM_N, with_jacobian=False)
    val = float(ctx.sigma2[0, 0])
    return _result(3, "coboundary degeneracy (CBD)", 5.0, t0,
                   val <= 1e-3 and ctx.coboundary,
                   {"sigma2": val, "coboundary": ctx.coboundary})


def criterion_4(ws: Workspace) -> CriterionResult:
    """Slow paths concentrate on the averaged trajectory at rate ~ sqrt(eps)."""
    t0 = time.time()
    eps_list = [4e-3, 1e-3, 2.5e-4]
    ensembles = [ws.ensemble("CPL", e, 2000) for e in eps_list]
    rep = averaging_error(ensembles)
    slope = rep.data["fitted_exponent"]
    ok = rep.data["monotone_decreasing"] and 0.35 <= slope <= 0.65
    return _result(4, "averaging over a decreasing eps ladder (CPL)", 300.0, t0,
                   ok, rep.to_dict())


def criterion_5(ws: Workspace) -> CriterionResult:
    """Gaussian fluctuation marginals for the affine fixture."""
    t0 = time.time()
    ens = ws.ensemble("LIN", 1e-3, 10_000, theta0=[0.3])
    cov = ws.covariance("LIN", theta0=[0.3])
    rep = clt_test(ens, cov)
    row = rep.data["times"][-1]
    var = row["cov"][0][0]
    skew = abs(row["skew"][0])
    kurt = abs(row["excess_kurtosis"][0])
    ok = abs(var - 0.5) <= 0.05 * 0.5 and skew <= 0.08 and kurt <= 0.15
    return _result(5, "fluctuation variance / shape (LIN)", 300.0, t0, ok,
                   {"var": var, "skew": row["skew"][0],
                    "excess_kurtosis": row["excess_kurtosis"][0],
                    "mean_consistent": rep.data["mean_consistent"],
                    "charfn_consistent": rep.data["charfn_consistent"],
                    "provider": ws.cache("LIN").stats()})


def criterion_6(ws: Workspace) -> CriterionResult:
    """Fluctuation covariance with drift coupling matches the Lyapunov law."""
    t0 = time.time()
    ens = ws.ensemble("CPL", 1e-3, 10_000)
    cov = ws.covariance("CPL")
    rep = clt_test(ens, cov)
    row = rep.data["times"][-1]
    ok = row["cov_rel_err"] <= 0.10
    return _result(6, "fluctuation covariance with drift coupling (CPL)", 600.0, t0,
                   ok, {"cov_rel_err": row["cov_rel_err"], "cov": row["cov"],
                        "sigma_limit": row["sigma_limit"],
                        "route_cross_check": cov.cross_check,
                        "provider": ws.cache("CPL").stats()})


def criterion_7(ws: Workspace) -> CriterionResult:
    """Kolmogorov-criterion moment scaling of path increments."""
    t0 = time.time()
    ens = ws.ensemble("LIN", 1e-3, 10_000, theta0=[0.3])
    rep = moment_scaling(ens)
    rows = [r for r in rep.data["rows"] if r["gap"] >= 16 * ens.eps]
    lo = min(r["m2_over_gap"] for r in rows)
    hi = max(r["m2_over_gap"] for r in rows)
    ok = 0.4 <= lo and hi <= 0.6 and rep.data["m4_exponent"] >= 1.8
    return _result(7, "increment moment bounds (LIN)", 300.0, t0, ok,
                   {"m2_ratio_range": [lo, hi], "m4_exponent": rep.data["m4_exponent"]})


def criterion_8(ws: Workspace) -> CriterionResult:
    """Pushforward of a standard family is again standard and measure-exact."""
    t0 = time.time()
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
        validate_pair(pair, consts)
        out = pushforward_decompose(as_family(pair, consts), system)
        out.validate()

        def g_pull(x, th, system=system):
            x1, th1, _ = step(system, eps, x, th)
            return [g(x1, th1) for g in gs]

        pulled = [integrate(pair, lambda x, th, i=i: g_pull(x, th)[i], refine=8)
                  for i in range(len(gs))]
        for i, g in enumerate(gs):
            worst = max(worst, abs(integrate(out, g) - pulled[i]))
    return _result(8, "standard-pair pushforward identity", 120.0, t0,
                   worst <= 1e-7, {"worst_abs_error": worst, "pairs": 25, "functions": len(gs)})


def criterion_9(ws: Workspace) -> CriterionResult:
    """Shadowing: exact endpoint anchoring, stable error constant, pullback derivative."""
    t0 = time.time()
    system = ws.system("CPL")
    rng = np.random.default_rng(ws.seed + 9)
    details = {}
    consts = []
    ok = True
    for eps in (1e-4, 5e-5):
        n = int(np.floor(eps ** -0.5))
        x0 = rng.random(100)
        th0 = rng.random((100, 1))
        ts = th0 + eps * (rng.random((100, 1)) - 0.5)
        sols = shadow_solve_batch(system, eps, x0, th0, ts, n)
        defect = max(s.defect for s in sols)
        c_sh = max(s.shadow_constant for s in sols)
        ylog = max(abs(s.log_y_prime) for s in sols)
        bound = SHADOW_C_SHARP * eps * n * n
        ok = ok and defect <= 1e-12 and ylog <= bound
        consts.append(c_sh)
        details[f"eps={eps:g}"] = {"n": n, "max_defect": defect,
                                   "shadow_constant": c_sh,
                                   "max_log_y_prime": ylog, "y_prime_bound": bound}
    ratio = max(consts) / min(consts)
    ok = ok and ratio <= 2.0
    details["constant_ratio_across_halving"] = ratio
    return _result(9, "shadowing error and pullback derivative (CPL)", 120.0, t0, ok, details)


def criterion_10(ws: Workspace) -> CriterionResult:
    """Conditioned martingale residuals vanish within noise plus slack."""
    t0 = time.time()
    ens = ws.ensemble("CPL", 1e-3, 10_000)
    cov = ws.covariance("CPL")
    avg = ens.avg
    funcs = [f for f in observable_library(1) if f.name in ("z0", "z0z0", "bump2", "cos<l,z>|l|=1")]
    c1 = float(avg.at(0.25)[0])
    c2 = float(avg.at(0.375)[0])
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
    return _result(10, "conditioned martingale residuals (CPL)", 600.0, t0, ok,
                   {"rows": rows, "n_functions": len(funcs)})


def criterion_11(ws: Workspace) -> CriterionResult:
    """Thread count does not change report bytes."""
    t0 = time.time()
    reports = {}
    # trajectory count spans several chunks so the pool actually engages
    for threads in (1, 2, 4):
        local = Workspace(config=ws.config, threads=threads)
        local._systems = ws._systems
        local._caches = ws._caches
        local._avg = ws._avg
        ens = local.ensemble("LIN", 1e-3, 10_000, theta0=[0.3], threads=threads)
        cov = ws.covariance("LIN", theta0=[0.3])
        blob = clt_test(ens, cov).to_json() + moment_scaling(ens).to_json()
        reports[threads] = blob
    identical = reports[1] == reports[2] == reports[4]
    return _result(11, "bit-identical reports across thread counts", 120.0, t0,
                   identical, {"bytes": len(reports[1].encode()), "identical": identical})


def criterion_12(ws: Workspace) -> CriterionResult:
    """Supplementary: coboundary drift yields degenerate path fluctuations."""
    t0 = time.time()
    ens = ws.ensemble("CBD", 1e-3, 2000, theta0=[0.3])
    var = float(ens.zeta[:, -1, 0].var(ddof=1))
    ctx = diffusion_matrix(ws.system("CBD"), [0.3], ULAM_N, with_jacobian=False)
    ok = var <= 1e-2 and ctx.coboundary
    return _result(12, "degenerate fluctuations for coboundary drift (CBD)", 120.0,
                   t0, ok, {"var_zeta_T": var, "coboundary_flag": bool(ctx.coboundary)})


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12]

# criteria meaningful when verify-all is restricted to one fixture
FIXTURE_CRITERIA = {
    "LIN": [1, 2, 5, 7, 8, 11],
    "CBD": [3, 12],
    "CPL": [4, 6, 8, 9, 10],
}


def run_all(ws: Optional[Workspace] = None, ids: Optional[list[int]] = None,
            echo=print) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default), printing one line each.

    A workspace whose config sets another output grid is replaced by one on
    OUT_TIMES, so out_times cannot change a verdict.
    """
    ws = ws or Workspace()
    if ws.config.out_times != OUT_TIMES:
        ws = Workspace(config=replace(ws.config, out_times=OUT_TIMES), threads=ws.threads)
    results = []
    for fn in CRITERIA:
        cid = int(fn.__name__.split("_")[1])
        if ids is not None and cid not in ids:
            continue
        res = fn(ws)
        results.append(res)
        echo(res.line())
    return results


def results_to_json(results: list[CriterionResult]) -> str:
    return json.dumps({"criteria": [r.to_dict() for r in results],
                       "all_passed": all(r.passed for r in results)},
                      sort_keys=True, indent=1)
