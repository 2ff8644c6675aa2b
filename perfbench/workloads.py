"""Workload process of the benchmark: set up, run timed rounds, check outputs.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

run.py starts this script with PYTHONPATH at the checkout's src/ and BLAS
fixed at one thread. It prints "ready" as soon as fastslow is imported and
the workload's fixtures are built; that is where setup_s ends. It then
computes the reference values (untimed), runs whole rounds of the workload
until S seconds have passed, checks every round against the reference and
prints one JSON object as its last line.

A round is a fixed list of program calls (operations). Only the time spent
inside them counts towards wall_s; the checks that read their outputs run in
between, off the clock and outside any trace. An operation that raises
fails, and so does every later operation of its round.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fastslow import diffusion, experiments, limits, srb_cache, standard_pairs, systems
from fastslow.exceptions import PairInvariantError

import reference
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

# path_cpl: the averaged path and its covariance from a cold provider.
PATH_THETA0 = 0.25
PATH_T = 1.0
PATH_N = 512          # Ulam cells; a cold fill at the CLI's 4096 takes ~40 s
PATH_THETA_TOL = 1e-6     # relative gap of theta_bar(T) to the reference
PATH_SIGMA_TOL = 1e-4     # relative gap of Sigma(T) to the reference

# sweep_theta: one-off diffusion_matrix queries at scattered theta.
SWEEP_N = 4096
SWEEP_COUNTS = {"CPL": 16, "LIN": 2, "CBD": 2}
SWEEP_TOL = {"omega_bar": 1e-6, "D_omega_bar": 1e-4, "sigma2": 1e-4}  # of sup |ref|
LIN_SIGMA2_TOL = 1e-3
ZERO_TOL = 1e-12          # LIN omega_bar and D omega_bar vanish exactly
CBD_SIGMA2_MAX = 1e-3

# ensemble_cpl: a seeded CPL ensemble and its statistical reports.
ENS_EPS = 1e-3
ENS_T = 1.0
ENS_THETA0 = 0.25
ENS_TRAJ = 16_384         # four chunks of experiments.CHUNK, so both threads work
ENS_THREADS = 2
ENS_VAR_TOL = 0.10        # criterion 6: |Var zeta(T) - Sigma(T)| <= 0.1 Sigma(T)

# decompose_cpl: iterated pushforward of one standard pair.
DEC_THETA0 = 0.3
DEC_A, DEC_B = 0.2, 0.3
DEC_EPS = 1e-3
DEC_STEPS = 6
DEC_DEFECT_MAX = 1e-9
DEC_WEIGHT_TOL = 1e-12
DEC_INTEGRAL_TOL = 1e-7


class Round:
    """Times the program calls of one round and traces only those."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_s = 0.0
        self.done = 0

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.op_s += time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        self.done += 1
        return result


def rel_gap(value: float, ref: float, scale: float) -> float:
    return abs(value - ref) / scale


# -- path_cpl ----------------------------------------------------------------------

def check_path(out: dict, exp: dict) -> list[str]:
    problems = []
    for key, tol in (("theta_bar", PATH_THETA_TOL), ("Sigma", PATH_SIGMA_TOL)):
        gap = rel_gap(out[key], exp[key], abs(exp[key]))
        if not gap <= tol:
            problems.append(f"{key}(T) = {out[key]!r}, reference {exp[key]!r}: "
                            f"relative gap {gap:.3g} > {tol:g}")
    return problems


class PathCPL:
    ops = 3

    def __init__(self, seed: int):
        # The path is deterministic; the seed does not enter it.
        self.system = systems.fixture("CPL")
        self.fixtures = [self.system]

    def prepare(self) -> dict:
        _, theta, sigma = reference.path(reference.Reference("CPL"), PATH_THETA0, PATH_T)
        return {"theta_bar": float(theta[-1]), "Sigma": float(sigma[-1])}

    def round(self, rnd: Round) -> dict:
        cache = rnd.call(srb_cache.SRBCache, self.system, N=PATH_N)
        avg = rnd.call(limits.solve_averaged, cache.omega_bar, [PATH_THETA0], PATH_T)
        cov = rnd.call(limits.covariance_evolve, avg, cache.sigma2, cache.d_omega_bar, PATH_T)
        return {"theta_bar": float(avg.at(PATH_T)[0]),
                "Sigma": float(cov.Sigma_at(PATH_T)[0, 0]),
                "srb_cache.nodes": cache.stats()["nodes"]}

    check = staticmethod(check_path)


# -- sweep_theta ----------------------------------------------------------------------

def check_sweep(out: dict, exp: dict) -> list[str]:
    problems = []
    for row, ref in zip(out["CPL"], exp["CPL"]):
        for key, tol in SWEEP_TOL.items():
            gap = rel_gap(row[key], ref[key], exp["sup"][key])
            if not gap <= tol:
                problems.append(f"CPL theta={row['theta']!r}: {key} = {row[key]!r}, reference "
                                f"{ref[key]!r}: gap {gap:.3g} of sup > {tol:g}")
    for row in out["LIN"]:
        if not abs(row["sigma2"] - 0.5) <= LIN_SIGMA2_TOL:
            problems.append(f"LIN theta={row['theta']!r}: sigma2 = {row['sigma2']!r} != 1/2")
        for key in ("omega_bar", "D_omega_bar"):
            if not abs(row[key]) <= ZERO_TOL:
                problems.append(f"LIN theta={row['theta']!r}: {key} = {row[key]!r} != 0")
    for row in out["CBD"]:
        if not row["sigma2"] <= CBD_SIGMA2_MAX:
            problems.append(f"CBD theta={row['theta']!r}: sigma2 = {row['sigma2']!r} > {CBD_SIGMA2_MAX:g}")
        if not row["coboundary"]:
            problems.append(f"CBD theta={row['theta']!r}: coboundary flag not set")
    return problems


class SweepTheta:
    ops = sum(SWEEP_COUNTS.values())

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.systems = {name: systems.fixture(name) for name in SWEEP_COUNTS}
        self.fixtures = list(self.systems.values())
        self.thetas = {name: rng.random(n) for name, n in SWEEP_COUNTS.items()}

    def prepare(self) -> dict:
        ref = reference.Reference("CPL")
        grid = np.linspace(0.0, 1.0, 1001)
        th = self.thetas["CPL"]
        return {
            "CPL": [{"omega_bar": float(w), "D_omega_bar": float(dw), "sigma2": float(s)}
                    for w, dw, s in zip(ref.omega_bar(th), ref.d_omega_bar(th)[:, 0],
                                        ref.sigma2(th)[:, 0])],
            "sup": {"omega_bar": float(np.abs(ref.omega_bar(grid)).max()),
                    "D_omega_bar": float(np.abs(ref.d_omega_bar(grid)).max()),
                    "sigma2": float(np.abs(ref.sigma2(grid)).max())},
        }

    def round(self, rnd: Round) -> dict:
        out = {}
        for name, thetas in self.thetas.items():
            rows = []
            for th in thetas:
                ctx = rnd.call(diffusion.diffusion_matrix, self.systems[name], [th], SWEEP_N)
                rows.append({"theta": float(th), "omega_bar": float(ctx.omega_bar[0]),
                             "D_omega_bar": float(ctx.D_omega_bar[0, 0]),
                             "sigma2": float(ctx.sigma2[0, 0]),
                             "coboundary": bool(ctx.coboundary)})
            out[name] = rows
        return out

    check = staticmethod(check_sweep)


# -- ensemble_cpl ------------------------------------------------------------------

def check_ensemble(out: dict, exp: dict) -> list[str]:
    problems = []
    gap = rel_gap(out["var_T"], exp["Sigma"], exp["Sigma"])
    if not gap <= ENS_VAR_TOL:
        problems.append(f"Var zeta(T) = {out['var_T']!r}, reference Sigma(T) = "
                        f"{exp['Sigma']!r}: relative gap {gap:.3g} > {ENS_VAR_TOL:g}")
    for key in ("mean_consistent", "charfn_consistent"):
        if not out[key]:
            problems.append(f"clt_test: {key} is false")
    for name, passed in out["martingale"]:
        if not passed:
            problems.append(f"martingale residual {name} fails its band")
    return problems


class EnsembleCPL:
    ops = 2 + 12

    def __init__(self, seed: int):
        self.system = systems.fixture("CPL")
        self.fixtures = [self.system]
        self.pair = standard_pairs.constant_pair([ENS_THETA0], 0.2, 0.3, ENS_EPS)
        self.out_times = experiments.default_out_times(ENS_T)
        # A hashed root seed: fastslow keys stream k with root_seed ^ k, so
        # small root seeds would all draw the same set of initial points.
        self.root_seed = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])

    def prepare(self) -> dict:
        ref = reference.Reference("CPL")
        self.avg = limits.solve_averaged(ref.omega_bar, [ENS_THETA0], ENS_T)
        self.cov = limits.covariance_evolve(self.avg, ref.sigma2, ref.d_omega_bar, ENS_T,
                                            out_times=self.out_times)
        c1 = float(self.avg.at(0.25)[0])
        c2 = float(self.avg.at(0.375)[0])
        bump = experiments.cylinder_weight("bump", [c1], 0.3)
        self.conditionings = [[], [(0.25, bump)],
                              [(0.25, bump), (0.375, experiments.cylinder_weight("coswave", [c2]))]]
        self.functions = [f for f in experiments.observable_library(1)
                          if f.name in ("z0", "z0z0", "bump2", "cos<l,z>|l|=1")]
        _, _, sigma = reference.path(ref, ENS_THETA0, ENS_T)
        return {"Sigma": float(sigma[-1])}

    def round(self, rnd: Round) -> dict:
        ens = rnd.call(experiments.run_ensemble, self.system, self.pair, ENS_EPS, ENS_TRAJ,
                       ENS_T, self.out_times, self.root_seed, self.avg, threads=ENS_THREADS)
        clt = rnd.call(experiments.clt_test, ens, self.cov)
        martingale = []
        for ci, conditioning in enumerate(self.conditionings):
            for A in self.functions:
                rep = rnd.call(experiments.martingale_residual, ens, A, conditioning,
                               0.5, 1.0, self.cov)
                martingale.append((f"{A.name}|conditioning {ci}", bool(rep.passed)))
        return {"var_T": float(np.var(ens.zeta[:, -1, 0], ddof=1)),
                "mean_consistent": bool(clt.data["mean_consistent"]),
                "charfn_consistent": bool(clt.data["charfn_consistent"]),
                "martingale": martingale}

    check = staticmethod(check_ensemble)


# -- decompose_cpl -----------------------------------------------------------------

def probe_functions(seed: int):
    """Three smooth functions on the torus, with phases drawn from the seed."""
    p = np.random.default_rng(seed).random(4)
    return [
        lambda x, th: np.cos(2 * np.pi * (x + p[0])),
        lambda x, th: np.sin(2 * np.pi * (th + p[1])),
        lambda x, th: np.cos(2 * np.pi * (x + p[2])) * np.sin(2 * np.pi * (th + p[3])),
    ]


def family_integrals(family: dict, funcs) -> list[float]:
    """Simpson rule on every pair's grid, from the fastslow-family/1 record."""
    pairs = family["pairs"]
    a = np.array([p["a"] for p in pairs])
    b = np.array([p["b"] for p in pairs])
    G = np.array([p["G"] for p in pairs])[..., 0]
    rho = np.array([p["rho"] for p in pairs])
    nu = np.array([p["nu"] for p in pairs])
    n = G.shape[1] - 1
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    x = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, n + 1)
    wx = w[None, :] * ((b - a) / (3.0 * n))[:, None]
    return [float(nu @ np.sum(wx * g(np.mod(x, 1.0), np.mod(G, 1.0)) * rho, axis=1))
            for g in funcs]


def direct_integrals(funcs, steps: int, panels: int = 4096, order: int = 8) -> np.ndarray:
    """int g o F^k over the initial pair for k = 1..steps, F iterated directly.

    The initial pair is the flat curve theta = DEC_THETA0 over [DEC_A, DEC_B]
    with the uniform density; composite Gauss-Legendre resolves the
    oscillations of g o F^k, whose frequency grows like 3^k.
    """
    f, omega = reference.FIXTURES["CPL"]
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = (DEC_B - DEC_A) / panels
    left = DEC_A + h * np.arange(panels)
    x = (left[:, None] + 0.5 * h * (nodes + 1.0)).ravel()
    w = np.tile(0.5 * h * weights, panels) / (DEC_B - DEC_A)
    th = np.full_like(x, DEC_THETA0)
    out = []
    for _ in range(steps):
        x, th = np.mod(f(x, th), 1.0), th + DEC_EPS * omega(x, th)
        out.append([float(w @ g(x, np.mod(th, 1.0))) for g in funcs])
    return np.array(out)


def check_decompose(out: dict, exp: dict) -> list[str]:
    problems = []
    for k, (step, ref) in enumerate(zip(out["steps"], exp["integrals"]), start=1):
        if not step["mass_defect"] <= DEC_DEFECT_MAX:
            problems.append(f"step {k}: mass defect {step['mass_defect']:.3g} > {DEC_DEFECT_MAX:g}")
        if not abs(step["weight_sum"] - 1.0) <= DEC_WEIGHT_TOL:
            problems.append(f"step {k}: weights sum to {step['weight_sum']!r}")
        if step["invalid"]:
            problems.append(f"step {k}: validate() failed: {step['invalid']}")
        for i, (value, r) in enumerate(zip(step["integrals"], ref)):
            if not abs(value - r) <= DEC_INTEGRAL_TOL:
                problems.append(f"step {k}: integral of g{i} = {value!r}, direct "
                                f"iteration {r!r}: gap {abs(value - r):.3g} > {DEC_INTEGRAL_TOL:g}")
    return problems


class DecomposeCPL:
    ops = 1 + DEC_STEPS

    def __init__(self, seed: int):
        self.system = systems.fixture("CPL")
        self.fixtures = [self.system]
        self.constants = standard_pairs.default_constants(self.system)
        self.pair = standard_pairs.constant_pair([DEC_THETA0], DEC_A, DEC_B, DEC_EPS)
        self.funcs = probe_functions(seed)

    def prepare(self) -> dict:
        return {"integrals": direct_integrals(self.funcs, DEC_STEPS).tolist()}

    def round(self, rnd: Round) -> dict:
        family = rnd.call(standard_pairs.as_family, self.pair, self.constants)
        steps = []
        for _ in range(DEC_STEPS):
            family = rnd.call(standard_pairs.pushforward_decompose, family, self.system)
            try:
                family.validate()
                invalid = ""
            except PairInvariantError as exc:
                invalid = str(exc)
            steps.append({"pairs": len(family.pairs), "mass_defect": float(family.mass_defect),
                          "weight_sum": float(family.weights.sum()), "invalid": invalid,
                          "integrals": family_integrals(family.to_dict(), self.funcs)})
        return {"steps": steps}

    check = staticmethod(check_decompose)


WORKLOADS = {
    "path_cpl": PathCPL,
    "sweep_theta": SweepTheta,
    "ensemble_cpl": EnsembleCPL,
    "decompose_cpl": DecomposeCPL,
}


# -- rounds and entry point ---------------------------------------------------------

def run_rounds(work, seconds: float, traced: bool):
    """Whole rounds until `seconds` have passed.

    With tracing, untraced and traced rounds alternate, starting untraced,
    so the overhead is measured against rounds of the same process.
    """
    records = []
    start = time.perf_counter()
    while True:
        tracer = None
        if traced and len(records) % 2 == 1:
            tracer = tracing.Tracer()
            tracer.install(work.fixtures)
        rnd = Round(tracer)
        out, error = None, None
        try:
            out = work.round(rnd)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        records.append({"wall_s": rnd.op_s, "out": out, "error": error,
                        "failed": work.ops - rnd.done, "tracer": tracer})
        if time.perf_counter() - start >= seconds and (not traced or len(records) >= 2):
            return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    expected = work.prepare()
    records = run_rounds(work, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for i, rec in enumerate(records):
        if rec["out"] is not None:
            problems += [f"round {i}: {p}" for p in work.check(rec["out"], expected)]
        elif rec["failed"] == 0:
            problems.append(f"round {i}: outputs could not be read: {rec['error']}")
    for p in problems:
        print(f"CHECK FAILED {args.workload}: {p}", file=sys.stderr)
    walls = [rec["wall_s"] for rec in records]
    print(f"{args.workload}: {len(records)} rounds, wall_s per round "
          + " ".join(f"{w:.3f}" for w in walls))

    result = {"correct": not problems, "attempted": work.ops * len(records),
              "failed": sum(rec["failed"] for rec in records)}
    if args.trace:
        traced = [r for r in records if r["tracer"] is not None]
        plain = [r for r in records if r["tracer"] is None]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        per_round = [tracing.layer_metrics(r["tracer"].spans,
                                         (r["out"] or {}).get("srb_cache.nodes", 0))
                     for r in traced]
        result["metrics"] = {
            name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
            for name, (unit, _) in tracing.METRICS.items()}
        path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracing.write(path, [r["tracer"] for r in traced],
                    {"workload": args.workload, "seed": args.seed, "overhead_s": overhead,
                     "traced_wall_s": [r["wall_s"] for r in traced],
                     "untraced_wall_s": [r["wall_s"] for r in plain]})
        print(f"{args.workload}: tracing overhead {overhead:.4f} s per round "
              f"(traced minus untraced wall_s); spans in {path}")
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
