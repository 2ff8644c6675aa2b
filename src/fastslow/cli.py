"""Command-line entry point.

Every subcommand resolves its configuration (file plus flag overrides),
writes the resolved config and a run manifest next to its outputs, and exits
with a stable code: 0 success, 1 acceptance failure, 2 configuration error,
3 numerical failure.
"""
from __future__ import annotations

import json
import sys
import time
import traceback
from contextlib import suppress
from pathlib import Path
from typing import Optional

import click
import numpy as np
import scipy

from . import __version__
from .acceptance import CRITERIA, Workspace, results_to_json, run_all
from .config import ExperimentConfig, check_config, config_from_dict, configured_system, \
    load_config
from .diffusion import ULAM_N, diffusion_matrix
from .exceptions import ConfigError, FastSlowError
from .experiments import clt_test, default_out_times, moment_scaling
from .shadowing import shadow_diagnostic
from .standard_pairs import as_family, default_constants, class_margins, \
    constant_pair, pushforward_decompose
from .svgplot import line_plot

EXIT_ACCEPTANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _json(obj) -> str:
    """Strict JSON: a NaN or an infinity raises ValueError instead of being written."""
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


class Run:
    """Output directory handling plus the always-written manifest.

    cfg is None when the config could not be loaded; the manifest then has
    no config hash and no resolved_config.json is written.
    """

    def __init__(self, cfg: Optional[ExperimentConfig], out_dir: str, command: str):
        self.cfg = cfg
        self.dir = Path(out_dir) / command
        self.dir.mkdir(parents=True, exist_ok=True)
        self.t0 = time.time()
        if cfg is not None:
            with suppress(ValueError):    # a NaN or inf: not JSON, and check_config rejects it
                (self.dir / "resolved_config.json").write_text(_json(cfg.resolved()))

    def finish(self, status: str) -> None:
        manifest = {
            "config_sha256": self.cfg.sha256() if self.cfg is not None else None,
            "versions": {"fastslow": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__,
                         "python": sys.version.split()[0]},
            "wall_time_s": round(time.time() - self.t0, 3),
            "status": status,
        }
        (self.dir / "manifest.json").write_text(_json(manifest))


def _resolve(ctx) -> ExperimentConfig:
    data = ctx.obj or {}
    cfg = load_config(data["config"]) if data.get("config") else config_from_dict(
        {"fixture": "LIN"})
    for key in ("fixture", "seed", "threads", "out_dir"):
        if data.get(key) is not None:
            setattr(cfg, key, data[key])
    if data.get("eps") is not None:
        cfg.eps = list(data["eps"])
    if data.get("n") is not None:
        cfg.n_trajectories = data["n"]
    if data.get("t_final") is not None:
        cfg.horizon = data["t_final"]
    if data.get("theta0") is not None:
        cfg.theta0 = [data["theta0"]]
    return cfg


def _guard(fn):
    """Map exception classes to the documented exit codes; any other
    exception is a bug, which still exits 3 and writes the manifest."""

    def wrapper(ctx, *args, **kwargs):
        # option values are read from ctx.params; do not forward them
        run = None
        command = fn.__name__.replace("_", "-")
        try:
            cfg = _resolve(ctx)
            run = Run(cfg, cfg.out_dir, command)
            check_config(cfg)   # after Run, so a bad value still gets a manifest
            code = fn(ctx, cfg, run) or 0
            run.finish("ok" if code == 0 else "failed")
            sys.exit(code)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            if run is None:
                # the config did not load, so its out_dir cannot be trusted:
                # --out, else the default
                out_dir = (ctx.obj or {}).get("out_dir") or ExperimentConfig.out_dir
                run = Run(None, out_dir, command)
            run.finish("config-error")
            sys.exit(EXIT_CONFIG)
        except FastSlowError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            if run:
                run.finish("numerical-error")
            sys.exit(EXIT_NUMERICAL)
        except Exception:
            traceback.print_exc()
            if run:
                run.finish("internal-error")
            sys.exit(EXIT_NUMERICAL)

    wrapper.__name__ = fn.__name__
    return wrapper


def _count(ctx, option: str) -> int:
    """A count option's value; below 1 is a config error, raised here rather
    than by click.IntRange so that the run still writes its manifest."""
    value = ctx.params[option]
    if value < 1:
        raise ConfigError(f"--{option.replace('_', '-')} must be >= 1, got {value}")
    return value


def _single_eps(cfg: ExperimentConfig, command: str) -> float:
    """The one eps a single-eps command runs at; a longer list is a config error."""
    if len(cfg.eps) != 1:
        raise ConfigError(f"{command} takes one eps, got {len(cfg.eps)}: {cfg.eps}")
    return cfg.eps[0]


@click.group()
@click.option("--config", type=click.Path(exists=True), default=None, help="JSON config file")
@click.option("--fixture", "fixture_", type=str, default=None, help="LIN | CBD | CPL")
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=None)
@click.option("--out", "out_dir", type=str, default=None, help="output directory")
@click.option("--eps", type=float, multiple=True, help="time-scale separation (repeatable)")
@click.option("--n", type=int, default=None, help="trajectories per ensemble")
@click.option("--t-final", type=float, default=None, help="path horizon")
@click.option("--theta0", type=float, default=None, help="initial slow coordinate")
@click.pass_context
def main(ctx, config, fixture_, seed, threads, out_dir, eps, n, t_final, theta0):
    """Numerical laboratory for fast-slow expanding circle maps."""
    ctx.obj = {"config": config, "fixture": fixture_, "seed": seed,
               "threads": threads, "out_dir": out_dir,
               "eps": eps or None, "n": n, "t_final": t_final, "theta0": theta0}


@main.command()
@click.option("--theta-count", type=int, default=16, help="sweep size over the slow torus")
@click.pass_context
@_guard
def srb(ctx, cfg, run):
    """Invariant-density sweep: drift, diffusion and tail data per theta."""
    count = _count(ctx, "theta_count")
    system = configured_system(cfg)
    rows = []
    for i in range(count):
        theta = np.full(system.d, i / count)
        c = diffusion_matrix(system, theta, ULAM_N, with_jacobian=False)
        rows.append([float(theta[0]),
                     *[float(v) for v in c.omega_bar],
                     *[float(v) for v in c.sigma2.ravel()],
                     c.M, float(c.tail_estimate)])
    d = system.d
    header = ["theta", *[f"omega_bar_{i}" for i in range(d)],
              *[f"sigma2_{i}{j}" for i in range(d) for j in range(d)],
              "M", "tail_estimate"]
    write_csv(run.dir / "srb_sweep.csv", header, rows)
    click.echo(f"wrote {run.dir / 'srb_sweep.csv'} ({count} rows)")


@main.command()
@click.pass_context
@_guard
def sigma(ctx, cfg, run):
    """Diffusion matrix at theta0 (default 0)."""
    system = configured_system(cfg)
    theta = cfg.theta0 or [0.0] * system.d
    c = diffusion_matrix(system, theta, ULAM_N)
    out = {
        "theta": [float(v) for v in c.theta],
        "omega_bar": [float(v) for v in c.omega_bar],
        "D_omega_bar": c.D_omega_bar.tolist(),
        "sigma2": c.sigma2.tolist(),
        "sigma": c.sigma.tolist(),
        "M": c.M, "N": c.N,
        "tail_estimate": float(c.tail_estimate),
        "coboundary": bool(c.coboundary),
        "decay_rate": c.decay_rate,
    }
    (run.dir / "sigma.json").write_text(_json(out))
    rows = ", ".join("[" + ", ".join(f"{v:.6f}" for v in row) + "]" for row in c.sigma2)
    shown = f"{c.sigma2[0, 0]:.6f}" if system.d == 1 else f"[{rows}]"
    click.echo(f"sigma2 = {shown}  (coboundary: {c.coboundary})")


@main.command()
@click.option("--plot", is_flag=True, default=False)
@click.option("--covariance", "with_cov", is_flag=True, default=False,
              help="also evolve the fluctuation covariance and flow")
@click.pass_context
@_guard
def average(ctx, cfg, run):
    """Averaged slow trajectory on [0, horizon], optionally with covariance."""
    ws = Workspace(config=cfg)
    system = ws.system()
    click.echo(f"provider: {json.dumps(ws.cache().stats(), sort_keys=True)}")
    theta0 = cfg.theta0 or [0.25] * system.d
    avg = ws.averaged(None, theta0, cfg.horizon)
    ts = default_out_times(cfg.horizon, cfg.out_times)
    vals = avg.at(ts)
    d = system.d
    write_csv(run.dir / "averaged.csv",
              ["t", *[f"theta_bar_{i}" for i in range(d)]],
              [[float(t), *[float(v) for v in row]] for t, row in zip(ts, vals)])
    if ctx.params["with_cov"]:
        cov = ws.covariance(None, theta0, cfg.horizon)
        rows = [[float(t), *[float(v) for v in vals[i]],
                 *[float(v) for v in cov.Sigma_at(t).ravel()],
                 *[float(v) for v in cov.S_at(t).ravel()]]
                for i, t in enumerate(ts)]
        write_csv(run.dir / "covariance.csv",
                  ["t", *[f"theta_bar_{i}" for i in range(d)],
                   *[f"Sigma_{i}{j}" for i in range(d) for j in range(d)],
                   *[f"S_{i}{j}" for i in range(d) for j in range(d)]],
                  rows)
        if ctx.params["plot"]:
            line_plot(str(run.dir / "covariance.svg"), ts,
                      {"Sigma_00": [cov.Sigma_at(t)[0, 0] for t in ts]},
                      title="fluctuation covariance along the averaged path")
    if ctx.params["plot"]:
        line_plot(str(run.dir / "averaged.svg"), ts,
                  {f"theta_bar_{i}": vals[:, i] for i in range(d)},
                  title="averaged slow trajectory")
    click.echo(f"theta_bar({cfg.horizon}) = {vals[-1]}")


@main.command()
@click.option("--steps", type=int, default=1, help="pushforward iterations")
@click.pass_context
@_guard
def decompose(ctx, cfg, run):
    """Iterated pushforward decomposition of a flat standard pair."""
    steps = _count(ctx, "steps")
    system = configured_system(cfg)
    eps = _single_eps(cfg, "decompose")
    consts = default_constants(system)
    margins = class_margins(system, eps, consts)
    theta0 = cfg.theta0 or [0.25] * system.d
    pair = constant_pair(theta0, 0.2, 0.2 + consts.delta, eps)
    family = as_family(pair, consts)
    rows = []
    for step_i in range(steps):
        family = pushforward_decompose(family, system)
        rows.append([step_i + 1, len(family.weights), float(family.weights.sum()),
                     float(family.mass_defect)])
    (run.dir / "family.json").write_text(family.dumps())
    write_csv(run.dir / "growth.csv", ["step", "pairs", "weight_sum", "mass_defect"], rows)
    (run.dir / "margins.json").write_text(_json(margins))
    click.echo(f"{len(family.weights)} pairs after {steps} steps; "
               f"closure margins {margins}")


@main.command()
@click.option("--points", type=int, default=100)
@click.pass_context
@_guard
def shadow(ctx, cfg, run):
    """Frozen-orbit shadowing diagnostics at the configured eps."""
    npts = _count(ctx, "points")
    if min(cfg.eps) <= 0:
        raise ConfigError(f"shadow needs every eps > 0 (its horizon is eps^-1/2), got {cfg.eps}")
    if len(set(cfg.eps)) < len(cfg.eps):
        raise ConfigError(f"shadow needs distinct eps (summary.json keys each one), got {cfg.eps}")
    system = configured_system(cfg)
    rows = []
    summary = {}
    for eps in cfg.eps:
        batch, s = shadow_diagnostic(system, eps, np.random.default_rng(cfg.seed), npts)
        summary[f"eps={eps!r}"] = s
        rows += [[float(eps), i, s["n"], *map(float, cols)]
                 for i, cols in enumerate(zip(batch.y0, batch.defect,
                                              batch.shadow_constant, batch.log_y_prime))]
    write_csv(run.dir / "shadow.csv",
              ["eps", "point", "n", "y0", "defect", "shadow_constant", "log_y_prime"],
              rows)
    (run.dir / "summary.json").write_text(_json(summary))
    click.echo(json.dumps(summary, sort_keys=True))


@main.command()
@click.option("--dump-paths", is_flag=True, default=False, help="write raw ensemble CSV")
@click.option("--plot", is_flag=True, default=False)
@click.pass_context
@_guard
def fluctuate(ctx, cfg, run):
    """Fluctuation ensemble: moment scaling and Gaussian-limit comparison."""
    ws = Workspace(config=cfg)
    if ws.system().d != 1:
        raise ConfigError(f"fluctuate needs a system with d = 1, got d = {ws.system().d}")
    gaps = cfg.out_times - 1    # the reports read dyadic gaps and the times T/4, T/2
    if gaps < 4 or gaps & (gaps - 1):
        raise ConfigError(f"fluctuate needs 2^j + 1 output times with j >= 2 "
                          f"(5, 9, 17, 33, ...), got out_times = {cfg.out_times}")
    theta0 = cfg.theta0 or [0.25]
    eps = _single_eps(cfg, "fluctuate")
    if eps == 0:
        raise ConfigError("fluctuate needs eps > 0 (zeta = (theta - theta_bar) / sqrt(eps))")
    if cfg.n_trajectories < 2:
        raise ConfigError(f"fluctuate needs n >= 2 (a standard error needs two "
                          f"trajectories), got n = {cfg.n_trajectories}")
    ens = ws.ensemble(None, eps, cfg.n_trajectories, theta0=theta0, T=cfg.horizon)
    cov = ws.covariance(None, theta0=theta0, T=cfg.horizon)
    clt = clt_test(ens, cov)
    mom = moment_scaling(ens)
    (run.dir / "clt.json").write_text(clt.to_json())
    (run.dir / "moments.json").write_text(mom.to_json())
    (run.dir / "report.txt").write_text(clt.to_text() + "\n" + mom.to_text())
    if ctx.params["dump_paths"]:
        ts = ens.out_times.tolist()
        rows = ([k, t, *lift, *zeta]    # a generator: one trajectory's rows at a time
                for k in range(ens.n_traj)
                for t, lift, zeta in zip(ts, ens.theta_lift[k].tolist(), ens.zeta[k].tolist()))
        write_csv(run.dir / "paths.csv",
                  ["trajectory_id", "t",
                   *[f"theta_lift_{i}" for i in range(ens.d)],
                   *[f"zeta_{i}" for i in range(ens.d)]],
                  rows)
    if ctx.params["plot"]:
        ts = [row["t"] for row in clt.data["times"]]
        emp = [row["cov"][0][0] for row in clt.data["times"]]
        ana = [row["sigma_limit"][0][0] for row in clt.data["times"]]
        line_plot(str(run.dir / "variance.svg"), ts,
                  {"empirical": emp, "limit": ana},
                  title="fluctuation variance: ensemble vs covariance law")
    row = clt.data["times"][-1]
    click.echo(f"var(zeta(T)) = {row['cov'][0][0]:.6f}  limit {row['sigma_limit'][0][0]:.6f}  "
               f"rel_err {row['cov_rel_err']:.4f}")


@main.command("verify-all")
@click.option("--criteria", type=str, default=None, help="comma-separated ids, e.g. 1,2,5")
@click.pass_context
@_guard
def verify_all(ctx, cfg, run):
    """Run the acceptance suite on the fixtures; nonzero exit on any failure."""
    if cfg.system is not None:
        raise ConfigError("verify-all checks the fixtures LIN, CBD and CPL; "
                          "it cannot check an inline system")
    ids = None
    if ctx.params["criteria"]:
        known = [str(cid) for cid in CRITERIA]
        tokens = [tok.strip() for tok in ctx.params["criteria"].split(",")]
        unknown = [tok for tok in tokens if tok not in known]
        if unknown:
            raise ConfigError(f"--criteria takes ids among {','.join(known)}, got {unknown}")
        ids = [int(tok) for tok in tokens]
    elif ctx.obj.get("fixture") or ctx.obj.get("config"):
        # a fixture named by the flag or the config file; the built-in LIN
        # default names none, and then every criterion runs
        ids = [cid for cid, (_, _, subjects, _) in CRITERIA.items()
               if cfg.fixture.upper() in subjects]
    ws = Workspace(config=cfg)
    results = run_all(ws, ids=ids, echo=click.echo)
    (run.dir / "acceptance.json").write_text(results_to_json(results))
    return 0 if all(r.passed for r in results) else EXIT_ACCEPTANCE


if __name__ == "__main__":
    main()
