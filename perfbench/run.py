"""Benchmark of fastslow: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/fastslow. Every workload runs
in a fresh process (workloads.py) with BLAS fixed at one thread. With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics wall_s, setup_s and peak_rss_mb; with --trace 1 it carries the
per-layer metrics of tracing.py. See README.md for the workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("path_cpl", "sweep_theta", "ensemble_cpl", "decompose_cpl")
SETUP_PROBES = 4          # extra set-up-only processes per run, for the setup_s median
TIMEOUT_S = 170.0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start workloads.py and wait for its "ready" line; returns (process, setup_s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "workloads.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, deadline: float):
    """Wait for the process until the deadline, killing it if it runs over.

    Returns its output, or None if it was killed or exited with an error.
    """
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"workload process exceeded {TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "fastslow" / "__init__.py").is_file():
        print(f"no fastslow package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env(src)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.perf_counter() + TIMEOUT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup_s = spawn(common + ["--seconds", "0", "--setup-only"], env)
            if finish(proc, deadline) is None:
                return 3
            setups.append(setup_s)
    proc, setup_s = spawn(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env)
    setups.append(setup_s)
    out = finish(proc, deadline)
    if out is None:
        return 3
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        lines.insert(-1, "setup_s per process " + " ".join(f"{s:.3f}" for s in setups))
    for line in lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
