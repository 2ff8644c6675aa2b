"""Spans around fastslow's public functions, recorded from outside the package.

Tracer.install wraps every public function of the layer modules wherever a
fastslow module binds it (srb_cache and diffusion bind ulam_operator by name,
experiments binds sample_paths_batch and stream_uniforms), the public methods
of SRBCache on the class, and the evaluators of each fixture system on the
instance. A wrapper records a span (name, start, end, parent, thread) only
while `active` is set, which the benchmark does around the program calls it
times. Spans stay in memory until the run writes them out.

Parents come from a per-thread stack. A span opened by a pool worker whose
stack is empty gets the innermost span open on the main thread as parent,
which is the call that handed out the work (run_ensemble's thread pool).

A span's self time is its duration minus the union of its children's
intervals. Every `_s` metric sums self time over the spans of one layer
whose nearest enclosing entry function of that layer is the metric's entry;
time spent in other layers is not in it, and times of concurrent threads add.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

from fastslow.srb_cache import SRBCache

LAYERS = ("ulam", "diffusion", "srb_cache", "limits", "orbits", "rng",
          "standard_pairs", "experiments")

# metric name -> (unit, better)
METRICS = {
    "ulam.operator_calls": ("count", "lower"),
    "ulam.operator_s": ("s", "lower"),
    "ulam.density_iterations": ("count", "lower"),
    "ulam.density_s": ("s", "lower"),
    "ulam.distinct_theta_ratio": ("ratio", "higher"),
    "diffusion.matrix_calls": ("count", "lower"),
    "diffusion.matrix_s": ("s", "lower"),
    "diffusion.autocov_steps": ("count", "lower"),
    "diffusion.jacobian_calls": ("count", "lower"),
    "diffusion.jacobian_s": ("s", "lower"),
    "srb_cache.queries": ("count", "lower"),
    "srb_cache.nodes": ("count", "lower"),
    "srb_cache.query_s": ("s", "lower"),
    "limits.averaged_s": ("s", "lower"),
    "limits.averaged_drift_calls": ("count", "lower"),
    "limits.covariance_s": ("s", "lower"),
    "limits.covariance_provider_calls": ("count", "lower"),
    "orbits.batch_s": ("s", "lower"),
    "orbits.ns_per_point_step": ("ns", "lower"),
    "rng.uniforms_s": ("s", "lower"),
    "rng.us_per_stream": ("us", "lower"),
    "standard_pairs.sample_s": ("s", "lower"),
    "standard_pairs.pushforward_s": ("s", "lower"),
    "standard_pairs.us_per_pair": ("us", "lower"),
    "experiments.ensemble_s": ("s", "lower"),
    "experiments.reports_s": ("s", "lower"),
    "systems.eval_calls": ("count", "lower"),
    "systems.eval_points": ("count", "lower"),
    "systems.eval_s": ("s", "lower"),
}

# entry span -> the self-time metric it opens
ENTRIES = {
    "ulam.ulam_operator": "ulam.operator_s",
    "ulam.srb_density": "ulam.density_s",
    "diffusion.diffusion_matrix": "diffusion.matrix_s",
    "diffusion.drift_jacobian": "diffusion.jacobian_s",
    "limits.solve_averaged": "limits.averaged_s",
    "limits.covariance_evolve": "limits.covariance_s",
    "orbits.sample_paths_batch": "orbits.batch_s",
    "rng.stream_uniforms": "rng.uniforms_s",
    "standard_pairs.sample_from_uniform": "standard_pairs.sample_s",
    "standard_pairs.sample": "standard_pairs.sample_s",
    "standard_pairs.pushforward_decompose": "standard_pairs.pushforward_s",
    "experiments.run_ensemble": "experiments.ensemble_s",
    "experiments.clt_test": "experiments.reports_s",
    "experiments.martingale_residual": "experiments.reports_s",
    "experiments.generator_residual": "experiments.reports_s",
    "experiments.moment_scaling": "experiments.reports_s",
    "experiments.averaging_error": "experiments.reports_s",
}
QUERY_PREFIX = "srb_cache.SRBCache."
NOT_QUERIES = {"srb_cache.SRBCache.stats"}


def _entry_metric(name: str):
    if name.startswith("systems."):
        return "systems.eval_s"
    if name.startswith(QUERY_PREFIX) and name not in NOT_QUERIES:
        return "srb_cache.query_s"
    return ENTRIES.get(name)


def _argument(fn, arg: str):
    """Extractor of one named argument of fn's calls."""
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments[arg]


def _theta_key(fn):
    """theta mod 1, rounded so that equal solves count as one distinct theta."""
    get = _argument(fn, "theta")

    def key(args, kwargs, result):
        theta = np.atleast_1d(np.asarray(get(args, kwargs, result), dtype=float))
        return tuple(np.round(theta % 1.0, 12).tolist())
    return key


def _point_steps(fn):
    """Trajectories times loop iterations of sample_paths_batch."""
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return len(a["x0"]) * (int(a["T"] // a["eps"]) + 2) if a["eps"] > 0 else 0
    return extra


def _input_pairs(fn):
    get = _argument(fn, "family")
    return lambda args, kwargs, result: len(get(args, kwargs, result).pairs)


# span name -> factory of an extractor (args, kwargs, result) -> number or key
EXTRAS = {
    "ulam.ulam_operator": _theta_key,
    "ulam.srb_density": lambda fn: lambda args, kwargs, result: result.iterations,
    "diffusion.autocovariances": lambda fn: _argument(fn, "kmax"),
    "orbits.sample_paths_batch": _point_steps,
    "rng.stream_uniforms": lambda fn: _argument(fn, "n"),
    "standard_pairs.pushforward_decompose": _input_pairs,
}


def _points(args, kwargs, result):
    """Evaluation points of a system evaluator called as (x, theta)."""
    x = args[0] if args else kwargs["x"]
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(theta)[:-1])))


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, thread, extra]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            span = [name, 0, 0, parent, threading.get_ident(), None]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, fixtures) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fastslow" or n.startswith("fastslow."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"fastslow.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                factory = EXTRAS.get(name)
                traced = self.wrap(name, fn, factory(fn) if factory else None)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._patch(m, a, traced)
        for attr, fn in list(vars(SRBCache).items()):
            if not attr.startswith("_") and inspect.isfunction(fn):
                self._patch(SRBCache, attr, self.wrap(QUERY_PREFIX + attr, fn))
        for system in fixtures:
            for attr in dir(system):
                fn = getattr(system, attr)
                if attr.startswith("_") or not inspect.ismethod(fn):
                    continue
                params = list(inspect.signature(fn).parameters)
                if params[:2] == ["x", "theta"]:
                    self._patch(system, attr, self.wrap(f"systems.{attr}", fn, _points))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()


def self_times(spans) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, nodes: int) -> dict:
    """Every per-layer metric of one traced round; a bypassed layer reads 0."""
    m = dict.fromkeys(METRICS, 0)
    names = [s[0] for s in spans]
    layer = [n.split(".")[0] for n in names]
    own = self_times(spans)
    for i, name in enumerate(names):
        j = i
        while j is not None and layer[j] == layer[i] and _entry_metric(names[j]) is None:
            j = spans[j][3]
        if j is not None and layer[j] == layer[i]:
            m[_entry_metric(names[j])] += own[i] * 1e-9

    def where(pred):
        return [s for s in spans if pred(s)]

    ops = where(lambda s: s[0] == "ulam.ulam_operator")
    m["ulam.operator_calls"] = len(ops)
    m["ulam.distinct_theta_ratio"] = len({s[5] for s in ops}) / len(ops) if ops else 0
    m["ulam.density_iterations"] = sum(s[5] for s in where(lambda s: s[0] == "ulam.srb_density"))
    m["diffusion.matrix_calls"] = len(where(lambda s: s[0] == "diffusion.diffusion_matrix"))
    m["diffusion.jacobian_calls"] = len(where(lambda s: s[0] == "diffusion.drift_jacobian"))
    m["diffusion.autocov_steps"] = sum(s[5] for s in where(lambda s: s[0] == "diffusion.autocovariances"))
    m["srb_cache.queries"] = len(where(lambda s: _entry_metric(s[0]) == "srb_cache.query_s"))
    m["srb_cache.nodes"] = nodes
    parent_name = [names[s[3]] if s[3] is not None else None for s in spans]
    m["limits.averaged_drift_calls"] = parent_name.count("limits.solve_averaged")
    m["limits.covariance_provider_calls"] = parent_name.count("limits.covariance_evolve")

    def per(name, scale):
        hits = where(lambda s: s[0] == name)
        base = sum(s[5] for s in hits)
        return sum(s[2] - s[1] for s in hits) * scale / base if base else 0

    m["orbits.ns_per_point_step"] = per("orbits.sample_paths_batch", 1.0)
    m["rng.us_per_stream"] = per("rng.stream_uniforms", 1e-3)
    m["standard_pairs.us_per_pair"] = per("standard_pairs.pushforward_decompose", 1e-3)
    outer = [s for s, p in zip(spans, parent_name)
             if s[0].startswith("systems.") and not (p or "").startswith("systems.")]
    m["systems.eval_calls"] = len(outer)
    m["systems.eval_points"] = sum(s[5] for s in outer)
    return m


def write(path, tracers, header: dict) -> None:
    """One JSON line of run facts, then one line per span of each traced round."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for r, tracer in enumerate(tracers):
            for i, (name, start, end, parent, thread, extra) in enumerate(tracer.spans):
                fh.write(json.dumps({"round": r, "id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "thread": thread,
                                     "extra": extra}) + "\n")
