"""Run configuration: schema, defaults, validation.

The configuration file is a flat JSON object of run inputs: the system, the
eps values, ensemble size, horizon, seed, start point, output grid, threads
and output directory. It sets no tolerance: the sizes of the frozen solve
are constants of `diffusion`, and every acceptance threshold and size is a
constant of the module that uses it. Unknown keys are rejected so a typo (or
a key that no longer exists) cannot silently fall back to a default; so are
unknown keys of an inline system, and a config naming both a fixture and an
inline system. `configured_system` is the one path from a config to its
system. Every run writes the fully resolved configuration next to its
outputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .exceptions import ConfigError
from .systems import FIXTURES, FastSlowSystem, fixture

EPS_MAX = 0.05      # largest admissible time-scale separation


@dataclass
class ExperimentConfig:
    """Top-level experiment description."""

    fixture: Optional[str] = None      # LIN | CBD | CPL, or None with inline system
    system: Optional[dict] = None      # inline trig-polynomial system description
    eps: list[float] = field(default_factory=lambda: [1e-3])
    n_trajectories: int = 10_000
    horizon: float = 1.0
    seed: int = 2024
    theta0: Optional[list[float]] = None
    out_times: int = 33
    threads: int = 1
    out_dir: str = "out"

    def resolved(self) -> dict:
        return dataclasses.asdict(self)

    def sha256(self) -> str:
        """Hash of the inputs that can reach a number: every field but
        out_dir and threads (the outputs are identical across thread counts),
        with the fixture name upper-cased as `configured_system` reads it."""
        inputs = {k: v for k, v in self.resolved().items() if k not in ("out_dir", "threads")}
        if isinstance(self.fixture, str):
            inputs["fixture"] = self.fixture.upper()
        blob = json.dumps(inputs, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """math.isfinite, and False for an integer too large for a float."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config, rejecting unknown keys and values of the wrong type;
    check_config checks the values."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = ExperimentConfig(**data)
    if not isinstance(cfg.eps, list):
        cfg.eps = [cfg.eps]
    if cfg.theta0 is not None and not isinstance(cfg.theta0, list):
        cfg.theta0 = [cfg.theta0]
    for key, ok, expected in (
            ("eps", cfg.eps and all(map(_is_number, cfg.eps)),
             "a number or a non-empty list of numbers"),
            ("theta0", cfg.theta0 is None or all(map(_is_number, cfg.theta0)),
             "a number or a list of numbers"),
            ("horizon", _is_number(cfg.horizon), "a number"),
            ("fixture", cfg.fixture is None or isinstance(cfg.fixture, str), "a string"),
            ("system", cfg.system is None or isinstance(cfg.system, dict), "an object"),
            ("out_dir", isinstance(cfg.out_dir, str), "a string")):
        if not ok:
            raise ConfigError(f"{key} must be {expected}, got {getattr(cfg, key)!r}")
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def configured_system(cfg: ExperimentConfig) -> FastSlowSystem:
    """The system of a config: its fixture or its inline system, exactly one of them."""
    if (cfg.fixture is None) == (cfg.system is None):
        raise ConfigError("give exactly one of 'fixture' and 'system'")
    if cfg.fixture is not None:
        if str(cfg.fixture).upper() not in FIXTURES:
            raise ConfigError(f"unknown fixture {cfg.fixture!r}; known: {', '.join(FIXTURES)}")
        return fixture(cfg.fixture)
    try:
        return FastSlowSystem.from_dict(cfg.system)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed inline system: {exc!r}") from exc


def check_config(cfg: ExperimentConfig) -> None:
    """Reject values a run cannot use, among them a system `configured_system` rejects,
    a theta0 whose length is not its d, a theta0, eps or horizon that is not finite
    (an integer too large for a float is not), and a seed that is not a non-negative integer."""
    d = configured_system(cfg).d
    if cfg.theta0 is not None and len(cfg.theta0) != d:
        raise ConfigError(f"theta0 has {len(cfg.theta0)} coordinates; the system has d = {d}")
    if cfg.theta0 is not None and not all(map(_is_finite, cfg.theta0)):
        raise ConfigError(f"theta0 must be finite, got {cfg.theta0}")
    for e in cfg.eps:
        if not (0 <= e <= EPS_MAX):
            raise ConfigError(f"eps={e} outside [0, {EPS_MAX}]")
    if not (cfg.horizon > 0 and _is_finite(cfg.horizon)):
        raise ConfigError(f"horizon must be positive and finite, got {cfg.horizon}")
    for key, low in (("n_trajectories", 1), ("out_times", 2), ("threads", 1), ("seed", 0)):
        value = getattr(cfg, key)
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
