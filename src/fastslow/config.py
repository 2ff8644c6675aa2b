"""Run configuration: schema, defaults, validation.

The configuration file is a flat JSON object of run inputs: the system, the
eps values, ensemble size, horizon, seed, start point, output grid, threads
and output directory. It sets no tolerance: the sizes of the frozen solve
are constants of `diffusion`, and every acceptance threshold and size is a
constant of the module that uses it. Unknown keys are rejected so a typo (or
a key that no longer exists) cannot silently fall back to a default. Every
run writes the fully resolved configuration next to its outputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .exceptions import ConfigError, SystemValidationError
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
        blob = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config, rejecting unknown keys; check_config checks the values."""
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
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def check_config(cfg: ExperimentConfig) -> None:
    """Reject values a run cannot use, including a malformed inline system
    and a theta0 whose length is not the system's d."""
    if cfg.fixture is None and cfg.system is None:
        raise ConfigError("either 'fixture' or 'system' must be given")
    if cfg.fixture is not None and str(cfg.fixture).upper() not in FIXTURES:
        raise ConfigError(f"unknown fixture {cfg.fixture!r}; known: {', '.join(FIXTURES)}")
    if cfg.system is not None:
        try:
            system = FastSlowSystem.from_dict(cfg.system)
        except (KeyError, TypeError, ValueError, SystemValidationError) as exc:
            raise ConfigError(f"malformed inline system: {exc!r}") from exc
    d = fixture(cfg.fixture).d if cfg.fixture is not None else system.d
    if cfg.theta0 is not None and len(cfg.theta0) != d:
        raise ConfigError(f"theta0 has {len(cfg.theta0)} coordinates; the system has d = {d}")
    for e in cfg.eps:
        if not (0 <= e <= EPS_MAX):
            raise ConfigError(f"eps={e} outside [0, {EPS_MAX}]")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    for key, low in (("n_trajectories", 1), ("out_times", 2), ("threads", 1)):
        value = getattr(cfg, key)
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
