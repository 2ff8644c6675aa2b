"""Run configuration: schema, defaults, validation.

The configuration file is JSON (nested key/value). Unknown keys are rejected
everywhere so a typo cannot silently fall back to a default. Every run writes
the fully resolved configuration next to its outputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .exceptions import ConfigError, SystemValidationError
from .systems import FIXTURES, FastSlowSystem, fixture

EPS_MAX = 0.05      # largest admissible time-scale separation


@dataclass
class Tolerances:
    """The only settable tolerances: the sizes of the Ulam frozen solve and
    its truncated Green-Kubo sum.

    Every other tolerance and every acceptance threshold is a constant of the
    module that uses it, so no config key changes a pass band.
    """

    ulam_n: int = 4096                 # transfer-operator grid cells
    sigma_m: Optional[int] = None      # autocovariance cutoff; None -> decay rule
    sigma_tail_tol: float = 1e-9       # bound on ||Gamma_k|| over the tail window


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
    tolerances: Tolerances = field(default_factory=Tolerances)

    def resolved(self) -> dict:
        return _asdict(self)

    def sha256(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _asdict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: _asdict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_asdict(v) for v in obj]
    return obj


def _apply(dc: Any, data: dict, path: str) -> None:
    names = {f.name: f for f in dataclasses.fields(dc)}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key {path}{key!r}")
        current = getattr(dc, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key!r} must be an object")
            _apply(current, value, path + key + ".")
        else:
            setattr(dc, key, value)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config, rejecting unknown keys recursively; check_config checks the values."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = ExperimentConfig()
    _apply(cfg, data, "")
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
    if cfg.n_trajectories < 1:
        raise ConfigError("n_trajectories must be >= 1")
    if cfg.horizon <= 0:
        raise ConfigError("horizon must be positive")
    if cfg.out_times < 2:
        raise ConfigError("out_times must be >= 2")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")


def default_truncation(lam: float, tail_tol: float) -> int:
    """Autocovariance cutoff from the certified expansion rate.

    Correlations decay at least geometrically for smooth expanding maps, so a
    multiple of log(1/tol)/log(lambda) steps suffices; the factor 10 leaves
    room for a slow prefactor and the tail check verifies a posteriori.
    """
    m = math.ceil(10.0 * math.log(1.0 / tail_tol) / math.log(lam))
    return max(8, min(m, 400))
