import signal
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from fastslow.acceptance import Workspace
from fastslow.orbits import step
from fastslow.systems import fixture, torus


@pytest.fixture(scope="session")
def lin():
    return fixture("LIN")


@pytest.fixture(scope="session")
def cbd():
    return fixture("CBD")


@pytest.fixture(scope="session")
def cpl():
    return fixture("CPL")


@pytest.fixture(scope="session")
def workspace():
    """Shared acceptance workspace; caches drift/diffusion solves."""
    return Workspace()


class WallBoundExceeded(BaseException):
    """Raised by wall_bound; a BaseException, so no `except Exception` in the
    code under test can swallow it."""


@contextmanager
def wall_bound(seconds: float):
    """Fail the enclosed block, run on the main thread, once it has taken
    `seconds` of wall time, so a hang fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise WallBoundExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def system_dict(system) -> dict:
    """The inline description of a system, as a config's "system" key holds it."""
    def terms(ts):
        return [[t.amp, t.kx, t.px, t.fx, list(t.lt), t.pt, t.ft] for t in ts]
    return {"name": system.name, "d": system.d, "degree": system.degree,
            "f_terms": terms(system.f_terms),
            "omega_terms": [terms(comp) for comp in system.omega_terms]}


def birkhoff_fast_orbit(system, theta, x0, n_steps):
    """Frozen-map orbit of a batch of points; oracle helper (no package reuse)."""
    th = np.broadcast_to(np.atleast_1d(theta), (x0.shape[0], system.d))
    xs = np.empty((n_steps, x0.shape[0]))
    x = x0.copy()
    for k in range(n_steps):
        xs[k] = x
        x = torus(system.f_lift(x, th))
    return xs


@dataclass(frozen=True)
class Orbit:
    """A finite orbit with fast coordinates, torus slow coordinates and lift."""

    x: np.ndarray        # (n+1,)
    theta: np.ndarray    # (n+1, d), reduced mod 1
    lift: np.ndarray     # (n+1, d), theta[0] + accumulated increments

    def __len__(self) -> int:
        return self.x.shape[0]


def orbit(system, eps, x0, theta0, n):
    """n steps of the skew product from (x0, theta0), one point at a time; oracle helper."""
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    xs = np.empty(n + 1)
    ths = np.empty((n + 1, theta0.shape[0]))
    lifts = np.empty((n + 1, theta0.shape[0]))
    xs[0] = torus(x0)
    ths[0] = torus(theta0)
    lifts[0] = ths[0]
    for k in range(n):
        xs[k + 1], ths[k + 1], dth = step(system, eps, xs[k], ths[k])
        lifts[k + 1] = lifts[k] + dth
    return Orbit(x=xs, theta=ths, lift=lifts)
