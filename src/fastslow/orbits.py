"""Orbit iteration and path polygonalization.

Slow coordinates are kept twice: reduced to [0,1) on the torus and as an
unreduced lift in R^d. The lift is what the fluctuation field needs, so
winding is never discarded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OrbitLengthError
from .systems import FastSlowSystem, torus

MAX_ORBIT_STEPS = 50_000_000


def step(system: FastSlowSystem, eps: float, x, theta):
    """One iteration of the skew product.

    Returns ``(x1, theta1, dtheta)`` where ``theta1`` is reduced mod 1 and
    ``dtheta = eps * omega(x, theta)`` is the unreduced slow increment, for
    callers that maintain a lift. Broadcasts over leading axes.
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    x1, w = system.f_omega(x, theta)
    dtheta = eps * w
    theta1 = torus(theta + dtheta)
    return x1, theta1, dtheta


@dataclass(frozen=True)
class Orbit:
    """A finite orbit with fast coordinates, torus slow coordinates and lift."""

    eps: float
    x: np.ndarray        # (n+1,)
    theta: np.ndarray    # (n+1, d), reduced mod 1
    lift: np.ndarray     # (n+1, d), theta[0] + accumulated increments

    def __len__(self) -> int:
        return self.x.shape[0]


def orbit(system: FastSlowSystem, eps: float, x0: float, theta0, n: int,
          max_steps: int = MAX_ORBIT_STEPS) -> Orbit:
    """Iterate n steps from (x0, theta0); element 0 is the initial point."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > max_steps:
        raise OrbitLengthError(f"orbit length {n} exceeds maximum {max_steps}")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    d = theta0.shape[0]
    xs = np.empty(n + 1)
    ths = np.empty((n + 1, d))
    lifts = np.empty((n + 1, d))
    xs[0] = torus(x0)
    ths[0] = torus(theta0)
    lifts[0] = ths[0]
    for k in range(n):
        x1, th1, dth = step(system, eps, xs[k], ths[k])
        xs[k + 1] = x1
        ths[k + 1] = th1
        lifts[k + 1] = lifts[k] + dth
    return Orbit(eps=eps, x=xs, theta=ths, lift=lifts)


@dataclass(frozen=True)
class PathSample:
    """Piecewise-linear slow path sampled on stored node times.

    ``values`` are torus points, ``lift`` the matching unreduced points;
    linear interpolation between nodes reproduces the polygonal path exactly.
    """

    times: np.ndarray         # (m,)
    values: np.ndarray        # (m, d), mod 1
    lift: np.ndarray          # (m, d)
    fast_values: np.ndarray | None = None

    def at(self, t) -> np.ndarray:
        """Evaluate the lift at arbitrary times by linear interpolation."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.shape[0], self.lift.shape[1]))
        for j in range(self.lift.shape[1]):
            out[:, j] = np.interp(t, self.times, self.lift[:, j])
        return out


def polygonalize(orb: Orbit, eps: float, T: float) -> PathSample:
    """Polygonal path Theta_eps on [0, T].

    Node k sits at time eps*k with value theta_k; between nodes the path is
    the linear interpolant of the lift, so its slope on segment k equals
    omega(x_k, theta_k) and the Lipschitz constant is at most sup|omega|.
    """
    if eps <= 0:
        raise ValueError("polygonalization requires eps > 0")
    n_nodes = int(np.floor(T / eps)) + 2
    if len(orb) < n_nodes:
        raise OrbitLengthError(
            f"orbit has {len(orb)} points, polygonalization to T={T} needs {n_nodes}"
        )
    times = eps * np.arange(n_nodes)
    return PathSample(
        times=times,
        values=orb.theta[:n_nodes].copy(),
        lift=orb.lift[:n_nodes].copy(),
        fast_values=orb.x[:n_nodes].copy(),
    )


def sample_paths_batch(system: FastSlowSystem, eps: float, x0: np.ndarray,
                       theta0: np.ndarray, out_times: np.ndarray, T: float,
                       max_steps: int = MAX_ORBIT_STEPS) -> np.ndarray:
    """Lifted polygonal paths for a batch of initial points.

    Parameters
    ----------
    x0 : (N,) fast initial points
    theta0 : (N, d) slow initial points
    out_times : sorted times in [0, T] at which the polygonal path is read off

    Returns
    -------
    (N, len(out_times), d) array of lifted slow values. Memory stays at
    O(N * len(out_times) * d); the full orbit is never stored.
    """
    out_times = np.asarray(out_times, dtype=float)
    N, d = theta0.shape
    m = out_times.shape[0]
    rec = np.empty((N, m, d))
    if eps == 0.0:
        rec[:] = theta0[:, None, :]
        return rec
    n_steps = int(np.floor(T / eps)) + 1
    if n_steps > max_steps:
        raise OrbitLengthError(f"{n_steps} steps exceed maximum {max_steps}")
    node = np.minimum(np.floor(out_times / eps).astype(int), n_steps)
    frac = out_times / eps - node
    x = torus(np.asarray(x0, dtype=float))
    th = torus(np.asarray(theta0, dtype=float))
    lift = th.copy()
    ptr = 0
    for k in range(n_steps + 1):
        x1, th1, dth = step(system, eps, x, th)
        lift_next = lift + dth
        while ptr < m and node[ptr] == k:
            rec[:, ptr, :] = lift + frac[ptr] * (lift_next - lift)
            ptr += 1
        x, th, lift = x1, th1, lift_next
    return rec
