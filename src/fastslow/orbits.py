"""Iteration of the skew product and batched slow-path sampling.

Slow coordinates are kept twice: reduced to [0,1) on the torus and as an
unreduced lift in R^d. The lift is what the fluctuation field needs, so
winding is never discarded.
"""
from __future__ import annotations

import numpy as np

from .exceptions import FastSlowError
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


def sample_paths_batch(system: FastSlowSystem, eps: float, x0: np.ndarray,
                       theta0: np.ndarray, out_times: np.ndarray, T: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Lifted polygonal paths for a batch of initial points.

    The polygonal path puts node k at time eps*k with the lifted value after
    k steps and interpolates linearly in between, so its slope on segment k
    is omega(x_k, theta_k) and its Lipschitz constant is at most sup|omega|.

    Parameters
    ----------
    eps : time-scale separation, > 0
    x0 : (N,) fast initial points
    theta0 : (N, d) slow initial points
    out_times : sorted times in [0, T] at which the polygonal path is read off
    out : optional (N, len(out_times), d) array that receives the rows, a
        new one when None. It may be a strided view, for instance the
        transpose of a slice of a time-major (len(out_times), N', d) array

    Returns
    -------
    (N, len(out_times), d) array of lifted slow values, which is `out` when
    given. Row i is the path of initial point i. Memory stays at
    O(N * len(out_times) * d); the full orbit is never stored.

    Raises ValueError unless eps > 0 and out_times is sorted with no time
    outside [0, T]: every row is then written, and read between two nodes.
    """
    out_times = np.asarray(out_times, dtype=float)
    if not (eps > 0 and np.all(np.diff(out_times) >= 0)
            and np.all((0.0 <= out_times) & (out_times <= T))):
        raise ValueError(f"sampled paths need eps > 0 and sorted out_times, none outside "
                         f"[0, {T}]; got eps = {eps}, out_times = {out_times}")
    N, d = theta0.shape
    m = out_times.shape[0]
    rec = np.empty((N, m, d)) if out is None else out
    n_steps = int(np.floor(T / eps)) + 1
    if n_steps > MAX_ORBIT_STEPS:
        raise FastSlowError(f"{n_steps} steps exceed maximum {MAX_ORBIT_STEPS}")
    node = np.floor(out_times / eps).astype(int)
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
