"""Shadowing of the perturbed fast coordinate by a frozen-parameter orbit.

Given a true orbit of the skew product and a nearby frozen parameter
theta_star, the solver produces a pulled-back initial point Y_n whose frozen
orbit ends exactly on the true fast coordinate after n steps. The root is
found by backward branch-tracked inversion: one inverse branch per step,
selected by proximity to the true orbit. Inverse steps contract by 1/lam, so
the construction is backward stable; a global Newton iteration on the n-fold
composition would be hopeless for n beyond ~30 since its derivative grows
like lam**n. The derivative of the pullback map comes from the forward
tangent recursion along the true orbit, accumulated in log space so long
orbits do not overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import FastSlowError
from .orbits import step
from .systems import FastSlowSystem, invert_monotone, torus

DEFECT_TOL = 1e-12      # largest admissible per-step inversion residual
SHADOW_C_SHARP = 10.0   # |log Y'| <= SHADOW_C_SHARP * eps * n**2 on the shadowing range


@dataclass(frozen=True)
class ShadowBatch:
    """Frozen-map orbits shadowing N true fast orbits; column i is point i."""

    y0: np.ndarray               # (N,) pulled-back initial points Y_n
    shadow_orbit: np.ndarray     # (n+1, N) frozen orbits from y0, endpoints = x_n
    defect: np.ndarray           # (N,) max per-step inversion residual
    errors: np.ndarray           # (n+1, N) circle distance |x_k - x*_k|
    log_y_prime: np.ndarray      # (N,) log derivative of the pullback map
    shadow_constant: np.ndarray  # (N,) max_k errors[k] / (eps * k)


def _circle_dist(a, b):
    d = np.abs(torus(a - b))
    return np.minimum(d, 1.0 - d)


def tangent_forward(fx, ft, ox, ot, eps):
    """Forward slope u_k and log expansion factor log v_k for k = 0..n.

    The differential of the skew product maps a near-horizontal vector
    (1, eps*u) to a multiple v of (1, eps*u'); while eps*K*c <= 1 the slope
    stays in the cone |u| <= c = (K+1)/(lam-2). The inputs are the parts of
    ``system.tangent`` along n steps of B orbits: fx (n, B), ft and ox
    (n, B, d), ot (n, B, d, d). Returns u (n+1, B, d) and log_v (n+1, B),
    both zero at k = 0.
    """
    n, B, d = ft.shape
    u = np.zeros((n + 1, B, d))
    log_v = np.zeros((n + 1, B))
    for k in range(n):
        den = fx[k] + eps * np.einsum("nj,nj->n", ft[k], u[k])
        u[k + 1] = (ox[k] + u[k] + eps * np.einsum("nij,nj->ni", ot[k], u[k])) / den[:, None]
        log_v[k + 1] = log_v[k] + np.log(den)
    return u, log_v


def shadow_solve_batch(system: FastSlowSystem, eps: float, x0: np.ndarray,
                       theta0: np.ndarray, theta_star: np.ndarray,
                       n: int) -> ShadowBatch:
    """Vectorized pullback solve over a batch of initial points.

    Preconditions: eps > 0, ||theta_star - theta0|| <= eps for each point,
    and n <= eps^-1/2 (the admissible shadowing range).
    """
    N = x0.shape[0]
    if not eps > 0:
        raise ValueError(f"shadowing needs eps > 0, got {eps}")
    if n > eps ** -0.5 * (1 + 1e-12):
        raise ValueError(f"n={n} beyond shadowing range eps^-1/2 = {eps ** -0.5:.1f}")
    sep = np.linalg.norm(theta_star - theta0, axis=-1)
    if np.any(sep > eps * (1 + 1e-9)):
        raise ValueError(f"||theta_star - theta0|| = {sep.max():.3e} exceeds eps = {eps:.3e}")

    # true orbits, vectorized over the batch, and the tangent pass along them
    xs = np.empty((n + 1, N))
    ths = np.empty((n + 1, N, system.d))
    xs[0] = torus(x0)
    ths[0] = torus(theta0)
    for k in range(n):
        xs[k + 1], ths[k + 1], _ = step(system, eps, xs[k], ths[k])
    log_v = tangent_forward(*system.tangent(xs[:-1], ths[:-1]), eps)[1][n]

    def F(w):
        return system.f_lift(w, theta_star)

    def dF(w):
        return system.df_dx(w, theta_star)

    # backward branch-tracked inversion; w[k] is the shadow point at step k
    shadow = np.empty((n + 1, N))
    shadow[n] = xs[n]
    defect = np.zeros(N)
    for k in range(n - 1, -1, -1):
        guess = xs[k]
        f_guess = F(guess)
        target = shadow[k + 1] + np.round(f_guess - shadow[k + 1])
        # the root lies between guess - delta/lam and guess - delta/dfx_sup
        delta = f_guess - target
        lo = guess - np.maximum(delta / system.lam, delta / system.dfx_sup) - 1e-12
        hi = guess - np.minimum(delta / system.lam, delta / system.dfx_sup) + 1e-12
        w, r = invert_monotone(F, dF, lo, hi, target, 0.5 * (lo + hi))
        if np.any(np.abs(w - guess) > 0.5 / system.degree + 0.05):
            raise FastSlowError(f"branch ambiguity at step {k}: shadow point too far from orbit")
        defect = np.maximum(defect, np.abs(r))
        shadow[k] = torus(w)
    if np.any(defect > DEFECT_TOL):
        raise FastSlowError(f"inversion residual {defect.max():.3e} "
                            f"above tolerance {DEFECT_TOL:.1e}")

    errors = _circle_dist(xs, shadow)
    # row sums of the transpose keep the reduction order of a per-point sum
    log_dfstar = np.ascontiguousarray(np.log(dF(shadow[:-1])).T).sum(axis=1)
    ks = np.arange(1, n + 1)
    return ShadowBatch(
        y0=shadow[0],
        shadow_orbit=shadow,
        defect=defect,
        errors=errors,
        log_y_prime=log_v - log_dfstar,
        shadow_constant=np.max(errors[1:] / (eps * ks)[:, None], axis=0, initial=0.0),
    )


def shadow_diagnostic(system: FastSlowSystem, eps: float, rng: np.random.Generator,
                      points: int) -> tuple[ShadowBatch, dict]:
    """Shadow `points` random orbits at eps over the full range n = floor(eps^-1/2).

    Draws x0, then theta0, then theta_star = theta0 + eps (u - 1/2) from rng,
    and returns the batch with its summary: the worst defect, shadowing
    constant and |log Y'|, and the bound SHADOW_C_SHARP eps n^2 on the last.
    """
    n = int(np.floor(eps ** -0.5))
    x0 = rng.random(points)
    th0 = rng.random((points, system.d))
    theta_star = th0 + eps * (rng.random((points, system.d)) - 0.5)
    batch = shadow_solve_batch(system, eps, x0, th0, theta_star, n)
    summary = {
        "n": n,
        "max_defect": float(batch.defect.max()),
        "shadow_constant": float(batch.shadow_constant.max()),
        "max_log_y_prime": float(np.abs(batch.log_y_prime).max()),
        "y_prime_bound": SHADOW_C_SHARP * eps * n * n,
    }
    return batch, summary
