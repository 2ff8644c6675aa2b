"""Invariant tangent cones along orbits.

Tracks how the differential of the skew product acts on near-horizontal
vectors (1, eps*u) and on the central field (s, 1): the forward slope u
evolves inside the cone |u| <= c with c = (K+1)/(lam-2), the scalar factor
v accumulates the expansion, and the central slope s is obtained by backward
iteration, which is contracting. Products are also accumulated in log space
so long orbits do not overflow.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConeConditionError, ConeViolationError
from .orbits import orbit
from .systems import FastSlowSystem


@dataclass(frozen=True)
class ConeFrame:
    """Tangent data after n steps from a base point."""

    n: int
    v: float               # expansion factor of (1, 0)
    log_v: float
    u: np.ndarray          # (d,) scaled unstable slope, |u| <= c
    s: np.ndarray          # (d,) central slope, |s| <= K
    r: float               # central normalization ratio (scalar for d = 1)
    Gamma: float           # product of df/dx along the orbit
    log_Gamma: float
    c: float
    a: float


def cone_constant(system: FastSlowSystem) -> float:
    return (system.K + 1.0) / (system.lam - 2.0)


def cone_frames(system: FastSlowSystem, eps: float, x0: float, theta0,
                n: int) -> list[ConeFrame]:
    """Frames for k = 0..n along the orbit of (x0, theta0).

    Raises ConeConditionError if eps*K*c > 1 (standing admissibility bound)
    and ConeViolationError with the offending step if a slope escapes,
    which signals a misconfigured lam or K.
    """
    c = cone_constant(system)
    if eps * system.K * c > 1.0 + 1e-12:
        raise ConeConditionError(
            f"eps*K*c = {eps * system.K * c:.4f} > 1; reduce eps (c={c:.4f})"
        )
    # certified bound for sup |df/dtheta| / (df/dx); enters the v vs Gamma bound
    a = c * system.dft_sup / system.lam

    orb = orbit(system, eps, x0, theta0, n)
    der = tangent_data(system, orb.x[:-1, None], orb.theta[:-1, None])   # a batch of one
    fx, ft, ox, ot = der
    us, log_v = (arr[:, 0] for arr in tangent_forward(*der, eps))
    norms = np.linalg.norm(us, axis=-1)
    bad = np.flatnonzero(norms > c * (1 + 1e-12))
    if bad.size:
        raise ConeViolationError(int(bad[0]), float(norms[bad[0]]), c)
    log_gamma = np.concatenate([[0.0], np.cumsum(np.log(fx[:, 0]))])

    # central slopes for every horizon m = 0..n at once: batch element m runs
    # the backward recursion from sigma = 0 at step m, so ft is zero at k >= m
    live = np.arange(n)[:, None] < np.arange(n + 1)                    # (n, n+1)
    sig = central_slopes(*(np.broadcast_to(arr, (n, n + 1) + arr.shape[2:])
                           for arr in (fx, np.where(live[..., None], ft, 0.0), ox, ot)), eps)
    # normalization ratio of the vertical component along the forward sweep
    eye = np.eye(system.d)
    step = eye + eps * (ox[..., None] * sig[:-1, :, None, :] + ot)
    R = np.broadcast_to(eye, (n + 1,) + eye.shape)
    for k in range(n):
        R = np.where(live[k, :, None, None], step[k] @ R, R)
    r = np.linalg.det(R) ** (1.0 / system.d)

    frames = []
    for m in range(n + 1):
        with np.errstate(over="ignore"):
            frames.append(
                ConeFrame(
                    n=m,
                    v=float(np.exp(log_v[m])),
                    log_v=float(log_v[m]),
                    u=us[m].copy(),
                    s=sig[0, m].copy(),
                    r=float(r[m]),
                    Gamma=float(np.exp(log_gamma[m])),
                    log_Gamma=float(log_gamma[m]),
                    c=c,
                    a=a,
                )
            )
    return frames


def tangent_data(system: FastSlowSystem, x, theta):
    """df/dx, df/dtheta, domega/dx and domega/dtheta at the points, as the recursions take them."""
    return (system.df_dx(x, theta), system.df_dtheta(x, theta),
            system.domega_dx(x, theta), system.domega_dtheta(x, theta))


def tangent_forward(fx, ft, ox, ot, eps):
    """Forward slope u_k and log expansion factor log v_k for k = 0..n.

    The inputs are the derivatives along n steps of B orbits: fx (n, B), ft
    and ox (n, B, d), ot (n, B, d, d). Returns u (n+1, B, d) and log_v
    (n+1, B), both zero at k = 0.
    """
    n, B, d = ft.shape
    u = np.zeros((n + 1, B, d))
    log_v = np.zeros((n + 1, B))
    for k in range(n):
        den = fx[k] + eps * np.einsum("nj,nj->n", ft[k], u[k])
        u[k + 1] = (ox[k] + u[k] + eps * np.einsum("nij,nj->ni", ot[k], u[k])) / den[:, None]
        log_v[k + 1] = log_v[k] + np.log(den)
    return u, log_v


def central_slopes(fx, ft, ox, ot, eps):
    """Backward central slopes sigma_k, k = 0..n, from sigma_n = 0; inputs as tangent_forward.

    The defining condition maps (sigma_0, 1) at the base to the vertical after
    n steps; backward iteration of the slope is a contraction (factor
    1/df/dx), so this is the numerically stable direction. Returns (n+1, B, d).
    """
    n, B, d = ft.shape
    sigma = np.zeros((n + 1, B, d))
    eye = np.eye(d)
    for k in range(n - 1, -1, -1):
        den = fx[k] - eps * np.einsum("nj,nj->n", sigma[k + 1], ox[k])
        m = eye + eps * ot[k]
        sigma[k] = (np.einsum("nji,nj->ni", m, sigma[k + 1]) - ft[k]) / den[:, None]
    return sigma


def check_frames(system: FastSlowSystem, frames: list[ConeFrame], eps: float,
                 rtol: float = 1e-9) -> dict:
    """Verify the cone-frame bounds; returns measured constants.

    Checks |u| <= c, |s| <= K and Gamma * exp(-a*eps*n) <= v <= Gamma *
    exp(a*eps*n); the per-step ratio bound b for r is measured and reported
    rather than assumed.
    """
    c = frames[0].c
    a = frames[0].a
    b_measured = 0.0
    for k in range(1, len(frames)):
        fr = frames[k]
        if np.linalg.norm(fr.u) > c * (1 + rtol):
            raise ConeViolationError(k, float(np.linalg.norm(fr.u)), c)
        if np.linalg.norm(fr.s) > system.K * (1 + rtol):
            raise ConeViolationError(k, float(np.linalg.norm(fr.s)), system.K)
        width = a * eps * k
        dev = fr.log_v - fr.log_Gamma
        if not (-width - rtol <= dev <= width + rtol):
            raise ConeViolationError(k, float(dev), width)
        if eps > 0:
            prev = frames[k - 1]
            if prev.r > 0 and fr.r > 0:
                b_measured = max(b_measured, abs(np.log(fr.r / prev.r)) / eps)
    return {"c": c, "a": a, "b_measured": b_measured}
