"""Averaged drift, drift Jacobian, autocovariances and diffusion matrix.

The diffusion matrix is the summed-autocovariance (Green-Kubo) series of the
centered drift under the frozen dynamics,

    sigma2 = Gamma_0 + sum_{m>=1} (Gamma_m + Gamma_m^T),

truncated at M lags: M starts at default_truncation(lam) and doubles, up to
MAX_TRUNCATION, until max ||Gamma_k|| over [M/2, M] is at most TAIL_TOL.
The symmetric PSD square root comes from a dense eigendecomposition; the
slow dimension is small (1-3) so dense d x d work is free while the N x N
transfer matrix stays sparse. Its format is ulam's: this module only
multiplies by the matrices that ulam builds, and imports no scipy.

These sizes of the frozen solve and its ULAM_N cells are constants of this
module; no config sets them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import NegativeEigenvalueError, TruncationTailError
from .systems import FastSlowSystem
from .ulam import SRBDensity, block_diagonal, srb_density, ulam_operator

ULAM_N = 4096           # transfer-operator grid cells of the frozen solve
TAIL_TOL = 1e-9         # bound on ||Gamma_k|| over the tail window [M/2, M]
MAX_TRUNCATION = 400    # ceiling on the truncation M of the Green-Kubo sum
FD_STEP = 1e-3          # central-difference step of the drift Jacobian
CLAMP_TOL = 1e-9        # eigenvalues within -CLAMP_TOL of 0 are discretization noise
COBOUNDARY_TOL = 1e-3   # smallest eigenvalue <= this * trace(Gamma_0): degenerate


def default_truncation(lam: float) -> int:
    """Starting cutoff: twice the lag where lam^-k reaches TAIL_TOL, since the
    transfer operator of a map expanding by lam has essential spectral radius
    1/lam; the tail window [M/2, M] then starts where that decay meets the check.
    """
    return max(8, 2 * math.ceil(math.log(1.0 / TAIL_TOL) / math.log(lam)))


def average_drift(system: FastSlowSystem, density: SRBDensity) -> np.ndarray:
    """Drift averaged against the invariant density: (d,) vector."""
    om = system.omega(density.midpoints, density.theta)      # (N, d)
    return (om * density.rho[:, None]).mean(axis=0)


def drift_jacobian(system: FastSlowSystem, theta, N: int) -> np.ndarray:
    """Jacobian of the averaged drift by central differences of step FD_STEP.

    Each column requires two fresh invariant-density solves at theta +- FD_STEP e_j.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = system.d
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = FD_STEP
        wp = average_drift(system, srb_density(ulam_operator(system, theta + e, N)))
        wm = average_drift(system, srb_density(ulam_operator(system, theta - e, N)))
        jac[:, j] = (wp - wm) / (2 * FD_STEP)
    return jac


def centered_drift_values(system: FastSlowSystem, density: SRBDensity) -> np.ndarray:
    """Grid values of omega - omega_bar at the density's theta: (N, d)."""
    om = system.omega(density.midpoints, density.theta)
    return om - (om * density.rho[:, None]).mean(axis=0)


def autocovariances(system: FastSlowSystem, P, densities: Sequence[SRBDensity],
                    kmax: int) -> np.ndarray:
    """Gamma_k for k = 0..kmax at each of B equal-N solves: (B, kmax+1, d, d).

    Gamma_k[i, j] = int (omega_hat_i o f^k) * omega_hat_j dm, computed by k
    pushforwards of the signed measures omega_hat_j * m under the discretized
    transfer operator, then quadrature against omega_hat_i. P is the
    ulam.block_diagonal matrix of the B operators, so each lag is one sparse
    product for all of them, and every Gamma_k equals the one of its operator
    alone to the bit.
    """
    B, N, d = len(densities), densities[0].N, system.d
    what = np.stack([centered_drift_values(system, density) for density in densities])
    # density values of hat-omega_j dm, the B blocks stacked
    push = (what * np.stack([density.rho for density in densities])[..., None]).reshape(B * N, d)
    gam = np.empty((B, kmax + 1, d, d))
    for k in range(kmax + 1):
        gam[:, k] = what.transpose(0, 2, 1) @ push.reshape(B, N, d) / N
        if k < kmax:
            push = P @ push
    return gam


def push_autocovariances(system: FastSlowSystem, P,
                         densities: Sequence[SRBDensity]) -> np.ndarray:
    """autocovariances to an M sized by the tail check: (B, M+1, d, d).

    P is the block of the B operators, built once for every M tried: M starts
    at default_truncation(lam) and doubles, up to MAX_TRUNCATION, while some
    solve's max ||Gamma_k|| over [M/2, M] exceeds TAIL_TOL.
    """
    M = default_truncation(system.lam)
    while True:
        gam = autocovariances(system, P, densities, M)
        if M >= MAX_TRUNCATION or np.linalg.norm(gam[:, M // 2:], axis=(2, 3)).max() <= TAIL_TOL:
            return gam
        M = min(2 * M, MAX_TRUNCATION)


def green_kubo(gam: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Green-Kubo sum of Gamma_0..Gamma_M with the checks every caller needs.

    Returns (sigma2, eigenvalues clamped at zero, tail estimate). Raises if
    the sum is not symmetric to 1e-12, if max ||Gamma_k|| over k in [M/2, M]
    exceeds TAIL_TOL, or if an eigenvalue lies below -CLAMP_TOL.
    """
    M = gam.shape[0] - 1
    tail_sum = gam[1:].sum(axis=0)
    sigma2 = gam[0] + tail_sum + tail_sum.T
    asym = float(np.abs(sigma2 - sigma2.T).max())
    if asym > 1e-12:
        raise NegativeEigenvalueError(f"sigma2 asymmetry {asym:.2e} above 1e-12")
    sigma2 = 0.5 * (sigma2 + sigma2.T)

    tail = float(np.linalg.norm(gam[M // 2:], axis=(1, 2)).max())
    if tail > TAIL_TOL:
        raise TruncationTailError(f"||Gamma_k|| tail {tail:.2e} above {TAIL_TOL:.1e} at M = {M}")

    evals = np.linalg.eigvalsh(sigma2)
    if evals.min() < -CLAMP_TOL:
        raise NegativeEigenvalueError(
            f"sigma2 eigenvalue {evals.min():.3e} below -{CLAMP_TOL:.1e}"
        )
    return sigma2, np.maximum(evals, 0.0), tail


@dataclass(frozen=True)
class DiffusionContext:
    """Everything the fluctuation law needs at one frozen theta."""

    theta: np.ndarray
    N: int
    M: int                       # truncation of the autocovariance sum
    omega_bar: np.ndarray        # (d,)
    D_omega_bar: np.ndarray      # (d, d)
    sigma2: np.ndarray           # (d, d) symmetric PSD
    sigma: np.ndarray            # (d, d) symmetric PSD square root
    tail_estimate: float         # max ||Gamma_k|| over k in [M/2, M]
    coboundary: bool             # degenerate diffusion detected
    decay_rate: Optional[float]  # fitted exponential rate of ||Gamma_k||, if resolvable


def diffusion_matrix(system: FastSlowSystem, theta, N: int,
                     with_jacobian: bool = True) -> DiffusionContext:
    """Assemble the diffusion matrix and its context at frozen theta.

    The sum runs to the M that push_autocovariances sizes by its tail check,
    and ctx.M reports it. The checks are those of green_kubo: a materially
    negative eigenvalue signals a truncation that is too short or a grid that
    is too coarse, and the tail of ||Gamma_k|| over [M/2, M] must fall below
    TAIL_TOL, which past MAX_TRUNCATION raises TruncationTailError.
    """
    op = ulam_operator(system, theta, N)
    density = srb_density(op)
    wbar = average_drift(system, density)
    gam = push_autocovariances(system, block_diagonal([op]), [density])[0]

    sigma2, evals, tail = green_kubo(gam)
    sigma = sym_sqrt(sigma2)
    scale = max(float(np.trace(gam[0])), 1e-30)
    coboundary = bool(evals.min() <= COBOUNDARY_TOL * scale)
    decay = _fit_decay(np.linalg.norm(gam, axis=(1, 2)))

    dbar = (
        drift_jacobian(system, theta, N)
        if with_jacobian
        else np.full((system.d, system.d), np.nan)
    )
    return DiffusionContext(
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        N=N, M=gam.shape[0] - 1, omega_bar=wbar, D_omega_bar=dbar,
        sigma2=sigma2, sigma=sigma, tail_estimate=tail,
        coboundary=coboundary, decay_rate=decay,
    )


def _fit_decay(norms: np.ndarray) -> Optional[float]:
    """Least-squares exponential rate of ||Gamma_k|| decay, k >= 1."""
    ks = np.arange(1, norms.shape[0])
    mask = norms[1:] > 1e-14
    if mask.sum() < 3:
        return None
    slope = np.polyfit(ks[mask], np.log(norms[1:][mask]), 1)[0]
    return float(-slope)


def sym_sqrt(A: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via the eigendecomposition."""
    w, V = np.linalg.eigh(np.asarray(A, dtype=float))
    if w.min() < -CLAMP_TOL:
        raise NegativeEigenvalueError(f"matrix eigenvalue {w.min():.3e} below -{CLAMP_TOL:.1e}")
    w = np.maximum(w, 0.0)
    S = (V * np.sqrt(w)) @ V.T
    return 0.5 * (S + S.T)
