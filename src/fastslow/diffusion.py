"""Averaged drift, drift Jacobian, autocovariances and diffusion matrix.

The diffusion matrix is the summed-autocovariance (Green-Kubo) series of the
centered drift under the frozen dynamics,

    sigma2 = Gamma_0 + sum_{m>=1} (Gamma_m + Gamma_m^T),

truncated where the certified correlation decay makes the tail negligible and
verified a posteriori. The symmetric PSD square root comes from a dense
eigendecomposition; the slow dimension is small (1-3) so dense d x d work is
free while the N x N transfer matrix stays sparse.

This module owns the sizes of the frozen solve: ULAM_N cells, the cutoff
default_truncation(lam) and the tail bound TAIL_TOL. No config sets them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import NegativeEigenvalueError, TruncationTailError
from .systems import FastSlowSystem
from .ulam import SRBDensity, UlamOperator, srb_density, ulam_operator

ULAM_N = 4096           # transfer-operator grid cells of the frozen solve
TAIL_TOL = 1e-9         # bound on ||Gamma_k|| over the tail window [M/2, M]
FD_STEP = 1e-3          # central-difference step of the drift Jacobian
CLAMP_TOL = 1e-9        # eigenvalues within -CLAMP_TOL of 0 are discretization noise
COBOUNDARY_TOL = 1e-3   # smallest eigenvalue <= this * trace(Gamma_0): degenerate


def default_truncation(lam: float) -> int:
    """Autocovariance cutoff from the certified expansion rate.

    Correlations decay at least geometrically for smooth expanding maps, so a
    multiple of log(1/TAIL_TOL)/log(lambda) steps suffices; the factor 10
    leaves room for a slow prefactor and the tail check verifies a posteriori.
    """
    m = math.ceil(10.0 * math.log(1.0 / TAIL_TOL) / math.log(lam))
    return max(8, min(m, 400))


def average_drift(system: FastSlowSystem, density: SRBDensity) -> np.ndarray:
    """Drift averaged against the invariant density: (d,) vector."""
    om = system.omega(density.midpoints, density.theta)      # (N, d)
    return (om * density.rho[:, None]).mean(axis=0)


def omega_bar(system: FastSlowSystem, theta, N: int) -> np.ndarray:
    """Convenience: fresh transfer-operator solve, then average_drift."""
    op = ulam_operator(system, theta, N)
    return average_drift(system, srb_density(op))


def drift_jacobian(system: FastSlowSystem, theta, h: float, N: int) -> np.ndarray:
    """Jacobian of the averaged drift by central differences.

    Each column requires two fresh invariant-density solves at theta +- h e_j.
    h must lie in [1e-6, 1e-2]: below that the solve noise dominates, above
    the O(h^2) truncation does.
    """
    if not (1e-6 <= h <= 1e-2):
        raise ValueError("finite-difference step h must lie in [1e-6, 1e-2]")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = system.d
    jac = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        wp = omega_bar(system, theta + e, N)
        wm = omega_bar(system, theta - e, N)
        jac[:, j] = (wp - wm) / (2 * h)
    return jac


def centered_drift_values(system: FastSlowSystem, density: SRBDensity) -> np.ndarray:
    """Grid values of omega - omega_bar at the density's theta: (N, d)."""
    om = system.omega(density.midpoints, density.theta)
    return om - (om * density.rho[:, None]).mean(axis=0)


def autocovariances(system: FastSlowSystem, ops: Sequence[UlamOperator],
                    densities: Sequence[SRBDensity], kmax: int) -> np.ndarray:
    """Gamma_k for k = 0..kmax at each of B equal-N solves: (B, kmax+1, d, d).

    Gamma_k[i, j] = int (omega_hat_i o f^k) * omega_hat_j dm, computed by k
    pushforwards of the signed measures omega_hat_j * m under the discretized
    transfer operator, then quadrature against omega_hat_i. The B operators
    act as one block-diagonal CSR matrix, so each lag is one sparse product
    for all of them; the blocks keep each operator's entry order, so every
    Gamma_k equals the one of its operator alone to the bit.
    """
    B, N, d = len(ops), densities[0].N, system.d
    # by hand, not sp.block_diag: its COO round trip may reorder a row's entries
    nnz = np.cumsum([0] + [op.P.nnz for op in ops])
    P = sp.csr_matrix((np.concatenate([op.P.data for op in ops]),
                       np.concatenate([op.P.indices + i * N for i, op in enumerate(ops)]),
                       np.concatenate([op.P.indptr[:-1] + nnz[i] for i, op in enumerate(ops)]
                                      + [nnz[-1:]])), shape=(B * N, B * N))
    what = np.stack([centered_drift_values(system, density) for density in densities])
    # density values of hat-omega_j dm, the B blocks stacked
    push = (what * np.stack([density.rho for density in densities])[..., None]).reshape(B * N, d)
    gam = np.empty((B, kmax + 1, d, d))
    for k in range(kmax + 1):
        gam[:, k] = what.transpose(0, 2, 1) @ push.reshape(B, N, d) / N
        if k < kmax:
            push = P @ push
    return gam


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
        raise TruncationTailError(
            f"||Gamma_k|| tail {tail:.2e} above {TAIL_TOL:.1e}; increase M"
        )

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

    The sum runs to M = default_truncation(lam) and its checks are those of
    green_kubo: a materially negative eigenvalue signals a truncation that is
    too short or a grid that is too coarse, and the tail of ||Gamma_k|| over
    [M/2, M] must fall below TAIL_TOL.
    """
    M = default_truncation(system.lam)
    op = ulam_operator(system, theta, N)
    density = srb_density(op)
    wbar = average_drift(system, density)
    gam = autocovariances(system, [op], [density], M)[0]

    sigma2, evals, tail = green_kubo(gam)
    sigma = sym_sqrt(sigma2)
    scale = max(float(np.trace(gam[0])), 1e-30)
    coboundary = bool(evals.min() <= COBOUNDARY_TOL * scale)
    decay = _fit_decay(np.linalg.norm(gam, axis=(1, 2)))

    dbar = (
        drift_jacobian(system, theta, FD_STEP, N)
        if with_jacobian
        else np.full((system.d, system.d), np.nan)
    )
    return DiffusionContext(
        theta=np.atleast_1d(np.asarray(theta, dtype=float)),
        N=N, M=M, omega_bar=wbar, D_omega_bar=dbar,
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
