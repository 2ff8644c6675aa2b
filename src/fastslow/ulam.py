"""Transfer-operator discretization and invariant densities.

The frozen fast map f(., theta) is discretized on N uniform cells by exact
branch inversion: the matrix entry P[i, j] is the fraction of cell j that
lands in cell i, computed from Newton-solved preimages of cell boundaries
(systems.invert_monotone, ~4 passes), not from sampling. Columns are
stochastic, so grid density values (quadrature weight 1/N) are mapped to
grid density values. The invariant density is the power-iteration fixed point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import BranchInversionError, SRBConvergenceError
from .systems import FastSlowSystem, invert_monotone, torus

DENSITY_TOL = 1e-12     # L1 fixed-point residual of the power iteration


@dataclass(frozen=True)
class UlamOperator:
    """Column-stochastic discretized transfer operator at frozen theta."""

    theta: np.ndarray          # (d,)
    N: int
    P: sp.csr_matrix           # (N, N), acts on grid density values
    column_defect: float       # max |column sum - 1| before normalization


@dataclass(frozen=True)
class SRBDensity:
    """Grid values of the invariant density; integrates to 1 with weight 1/N."""

    theta: np.ndarray
    N: int
    rho: np.ndarray            # (N,)
    residual: float            # final L1 fixed-point residual
    iterations: int

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.N) + 0.5) / self.N

    def integrate(self, values) -> float:
        """Quadrature of grid values (or a callable of x) against the density."""
        if callable(values):
            values = values(self.midpoints)
        return float(np.mean(np.asarray(values) * self.rho))


def ulam_operator(system: FastSlowSystem, theta, N: int) -> UlamOperator:
    """Exact-inversion Ulam matrix of f(., theta) on N cells.

    Requires N >= 16 and a monotone lift (guaranteed when df/dx >= lam > 2;
    a residual check still guards against inconsistent inputs).
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    theta = torus(np.atleast_1d(np.asarray(theta, dtype=float)))
    F = system.frozen_map(theta)
    xb = np.arange(N + 1) / N
    Fb = F(xb)
    if np.any(np.diff(Fb) <= 0):
        raise BranchInversionError("lifted fast map is not increasing across cells")

    # inner crossing levels k/N with Fb[j] < k/N < Fb[j+1], flattened
    k_lo = np.floor(Fb[:-1] * N).astype(np.int64) + 1
    k_hi = np.ceil(Fb[1:] * N).astype(np.int64) - 1
    counts = np.maximum(k_hi - k_lo + 1, 0)
    total = int(counts.sum())
    col_of = np.repeat(np.arange(N), counts)
    start = np.concatenate([[0], np.cumsum(counts)])
    within = np.arange(total) - np.repeat(start[:-1], counts)
    klev = np.repeat(k_lo, counts) + within
    ylev = klev / N

    # preimages of the crossing levels inside their cells
    x = invert_monotone(F, lambda x: system.df_dx(x, theta), xb[col_of], xb[col_of + 1], ylev)
    resid = np.abs(F(x) - ylev)
    if total and resid.max() > 1e-10:
        raise BranchInversionError(
            f"crossing inversion residual {resid.max():.2e}; grid too coarse "
            "or map not monotone on a cell"
        )

    # segments between consecutive crossings within each column
    seg_counts = counts + 1
    seg_total = int(seg_counts.sum())
    seg_col = np.repeat(np.arange(N), seg_counts)
    seg_start = np.concatenate([[0], np.cumsum(seg_counts)])
    w = np.arange(seg_total) - np.repeat(seg_start[:-1], seg_counts)
    first = w == 0
    last = w == np.repeat(seg_counts, seg_counts) - 1
    cross_base = np.repeat(start[:-1], seg_counts)
    left_idx = np.clip(cross_base + w - 1, 0, max(total - 1, 0))
    right_idx = np.clip(cross_base + w, 0, max(total - 1, 0))
    if total:
        x_left = np.where(first, xb[seg_col], x[left_idx])
        x_right = np.where(last, xb[seg_col + 1], x[right_idx])
        y_left = np.where(first, Fb[seg_col], ylev[left_idx])
        y_right = np.where(last, Fb[seg_col + 1], ylev[right_idx])
    else:
        x_left, x_right = xb[:-1], xb[1:]
        y_left, y_right = Fb[:-1], Fb[1:]
    cell = np.mod(np.floor(0.5 * (y_left + y_right) * N).astype(np.int64), N)
    weight = (x_right - x_left) * N

    P = sp.coo_matrix((weight, (cell, seg_col)), shape=(N, N)).tocsr()
    colsum = np.asarray(P.sum(axis=0)).ravel()
    defect = float(np.abs(colsum - 1.0).max())
    if defect > 1e-12:
        raise BranchInversionError(f"column mass defect {defect:.2e} above 1e-12")
    P = P @ sp.diags(1.0 / colsum)
    return UlamOperator(theta=theta, N=N, P=P.tocsr(), column_defect=defect)


def srb_density(op: UlamOperator, max_iter: int = 5000) -> SRBDensity:
    """Power iteration from the uniform density to the invariant density.

    Convergence is to L1 residual <= DENSITY_TOL (weight 1/N). Non-convergence raises
    with an estimate of the second eigenvalue from the residual decay.
    """
    rho = np.ones(op.N)
    res_prev = np.inf
    ratio = np.nan
    for it in range(1, max_iter + 1):
        rho1 = op.P @ rho
        rho1 /= rho1.mean()
        res = float(np.abs(rho1 - rho).mean())
        if res_prev < np.inf and res > 0:
            ratio = res / res_prev
        rho = rho1
        if res <= DENSITY_TOL:
            return SRBDensity(theta=op.theta, N=op.N, rho=rho, residual=res, iterations=it)
        res_prev = res
    raise SRBConvergenceError(res, max_iter, float(ratio))
