"""Transfer-operator discretization and invariant densities.

The frozen fast map f(., theta) is discretized on N uniform cells by exact
branch inversion: the matrix entry P[i, j] is the fraction of cell j that
lands in cell i, computed from Newton-solved preimages of cell boundaries
(systems.invert_monotone from the chord of each cell: one or two Newton
steps, two or three evaluations of f, and the residual it returns is the
one checked), not from sampling. The cell edges and the preimages form one
sorted list whose consecutive points bound the segments of each column, so
the matrix is assembled in CSC form in one pass and each column is divided
by its sum. Columns are stochastic, so grid density values (quadrature
weight 1/N) are mapped to grid density values. The invariant density is the
power-iteration fixed point.

This module is the only one that knows the sparse matrix format, and the only
one that imports scipy for it: ulam_operator and block_diagonal import
scipy.sparse on entry, so a process that never builds a transfer matrix (an
ensemble driven by given providers, shadow, decompose) never loads it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import FastSlowError
from .systems import FastSlowSystem, invert_monotone, torus

DENSITY_TOL = 1e-12       # L1 fixed-point residual of the power iteration
DENSITY_MAX_ITER = 5000   # power-iteration steps before FastSlowError


@dataclass(frozen=True)
class UlamOperator:
    """Column-stochastic discretized transfer operator at frozen theta."""

    theta: np.ndarray          # (d,)
    N: int
    P: "scipy.sparse.csr_matrix"  # (N, N), acts on grid density values
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


def ulam_operator(system: FastSlowSystem, theta, N: int) -> UlamOperator:
    """Exact-inversion Ulam matrix of f(., theta) on N cells.

    Requires N >= 16 and a monotone lift (guaranteed when df/dx >= lam > 2;
    a residual check still guards against inconsistent inputs).
    """
    import scipy.sparse as sp

    if N < 16:
        raise ValueError("N must be >= 16")
    theta = torus(np.atleast_1d(np.asarray(theta, dtype=float)))

    def F(x):
        return system.f_lift(x, theta)

    xb = np.arange(N + 1) / N
    Fb = F(xb)
    dFb = np.diff(Fb)
    if np.any(dFb <= 0):
        raise FastSlowError("lifted fast map is not increasing across cells")

    # inner crossing levels k/N with Fb[j] < k/N < Fb[j+1], column by column;
    # each image is longer than lam/N > 2/N, so every column holds a crossing
    k_lo = np.floor(Fb[:-1] * N).astype(np.int64) + 1
    counts = np.ceil(Fb[1:] * N).astype(np.int64) - k_lo
    col = np.repeat(np.arange(N), counts)
    ylev = ((k_lo - np.cumsum(counts) + counts)[col] + np.arange(col.size)) / N

    # preimages of the crossing levels, Newton from the chord of their cell
    chord = xb[col] + (ylev - Fb[col]) / dFb[col] / N
    x, r = invert_monotone(F, lambda x: system.df_dx(x, theta), xb[col], xb[col + 1], ylev,
                           chord)
    resid = float(np.abs(r).max())
    del r       # one float per crossing, not needed through the assembly's peak
    if resid > 1e-10:
        raise FastSlowError(f"crossing inversion residual {resid:.2e}; grid too "
                            "coarse or map not monotone on a cell")

    # xb[0], the crossings of column 0, xb[1], ..., xb[N]: consecutive points bound
    # the segments, already grouped by column, and the cell edges sit at the indptr
    indptr = np.concatenate([[0], np.cumsum(counts + 1)])
    inner = np.arange(col.size) + col + 1
    xs, ys = np.empty((2, indptr[-1] + 1))
    xs[indptr], xs[inner], ys[indptr], ys[inner] = xb, x, Fb, ylev
    weight = np.diff(xs) * N
    cell = np.floor(0.5 * (ys[:-1] + ys[1:]) * N).astype(np.int64) % N

    colsum = np.add.reduceat(weight, indptr[:-1])
    defect = float(np.abs(colsum - 1.0).max())
    if defect > 1e-12:
        raise FastSlowError(f"column mass defect {defect:.2e} above 1e-12")
    P = sp.csc_matrix((weight / np.repeat(colsum, counts + 1), cell, indptr), shape=(N, N))
    return UlamOperator(theta=theta, N=N, P=P.tocsr(), column_defect=defect)


def block_diagonal(ops: Sequence[UlamOperator]) -> "scipy.sparse.csr_matrix":
    """The operators' matrices as one block-diagonal CSR matrix, block i the
    P of ops[i]; the blocks keep each operator's entry order, so a product with
    it equals the products with each operator alone to the bit. The block of
    one operator is its own P, not a copy."""
    if len(ops) == 1:
        return ops[0].P
    import scipy.sparse as sp

    # by hand, not sp.block_diag: its COO round trip may reorder a row's
    # entries; each operator is copied straight into its slice of the block
    B, N = len(ops), ops[0].N
    nnz = np.cumsum([0] + [op.P.nnz for op in ops])
    index = np.int32 if nnz[-1] < 2**31 else np.int64
    data, indices = np.empty(nnz[-1]), np.empty(nnz[-1], dtype=index)
    indptr = np.empty(B * N + 1, dtype=index)
    for i, op in enumerate(ops):
        data[nnz[i]:nnz[i + 1]] = op.P.data
        indices[nnz[i]:nnz[i + 1]] = op.P.indices + i * N
        indptr[i * N:(i + 1) * N] = op.P.indptr[:-1] + nnz[i]
    indptr[-1] = nnz[-1]
    return sp.csr_matrix((data, indices, indptr), shape=(B * N, B * N))


def srb_density(op: UlamOperator) -> SRBDensity:
    """Power iteration from the uniform density to the invariant density.

    Convergence is to L1 residual <= DENSITY_TOL (weight 1/N) within
    DENSITY_MAX_ITER steps. Non-convergence raises with an estimate of the
    second eigenvalue from the residual decay.
    """
    rho = np.ones(op.N)
    res_prev = np.inf
    ratio = np.nan
    for it in range(1, DENSITY_MAX_ITER + 1):
        rho1 = op.P @ rho
        # the float operations of .mean(), without its Python wrapper
        rho1 /= np.add.reduce(rho1) / op.N
        res = float(np.add.reduce(np.abs(rho1 - rho)) / op.N)
        if res_prev < np.inf and res > 0:
            ratio = res / res_prev
        rho = rho1
        if res <= DENSITY_TOL:
            return SRBDensity(theta=op.theta, N=op.N, rho=rho, residual=res, iterations=it)
        res_prev = res
    raise FastSlowError(f"invariant density iteration stalled: residual {res:.3e} "
                        f"after {DENSITY_MAX_ITER} iterations (second eigenvalue ~ {ratio:.4f})")
