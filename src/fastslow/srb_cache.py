"""Drift and diffusion over the slow torus as a trigonometric interpolant.

omega_bar and sigma2 are tabulated once, at construction, on a uniform grid
of n^d nodes. Each node has its own Ulam matrix and invariant density; the
autocovariances of all the nodes a level adds come from one block-diagonal
push, sized by its tail check (M is the largest truncation of any level),
then each node gets its averaged drift and checked Green-Kubo sum. The block
is built once per level and is the only copy of its matrices during the push.
Queries evaluate the interpolant of the immutable table and d_omega_bar is
its exact derivative, so the providers are smooth, thread-safe and cost no
solve.

The grid starts at 8 nodes per dimension and doubles in all dimensions,
keeping the old nodes. Each doubling measures the coarse interpolant's worst
miss at the new nodes, relative to sup |value|, for omega_bar and sigma2. The
miss levels off at the noise of the Ulam solves, so refinement stops at the
first doubling that does not halve the larger miss, or when it is 0, and
keeps the finer table; outgrowing MAX_NODES raises FastSlowError.
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np

from .diffusion import ULAM_N, average_drift, green_kubo, push_autocovariances
from .exceptions import FastSlowError
from .systems import FastSlowSystem, torus
from .ulam import block_diagonal, srb_density, ulam_operator

START_NODES = 8        # nodes per dimension of the first table
MAX_NODES = 4096       # ceiling on the total node count


def _fit(table: np.ndarray, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of an (n^d, m) table, and 2 pi i times the frequencies."""
    coef = np.fft.fftn(table.reshape((n,) * d + (-1,)), axes=range(d)) / n ** d
    return coef, 2j * np.pi * np.fft.fftfreq(n, 1.0 / n)


def _evaluate(coef: np.ndarray, wave: np.ndarray, thetas: np.ndarray,
              wrt: Optional[int] = None) -> np.ndarray:
    """Real part of sum_k c_k e^{2 pi i <k, theta>} at (P, d) points: (P, m).

    With wrt = j, the derivative along theta_j. Taking the real part splits
    the Nyquist mode symmetrically, so this is the real interpolant of the
    table and its exact derivative.
    """
    P, d = thetas.shape
    n = wave.shape[0]
    basis = np.exp(wave * torus(thetas)[..., None])     # (P, d, n)
    if wrt is not None:
        basis[:, wrt] *= wave
    out = basis[:, 0] @ coef.reshape(n, -1)
    for j in range(1, d):
        out = np.einsum("pa,par->pr", basis[:, j], out.reshape(P, n, -1))
    return out.real


class SRBCache:
    def __init__(self, system: FastSlowSystem, N: int = ULAM_N):
        t0 = time.perf_counter()
        self.system = system
        self.N = int(N)
        self.M = 0
        d = self.d = system.d
        n, table, last = START_NODES, None, np.inf
        while True:
            if (2 * n) ** d > MAX_NODES:
                raise FastSlowError(
                    f"drift/diffusion table still refining at {n}^{d} nodes "
                    f"(miss {last:.2e}); the next doubling exceeds {MAX_NODES} nodes"
                )
            if table is None:       # every table is doubled at least once
                table = self._solve(np.indices((n,) * d).reshape(d, -1).T / n)
            idx = np.indices((2 * n,) * d).reshape(d, -1).T
            new = (idx % 2).any(axis=1)     # in C order the rest is the old table
            values = self._solve(idx[new] / (2 * n))
            err = np.abs(_evaluate(*_fit(table, n, d), idx[new] / (2 * n)) - values)
            fine = np.empty((new.size, table.shape[1]))
            fine[~new], fine[new] = table, values
            self.miss = {key: float(err[:, cols].max()
                                    / max(np.abs(fine[:, cols]).max(), np.finfo(float).tiny))
                         for key, cols in (("omega_bar", slice(0, d)),
                                           ("sigma2", slice(d, None)))}
            table, n = fine, 2 * n
            worst = max(self.miss.values())
            if worst == 0.0 or worst > 0.5 * last:
                break
            last = worst
        self.n = n
        self._series = _fit(table, n, d)
        self.fill_s = time.perf_counter() - t0

    def _solve(self, thetas: np.ndarray) -> np.ndarray:
        """Frozen solve at each row of thetas: (P, d + d*d) of omega_bar, sigma2."""
        ops = [ulam_operator(self.system, theta, self.N) for theta in thetas]
        densities = [srb_density(op) for op in ops]
        P = block_diagonal(ops)
        del ops
        gams = push_autocovariances(self.system, P, densities)
        self.M = max(self.M, gams.shape[1] - 1)
        return np.array([np.concatenate([average_drift(self.system, density),
                                         green_kubo(gam)[0].ravel()])
                         for density, gam in zip(densities, gams)])

    def _at(self, theta, wrt: Optional[int] = None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float).reshape(1, self.d)
        return _evaluate(*self._series, theta, wrt)[0]

    # -- public providers ----------------------------------------------------

    def omega_bar(self, theta) -> np.ndarray:
        return self._at(theta)[: self.d]

    def sigma2(self, theta) -> np.ndarray:
        s = self._at(theta)[self.d:].reshape(self.d, self.d)
        return 0.5 * (s + s.T)

    def d_omega_bar(self, theta) -> np.ndarray:
        return np.stack([self._at(theta, wrt=j)[: self.d] for j in range(self.d)], axis=1)

    def stats(self) -> dict:
        return {"nodes": self.n ** self.d, "nodes_per_dim": self.n, "N": self.N,
                "M": self.M, "fill_s": round(self.fill_s, 3),
                "miss_omega_bar": self.miss["omega_bar"],
                "miss_sigma2": self.miss["sigma2"]}
