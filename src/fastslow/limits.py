"""Averaged trajectory, fluctuation covariance and the Gaussian law.

The slow path concentrates on the solution of theta' = omega_bar(theta); the
rescaled deviation converges to a zero-mean Gaussian process whose law is
pinned by a time-dependent second-order generator. Uniqueness holds through
a conjugation trick: with S solving S' = -S B(t), S(0) = Id (B the drift
Jacobian along the averaged path), eta = S zeta is a martingale with
covariance rate S sigma2 S^T, which yields closed-form finite-dimensional
distributions. The direct covariance ODE

    Sigma' = B Sigma + Sigma B^T + sigma2,   Sigma(0) = 0

and the conjugated reconstruction S^-1 [int S sigma2 S^T] S^-T are computed
together and must agree; disagreement signals a provider discontinuity or an
integrator failure. Note the right multiplication in S' = -S B: with a left
product the reconstruction identity fails whenever B(t) does not commute
with its history, and the flow inverse S(t)^-1 would not solve Phi' = B Phi.

Given zeta(s), zeta(t) is Gaussian with mean Phi(s, t) zeta(s) and covariance
`conditional_covariance(s, t)`; with zeta(0) = 0 the characteristic function
at t is exp(-<lam, Sigma(t) lam>/2), which is what `experiments.clt_test` reads.

Both ODEs are solved by the in-package DOP853 of `ode` (Hairer, Norsett &
Wanner, Solving ODEs I, II.5-II.6): bit-identical to, and tested against,
scipy 1.17.1's solve_ivp(method="DOP853", dense_output=True).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import FastSlowError
from .ode import DenseOutput, dop853

Provider = Callable[[np.ndarray], np.ndarray]

AVERAGED_TOL = 1e-10     # local tolerance of the averaged solve
COVARIANCE_TOL = 1e-11   # local tolerance of the joint covariance solve
ROUTE_TOL = 1e-8         # largest admitted disagreement of the two covariance routes


@dataclass
class AveragedTrajectory:
    """Dense-output solution of the averaged slow dynamics (in the lift) on [0, T]."""

    theta0: np.ndarray
    T: float
    sol: DenseOutput           # piecewise DOP853 interpolant of theta

    def at(self, t):
        """Averaged position; (d,) for scalar t, else (len(t), d)."""
        t = np.asarray(t, dtype=float)
        out = self.sol(t)
        return out.T if t.ndim else out


def solve_averaged(drift: Provider, theta0, T: float) -> AveragedTrajectory:
    """Adaptive Dormand-Prince 8(5,3) solve (`ode.dop853`) with dense output.

    The drift provider must accept any real theta (it reduces to the torus
    internally). A start or a T that is not finite raises FastSlowError.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))

    def rhs(t, y):
        return np.asarray(drift(y), dtype=float).ravel()

    sol = dop853(rhs, T, theta0, AVERAGED_TOL, 0.01 * AVERAGED_TOL)
    if sol.message is not None:
        raise FastSlowError(f"averaged solve failed: {sol.message}")
    return AveragedTrajectory(theta0=theta0, T=T, sol=sol)


def _conjugated(S: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The conjugated reconstruction S^-1 I S^-T."""
    X = np.linalg.solve(S, I)
    return np.linalg.solve(S, X.T).T


@dataclass
class CovarianceTrajectory:
    """The Gaussian limit law along the averaged path: Sigma(t) and the flow S(t),
    S' = -S B, read from one dense solve on [0, avg.T], and the providers."""

    avg: AveragedTrajectory
    jac_provider: Provider
    sigma2_provider: Provider
    sol: DenseOutput           # piecewise DOP853 interpolant of (S, Sigma, I, det S)
    cross_check: float         # worst disagreement of the two covariance routes at out_times

    @property
    def d(self) -> int:
        return self.avg.theta0.shape[0]

    def _blocks(self, t):
        y = self.sol(np.asarray(t, dtype=float))
        d = self.d
        S = y[: d * d].reshape(d, d)
        Sig = y[d * d: 2 * d * d].reshape(d, d)
        I = y[2 * d * d: 3 * d * d].reshape(d, d)
        return S, Sig, I

    def Sigma_at(self, t) -> np.ndarray:
        _, Sig, _ = self._blocks(t)
        return 0.5 * (Sig + Sig.T)

    def S_at(self, t) -> np.ndarray:
        return self._blocks(t)[0]

    def flow(self, s: float, t: float) -> np.ndarray:
        """Solution flow Phi(s, t) of zeta' = B(t) zeta; equals S(t)^-1 S(s)."""
        return np.linalg.solve(self.S_at(t), self.S_at(s))

    def conditional_covariance(self, s: float, t: float) -> np.ndarray:
        """Covariance of zeta(t) given zeta(s): S(t)^-1 [I(t)-I(s)] S(t)^-T."""
        out = _conjugated(self.S_at(t), self._blocks(t)[2] - self._blocks(s)[2])
        return 0.5 * (out + out.T)

    def B_at(self, t) -> np.ndarray:
        return np.asarray(self.jac_provider(self.avg.at(float(t))), dtype=float)


def covariance_evolve(avg: AveragedTrajectory, sigma2_provider: Provider,
                      jac_provider: Provider, T: float,
                      out_times: Optional[np.ndarray] = None) -> CovarianceTrajectory:
    """Joint `ode.dop853` solve of the conjugation flow, covariance and conjugated integral.

    Returns only if the direct covariance and the conjugated reconstruction
    agree to ROUTE_TOL at every output time, and the Liouville determinant
    stays positive (so S is invertible along the way). T > avg.T raises ValueError.
    """
    d = avg.theta0.shape[0]
    if out_times is None:
        out_times = np.linspace(0.0, T, 33)
    out_times = np.asarray(out_times, dtype=float)

    def rhs(t, y):
        S = y[: d * d].reshape(d, d)
        Sig = y[d * d: 2 * d * d].reshape(d, d)
        theta = avg.at(float(t))
        B = np.asarray(jac_provider(theta), dtype=float).reshape(d, d)
        s2 = np.asarray(sigma2_provider(theta), dtype=float).reshape(d, d)
        dS = -S @ B
        dSig = B @ Sig + Sig @ B.T + s2
        dI = S @ s2 @ S.T
        dvs = -np.trace(B) * y[-1]
        return np.concatenate([dS.ravel(), dSig.ravel(), dI.ravel(), [dvs]])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(2 * d * d), [1.0]])
    sol = dop853(rhs, T, y0, COVARIANCE_TOL, 0.01 * COVARIANCE_TOL)
    if sol.message is not None:
        raise FastSlowError(f"covariance solve failed: {sol.message}")

    ys = sol(out_times)
    S, Sig, Ii = (ys[k * d * d: (k + 1) * d * d].T.reshape(-1, d, d) for k in range(3))
    vs = ys[-1]
    if np.any(vs <= 0.0):
        raise FastSlowError("conjugation flow determinant hit zero")
    if np.any(np.abs(np.linalg.det(S) - vs) > 1e-6 * np.abs(vs)):
        raise FastSlowError("det(S) disagrees with the trace equation")

    worst = 0.0
    for i in range(out_times.shape[0]):
        scale = 1.0 + float(np.abs(Sig[i]).max())
        worst = max(worst, float(np.abs(_conjugated(S[i], Ii[i]) - Sig[i]).max()) / scale)
    if worst > ROUTE_TOL:
        raise FastSlowError(f"covariance routes disagree by {worst:.3e} "
                            f"(tolerance {ROUTE_TOL:.1e})")

    return CovarianceTrajectory(avg=avg, jac_provider=jac_provider,
                                sigma2_provider=sigma2_provider, sol=sol, cross_check=worst)
