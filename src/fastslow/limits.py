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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .exceptions import CovarianceCrossCheckError, FastSlowError

Provider = Callable[[np.ndarray], np.ndarray]

COVARIANCE_TOL = 1e-11   # local tolerance of the joint covariance solve


@dataclass
class AveragedTrajectory:
    """Dense-output solution of the averaged slow dynamics (in the lift)."""

    theta0: np.ndarray
    T: float
    sol: object                # scipy OdeSolution
    lipschitz_estimate: float

    def at(self, t):
        """Averaged position; (d,) for scalar t, else (len(t), d)."""
        t = np.asarray(t, dtype=float)
        out = self.sol(t)
        return out.T if t.ndim else out


def solve_averaged(drift: Provider, theta0, T: float,
                   tol: float = 1e-10) -> AveragedTrajectory:
    """Adaptive Dormand-Prince 8(5,3) solve (DOP853) with dense output.

    The drift provider must accept any real theta (it reduces to the torus
    internally); an estimated Lipschitz constant over the unit cell is
    recorded since uniqueness and the Gronwall stability bound rely on it.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    d = theta0.shape[0]

    def rhs(t, y):
        return np.asarray(drift(y), dtype=float).ravel()

    res = solve_ivp(rhs, (0.0, T), theta0, method="DOP853", dense_output=True,
                    rtol=tol, atol=0.01 * tol)
    if not res.success:
        raise FastSlowError(f"averaged solve failed: {res.message}")

    probe = 64
    lip = 0.0
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        vals = np.array([np.asarray(drift(theta0 + (i / probe) * e)).ravel()
                         for i in range(probe + 1)])
        lip = max(lip, float(np.abs(np.diff(vals, axis=0)).max() * probe))
    return AveragedTrajectory(theta0=theta0, T=T, sol=res.sol, lipschitz_estimate=lip)


def _conjugated(S: np.ndarray, I: np.ndarray) -> np.ndarray:
    """The conjugated reconstruction S^-1 I S^-T."""
    X = np.linalg.solve(S, I)
    return np.linalg.solve(S, X.T).T


@dataclass
class CovarianceTrajectory:
    """Covariance of the limiting fluctuation process along the averaged path."""

    avg: AveragedTrajectory
    times: np.ndarray          # (m,)
    Sigma: np.ndarray          # (m, d, d) symmetric PSD
    S: np.ndarray              # (m, d, d) conjugation flow, S' = -S B
    det_flow: np.ndarray       # (m,) determinant of S via the trace equation
    jac_provider: Provider
    sigma2_provider: Provider
    sol: object                # dense output of the joint ODE
    cross_check: float         # worst disagreement of the two covariance routes

    @property
    def d(self) -> int:
        return self.Sigma.shape[1]

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
                      out_times: Optional[np.ndarray] = None,
                      agree_tol: float = 1e-8) -> CovarianceTrajectory:
    """Joint DOP853 solve of the conjugation flow, covariance and conjugated integral.

    Returns only if the direct covariance and the conjugated reconstruction
    agree to agree_tol at every output time, and the Liouville determinant
    stays positive (so S is invertible along the way).
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
    res = solve_ivp(rhs, (0.0, T), y0, method="DOP853", dense_output=True,
                    rtol=COVARIANCE_TOL, atol=0.01 * COVARIANCE_TOL)
    if not res.success:
        raise FastSlowError(f"covariance solve failed: {res.message}")

    ys = res.sol(out_times)
    S = ys[: d * d].T.reshape(-1, d, d)
    Sig = ys[d * d: 2 * d * d].T.reshape(-1, d, d)
    Ii = ys[2 * d * d: 3 * d * d].T.reshape(-1, d, d)
    vs = ys[-1]
    if np.any(vs <= 0.0):
        raise CovarianceCrossCheckError("conjugation flow determinant hit zero")
    dets = np.linalg.det(S)
    if np.any(np.abs(dets - vs) > 1e-6 * np.abs(vs)):
        raise CovarianceCrossCheckError("det(S) disagrees with the trace equation")

    worst = 0.0
    for i in range(out_times.shape[0]):
        scale = 1.0 + float(np.abs(Sig[i]).max())
        worst = max(worst, float(np.abs(_conjugated(S[i], Ii[i]) - Sig[i]).max()) / scale)
    if worst > agree_tol:
        raise CovarianceCrossCheckError(
            f"covariance routes disagree by {worst:.3e} (tolerance {agree_tol:.1e})"
        )

    Sig = 0.5 * (Sig + np.transpose(Sig, (0, 2, 1)))
    return CovarianceTrajectory(
        avg=avg, times=out_times, Sigma=Sig, S=S, det_flow=vs,
        jac_provider=jac_provider, sigma2_provider=sigma2_provider,
        sol=res.sol, cross_check=worst,
    )


def gaussian_charfn(cov: CovarianceTrajectory, lam, s: float, t: float,
                    zeta_s=None) -> tuple[float, float]:
    """Conditional characteristic function E(e^{i<lam, zeta(t)>} | zeta(s)).

    Returns (log magnitude, phase): the conditional law is Gaussian with mean
    Phi(s,t) zeta_s and covariance S(t)^-1 [int_s^t S sigma2 S^T] S(t)^-T, so
    the value is exp(-<lam, C lam>/2) * e^{i <lam, Phi zeta_s>}. For s = 0 and
    zeta_0 = 0 this reduces to exp(-<lam, Sigma(t) lam>/2).
    """
    if s > t:
        raise ValueError("needs s <= t")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    d = cov.d
    zeta_s = np.zeros(d) if zeta_s is None else np.atleast_1d(np.asarray(zeta_s, dtype=float))
    if s == t:
        return 0.0, float(lam @ zeta_s)
    C = cov.conditional_covariance(s, t)
    phase = float(lam @ (cov.flow(s, t) @ zeta_s))
    return float(-0.5 * lam @ C @ lam), phase

