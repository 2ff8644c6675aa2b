"""Fourier-Galerkin reference for the fixtures, written apart from fastslow.

Numpy only. The fixtures' formulas are restated here, so nothing of the
program under test is imported. For a frozen theta the transfer operator of
x -> f(x, theta) acts on Fourier coefficients of densities through

    L[j, k] = int_0^1 e^{2 pi i k x} e^{-2 pi i j f(x, theta)} dx,

computed by the trapezoid rule on Q points, which is spectrally exact for
these analytic integrands (C. Wormell, Numer. Math. 142, 2019). The
invariant density rho is the fixed point of L with rho_0 = 1, and with
h = omega - omega_bar the Green-Kubo diffusion coefficient is

    sigma2 = 2 <h, g> - <h, h rho>,   (I - L) g = h rho on the mean-zero modes.

Over theta, omega_bar and sigma2 are tabulated on a uniform grid and
interpolated trigonometrically; D omega_bar is the exact derivative of the
interpolant. Every fixture here has d = 1.
"""
from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

# f is the lift of the fast map, omega the slow drift; both take (x, theta).
FIXTURES = {
    "LIN": (lambda x, th: 3.0 * x,
            lambda x, th: np.cos(TWO_PI * x)),
    "CBD": (lambda x, th: 3.0 * x,
            lambda x, th: np.cos(TWO_PI * x) - np.cos(3.0 * TWO_PI * x)),
    "CPL": (lambda x, th: 3.0 * x + 0.9 / TWO_PI * np.sin(TWO_PI * th) * np.sin(TWO_PI * x),
            lambda x, th: np.sin(TWO_PI * th) + np.cos(TWO_PI * x)),
}


def frozen_solve(name: str, theta: float, K: int = 16) -> tuple[float, float]:
    """(omega_bar, sigma2) at a frozen theta with 2K+1 Fourier modes."""
    f, omega = FIXTURES[name]
    Q = 8 * (2 * K + 1) * 3          # 8 points per mode and unit of degree
    x = np.arange(Q) / Q
    k = np.arange(-K, K + 1)
    E = np.exp(-2j * np.pi * np.outer(x, k))            # e^{-2 pi i k x_q}

    def coeffs(values):
        return values @ E / Q

    def grid(c):
        return (E.conj() @ c).real

    L = np.exp(-2j * np.pi * np.outer(k, f(x, theta))) @ E.conj() / Q
    nz = k != 0
    A = np.eye(nz.sum()) - L[np.ix_(nz, nz)]
    rho_c = np.zeros(k.shape, dtype=complex)
    rho_c[K] = 1.0
    rho_c[nz] = np.linalg.solve(A, L[nz, K])
    rho = grid(rho_c)
    om = omega(x, theta)
    wbar = float(np.mean(om * rho))
    h = om - wbar
    g_c = np.zeros(k.shape, dtype=complex)
    g_c[nz] = np.linalg.solve(A, coeffs(h * rho)[nz])
    sigma2 = 2.0 * np.mean(h * grid(g_c)) - np.mean(h * h * rho)
    return wbar, float(sigma2)


class Reference:
    """omega_bar, D omega_bar and sigma2 of one fixture over the slow circle.

    The providers take theta of shape (1,) and return (1,) or (1, 1), the
    shapes fastslow's averaged and covariance solves expect.
    """

    def __init__(self, name: str, n_theta: int = 33, K: int = 16):
        if n_theta % 2 == 0:
            raise ValueError("n_theta must be odd, so the table has no Nyquist mode")
        self.name = name
        nodes = np.arange(n_theta) / n_theta
        table = np.array([frozen_solve(name, th, K) for th in nodes])
        self._m = np.fft.fftfreq(n_theta, 1.0 / n_theta)
        self._c = np.fft.fft(table, axis=0) / n_theta      # (n_theta, 2)

    def _series(self, theta, column: int, derivative: bool = False) -> np.ndarray:
        th = np.asarray(theta, dtype=float)
        c = self._c[:, column]
        if derivative:
            c = c * (2j * np.pi * self._m)
        return (np.exp(2j * np.pi * np.multiply.outer(th, self._m)) @ c).real

    def omega_bar(self, theta) -> np.ndarray:
        return self._series(theta, 0)

    def d_omega_bar(self, theta) -> np.ndarray:
        return self._series(theta, 0, derivative=True)[..., None]

    def sigma2(self, theta) -> np.ndarray:
        return self._series(theta, 1)[..., None]


def path(ref: Reference, theta0: float, T: float, steps: int = 1000):
    """Classical RK4 for theta' = omega_bar, Sigma' = 2 D omega_bar Sigma + sigma2.

    Returns (times, theta_bar, Sigma) on steps + 1 uniform times in [0, T].
    """
    def rhs(y):
        th, sig = y
        return np.array([ref.omega_bar(th), 2.0 * ref.d_omega_bar(th)[0] * sig
                         + ref.sigma2(th)[0]])

    dt = T / steps
    y = np.array([theta0, 0.0])
    out = [y]
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    out = np.array(out)
    return np.linspace(0.0, T, steps + 1), out[:, 0], out[:, 1]
