"""Explicit Runge-Kutta 8(5,3) of Dormand and Prince (DOP853) with dense output.

The tableau is that of Hairer's dop853.f (Hairer, Norsett & Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., II.5-II.6): 12 stages of order
8, an error estimate blending the embedded orders 5 and 3, and 3 extra stages
for a degree-7 interpolant on each step. Every floating-point operation
follows scipy 1.17.1's solve_ivp(method="DOP853", dense_output=True) in order
(initial step, np.dot stage sums, error norm, step factors, interpolant and
its segment lookup by searchsorted(side="left")), so results are bit-identical
to scipy's; tests/test_ode.py checks this against scipy. Only forward time
from 0 and real states are kept: no events, maximum step or t_eval.
"""
from __future__ import annotations

from bisect import bisect_left

import numpy as np

# step-size control: safety factor, bounds of one change, -1/(error order + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR, EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0

A = np.zeros((16, 16))    # stage matrix; row 12 holds the weights b
A[np.tril_indices(16, -1)] = (   # row by row, below the diagonal
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778])
B = A[12, :12]
E3 = np.append(B, 0.0)    # b minus the weights of the order-3 solution
E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0])
D = np.array([            # interpolant terms 4..7 from the 16 stages
    -8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894,
    10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408,
    19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279,
    -25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564]).reshape(4, 16)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class DenseOutput:
    """The solution on [0, T]: a degree-7 polynomial on each accepted step.

    Called like scipy's OdeSolution: (n,) at a scalar time, (n, len(t)) at an
    array, and only on [0, T], T the last step end: elsewhere it raises ValueError.
    `message` is None if the solve reached T; `nfev` counts the calls of the
    right-hand side. Evaluation runs on Python floats, whose operations are
    numpy's elementwise IEEE ones at a fraction of the cost on a few entries.
    """

    def __init__(self, ts, y_old, F, nfev: int, message):
        self.ts = [float(t) for t in ts]         # step ends, from 0
        self.y_old = [y.tolist() for y in y_old]  # state at each step start
        self.F = [f.tolist() for f in F]          # 7 interpolant terms per step
        self.nfev = nfev
        self.message = message

    def _at(self, t: float) -> list[float]:
        if not 0.0 <= t <= self.ts[-1]:
            raise ValueError(f"t = {t} outside the solution's interval [0, {self.ts[-1]}]")
        k = min(max(bisect_left(self.ts, t) - 1, 0), len(self.ts) - 2)
        x = (t - self.ts[k]) / (self.ts[k + 1] - self.ts[k])
        F = self.F[k]
        out = []
        for j, y in enumerate(self.y_old[k]):
            v = 0.0
            for i in range(7):
                v += F[6 - i][j]
                v *= x if i % 2 == 0 else 1 - x
            out.append(v + y)
        return out

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if t.ndim:
            return np.ascontiguousarray(np.array([self._at(s) for s in t.tolist()]).T)
        return np.array(self._at(float(t)))


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def dop853(fun, T: float, y0, rtol: float, atol: float) -> DenseOutput:
    """Solve y' = fun(t, y), y(0) = y0 on [0, T], fun returning a float array like y,
    each step's local error below atol + rtol * |y|. A step below ten ulp of t, a T
    not in (0, inf) and a start or initial step that is not finite end it with a message."""
    T = float(T)
    t, y = 0.0, np.asarray(y0, dtype=float)
    if not (0.0 < T < np.inf and np.all(np.isfinite(y))):
        return DenseOutput([t], [], [], 0, f"needs a finite T > 0 and a finite start, got T = {T}")
    f = fun(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, T)
    d2 = _rms((fun(h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100 * h0, h1, T)
    if not np.isfinite(h_abs):    # the right-hand side is not finite
        return DenseOutput([t], [], [], 2, "The initial step size is not finite.")

    K = np.empty((16, y.size))
    ts, y_old, F, attempts = [t], [], [], 0
    while t < T:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return DenseOutput(ts, y_old, F, 2 + 12 * attempts + 3 * len(F), TOO_SMALL_STEP)
            t_new = min(t + h_abs, T)
            h = t_new - t
            h_abs = np.abs(h)
            attempts += 1
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
            y_new = y + h * np.dot(K[:12].T, B)
            f_new = K[12] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(K[:13].T, E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(K[:13].T, E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / np.sqrt((err5 + 0.01 * err3) * y.size)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True
        for s in range(13, 16):
            K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)
        delta_y = y_new - y
        F.append(np.concatenate([[delta_y, h * K[0] - delta_y,
                                  2 * delta_y - h * (f_new + K[0])], h * np.dot(D, K)]))
        y_old.append(y)
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return DenseOutput(ts, y_old, F, 2 + 12 * attempts + 3 * len(F), None)
