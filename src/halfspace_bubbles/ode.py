"""A numpy DOP853 integrator with a terminal event, and a Levenberg-Marquardt solve.

Only what :mod:`halfspace_bubbles.radial_ode` uses.  ``solve_ivp`` is
Hairer, Norsett and Wanner's explicit Runge-Kutta pair of order 8(5,3)
with its 7th-order dense output (*Solving Ordinary Differential Equations
I*, sections II.5 and II.6): the standard initial step choice, step
control on the blended 5th/3rd-order error estimate, and a terminal event
that fires when an event function falls through zero, located on the
step's interpolant.  Each step does scipy's DOP853 arithmetic in the same
order, so the two take the same steps and their trajectories agree to
rounding (``tests/test_ode.py`` cross-checks them).  ``least_squares``
minimises the squared norm of a residual vector by Levenberg-Marquardt
steps on a forward-difference Jacobian.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["OdeResult", "DenseSolution", "solve_ivp", "LeastSquaresResult", "least_squares"]

EPS = np.finfo(float).eps

# DOP853 tableau: 12 stages, the 13th (f at the new point), and 3 extra
# stages for the dense output.  Nonzero entries of A by row and column.
C = (
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
    0.1, 0.2, 0.777777777777777777777777777778,
)
_A = {
    1: {0: 5.26001519587677318785587544488e-2},
    2: {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    3: {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    4: {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1},
    5: {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1},
    6: {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    7: {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3},
    8: {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    9: {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2},
    10: {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
         4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
         6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
         8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    11: {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
         4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
         6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
         8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
         10: 6.43392746015763530355970484046e-1},
    12: {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
         6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
         8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
         10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    13: {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
         7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
         9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
         11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    14: {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
         6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
         10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
         12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    15: {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
         6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
         8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
         13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
}
A = np.zeros((16, 16))
for _i, _row in _A.items():
    A[_i, list(_row)] = list(_row.values())
A_ROWS = [A[s, :s] for s in range(16)]  # the stage weights row by row
B = A[12, :12]
# error estimators of orders 5 and 3, over the 13 stages
E5 = np.zeros(13)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
]
E3 = np.append(B, 0.0)
E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
]
# the dense output's last four coefficient rows, over all 16 stages
_D = {
    0: {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    1: {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    2: {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    3: {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
}
D = np.zeros((4, 16))
for _i, _row in _D.items():
    D[_i, list(_row)] = list(_row.values())

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1.0 / 8.0  # the error estimate is of order 7

# step, cost and gradient tolerance of least_squares
LSQ_TOL = 1e-15

FINISHED, EVENT, FAILED = 0, 1, -1


# math.sqrt(x.dot(x)) is the norm numpy's linalg.norm computes for a 1-D x
def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size**0.5


class _Step:
    """One accepted step from t_old over h; the interpolant is built on first use.

    Building it costs the three extra stages, so steps that are never
    evaluated between their ends never pay for them.
    """

    __slots__ = ("fun", "t_old", "h", "y_old", "y", "K", "F")

    def __init__(self, fun, t_old, h, y_old, y, K):
        self.fun, self.t_old, self.h, self.y_old, self.y, self.K = fun, t_old, h, y_old, y, K
        self.F = None

    def coefficients(self) -> np.ndarray:
        """The 7 coefficient rows of the 7th-order interpolant, (7, n)."""
        if self.F is None:
            K, h = self.K, self.h
            for s in range(13, 16):
                K[s] = self.fun(self.t_old + C[s] * h, self.y_old + np.dot(K[:s].T, A_ROWS[s]) * h)
            dy = self.y - self.y_old
            F = np.empty((7, dy.size))
            F[0] = dy
            F[1] = h * K[0] - dy
            F[2] = 2 * dy - h * (K[12] + K[0])
            F[3:] = h * np.dot(D, K)
            self.F = F
        return self.F

    def __call__(self, t: float) -> np.ndarray:
        return _interpolate(self.coefficients(), (t - self.t_old) / self.h, self.y_old)


def _interpolate(F, x, y_old):
    """Horner-like evaluation in x and 1 - x; F is (7, ..., n), x broadcasts against y_old."""
    y = np.zeros(np.broadcast_shapes(np.shape(x), y_old.shape))
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += y_old
    return y


class DenseSolution:
    """The piecewise interpolant over the accepted steps; ``sol(t)`` of times (k,) is (n, k).

    A time on a step boundary takes the earlier step; times outside the
    integrated range extrapolate the first or the last step.
    """

    def __init__(self, ts: np.ndarray, steps: list[_Step]):
        self.ts, self.steps = ts, steps

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.steps) - 1)
        steps = [self.steps[i] for i in seg]
        F = np.stack([s.coefficients() for s in steps], axis=1)  # (7, k, n)
        t_old = np.array([s.t_old for s in steps])
        h = np.array([s.h for s in steps])
        y_old = np.stack([s.y_old for s in steps])
        return _interpolate(F, ((t - t_old) / h)[:, None], y_old).T


@dataclass
class OdeResult:
    """Accepted states ``y`` (n, k) at times ``t`` (k,); the last is the event's, if it fired.

    ``status`` is 0 (end reached), 1 (the event fired) or -1 (the step fell
    below ten ulp of t or was NaN).  ``nfev`` counts the right-hand-side
    evaluations made before the solve returned.
    """

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution
    status: int
    nfev: int


def _rk_step(fun, t, y, h, K) -> np.ndarray:
    """One DOP853 step of size h from (t, y), given K[0] = fun(t, y).

    Fills the stages K[1:13] (K[12] is fun at the new point) and returns y(t + h).
    """
    for s in range(1, 12):
        K[s] = fun(t + C[s] * h, y + np.dot(K[:s].T, A_ROWS[s]) * h)
    y_new = y + h * np.dot(K[:12].T, B)
    K[12] = fun(t + h, y_new)
    return y_new


def _initial_step(fun, t0, y0, f0, t_end, rtol, atol) -> float:
    """Hairer-Norsett-Wanner's starting step from the first two derivatives' sizes."""
    interval = t_end - t0
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K, h, scale) -> float:
    """RMS size of the blended 5th/3rd-order error estimate relative to ``scale``."""
    e5, e3 = np.dot(K.T, E5) / scale, np.dot(K.T, E3) / scale
    err5, err3 = math.sqrt(e5.dot(e5)) ** 2, math.sqrt(e3.dot(e3)) ** 2
    if err5 == 0 and err3 == 0:
        return 0.0
    return abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * scale.size)


def _event_root(g, a, b, ga, gb) -> float:
    """A root of g on [a, b], given ga >= 0 >= gb, by Illinois regula falsi.

    The bracket shrinks until its ends are adjacent floats (no float lies
    strictly between them); the end with the smaller |g| is returned, a on
    a tie.
    """
    side = 0
    while ga != 0 and gb != 0 and a < 0.5 * (a + b) < b:
        c = b - gb * (b - a) / (gb - ga)
        if not a < c < b:
            c = 0.5 * (a + b)
        gc = g(c)
        if gc > 0:
            a, ga = c, gc
            if side == 1:
                gb *= 0.5
            side = 1
        elif gc < 0:
            b, gb = c, gc
            if side == -1:
                ga *= 0.5
            side = -1
        else:
            return c
    return a if abs(ga) <= abs(gb) else b


def solve_ivp(
    fun: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    rtol: float,
    atol: float,
    event: Callable[[float, np.ndarray], float] | None = None,
) -> OdeResult:
    """Integrate y' = fun(t, y) from t_span[0] towards t_span[1] > t_span[0] by DOP853.

    Each local error is kept below ``atol + rtol |y|`` in the RMS norm.
    The optional ``event`` is terminal and fires where ``event(t, y)`` falls
    through zero (from >= 0 to <= 0 across a step); its root, located on
    that step's interpolant, ends the integration there.
    """
    t, t_end = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_end, rtol, atol)
    nfev = 2
    ts, ys, steps = [t], [y], []
    g, status = event(t, y) if event is not None else None, None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        K = np.empty((16, y.size))
        K[0] = f
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                status = FAILED
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            y_new = _rk_step(fun, t, y, h, K)
            nfev += 12
            f_new = K[12]
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K[:13], h, scale)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True
        if status == FAILED:
            break
        step = _Step(fun, t, h, y, y_new, K)
        steps.append(step)
        if t_new >= t_end:
            status = FINISHED
        if event is not None:
            g_old, g = g, event(t_new, y_new)
            if g_old >= 0 >= g:
                t_new = _event_root(lambda tt: event(tt, step(tt)), t, t_new, g_old, g)
                y_new = step(t_new)
                status = EVENT
                nfev += 3  # the interpolant's extra stages
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)

    ts = np.array(ts)
    return OdeResult(ts, np.vstack(ys).T, DenseSolution(ts, steps), status, nfev)


@dataclass
class LeastSquaresResult:
    """The final iterate ``x``, its residual vector ``fun``, and every evaluation counted."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int


def least_squares(fun: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> LeastSquaresResult:
    """Minimise |fun(x)|^2 by Levenberg-Marquardt.

    The Jacobian is a forward difference of step sqrt(eps) max(1, |x_j|).
    The solve stops when the step falls below ``LSQ_TOL (LSQ_TOL + |x|)``,
    the cost stops falling by more than ``LSQ_TOL`` of itself, the gradient
    falls below ``LSQ_TOL``, or after 100 evaluations per unknown, Jacobian
    columns included.
    """
    x = np.asarray(x0, dtype=float)
    n = x.size
    max_nfev = 100 * n
    f = fun(x)
    nfev, cost, damping = 1, float(f @ f), 1e-3
    while cost > 0 and nfev + n < max_nfev:
        J = np.empty((f.size, n))
        for j in range(n):
            h = np.sqrt(EPS) * max(1.0, abs(x[j]))
            xj = x.copy()
            xj[j] += h
            J[:, j] = (fun(xj) - f) / (xj[j] - x[j])
        nfev += n
        grad = J.T @ f
        if np.max(np.abs(grad)) <= LSQ_TOL:
            break
        JTJ = J.T @ J
        diag = np.maximum(np.diag(JTJ), EPS * np.max(np.diag(JTJ)))
        while nfev < max_nfev:
            step = np.linalg.solve(JTJ + damping * np.diag(diag), -grad)
            if np.linalg.norm(step) <= LSQ_TOL * (LSQ_TOL + np.linalg.norm(x)):
                return LeastSquaresResult(x, f, nfev)
            f_new = fun(x + step)
            nfev += 1
            cost_new = float(f_new @ f_new)
            if cost_new < cost:
                break
            damping *= 10.0
        else:
            break
        x, f, cost, drop = x + step, f_new, cost_new, cost - cost_new
        damping = max(damping * 0.1, 1e-12)
        if drop <= LSQ_TOL * (cost + drop):
            break
    return LeastSquaresResult(x, f, nfev)
