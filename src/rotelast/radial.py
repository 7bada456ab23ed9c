"""Spherically symmetric sector: static profiles, radial dynamics, equilibria.

Under the hedgehog ansatz ``beta = x_hat cos w(t, r)``, ``alpha = sin w``,
the field equations collapse to a single radial PDE

    w_tt - lambda1 (w_rr + 2 w_r / r) = U(w) / r^2 ,

with the nonlinearity ``U(w) = sin(2w) [(l2 - l1) + (l2 - 2 l1) cos(2w)]``.
The static case is an ODE with a regular singular point at the origin; the
solver starts from a leading-power series there and integrates outward with
the Dormand-Prince 5(4) pair (Dormand & Prince 1980), its quartic dense
output and scipy's ``RK45`` step control, reproduced bit for bit.  The sums
over stages (the stage, weight and error dot products, the error norm
``x . x`` and the dense-output coefficients) stay the NumPy calls that scipy
makes, as a BLAS dot may fuse or reorder its products; the rest of a step
runs on Python floats, whose elementwise operations are the same IEEE
operations as NumPy's on a 2-vector, without FMA.  Profiles are
interpolated by a not-a-knot cubic spline.  Dynamics uses a fixed-step
second-order leapfrog in Stormer's summed form (the increment of the level is
carried from step to step) on a three-point stencil with a clamped far
boundary.  U is evaluated through ``t = tan w`` (one vectorized tan per node).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .fields import HedgehogField
from .kinematics import Moduli, _aligned_empty, _read_table, _write_table

__all__ = [
    "DivergenceError",
    "InstabilityError",
    "RadialProfile",
    "Equilibrium",
    "EvolveResult",
    "potential_U",
    "potential_U_integral",
    "indicial_exponent",
    "solve_static",
    "resample_uniform",
    "static_residual",
    "evolve_dynamic",
    "lift_hedgehog",
    "equilibria",
    "save_profile_csv",
    "load_profile_csv",
]


class DivergenceError(RuntimeError):
    """Static integration blew up; carries the radius of failure."""

    def __init__(self, message: str, radius: float):
        super().__init__(message)
        self.radius = radius


class InstabilityError(RuntimeError):
    """Time stepping produced non-finite values."""


@dataclass
class RadialProfile:
    """Sampled radial profile w(r) with solver metadata.

    ``dense`` is the solver's continuous solution ``r -> (w, w')``; only
    :func:`solve_static` sets it.
    """

    r: np.ndarray
    w: np.ndarray
    moduli: Moduli
    slope0: float
    tol: float
    w_t: np.ndarray | None = None
    dense: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        if self.r.ndim != 1 or self.r.shape != self.w.shape or not self.r.size:
            raise ValueError("r and w must be matching non-empty 1-d arrays")
        if not (self.r[0] >= 0 and np.all(np.diff(self.r) > 0)):
            raise ValueError("r must be strictly increasing and non-negative")
        if not np.isfinite(self.r[-1]):  # the order check passes an infinite last radius
            raise ValueError("r must be finite")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("w must be finite")
        if self.w_t is not None:
            self.w_t = np.asarray(self.w_t, dtype=float)
            if self.w_t.shape != self.w.shape:
                raise ValueError("w_t must match w")
            if not np.all(np.isfinite(self.w_t)):
                raise ValueError("w_t must be finite")


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the autonomous log-radius system."""

    f_star: float
    w_star: float
    eigenvalues: tuple[complex, complex]


def _dU0(m: Moduli) -> float:
    """``U'(0) = 2 (2 l2 - 3 l1)``, the slope of the radial nonlinearity at w = 0."""
    return 2.0 * (2.0 * m.lambda2 - 3.0 * m.lambda1)


def potential_U(w, m: Moduli):
    """Radial nonlinearity ``U(w) = sin 2w [(l2 - l1) + (l2 - 2 l1) cos 2w]``.

    Evaluated through ``t = tan w``: with ``sin 2w = 2t / (1 + t^2)`` and
    ``cos 2w = (1 - t^2) / (1 + t^2)`` it is
    ``U = 2t [(2 l2 - 3 l1) + l1 t^2] / (1 + t^2)^2``, one vectorized tan
    instead of a sin and a cos.  |tan w| stays below about 1e17 for every
    finite double, so ``t^4`` cannot overflow; a non-finite w gives NaN.
    The factor 2 rides on the constants, which is exact.  A 0-d input returns
    a ``float`` (its ``** 2`` is libm's ``pow``), an array an array (``** 2``
    squares by multiplication) of its own float dtype.
    """
    t = np.tan(w)
    sq = t * t
    val = (sq * (2.0 * m.lambda1) + _dU0(m)) * t / (sq + 1.0) ** 2
    return float(val) if val.ndim == 0 else val


def potential_U_integral(w, m: Moduli):
    """Antiderivative ``V(w) = int_0^w U(s) ds``, used by the energy monitor.

    In the tan form ``t = tan w``:
    ``V = (l2 - l1) t^2 / (1 + t^2) + (l2 - 2 l1) t^2 / (1 + t^2)^2``.
    """
    w = np.asarray(w, dtype=float)
    t = np.tan(w)
    sq = t * t
    frac = sq / (1.0 + sq)
    val = (m.lambda2 - m.lambda1) * frac + (m.lambda2 - 2.0 * m.lambda1) * frac / (1.0 + sq)
    return float(val) if val.ndim == 0 else val


def indicial_exponent(m: Moduli) -> float:
    """Leading power s in ``w ~ a r^s`` at the origin.

    Linearizing the static equation gives ``l1 s (s + 1) = -U'(0)`` with
    ``U'(0) = 2 (2 l2 - 3 l1)``.  When no positive real root exists (the
    origin is then oscillatory for the linearized flow and outward
    integration is insensitive to the start), fall back to s = 1.
    """
    q = _dU0(m) / m.lambda1
    disc = 1.0 - 4.0 * q
    if disc <= 0.0:
        return 1.0
    s = 0.5 * (-1.0 + np.sqrt(disc))
    return float(s) if s > 0 else 1.0


W_BLOWUP = 10.0
R0 = 1e-6  # radius where the static integration leaves the origin series
N_SAMPLES = 2001  # uniform samples of a static profile, w(0) = 0 not counted
N_PROBE = 400  # log-spaced probe radii of static_residual
N_SNAPSHOTS = 101  # evolve_dynamic snapshots level 0, every max(1, n_steps // 100)-th and the last

# Dormand-Prince 5(4) as in scipy's RK45: nodes, stages, 5th-order weights, error weights
# (5th minus 4th order, FSAL stage last) and the quartic dense output of Shampine's c6
_RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK_A = np.array([
    [0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0], [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _DenseRK:
    """Quartic dense output ``t -> y`` of :func:`_rk45`, shape (n,) or (n, len(t)): each point
    takes the step that holds it (the lower one at a step boundary), as scipy's ``OdeSolution``."""

    def __init__(self, ts, steps):
        self.ts, self.steps = np.asarray(ts), steps

    def _step(self, i, t):
        t_old, h, y_old, q = self.steps[i]
        x = (t - t_old) / h
        return h * np.dot(q, np.cumprod(np.tile(x, 4))) + y_old

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self.steps) - 1
        if t.ndim == 0:
            return self._step(min(max(int(np.searchsorted(self.ts, t)) - 1, 0), last), t)
        order = np.argsort(t)
        t_sorted = t[order]
        seg = np.clip(np.searchsorted(self.ts, t_sorted) - 1, 0, last)
        # the powers x, x^2, x^3, x^4 of every point's fraction of its step (h is t_new - t_old, as
        # the steps were taken), then one evaluation per run of points in the same step, in sorted order
        p = np.empty((4, t.size))
        p[0] = (t_sorted - self.ts[seg]) / (self.ts[seg + 1] - self.ts[seg])
        for k in range(1, 4):
            np.multiply(p[k - 1], p[0], out=p[k])
        cut = np.concatenate(([0], np.flatnonzero(np.diff(seg)) + 1, [len(seg)])).tolist()
        ys = np.empty((len(self.steps[0][2]), t.size))
        for a, b in zip(cut[:-1], cut[1:]):
            _, h, y_old, q = self.steps[seg[a]]
            ys[:, order[a:b]] = h * np.dot(q, p[:, a:b]) + y_old[:, None]
        return ys


def _rk45(fun, t0: float, y0: tuple[float, float], t_bound: float, tol: float, event):
    """Dormand-Prince 5(4) for ``(w, w')`` from t0 up to t_bound > t0 with rtol = atol = tol.

    Step for step scipy's ``RK45``: the same initial step, RMS error norm,
    step-factor rules and FSAL stage, so the same steps are accepted with the
    same bits.  ``fun(t, w, dw)`` returns the two derivatives as floats.  The
    calls that scipy makes stay NumPy calls where a BLAS dot may fuse or
    reorder products: the stage sums ``K[:s].T . a``, the 5th-order and error
    weights, the error norm's ``x . x`` (what ``np.linalg.norm`` computes) and
    the dense-output coefficients ``K.T . P``; so does ``np.maximum`` in the
    error scale, which keeps a NaN that Python's ``max`` may drop.  The rest
    (t, h, the nodes, each stage argument ``y + h d``, the error scale and the
    step factor) is Python-float arithmetic, elementwise the same IEEE
    operations in the same order as NumPy's on a 2-vector, without FMA.
    Returns ``(dense, None)``, or ``(dense, root)`` at the first step where
    ``event(w)`` changes sign, the root bisected on that step's interpolant
    to the spacing of doubles.
    """
    w, dw = y0
    f, g = fun(t0, w, dw), event(w)
    # initial step of an error estimator of order 4, on arrays as in scipy
    y, f0 = np.array(y0), np.array(f)
    span = abs(t_bound - t0)
    scale = tol + np.abs(y) * tol
    d0, d1 = _rms(y / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _rms((np.array(fun(t0 + h0, *(y + h0 * f0).tolist())) - f0) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = float(min(100 * h0, h1, span))
    K = np.empty((7, 2))
    # the stage sums read views of K fixed for the run
    stages = [(s, K[:s].T, a[:s], c) for s, (a, c) in enumerate(zip(_RK_A[1:], _RK_C[1:].tolist()), start=1)]
    KT_b, KT = K[:-1].T, K.T
    t, ts, steps = t0, [t0], []
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("static integration failed: "
                                   "Required step size is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, KT_s, a, c in stages:
                d_w, d_dw = np.dot(KT_s, a).tolist()
                K[s] = fun(t + c * h, w + d_w * h, dw + d_dw * h)
            d_w, d_dw = np.dot(KT_b, _RK_B).tolist()
            w_new, dw_new = w + h * d_w, dw + h * d_dw
            K[-1] = f_new = fun(t + h, w_new, dw_new)
            big_w, big_dw = np.maximum((abs(w), abs(dw)), (abs(w_new), abs(dw_new))).tolist()
            e_w, e_dw = np.dot(KT, _RK_E).tolist()
            x = np.array((e_w * h / (tol + big_w * tol), e_dw * h / (tol + big_dw * tol)))
            error = math.sqrt(x.dot(x)) / 2 ** 0.5
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            rejected = True
        steps.append((t, h, np.array((w, dw)), KT.dot(_RK_P)))
        t, w, dw, f = t_new, w_new, dw_new, f_new
        ts.append(t)
        g_new = event(w)
        if (g <= 0 <= g_new) or (g >= 0 >= g_new):
            # bisect on this step's interpolant, which starts at y_old, where event is g
            dense, lo, hi = _DenseRK(ts, steps), steps[-1][0], t
            while g != 0 and lo < (mid := 0.5 * (lo + hi)) < hi:
                if (event(dense._step(-1, mid)[0]) < 0) == (g < 0):
                    lo = mid
                else:
                    hi = mid
            return dense, lo if g == 0 else 0.5 * (lo + hi)
        g = g_new
    return _DenseRK(ts, steps), None


def solve_static(m: Moduli, slope0: float, r_max: float, tol: float = 1e-10) -> RadialProfile:
    """Integrate the static profile from the origin series to r_max.

    The IVP starts at ``R0`` with ``w = slope0 * R0**s`` and
    ``w' = slope0 * s * R0**(s-1)``, s the indicial exponent, and runs the
    adaptive Dormand-Prince 5(4) pair with scipy's ``RK45`` step control
    (:func:`_rk45`).  The integrator is driven two orders tighter than the
    requested ``tol`` so the delivered profile meets a 10 * tol residual
    bound including accumulated drift; tol below 1e-11 is capped by the
    integrator floor.  The returned profile is sampled on a uniform grid
    with w(0) = 0 prepended and carries the quartic dense output of the
    steps for later interpolation.

    Raises
    ------
    DivergenceError
        If |w| exceeds 10 before reaching r_max.
    RuntimeError
        If the step size falls below the spacing of doubles.
    """
    if m.lambda1 <= 0:
        raise ValueError("solver requires lambda1 > 0")
    if not (R0 < r_max < np.inf and tol > 0 and np.isfinite(slope0) and m.lambda1 * R0 * R0 > 0):
        raise ValueError("bad solver configuration")

    l1 = m.lambda1

    def rhs(r, w, dw):
        return dw, -2.0 * dw / r - potential_U(w, m) / (l1 * r * r)

    s = indicial_exponent(m)
    y0 = (slope0 * R0**s, slope0 * s * R0 ** (s - 1.0))
    if abs(y0[0]) > W_BLOWUP:
        raise DivergenceError(f"|w| exceeds {W_BLOWUP} already at the series start", radius=R0)
    tol_int = max(tol / 100.0, 1e-13)
    dense, r_blowup = _rk45(rhs, R0, y0, r_max, tol_int, lambda w: abs(w) - W_BLOWUP)
    if r_blowup is not None:
        raise DivergenceError(f"|w| exceeded {W_BLOWUP} at r = {r_blowup:.6g}", radius=float(r_blowup))

    r = np.linspace(R0, r_max, N_SAMPLES)
    y = dense(r)
    # w(0) = 0 is the exact boundary value for any positive leading power
    r = np.concatenate(([0.0], r))
    w = np.concatenate(([0.0], y[0]))
    return RadialProfile(r=r, w=w, moduli=m, slope0=slope0, tol=tol, dense=dense)


class _Spline:
    """Not-a-knot cubic spline through ``(x, y)``, x strictly increasing, as scipy's ``CubicSpline``.

    The knot slopes solve its tridiagonal system by one Thomas sweep (two
    knots give the line, three the parabola).  ``spline(r, nu)`` is the
    nu-th derivative (nu = 0, 1, 2); the end cubics continue outside the knots.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if len(x) < 2:
            raise ValueError("a cubic spline needs at least two knots")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        if len(x) == 2:
            s = np.array([slope[0], slope[0]])
        elif len(x) == 3:
            mid = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
            s = np.array([2 * slope[0] - mid, mid, 2 * slope[1] - mid])
        else:
            # C2 rows at the inner knots; the end rows make the third
            # derivative continuous at the second and last-but-one knot
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            sub = [0.0, *dx[1:].tolist(), d1]
            diag = [dx[1], *(2 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
            sup = [d0, *dx[:-1].tolist(), 0.0]
            s = [((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
                 *(3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
                 (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1, 0.0]
            for i in range(1, len(x)):  # Thomas elimination, then back substitution
                w = sub[i] / diag[i - 1]
                diag[i] -= w * sup[i - 1]
                s[i] -= w * s[i - 1]
            for i in range(len(x) - 1, -1, -1):
                s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
            s = np.array(s[:-1])
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        # the cubic on [x_i, x_i+1] is c0 + c1 z + c2 z^2 + c3 z^3 in z = r - x_i
        self.x, self.c0, self.c1 = x, y[:-1], s[:-1]
        self.c2, self.c3 = (slope - s[:-1]) / dx - t, t / dx

    def __call__(self, r, nu: int = 0):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self.x) - 2)
        z, c3, c2 = r - self.x.take(i), self.c3.take(i), self.c2.take(i)
        # PPoly's power sums term by term: equal coefficients give CubicSpline's values bit for bit
        if nu == 0:
            return ((self.c0.take(i) + self.c1.take(i) * z) + c2 * (z * z)) + c3 * (z * z * z)
        if nu == 1:
            return (self.c1.take(i) + (2 * c2) * z) + (3 * c3) * (z * z)
        return 2 * c2 + (6 * c3) * z


class _CoreSpline:
    """A profile column as ``y(r) = g(r^s)``, g the :class:`_Spline` through ``(r_i^s, y_i)``.

    Near the origin ``w ~ a r^s``, s the profile's :func:`indicial_exponent`.
    For ``s < 1`` a cubic in r cannot follow that power, one in ``rho = r^s``
    can; the derivatives follow by the chain rule.  For ``s >= 1`` the spline
    stays in r, bit for bit (``r ** 1.0`` is r), and no ``0 * inf`` enters
    at r = 0; for ``s < 1``, ``y'`` is infinite there, as for the profile.
    """

    def __init__(self, profile: RadialProfile, y):
        self.s = min(indicial_exponent(profile.moduli), 1.0)
        self.g = _Spline(profile.r ** self.s, y)

    def __call__(self, r, nu: int = 0):
        r, s = np.asarray(r, dtype=float), self.s
        if nu == 0 or s == 1.0:
            return self.g(r ** s, nu)
        rho, d_rho = r ** s, s * r ** (s - 1.0)
        if nu == 1:
            return self.g(rho, 1) * d_rho
        return self.g(rho, 2) * d_rho * d_rho + self.g(rho, 1) * (s * (s - 1.0)) * r ** (s - 2.0)


def resample_uniform(profile: RadialProfile, n: int) -> RadialProfile:
    """Resample a profile onto ``linspace(0, profile.r[-1], n)`` by cubic interpolation.

    The dynamic solver needs a uniform grid including the origin.  The
    spline runs in ``r^s`` (:class:`_CoreSpline`), so profiles with a core
    exponent s < 1 keep their shape near the origin.  A finite column whose
    spline overflows raises ``RuntimeError``.
    """
    if n < 3:
        raise ValueError(f"resampling needs at least 3 points, got n = {n}")
    r = np.linspace(0.0, profile.r[-1], n)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _CoreSpline(profile, profile.w)(r)
        w_t = None if profile.w_t is None else _CoreSpline(profile, profile.w_t)(r)
    for name, col in (("w", w), ("w_t", w_t)):
        if col is not None and not np.all(np.isfinite(col)):
            raise RuntimeError(f"resampled {name} is not finite: its cubic spline overflowed")
    w[0] = 0.0
    return RadialProfile(r=r, w=w, w_t=w_t, moduli=profile.moduli,
                         slope0=profile.slope0, tol=profile.tol)


def static_residual(profile: RadialProfile) -> float:
    """Max defect of the first integral ``l1 r^2 w' |_a^b + int_a^b U dr``.

    Uses only the sampled (w, w') values through the dense solution, never
    the ODE right-hand side, so it is an independent consistency check.
    Probe intervals are log-spaced: near the origin the solution behaves
    like a fractional power of r, which graded intervals resolve.
    """
    dense = profile.dense
    if dense is None:
        raise ValueError("profile carries no dense solution")
    l1 = profile.moduli.lambda1
    r_lo = profile.r[0] if profile.r[0] > 0 else profile.r[1]
    rs = np.geomspace(r_lo, profile.r[-1], N_PROBE)
    xg, wg = np.polynomial.legendre.leggauss(5)
    a, b = rs[:-1], rs[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    # one dense evaluation on every Gauss node and one on the probe radii
    nodes = mid[:, None] + half[:, None] * xg
    u = potential_U(dense(nodes.ravel())[0], profile.moduli).reshape(nodes.shape)
    quad = half * np.sum(wg * u, axis=1)
    dw = dense(rs)[1]
    defect = l1 * (b * b * dw[1:] - a * a * dw[:-1]) + quad
    return float(np.max(np.abs(defect) / np.maximum(1.0, np.abs(l1 * b * b * dw[1:]))))


@dataclass
class EvolveResult:
    """Trajectory of the radial PDE on a fixed grid."""

    times: np.ndarray
    r: np.ndarray
    w: np.ndarray  # (n_times, n_r)
    w_t: np.ndarray  # (n_times, n_r)
    energy: np.ndarray
    moduli: Moduli
    energy_scale: float  # dr (|kinetic| + |gradient| + |potential|) of energy[0], a drift base

    def profile(self, i: int) -> RadialProfile:
        return RadialProfile(r=self.r, w=self.w[i], w_t=self.w_t[i],
                             moduli=self.moduli, slope0=np.nan, tol=np.nan)


def _aligned(a, head=0):
    """A copy of the 1-d float array ``a`` whose entry ``head`` starts a 64-byte cache line."""
    out = _aligned_empty(a.size, head)
    out[...] = a
    return out


def evolve_dynamic(initial: RadialProfile, dt: float, t_end: float) -> EvolveResult:
    """Leapfrog integration of ``w_tt = l1 (r^2 w_r)_r / r^2 + U(w)/r^2``.

    The initial profile must live on a uniform grid including r = 0 with
    w(0) = 0; the far boundary value is clamped.  Enforces the CFL-type
    bound ``dt <= dr / sqrt(l1)`` and raises on non-finite values.  The
    leapfrog runs in Stormer's summed form (Henrici 1962): with the kick
    ``k^n = dt^2 a(w^n)`` on the interior, ``d += k^n`` and then ``w += d``,
    so ``d`` is ``w^{n+1} - w^n``.  It rounds less than ``2 w^n - w^{n-1} + k^n``
    and forms nothing larger than the levels.  The Taylor start is
    ``d = dt v - k^0 / 2``, and a snapshot's velocity is
    ``(d + k^n / 2) / dt``, second order at level n.  The energy of a
    snapshot is the Hamiltonian of the semi-discrete system that the
    leapfrog integrates, with V the antiderivative of U:
    ``H = dr [sum r_i^2 v_i^2 / 2 + sum e_i (w_{i+1} - w_i)^2 / (2 dr^2) - sum V(w_i)]``
    over the edge weights ``e_i = l1 r_{i+1/2}^2`` of the stencil.

    The steps run with overflow and invalid-value warnings off.  A
    non-finite interior entry stays non-finite at every later level (its
    ``tan`` is NaN, and ``d += k`` and ``w += d`` carry the NaN; the two
    boundary nodes are not stepped), so each snapshot interval is stepped
    unchecked and only its last level is checked.  On a hit the interval is
    replayed from the previous snapshot's level and the increment saved with
    it, checking every level, so the error names the first non-finite level.
    """
    if not (dt > 0 and t_end >= 0):
        raise ValueError(f"need dt > 0 and t_end >= 0, got dt = {dt}, t_end = {t_end}")
    m = initial.moduli
    r = initial.r
    dr = r[1] - r[0]
    if not np.allclose(np.diff(r), dr, rtol=1e-8):
        raise ValueError("dynamic evolution needs a uniform radial grid")
    if abs(r[0]) > 1e-12 or abs(initial.w[0]) > 1e-10:
        raise ValueError("grid must start at r = 0 with w(0) = 0")
    if dt > dr / np.sqrt(m.lambda1):
        raise ValueError(f"CFL violation: dt = {dt} > dr/sqrt(l1) = {dr / np.sqrt(m.lambda1)}")

    w = _aligned(initial.w, head=1)  # the interior w[1:-1] starts a cache line
    v = initial.w_t if initial.w_t is not None else np.zeros_like(w)
    # conservative radial Laplacian as a three-point stencil on the interior:
    # l1 (r^2 w_r)_r / r^2 = (edge_{i+1/2} (w_{i+1} - w_i) - edge_{i-1/2} (w_i - w_{i-1})) / (dr^2 r_i^2)
    # with edge = l1 r_{i+1/2}^2; the endpoints are set by the b.c.
    edge = _aligned(m.lambda1 * (0.5 * (r[:-1] + r[1:])) ** 2)
    inv_rsq = 1.0 / (r[1:-1] * r[1:-1])
    # dt^2 a = t (k1 t^2 + k0) / (1 + t^2)^2 + ks (flux_{i+1/2} - flux_{i-1/2}), t = tan w and
    # flux = edge (w_{i+1} - w_i): potential_U's constants and dt^2 folded into the stencil
    dt2 = dt * dt
    k1 = _aligned((dt2 * 2.0 * m.lambda1) * inv_rsq)
    k0 = _aligned((dt2 * _dU0(m)) * inv_rsq)  # doubling is exact: the bits of (dt2 * 2.0 * ...)
    ks = _aligned((dt2 / (dr * dr)) * inv_rsq)
    inner, upper, lower = w[1:-1], w[1:], w[:-1]
    kick, t, sq = _aligned(inner), _aligned(inner), _aligned(inner)
    flux, grad, kin = _aligned(upper), np.empty_like(upper), np.empty_like(w)
    flux_hi, flux_lo, rsq = flux[1:], flux[:-1], r * r

    # the ufuncs bound once per run and their outputs passed positionally: the same passes, less dispatch
    tan, mul, add, sub, div = np.tan, np.multiply, np.add, np.subtract, np.divide

    def force():
        # kick = dt^2 a(w) in 13 passes; flux keeps edge (w_{i+1} - w_i) for the energy
        tan(inner, t)
        mul(t, t, sq)
        mul(sq, k1, kick)
        add(kick, k0, kick)
        mul(kick, t, kick)
        add(sq, 1.0, sq)
        mul(sq, sq, sq)
        div(kick, sq, kick)
        sub(upper, lower, flux)
        mul(flux, edge, flux)
        sub(flux_hi, flux_lo, t)
        mul(t, ks, t)
        add(kick, t, kick)

    def energy(vc):
        # H of the docstring and dr (|kinetic| + |gradient| + |potential|) of the level force() saw
        # last.  An overflow is returned, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(rsq, vc, out=kin)
            np.multiply(kin, vc, out=kin)
            np.subtract(upper, lower, out=grad)
            np.multiply(grad, flux, out=grad)
            parts = (0.5 * np.sum(kin), np.sum(grad) / (2.0 * dr * dr), np.sum(potential_U_integral(w, m)))
            return float(dr * (parts[0] + parts[1] - parts[2])), float(dr * sum(abs(p) for p in parts))

    n_steps = int(round(t_end / dt))
    snap_every = max(1, n_steps // (N_SNAPSHOTS - 1))
    n_snap = 1 + n_steps // snap_every + (n_steps % snap_every > 0)
    times, energies = np.zeros(n_snap), np.empty(n_snap)
    ws, vs = np.empty((n_snap, len(r))), np.zeros((n_snap, len(r)))
    force()
    energies[0], scale = energy(v)
    ws[0], vs[0] = w, v
    w[0] = 0.0  # every later level is 0 at r = 0 and initial.w[-1] at r_max
    zero, d_start, caller = np.zeros_like(inner), np.empty_like(inner), np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        # the Taylor start: a non-finite value of it makes level 1 non-finite
        d = _aligned(dt * v[1:-1] - 0.5 * kick)
        for k in range(1, n_snap):
            # the interval of steps n0 + 1 .. n1 ends at snapshot k and starts from level ws[k - 1]
            n0, n1 = (k - 1) * snap_every, min(k * snap_every, n_steps)
            d_start[:] = d
            for _ in range(n0, n1):
                add(d, kick, d)
                add(inner, d, inner)
                force()
            # one check sees any non-finite level of the interval (see the docstring); x . 0 is NaN
            # exactly when some entry of x is not finite
            if not math.isfinite(np.dot(inner, zero)):
                # replay the interval from its start, checking every level, to name the first non-finite one
                inner[:], d[:] = ws[k - 1, 1:-1], d_start
                force()
                for n in range(n0 + 1, n1 + 1):
                    add(d, kick, d)
                    add(inner, d, inner)
                    if not math.isfinite(np.dot(inner, zero)):
                        raise InstabilityError(f"non-finite w at t = {n * dt:.6g}")
                    force()
            vel = vs[k, 1:-1]
            with np.errstate(**caller):  # the snapshot velocity warns as the caller asks
                np.multiply(kick, 0.5, out=vel)
                vel += d
                vel /= dt
            times[k], ws[k] = n1 * dt, w
            energies[k] = energy(vs[k])[0]
    return EvolveResult(times=times, r=r, w=ws, w_t=vs, energy=energies, moduli=m, energy_scale=scale)


def lift_hedgehog(profile: RadialProfile) -> HedgehogField:
    """Promote a radial profile to the 3-d hedgehog rotor field.

    The profile must satisfy w(0) = 0 (the boundary condition of the
    localized radial solutions).  Radial interpolation is cubic in ``r^s``
    (:class:`_CoreSpline`); spatial and time derivatives of the ansatz are
    analytic.
    """
    if profile.r[0] > 1e-9 or abs(profile.w[0]) > 1e-9:
        raise ValueError("hedgehog lift requires a profile with w(0) = 0")
    spline = _CoreSpline(profile, profile.w)
    wdot = None if profile.w_t is None else _CoreSpline(profile, profile.w_t)
    return HedgehogField(w=spline, wp=lambda r: spline(r, 1), wpp=lambda r: spline(r, 2), wdot=wdot)


def _jacobian_eigenvalues(f_star: float, m: Moduli):
    """Eigenvalues ``(-1 +- sqrt(1 + 4 G'(f*))) / 2`` of the Jacobian
    ``[[0, 1], [G'(f*), -1]]`` of (f, f_b) at an equilibrium (f_b = 0), with
    ``G' = 2 cosh f + 4 sech^2 f - 2 (l2/l1)(cosh f + sech^2 f)``."""
    cosh, sech2 = np.cosh(f_star), 1.0 / np.cosh(f_star) ** 2
    g_prime = 2.0 * cosh + 4.0 * sech2 - 2.0 * (m.lambda2 / m.lambda1) * (cosh + sech2)
    root = np.sqrt(complex(1.0 + 4.0 * g_prime))
    return (complex((-1.0 + root) / 2.0), complex((-1.0 - root) / 2.0))


def equilibria(m: Moduli) -> list[Equilibrium]:
    """Fixed points of the autonomous system, with Jacobian eigenvalues.

    f = 0 is always present.  A nontrivial pair exists iff
    ``cosh f = (2 l1 - l2) / (l2 - l1)`` is realizable (> 1), i.e. for
    ``l1 < l2 < 1.5 l1``; its sinh is
    ``+- sqrt(l1 (3 l1 - 2 l2)) / (l1 - l2)`` in magnitude.
    """
    if m.lambda1 <= 0:
        raise ValueError("requires lambda1 > 0")
    out = [Equilibrium(f_star=0.0, w_star=0.0, eigenvalues=_jacobian_eigenvalues(0.0, m))]
    l1, l2 = m.lambda1, m.lambda2
    if l2 != l1:
        cosh_f = (2.0 * l1 - l2) / (l2 - l1)
        if cosh_f > 1.0 + 1e-12:
            f_star = float(np.arccosh(cosh_f))
            for sgn in (+1.0, -1.0):
                f = sgn * f_star
                w = 0.5 * np.arctan(np.sinh(f))
                out.append(Equilibrium(f_star=f, w_star=float(w),
                                       eigenvalues=_jacobian_eigenvalues(f, m)))
    return out


# ---------------------------------------------------------------------------
# profile CSV (format shared with the command line front end)

PROFILE_MAGIC = "radial-profile-csv 1"


def save_profile_csv(profile: RadialProfile, path) -> None:
    """Write r,w[,w_t] rows with a metadata header."""
    m = profile.moduli
    columns = (profile.r, profile.w) if profile.w_t is None else (profile.r, profile.w, profile.w_t)
    meta = ({"lambda1": m.lambda1, "lambda2": m.lambda2}, {"c1": m.c1, "c2": m.c2, "c3": m.c3},
            {"slope0": profile.slope0, "tol": profile.tol})
    _write_table(path, PROFILE_MAGIC, meta, ",".join(("r", "w", "w_t")[:len(columns)]), columns)


def load_profile_csv(path) -> RadialProfile:
    """Read a profile written by :func:`save_profile_csv`.

    The column header must be ``r,w`` or ``r,w,w_t``, every row must have
    that many columns, and there must be at least two rows; anything else
    raises ``ValueError``.
    """
    layout = ({"lambda1": 1, "lambda2": 1}, {"c1": 1, "c2": 1, "c3": 1}, {"slope0": 1, "tol": 1})
    meta, data = _read_table(path, PROFILE_MAGIC, layout, ("r,w", "r,w,w_t"), rows=lambda meta: (2, np.inf))
    v = {key: value for key, (value,) in meta.items()}
    # Moduli checks that the stored c-triple and couplings agree
    m = Moduli(c1=v["c1"], c2=v["c2"], c3=v["c3"], lambda1=v["lambda1"], lambda2=v["lambda2"])
    w_t = data[:, 2] if data.shape[1] == 3 else None
    return RadialProfile(r=data[:, 0], w=data[:, 1], w_t=w_t, moduli=m, slope0=v["slope0"], tol=v["tol"])
