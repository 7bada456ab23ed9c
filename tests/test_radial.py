import functools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import rotelast as rl
from rotelast import radial
from rotelast.radial import DivergenceError, InstabilityError, indicial_exponent

from conftest import LEVI_CIVITA
from test_kernels import same_bits


def potential_U_sincos(w, m):
    """Oracle: the nonlinearity in its sin/cos form."""
    return np.sin(2.0 * w) * ((m.lambda2 - m.lambda1) + (m.lambda2 - 2.0 * m.lambda1) * np.cos(2.0 * w))


def potential_V_sincos(w, m):
    """Oracle: its antiderivative in the sin/cos form."""
    l1, l2 = m.lambda1, m.lambda2
    return (l2 - l1) * (1.0 - np.cos(2.0 * w)) / 2.0 + (l2 - 2.0 * l1) * (1.0 - np.cos(4.0 * w)) / 8.0


def static_residual_loop(profile, n_probe=400):
    """Oracle: the first-integral defect, one probe interval per Python iteration."""
    dense, l1 = profile.dense, profile.moduli.lambda1
    r_lo = profile.r[0] if profile.r[0] > 0 else profile.r[1]
    rs = np.geomspace(r_lo, profile.r[-1], n_probe)
    xg, wg = np.polynomial.legendre.leggauss(5)
    worst = 0.0
    for a, b in zip(rs[:-1], rs[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        quad = half * np.sum(wg * potential_U_sincos(dense(mid + half * xg)[0], profile.moduli))
        ya, yb = dense(a), dense(b)
        defect = l1 * (b * b * yb[1] - a * a * ya[1]) + quad
        worst = max(worst, abs(defect) / max(1.0, abs(l1 * b * b * yb[1])))
    return worst


def leapfrog_allocating(initial, dt, t_end):
    """Oracle: the leapfrog with a freshly allocated flux-form force per step and the sin/cos U.

    Returns (w, w_t, energy) at the snapshots, as ``evolve_dynamic`` does.
    """
    m, r = initial.moduli, initial.r
    dr = r[1] - r[0]
    w = initial.w.copy()
    v = initial.w_t.copy()
    l1 = m.lambda1
    rsq = r * r
    r_half_sq = (0.5 * (r[:-1] + r[1:])) ** 2

    def accel(wc):
        acc = np.zeros_like(wc)
        flux = r_half_sq * (wc[1:] - wc[:-1]) / dr
        acc[1:-1] = l1 * (flux[1:] - flux[:-1]) / (dr * rsq[1:-1])
        acc[1:-1] += potential_U_sincos(wc[1:-1], m) / rsq[1:-1]
        return acc

    def energy(wc, vc):
        # the semi-discrete Hamiltonian: kinetic, edge-weighted gradient and potential sums
        grad = l1 * r_half_sq * ((wc[1:] - wc[:-1]) / dr) ** 2
        return float(dr * (np.sum(0.5 * rsq * vc * vc) + np.sum(0.5 * grad) - np.sum(potential_V_sincos(wc, m))))

    n_steps = int(round(t_end / dt))
    snap_every = max(1, n_steps // 100)  # 101 snapshots, as evolve_dynamic keeps
    ws, vs, es = [w.copy()], [v.copy()], [energy(w, v)]
    w_prev = w - dt * v + 0.5 * dt * dt * accel(w)
    for n in range(1, n_steps + 1):
        w_next = 2.0 * w - w_prev + dt * dt * accel(w)
        w_next[0] = 0.0
        w_next[-1] = initial.w[-1]
        w_prev, w = w, w_next
        if n % snap_every == 0 or n == n_steps:
            v_now = (w - w_prev) / dt + 0.5 * dt * accel(w)
            ws.append(w.copy())
            vs.append(v_now)
            es.append(energy(w, v_now))
    return np.array(ws), np.array(vs), np.array(es)


def potential_U_one_line(w, m):
    """Oracle: the tan form of U as one expression, with its own temporaries."""
    t = np.tan(w)
    sq = t * t
    return 2.0 * t * ((2.0 * m.lambda2 - 3.0 * m.lambda1) + m.lambda1 * sq) / (1.0 + sq) ** 2


def leapfrog_difference_form(initial, dt, t_end, dtype=float):
    """Oracle: ``evolve_dynamic``'s arithmetic before its summed form, ``w^{n+1} = 2 w^n - w^{n-1} + dt^2 a(w^n)``.

    The one-line U, the flux-form force through ``lo`` and ``hi``, the Taylor
    start ``w^{-1} = w - dt v + dt^2 a / 2`` and a finiteness check after every
    step.  Returns (times, w, w_t, parts) at the snapshots, ``parts`` the
    kinetic, gradient and potential sums of each H, which is
    ``dr * (kinetic + gradient - potential)``.  With ``dtype=np.longdouble``
    every array and constant is extended from the same doubles: the exact
    discrete system, the reference of the rounding tests.
    """
    m, r = initial.moduli, initial.r.astype(dtype)
    dt = dtype(dt)
    dr = r[1] - r[0]
    w = initial.w.astype(dtype)
    v = initial.w_t.astype(dtype) if initial.w_t is not None else np.zeros_like(w)
    edge = m.lambda1 * (0.5 * (r[:-1] + r[1:])) ** 2
    inv_rsq = 1.0 / (r[1:-1] * r[1:-1])
    lo = edge[:-1] * inv_rsq / (dr * dr)
    hi = edge[1:] * inv_rsq / (dr * dr)
    diff, flux = np.empty(len(r) - 1, dtype), np.empty(len(r) - 2, dtype)

    def accel(wc, acc):
        inner = acc[1:-1]
        np.multiply(potential_U_one_line(wc[1:-1], m), inv_rsq, out=inner)
        np.subtract(wc[1:], wc[:-1], out=diff)
        np.multiply(hi, diff[1:], out=flux)
        np.add(inner, flux, out=inner)
        np.multiply(lo, diff[:-1], out=flux)
        np.subtract(inner, flux, out=inner)
        return acc

    def parts(wc, vc):
        return (0.5 * np.sum(r * r * vc * vc), np.sum(edge * diff * diff) / (2.0 * dr * dr),
                np.sum(radial.potential_U_integral(wc, m)))

    n_steps = int(round(t_end / dt))
    snap_every = max(1, n_steps // 100)  # 101 snapshots, as evolve_dynamic keeps
    acc = accel(w, np.zeros_like(w))
    times, ws, vs, es = [0.0], [w.copy()], [v.copy()], [parts(w, v)]
    w_prev = w - dt * v + 0.5 * dt * dt * acc
    w_next, kick = np.empty_like(w), np.empty_like(w)
    dt2, w_far = dt * dt, initial.w[-1]
    for n in range(1, n_steps + 1):
        np.multiply(w, 2.0, out=w_next)
        np.subtract(w_next, w_prev, out=w_next)
        np.multiply(acc, dt2, out=kick)
        np.add(w_next, kick, out=w_next)
        w_next[0] = 0.0
        w_next[-1] = w_far
        w_prev, w, w_next = w, w_next, w_prev
        if not np.all(np.isfinite(w)):
            raise InstabilityError(f"non-finite w at t = {n * dt:.6g}")
        accel(w, acc)
        if n % snap_every == 0 or n == n_steps:
            v_now = (w - w_prev) / dt + 0.5 * dt * acc
            times.append(n * dt)
            ws.append(w.copy())
            vs.append(v_now)
            es.append(parts(w, v_now))
    return np.array(times), np.array(ws), np.array(vs), np.array(es)


def leapfrog_checked_every_step(initial, dt, t_end):
    """Oracle: ``evolve_dynamic``'s summed-form leapfrog, written plainly.

    The kick ``dt^2 a(w)`` is one expression with its own temporaries, over
    the folded constants ``k1``, ``k0`` and ``ks`` of ``evolve_dynamic``; the
    increment ``d`` starts at ``dt v - kick / 2``, and each step is
    ``d = d + kick``, ``w = w + d`` on the interior and a finiteness check of
    the whole level, whose ``InstabilityError`` carries the first non-finite
    level as ``level``.  Returns (times, w, w_t, parts) at the snapshots, as
    :func:`leapfrog_difference_form` does.
    """
    m, r = initial.moduli, initial.r
    dr = r[1] - r[0]
    w = initial.w.copy()
    v = initial.w_t.copy() if initial.w_t is not None else np.zeros_like(w)
    edge = m.lambda1 * (0.5 * (r[:-1] + r[1:])) ** 2
    inv_rsq = 1.0 / (r[1:-1] * r[1:-1])
    dt2 = dt * dt
    k1 = (dt2 * 2.0 * m.lambda1) * inv_rsq
    k0 = (dt2 * 2.0 * (2.0 * m.lambda2 - 3.0 * m.lambda1)) * inv_rsq
    ks = (dt2 / (dr * dr)) * inv_rsq

    def force(wc):
        t = np.tan(wc[1:-1])
        return t * (k1 * (t * t) + k0) / (1.0 + t * t) ** 2 + ks * np.diff(edge * np.diff(wc))

    def parts(wc, vc):
        diff = np.diff(wc)
        return (0.5 * np.sum(r * r * vc * vc), np.sum(edge * diff * diff) / (2.0 * dr * dr),
                np.sum(radial.potential_U_integral(wc, m)))

    n_steps = int(round(t_end / dt))
    snap_every = max(1, n_steps // 100)  # 101 snapshots, as evolve_dynamic keeps
    kick = force(w)
    times, ws, vs, es = [0.0], [w.copy()], [v.copy()], [parts(w, v)]
    w[0] = 0.0
    d = dt * v[1:-1] - 0.5 * kick
    for n in range(1, n_steps + 1):
        d = d + kick
        w[1:-1] = w[1:-1] + d
        if not np.all(np.isfinite(w)):
            error = InstabilityError(f"non-finite w at t = {n * dt:.6g}")
            error.level = w
            raise error
        kick = force(w)
        if n % snap_every == 0 or n == n_steps:
            v_now = np.zeros_like(w)
            v_now[1:-1] = (d + 0.5 * kick) / dt
            times.append(n * dt)
            ws.append(w.copy())
            vs.append(v_now)
            es.append(parts(w, v_now))
    return np.array(times), np.array(ws), np.array(vs), np.array(es)


def potential_U_zero_d(w, m):
    """Oracle: ``potential_U`` on a 0-d array, the static solver's path before it took Python floats."""
    t = np.tan(np.asarray(w, dtype=float))
    sq = t * t
    val = sq * (2.0 * m.lambda1)
    val += 2.0 * (2.0 * m.lambda2 - 3.0 * m.lambda1)
    val *= t
    sq += 1.0
    sq **= 2  # a 0-d array squares by pow
    val /= sq
    return float(val)


@functools.cache
def static_solution(l1, l2):
    return rl.solve_static(rl.Moduli.from_couplings(l1, l2), slope0=1.0, r_max=50.0, tol=1e-10)


def huge_velocity_profile(velocity, n=101):
    """The (1, 1) bump at rest but for a uniform interior velocity: the levels overflow after some steps."""
    r = np.linspace(0.0, 10.0, n)
    w_t = np.zeros_like(r)
    w_t[1:-1] = velocity
    return rl.RadialProfile(r=r, w=0.1 * r * np.exp(-r), w_t=w_t, moduli=rl.Moduli.from_couplings(1.0, 1.0),
                            slope0=0.1, tol=1e-8)


def eigenvalues_closed_form(f_star, m):
    """Derived oracle: eigenvalues of [[0, 1], [G'(f*), -1]].

    G(f) = 2 sinh f + 4 tanh f - 2 (l2/l1)(sinh f + tanh f) is the force of
    the first-order autonomous system, so mu = (-1 +- sqrt(1 + 4 G'))/2.
    """
    ratio = m.lambda2 / m.lambda1
    gp = 2 * np.cosh(f_star) + 4 / np.cosh(f_star) ** 2 - 2 * ratio * (
        np.cosh(f_star) + 1 / np.cosh(f_star) ** 2
    )
    root = np.sqrt(complex(1 + 4 * gp))
    return sorted([(-1 + root) / 2, (-1 - root) / 2], key=lambda z: z.real)


def _autonomous_force(f, m):
    """G(f) such that the autonomous equation is f_bb = G(f) - f_b + tanh(f) f_b^2."""
    ratio = m.lambda2 / m.lambda1
    return 2.0 * np.sinh(f) + 4.0 * np.tanh(f) - 2.0 * ratio * (np.sinh(f) + np.tanh(f))


def autonomous_residual(f, f_b, f_bb, m):
    """Left side of the autonomous log-radius equation that :func:`rl.equilibria` solves in closed form.

    ``f_bb + f_b (1 - tanh(f) f_b) - 2 sinh f - 4 tanh f
    + 2 (l2/l1)(sinh f + tanh f)``; zero along static solutions mapped
    through ``w = arctan(sinh f)/2``, ``b = log r``.
    """
    return float(f_bb + f_b * (1.0 - np.tanh(f) * f_b) - _autonomous_force(f, m))


def eigenvalues_finite_difference(f_star, m, step=1e-6):
    """Eigenvalues of the central-difference Jacobian of the flow (f_b, f_bb) at (f*, 0)."""

    def flow(state):
        f, p = state
        return np.array([p, _autonomous_force(f, m) - p + np.tanh(f) * p * p])

    jac = np.empty((2, 2))
    x0 = np.array([f_star, 0.0])
    for col in range(2):
        dx = np.zeros(2)
        dx[col] = step
        jac[:, col] = (flow(x0 + dx) - flow(x0 - dx)) / (2 * step)
    return sorted(np.linalg.eigvals(jac).astype(complex), key=lambda z: (z.real, z.imag))


class TestPotentialU:
    def test_zero_at_origin(self):
        for l1, l2 in [(1, 1), (1, 2), (0.3, 0.9)]:
            assert rl.potential_U(0.0, rl.Moduli.from_couplings(l1, l2)) == 0.0

    def test_sine_gordon_case(self):
        # l1 = 1, l2 = 2 collapses to sin(2w)
        m = rl.Moduli.from_couplings(1.0, 2.0)
        w = np.linspace(-3, 3, 1000)
        assert np.abs(rl.potential_U(w, m) - np.sin(2 * w)).max() <= 1e-12

    def test_equal_couplings_case(self):
        # l1 = l2 = 1 collapses to -sin(4w)/2
        m = rl.Moduli.from_couplings(1.0, 1.0)
        w = np.linspace(-3, 3, 1000)
        assert np.abs(rl.potential_U(w, m) + 0.5 * np.sin(4 * w)).max() <= 1e-12

    TAN_POLES = np.array([np.nextafter(np.pi / 2 + k * np.pi, side) for k in range(11) for side in (0.0, 40.0)])

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3), (3.0, 0.1)])
    def test_tan_forms_match_sincos(self, l1, l2):
        # wide range, the doubles nearest the poles of tan (t^2 ~ 1e32) and |w| = 1e6
        m = rl.Moduli.from_couplings(l1, l2)
        tol = 2e-15 * max(1.0, l1, l2)
        for w in (np.linspace(-20.0, 20.0, 200001), self.TAN_POLES, -self.TAN_POLES, np.array([1e6, -1e6])):
            assert np.abs(rl.potential_U(w, m) - potential_U_sincos(w, m)).max() <= tol
            assert np.abs(rl.potential_U_integral(w, m) - potential_V_sincos(w, m)).max() <= tol

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3), (3.0, 0.1)])
    def test_float_and_array_elements_agree(self, l1, l2):
        # one expression for a float and an array: the same bits at the poles of tan, +-1e6, NaN and +-0
        m = rl.Moduli.from_couplings(l1, l2)
        w = np.concatenate((self.TAN_POLES, -self.TAN_POLES, [1e6, -1e6, np.nan, 0.0, -0.0]))
        for fn in (rl.potential_U, rl.potential_U_integral):
            got = [fn(x, m) for x in w.tolist()]
            assert all(type(u) is float for u in got) and same_bits([np.array(got)], [fn(w, m)])

    def test_scalar_in_float_out(self, unit_moduli):
        for fn in (rl.potential_U, rl.potential_U_integral):
            assert type(fn(0.3, unit_moduli)) is float
            assert fn(0.0, unit_moduli) == 0.0
            assert np.isnan(fn(np.nan, unit_moduli))

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3), (3.0, 0.1)])
    def test_in_place_steps_keep_the_one_line_bits(self, l1, l2):
        # an array squares by multiplication, while a scalar (the static solver's right-hand side) keeps pow's bits
        m = rl.Moduli.from_couplings(l1, l2)
        w = np.random.default_rng(5).normal(scale=3.0, size=20000)
        assert same_bits((rl.potential_U(w, m), rl.potential_U(w[1:-1], m)),
                         (potential_U_one_line(w, m), potential_U_one_line(w[1:-1], m)))
        assert same_bits([rl.potential_U(x, m) for x in w[:4000]], [potential_U_one_line(x, m) for x in w[:4000]])

    SWEEP = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-170, 1e-8, 0.3, -1.0, 2.5, 1e6, -1e17, 1e300, -1e308,
             np.finfo(float).max, np.nan]

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3), (3.0, 0.1)])
    def test_scalar_path_keeps_the_bits(self, l1, l2):
        # a float, np.float64 or 0-d array takes np.tan and then Python floats: the bits of the 0-d array path
        # that the static solver passed before, and of the array path wherever libm's pow squares 1 + t^2 as
        # multiplication does (a 0-d array squared by pow, an array squares by multiplication)
        m = rl.Moduli.from_couplings(l1, l2)
        w = np.concatenate((self.SWEEP, self.TAN_POLES, -self.TAN_POLES,
                            np.random.default_rng(7).normal(scale=3.0, size=20000)))
        oracle = [potential_U_zero_d(x, m) for x in w]
        for kind in (float, np.float64, np.asarray):
            got = [rl.potential_U(kind(x), m) for x in w.tolist()]
            assert all(type(u) is float for u in got) and same_bits([got], [oracle])
        t = np.tan(w)
        den = (1.0 + t * t).tolist()
        alike = np.array([math.pow(d, 2) == d * d or math.isnan(d) for d in den])
        assert alike.mean() > 0.99 and same_bits([np.array(got)[alike]], [rl.potential_U(w, m)[alike]])

    def test_integral_is_antiderivative(self):
        m = rl.Moduli.from_couplings(0.7, 1.2)
        for w in (0.2, 0.9, -1.4):
            d = 1e-6
            num = (rl.potential_U_integral(w + d, m) - rl.potential_U_integral(w - d, m)) / (2 * d)
            assert num == pytest.approx(rl.potential_U(w, m), abs=1e-8)


class TestIndicialExponent:
    def test_equal_couplings(self):
        assert indicial_exponent(rl.Moduli.from_couplings(1.0, 1.0)) == pytest.approx(1.0)

    def test_fallback_for_oscillatory_origin(self):
        # no positive real root once 2 l2 > 3 l1
        assert indicial_exponent(rl.Moduli.from_couplings(1.0, 2.0)) == 1.0

    def test_root_solves_indicial_equation(self):
        m = rl.Moduli.from_couplings(1.0, 1.25)
        s = indicial_exponent(m)
        assert m.lambda1 * s * (s + 1) == pytest.approx(
            -2 * (2 * m.lambda2 - 3 * m.lambda1), abs=1e-12
        )


class TestSolveStatic:
    def test_zero_slope_is_fixed_point(self, unit_moduli):
        p = rl.solve_static(unit_moduli, slope0=0.0, r_max=10.0, tol=1e-10)
        assert np.abs(p.w).max() <= 1e-12

    def test_first_integral_residual(self):
        for l1, l2, tol in [(1.0, 1.0, 1e-8), (1.0, 2.0, 1e-8), (1.0, 1.25, 1e-8)]:
            m = rl.Moduli.from_couplings(l1, l2)
            p = rl.solve_static(m, slope0=1.0, r_max=40.0, tol=tol)
            assert rl.static_residual(p) <= 10.0 * tol

    def test_soliton_shape(self, soliton_profile):
        # the true profile rises through pi/4, peaks near r = 3.3, then
        # relaxes toward pi/4 through a slowly decaying oscillation
        r, w = soliton_profile.r, soliton_profile.w
        quarter = np.pi / 4
        core = r <= 3.0
        assert np.all(np.diff(w[core]) >= -1e-12)  # monotone through the core
        peak = w.max()
        assert 0.90 <= peak <= 0.93
        assert r[np.argmax(w)] == pytest.approx(3.31, abs=0.1)
        assert abs(w[r >= 50.0][0] - quarter) <= 0.05
        assert w[-1] > 0.5  # localized, nonvanishing asymptote

    @pytest.mark.parametrize("l1, l2, slope0", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.97), (0.4, 2.3, 1.0)])
    def test_static_residual_matches_loop(self, l1, l2, slope0):
        p = rl.solve_static(rl.Moduli.from_couplings(l1, l2), slope0=slope0, r_max=50.0, tol=1e-10)
        assert rl.static_residual(p) == pytest.approx(static_residual_loop(p), rel=1e-12)

    def test_divergence_error(self, unit_moduli):
        with pytest.raises(DivergenceError) as err:
            rl.solve_static(unit_moduli, slope0=1e9, r_max=10.0)
        assert err.value.radius > 0

    def test_profile_validation(self, unit_moduli):
        with pytest.raises(ValueError, match="non-empty"):
            rl.RadialProfile(r=[], w=[], moduli=unit_moduli, slope0=1.0, tol=1e-8)
        with pytest.raises(ValueError):
            rl.RadialProfile(r=np.array([0.0, 0.0, 1.0]), w=np.zeros(3),
                             moduli=unit_moduli, slope0=1.0, tol=1e-8)
        with pytest.raises(ValueError):
            rl.RadialProfile(r=np.array([0.0, 1.0]), w=np.array([0.0, np.inf]),
                             moduli=unit_moduli, slope0=1.0, tol=1e-8)

    @pytest.mark.parametrize("r_max, tol", [(np.nan, 1e-10), (np.inf, 1e-10), (10.0, np.nan)])
    def test_non_finite_configuration_rejected(self, unit_moduli, r_max, tol):
        with pytest.raises(ValueError, match="bad solver configuration"):
            rl.solve_static(unit_moduli, slope0=1.0, r_max=r_max, tol=tol)

    def test_coupling_that_vanishes_at_the_start_rejected(self):
        # lambda1 R0^2 rounds to 0 at lambda1 = 1e-320, and would divide the first step's U
        with pytest.raises(ValueError, match="bad solver configuration"):
            rl.solve_static(rl.Moduli.from_couplings(1e-320, 1.0), slope0=1.0, r_max=10.0)

    def test_non_finite_velocity_rejected(self, unit_moduli):
        with pytest.raises(ValueError, match="w_t must be finite"):
            rl.RadialProfile(r=np.array([0.0, 1.0, 2.0]), w=np.zeros(3), w_t=np.array([0.0, np.inf, 0.0]),
                             moduli=unit_moduli, slope0=1.0, tol=1e-8)


class TestEvolveDynamic:
    def test_zero_data_stays_zero(self, unit_moduli):
        r = np.linspace(0.0, 20.0, 801)
        p = rl.RadialProfile(r=r, w=np.zeros_like(r), w_t=np.zeros_like(r),
                             moduli=unit_moduli, slope0=0.0, tol=1e-8)
        ev = rl.evolve_dynamic(p, dt=0.01, t_end=1.0)
        assert np.abs(ev.w).max() == 0.0

    def test_cfl_guard(self, unit_moduli):
        r = np.linspace(0.0, 10.0, 101)
        p = rl.RadialProfile(r=r, w=np.zeros_like(r), w_t=np.zeros_like(r),
                             moduli=unit_moduli, slope0=0.0, tol=1e-8)
        with pytest.raises(ValueError, match="CFL"):
            rl.evolve_dynamic(p, dt=1.0, t_end=2.0)

    def test_static_soliton_is_stationary(self):
        uni = rl.resample_uniform(static_solution(1.0, 1.0), n=2001)  # dr = 0.025 on [0, 50]
        uni.w_t = np.zeros_like(uni.w)
        dr = uni.r[1] - uni.r[0]
        ev = rl.evolve_dynamic(uni, dt=0.5 * dr, t_end=2.0)
        assert np.abs(ev.w - ev.w[0]).max() <= 5e-4
        # the leapfrog keeps its own Hamiltonian: 2.7e-13 relative here
        assert np.abs(ev.energy - ev.energy[0]).max() <= 1e-11 * abs(ev.energy[0])

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (0.4, 2.3)])
    @pytest.mark.parametrize("n", [801, 4001])
    def test_matches_allocating_leapfrog(self, l1, l2, n):
        # the static profile with a small kick off the core
        m = rl.Moduli.from_couplings(l1, l2)
        uni = rl.resample_uniform(rl.solve_static(m, slope0=1.0, r_max=50.0, tol=1e-10), n=n)
        uni.w_t = 0.01 * uni.r * np.exp(-((uni.r - 2.0) ** 2))
        dt = 0.5 * (uni.r[1] - uni.r[0]) / np.sqrt(l1)
        ev = rl.evolve_dynamic(uni, dt=dt, t_end=2.0)
        w, w_t, energy = leapfrog_allocating(uni, dt, 2.0)
        scale = np.abs(w).max()
        # the tan form changes U in the last bits, so the levels agree to
        # rounding; w_t is a difference quotient of two levels over dt.  An
        # energy below 1 is compared absolutely: that of (0.4, 2.3) is 1.4e-3,
        # and the oracle's (1 - cos 2w) / 2 rounds absolutely at small w
        assert np.abs(ev.w - w).max() <= 1e-12 * scale
        assert np.abs(ev.w_t - w_t).max() <= 1e-12 * scale / dt
        assert np.abs(ev.energy - energy).max() <= 1e-12 * max(1.0, abs(energy[0]))

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3)])
    @pytest.mark.parametrize("n", [801, 4001])
    @pytest.mark.parametrize("kicked", [True, False], ids=["w_t", "at_rest"])
    def test_same_bits_as_the_per_step_check(self, l1, l2, n, kicked):
        # 101 snapshots: (1, 1) takes 64 steps at 801 nodes, each a snapshot, and 320 at 4001 nodes, not
        # a multiple of snap_every = 3, so the last snapshot ends a short interval
        uni = rl.resample_uniform(static_solution(l1, l2), n=n)
        uni.w_t = 0.01 * uni.r * np.exp(-((uni.r - 2.0) ** 2)) if kicked else None
        dr = uni.r[1] - uni.r[0]
        dt = 0.5 * dr / np.sqrt(l1)
        ev = rl.evolve_dynamic(uni, dt=dt, t_end=2.0)
        times, w, w_t, parts = leapfrog_checked_every_step(uni, dt, 2.0)
        energy = [float(dr * (kin + grad - pot)) for kin, grad, pot in parts]
        assert same_bits((ev.times, ev.w, ev.w_t, ev.energy), (times, w, w_t, energy))

    @pytest.mark.parametrize("where, n, velocity, dt, t_end, step",
                             [("inside_an_interval", 101, 1.7e307, 0.05, 40.0, 5),
                              ("last_unaligned_step", 11, 1.56e306, 0.5, 416.5, 833),
                              ("snapshot_step", 101, 1.7e307, 0.05, 25.0, 5), ("first_level", 3, 1e308, 2.0, 4.0, 1),
                              ("after_a_snapshot", 101, 1.7e307, 0.05, 20.0, 5),
                              ("minus_infinity", 101, -8e306, 0.1, 50.0, 49)],
                             ids=["inside_an_interval", "last_unaligned_step", "snapshot_step", "first_level",
                                  "after_a_snapshot", "minus_infinity"])
    @pytest.mark.filterwarnings("error")  # the steps, and the Taylor start, overflow without a warning
    def test_replay_names_the_first_non_finite_level(self, where, n, velocity, dt, t_end, step):
        # at 101 nodes and 1.7e307 the oracle's levels overflow first at step 5: inside the interval (0, 8]
        # of an 800-step run, at the first snapshot of a 500-step run (snap_every = 5), and at the first step
        # of the interval (4, 8] of a 400-step run, whose replay starts from the level of the snapshot at
        # step 4.  At 11 nodes (dr = 1) and 1.56e306 they overflow first at step 833, the last step of an
        # 833-step run whose intervals end at 8, 16, ..., 832 and 833; its snapshot velocities stay finite,
        # as they do not on a 101-node run as long.  At 3 nodes (dr = 5), dt w_t = 2e308 overflows the
        # Taylor start, so level 1 is the first non-finite one.  At 101 nodes, dt = dr and -8e306 the first
        # non-finite level, step 49 in the interval (45, 50] of a 500-step run, holds -inf
        n_steps = round(t_end / dt)
        snap_every = max(1, n_steps // 100)
        assert {"inside_an_interval": step < n_steps and step % snap_every > 0,
                "last_unaligned_step": step == n_steps and step % snap_every > 0,
                "snapshot_step": step < n_steps and step % snap_every == 0 and snap_every > 1,
                "first_level": step == 1,
                "after_a_snapshot": 1 < step < n_steps and step % snap_every == 1 and snap_every > 1,
                "minus_infinity": step < n_steps and step % snap_every > 0}[where]
        p = huge_velocity_profile(velocity, n)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as oracle:
            leapfrog_checked_every_step(p, dt, t_end)
        assert str(oracle.value) == f"non-finite w at t = {step * dt:.6g}"
        level = oracle.value.level
        assert where != "minus_infinity" or np.all(level[~np.isfinite(level)] == -np.inf)
        with pytest.raises(InstabilityError) as new:
            rl.evolve_dynamic(p, dt=dt, t_end=t_end)
        assert str(new.value) == str(oracle.value)

    @pytest.mark.parametrize("head", range(8))
    def test_aligned_copy_starts_a_cache_line(self, head):
        a = np.arange(4001.0)
        b = radial._aligned(a, head)
        assert (b.ctypes.data + 8 * head) % 64 == 0 and b.dtype == float and same_bits([b], [a])

    @pytest.mark.filterwarnings("error")
    def test_a_level_overflows_before_its_increment(self):
        # near the largest double, level 3 overflows while d = w^3 - w^2 is still finite (3 nodes on r <= 1,
        # where the edge weights stay below 1): the check reads the level, not the increment
        p = rl.RadialProfile(r=np.array([0.0, 0.5, 1.0]), w=np.array([0.0, 1.7e308, 1.7e308]),
                             w_t=np.array([0.0, 1e308, 0.0]), moduli=rl.Moduli.from_couplings(1.0, 1.0),
                             slope0=0.0, tol=1e-8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError) as oracle:
            leapfrog_checked_every_step(p, 0.05, 1.0)
        assert str(oracle.value) == "non-finite w at t = 0.15"
        with pytest.raises(InstabilityError) as new:
            rl.evolve_dynamic(p, dt=0.05, t_end=1.0)
        assert str(new.value) == str(oracle.value)

    def test_overflow_free_huge_run_completes(self):
        # huge but finite all the way: no check fails, and the levels keep their bits
        p, dt = huge_velocity_profile(1e306), 0.05
        with np.errstate(over="ignore", invalid="ignore"):
            ev = rl.evolve_dynamic(p, dt=dt, t_end=2.0)
            times, w, w_t, _ = leapfrog_checked_every_step(p, dt, 2.0)
        assert np.all(np.isfinite(ev.w)) and same_bits((ev.times, ev.w, ev.w_t), (times, w, w_t))

    def test_levels_are_clamped_at_both_ends(self):
        # w(0) may start up to 1e-10 off zero; every later level is 0 there and keeps the far value
        p = huge_velocity_profile(0.1)
        p.w[0] = 1e-10
        ev = rl.evolve_dynamic(p, dt=0.05, t_end=1.0)
        assert ev.w[0, 0] == 1e-10 and np.all(ev.w[1:, 0] == 0.0) and np.all(ev.w[:, -1] == p.w[-1])
        _, w, w_t, parts = leapfrog_checked_every_step(p, 0.05, 1.0)
        energy = [float((p.r[1] - p.r[0]) * (kin + grad - pot)) for kin, grad, pot in parts]
        assert same_bits((ev.w, ev.w_t, ev.energy), (w, w_t, energy))

    def test_no_overflow_where_the_levels_are_finite(self):
        # the difference form's 2 w^n overflows at t = 0.95 here, although in extended precision every
        # level stays below 5.1e307; the summed form forms nothing larger than a level and runs to t = 20
        p, dt = huge_velocity_profile(1e307), 0.05
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError, match="t = 0.95$"):
                leapfrog_difference_form(p, dt, 20.0)
            _, exact, *_ = leapfrog_difference_form(p, dt, 20.0, dtype=np.longdouble)
            ev = rl.evolve_dynamic(p, dt=dt, t_end=20.0)
            times, w, w_t, _ = leapfrog_checked_every_step(p, dt, 20.0)
        assert np.abs(exact).max() < np.finfo(float).max
        assert np.all(np.isfinite(ev.w)) and same_bits((ev.times, ev.w, ev.w_t), (times, w, w_t))
        assert np.abs(ev.w - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25), (0.4, 2.3)])
    @pytest.mark.parametrize("n", [801, 4001])
    def test_matches_the_difference_form(self, l1, l2, n):
        # the summed form changes the rounding only: the levels agree to 1e-12 of max|w| at t = 2 (the
        # soliton's growing mode amplifies rounding past that near t = 11), w_t is a difference quotient
        # of two levels over dt, and the energies agree to 1e-12 of energy_scale.  The ill-posed (0.4, 2.3)
        # grows its parts from energy_scale = 1.4e-3 to about 4 by t = 2, so each of its H is compared to
        # its own dr (|kin| + |grad| + |pot|) instead, which is energy_scale at t = 0
        uni = rl.resample_uniform(static_solution(l1, l2), n=n)
        uni.w_t = 0.01 * uni.r * np.exp(-((uni.r - 2.0) ** 2))
        dr = uni.r[1] - uni.r[0]
        dt = 0.5 * dr / np.sqrt(l1)
        ev = rl.evolve_dynamic(uni, dt=dt, t_end=2.0)
        times, w, w_t, parts = leapfrog_difference_form(uni, dt, 2.0)
        energy = [float(dr * (kin + grad - pot)) for kin, grad, pot in parts]
        scale = np.abs(w).max()
        assert np.array_equal(ev.times, times) and ev.energy[0] == energy[0]
        assert np.abs(ev.w - w).max() <= 1e-12 * scale
        assert np.abs(ev.w_t - w_t).max() <= 1e-12 * scale / dt
        if (l1, l2) == (0.4, 2.3):
            assert np.all(np.abs(ev.energy - energy) <= 1e-12 * dr * np.abs(parts).sum(axis=1))
        else:
            assert np.abs(ev.energy - energy).max() <= 1e-12 * ev.energy_scale

    @pytest.mark.parametrize("l1, l2", [(1.0, 1.0), (1.0, 1.25)])
    @pytest.mark.parametrize("kicked", [True, False], ids=["w_t", "at_rest"])
    def test_rounds_less_than_the_difference_form(self, l1, l2, kicked):
        # against the exact discrete system (the difference form in extended precision) the summed form
        # reads 1.7e-15 to 4.6e-15 here, the difference form 4.3e-15 to 1.3e-14
        uni = rl.resample_uniform(static_solution(l1, l2), n=801)
        uni.w_t = 0.01 * uni.r * np.exp(-((uni.r - 2.0) ** 2)) if kicked else None
        dt = 0.5 * (uni.r[1] - uni.r[0]) / np.sqrt(l1)
        _, exact, *_ = leapfrog_difference_form(uni, dt, 2.0, dtype=np.longdouble)
        _, difference, *_ = leapfrog_difference_form(uni, dt, 2.0)
        summed = rl.evolve_dynamic(uni, dt=dt, t_end=2.0).w
        assert np.abs(summed - exact).max() < np.abs(difference - exact).max()

    @pytest.mark.parametrize("l1, l2, kicked", [(1.0, 1.0, False), (1.0, 1.25, True), (0.4, 2.3, True)])
    def test_energy_scale_sums_the_absolute_parts(self, l1, l2, kicked):
        uni = rl.resample_uniform(static_solution(l1, l2), n=801)
        uni.w_t = 0.01 * uni.r * np.exp(-((uni.r - 2.0) ** 2)) if kicked else None
        dr = uni.r[1] - uni.r[0]
        dt = 0.5 * dr / np.sqrt(l1)
        ev = rl.evolve_dynamic(uni, dt=dt, t_end=0.5)
        *_, parts = leapfrog_checked_every_step(uni, dt, 0.5)
        assert ev.energy_scale == float(dr * np.sum(np.abs(parts[0])))
        assert ev.energy_scale >= abs(ev.energy[0])
        if not kicked:
            # (1, 1) at rest: kinetic 0, gradient >= 0 and V <= 0, so the scale is |E0| to the bit
            assert parts[0][0] == 0 and parts[0][2] < 0 and ev.energy_scale == abs(ev.energy[0])

    def test_instability_raised_on_overflow(self, unit_moduli):
        # a finite but huge value overflows the stencil in the first step
        r = np.linspace(0.0, 10.0, 101)
        w = 0.1 * r * np.exp(-r)
        w[40] = 1e307
        p = rl.RadialProfile(r=r, w=w, w_t=np.zeros_like(r), moduli=unit_moduli, slope0=0.1, tol=1e-8)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InstabilityError, match="t = 0.05$"):
            rl.evolve_dynamic(p, dt=0.05, t_end=1.0)

    def test_pulse_speed_matches_sqrt_lambda1(self):
        # outgoing small pulse far from the center moves at sqrt(l1)
        m = rl.Moduli.from_couplings(2.0, 2.0)  # speed 2^0.5, distinguishable from 1
        r = np.linspace(0.0, 80.0, 3201)
        w0 = 1e-4 * np.exp(-((r - 30.0) ** 2) / 2.0)
        p = rl.RadialProfile(r=r, w=w0, w_t=np.zeros_like(r), moduli=m,
                             slope0=0.0, tol=1e-8)
        dr = r[1] - r[0]
        t_end = 12.0
        ev = rl.evolve_dynamic(p, dt=0.5 * dr / np.sqrt(m.lambda1), t_end=t_end)
        # track the outward-moving peak of the final snapshot
        final = ev.w[-1]
        outer = r > 30.0 + 2.0
        peak_r = r[outer][np.argmax(np.abs(final[outer]))]
        speed = (peak_r - 30.0) / t_end
        assert speed == pytest.approx(np.sqrt(m.lambda1), rel=0.05)


class TestLiftHedgehog:
    def test_requires_vanishing_at_origin(self, unit_moduli):
        r = np.linspace(0.0, 5.0, 100)
        p = rl.RadialProfile(r=r, w=np.full_like(r, 0.3), moduli=unit_moduli,
                             slope0=0.0, tol=1e-8)
        with pytest.raises(ValueError, match="w\\(0\\) = 0"):
            rl.lift_hedgehog(p)

    def test_zero_profile_nye(self, unit_moduli):
        # w = 0: beta = x_hat, alpha = 0, A_lk = 2 eps_lik x_i / r^2
        r = np.linspace(0.0, 6.0, 400)
        p = rl.RadialProfile(r=r, w=np.zeros_like(r), moduli=unit_moduli,
                             slope0=0.0, tol=1e-8)
        field = rl.lift_hedgehog(p)
        x = np.array([1.2, -0.6, 0.9])
        rr = np.linalg.norm(x)
        expected = 2.0 * np.einsum("lik,i->lk", LEVI_CIVITA, x) / rr**2
        assert np.abs(field.nye(x) - expected).max() <= 1e-10

    def test_soliton_nye_trace(self, soliton_profile, soliton_field):
        # trace of the lifted Nye tensor equals 2w' - 4 sin w cos w / r
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(soliton_profile.r, soliton_profile.w)
        x = np.array([2.0, 0.0, 0.0])
        rr = np.linalg.norm(x)
        w, wp = spline(rr), spline.derivative(1)(rr)
        a = soliton_field.nye(x)
        assert np.trace(a) == pytest.approx(2 * wp - 4 * np.sin(w) * np.cos(w) / rr, rel=1e-10)

    def test_dynamic_profile_velocity(self, unit_moduli):
        r = np.linspace(0.0, 5.0, 200)
        p = rl.RadialProfile(r=r, w=0.1 * r * np.exp(-r), w_t=0.05 * np.exp(-r),
                             moduli=unit_moduli, slope0=0.1, tol=1e-8)
        field = rl.lift_hedgehog(p)
        x = np.array([0.8, 0.4, -0.2])
        rr = np.linalg.norm(x)
        expected = 2.0 * x / rr * 0.05 * np.exp(-rr)
        assert np.abs(rl.nye_velocity_vector(field.field_point(x, order=1)) - expected).max() <= 1e-6


@pytest.fixture(scope="module")
def core_profiles():
    """Static profiles whose core exponent s is below 1: 0.618 at lambda2 = 1.25, 0.306 at 1.4."""
    return {l2: rl.solve_static(rl.Moduli.from_couplings(1.0, l2), slope0=1.0, r_max=50.0) for l2 in (1.25, 1.4)}


class TestCoreExponentSplines:
    """Profiles with ``w ~ r^s``, s < 1, at the origin are splined in ``r^s``, against the dense solution.

    A cubic in r through r = 0, 1e-6 and 0.025 overshoots such a core: resampled
    to 4001 nodes the worst error was 0.75 at lambda2 = 1.25 and 57.5 at 1.4.
    """

    @pytest.mark.parametrize("lambda2, bound", [(1.25, 1e-5), (1.4, 2e-3)])
    def test_resample_uniform(self, core_profiles, lambda2, bound):
        p = core_profiles[lambda2]
        u = rl.resample_uniform(p, 4001)
        assert u.w[0] == 0.0 and np.abs(u.w[1:] - p.dense(u.r[1:])[0]).max() <= bound

    def test_profile_from_csv_takes_s_from_its_moduli(self, core_profiles, tmp_path):
        p = core_profiles[1.25]
        rl.save_profile_csv(p, tmp_path / "p.csv")
        loaded = rl.load_profile_csv(tmp_path / "p.csv")
        assert np.array_equal(rl.resample_uniform(loaded, 801).w, rl.resample_uniform(p, 801).w)

    @pytest.mark.parametrize("lambda2, alpha_tol, slope_rtol", [(1.25, 1e-5, 1e-3), (1.4, 5e-3, 5e-2)])
    def test_lift_hedgehog_near_the_core(self, core_profiles, lambda2, alpha_tol, slope_rtol):
        p = core_profiles[lambda2]
        field = rl.lift_hedgehog(p)
        r = np.geomspace(1e-3, 0.5, 200)
        w, wp = p.dense(r)
        alpha = field.field_point(r[:, None] * np.array([0.6, 0.0, -0.8]), order=0).alpha  # sin w(r)
        assert np.abs(alpha - np.sin(w)).max() <= alpha_tol
        assert (np.abs(field.wp(r) - wp) / np.abs(wp)).max() <= slope_rtol

    def test_3d_charge_moves_toward_the_closed_form(self, core_profiles):
        field = rl.lift_hedgehog(core_profiles[1.25])
        exact = rl.total_charge(field, 3.0, 0.1).charge  # a hedgehog's closed form
        errors = [abs(rl.total_charge(field, 3.0, h, force_3d=True).charge - exact) for h in (0.2, 0.1, 0.05)]
        assert errors[0] > errors[1] > errors[2]

    def test_unit_exponent_keeps_the_spline_in_r(self, soliton_profile):
        # s = 1: the same spline as before, bit for bit, and no 0 * inf at r = 0
        p = soliton_profile
        r = np.concatenate(([0.0], np.geomspace(1e-7, 60.0, 500)))
        with np.errstate(all="raise"):
            new = [radial._CoreSpline(p, p.w)(r, nu) for nu in (0, 1, 2)]
        assert all(a.tobytes() == radial._Spline(p.r, p.w)(r, nu).tobytes() for nu, a in enumerate(new))


class TestEquilibria:
    def test_trivial_always_present(self):
        for l1, l2 in [(1, 1), (1, 2), (0.5, 0.6), (2, 1)]:
            eqs = rl.equilibria(rl.Moduli.from_couplings(l1, l2))
            assert any(e.f_star == 0.0 for e in eqs)

    def test_nontrivial_pair_location(self):
        # oracle: root of the force G on (0, inf) by bisection
        m = rl.Moduli.from_couplings(1.0, 1.25)
        ratio = m.lambda2 / m.lambda1

        def force(f):
            return 2 * np.sinh(f) + 4 * np.tanh(f) - 2 * ratio * (np.sinh(f) + np.tanh(f))

        f_oracle = brentq(force, 0.5, 5.0, xtol=1e-14)
        eqs = rl.equilibria(m)
        nontrivial = sorted(e.f_star for e in eqs if e.f_star != 0.0)
        assert len(nontrivial) == 2
        assert nontrivial[1] == pytest.approx(f_oracle, abs=1e-10)
        assert nontrivial[0] == pytest.approx(-f_oracle, abs=1e-10)
        assert np.sinh(nontrivial[1]) == pytest.approx(2 * np.sqrt(2), abs=1e-10)

    def test_degenerate_couplings_give_only_trivial(self):
        assert len(rl.equilibria(rl.Moduli.from_couplings(1.0, 1.0))) == 1
        assert len(rl.equilibria(rl.Moduli.from_couplings(1.0, 1.5))) == 1
        assert len(rl.equilibria(rl.Moduli.from_couplings(1.0, 0.5))) == 1

    def test_eigenvalues_match_closed_form(self):
        for l1, l2 in [(1.0, 1.25), (1.0, 1.4), (2.0, 2.2)]:
            m = rl.Moduli.from_couplings(l1, l2)
            for e in rl.equilibria(m):
                got = sorted(e.eigenvalues, key=lambda z: z.real)
                want = eigenvalues_closed_form(e.f_star, m)
                for g, w_ in zip(got, want):
                    assert abs(g - w_) <= 1e-12

    def test_eigenvalues_match_finite_difference_jacobian(self):
        for l1, l2 in [(1.0, 1.25), (1.0, 1.4), (2.0, 2.2), (1.0, 2.0), (0.4, 2.3)]:
            m = rl.Moduli.from_couplings(l1, l2)
            for e in rl.equilibria(m):
                got = sorted(e.eigenvalues, key=lambda z: (z.real, z.imag))
                for g, w_ in zip(got, eigenvalues_finite_difference(e.f_star, m)):
                    assert abs(g - w_) <= 1e-6

    def test_trivial_eigenvalues_golden_ratio(self):
        # at (1, 1.25), G'(0) = 1: mu^2 + mu - 1 = 0, the larger root first
        (trivial,) = [e for e in rl.equilibria(rl.Moduli.from_couplings(1.0, 1.25)) if e.f_star == 0.0]
        plus, minus = trivial.eigenvalues
        assert abs(plus - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-15
        assert abs(minus - (-np.sqrt(5.0) - 1.0) / 2.0) <= 1e-15

    def test_w_star_within_branch(self):
        m = rl.Moduli.from_couplings(1.0, 1.25)
        for e in rl.equilibria(m):
            assert abs(e.w_star) < np.pi / 4
            assert np.tan(2 * e.w_star) == pytest.approx(np.sinh(e.f_star), abs=1e-12)


class TestAutonomousResidual:
    def test_origin(self, unit_moduli):
        assert autonomous_residual(0.0, 0.0, 0.0, unit_moduli) == 0.0

    def test_vanishes_at_equilibria(self):
        m = rl.Moduli.from_couplings(1.0, 1.25)
        for e in rl.equilibria(m):
            assert abs(autonomous_residual(e.f_star, 0.0, 0.0, m)) <= 1e-10

    def test_transform_consistency_along_static_solution(self):
        # w = arctan(sinh f)/2 at b = log r maps the static ODE onto the
        # autonomous equation; valid while |2w| < pi/2
        m = rl.Moduli.from_couplings(1.0, 1.25)
        p = rl.solve_static(m, slope0=1.0, r_max=60.0, tol=1e-10)
        assert p.w.max() < np.pi / 4
        dense = p.dense
        worst = 0.0
        for rr in np.linspace(0.3, 20.0, 40):
            wv, wd = dense(rr)
            d = 1e-5
            wdd = (dense(rr + d)[1] - dense(rr - d)[1]) / (2 * d)
            sec = 1.0 / np.cos(2 * wv)
            f = np.arcsinh(np.tan(2 * wv))
            f_b = 2 * rr * wd * sec
            f_bb = 2 * rr * wd * sec + 2 * rr**2 * wdd * sec + 4 * rr**2 * wd**2 * np.tan(2 * wv) * sec
            worst = max(worst, abs(autonomous_residual(f, f_b, f_bb, m)))
        assert worst <= 1e-5


class TestProfileSerialization:
    def test_roundtrip_exact(self, tmp_path, soliton_profile):
        path = tmp_path / "profile.csv"
        rl.save_profile_csv(soliton_profile, path)
        p2 = rl.load_profile_csv(path)
        assert np.array_equal(p2.r, soliton_profile.r)
        assert np.array_equal(p2.w, soliton_profile.w)
        assert p2.moduli.lambda1 == soliton_profile.moduli.lambda1
        assert p2.slope0 == soliton_profile.slope0
        assert p2.tol == soliton_profile.tol

    def test_roundtrip_with_velocity(self, tmp_path, unit_moduli):
        r = np.linspace(0.0, 3.0, 50)
        p = rl.RadialProfile(r=r, w=np.sin(r) * 0.1, w_t=np.cos(r) * 0.01,
                             moduli=unit_moduli, slope0=0.1, tol=1e-9)
        path = tmp_path / "dyn.csv"
        rl.save_profile_csv(p, path)
        p2 = rl.load_profile_csv(path)
        assert np.array_equal(p2.w_t, p.w_t)

    def test_roundtrip_keeps_c_triple(self, tmp_path):
        # (0.4, 0.6, 0.5) is not the representative that from_couplings picks
        for m in (rl.Moduli.from_constants(0.4, 0.6, 0.5), rl.Moduli.from_couplings(0.9, 1.3)):
            p = rl.RadialProfile(r=np.linspace(0.0, 3.0, 20), w=np.zeros(20), moduli=m,
                                 slope0=1.0, tol=1e-9)
            path, again = tmp_path / "first.csv", tmp_path / "again.csv"
            rl.save_profile_csv(p, path)
            loaded = rl.load_profile_csv(path)
            assert loaded.moduli == m
            rl.save_profile_csv(loaded, again)
            assert again.read_bytes() == path.read_bytes()
            with pytest.raises(ValueError, match="no dense solution"):
                rl.static_residual(loaded)
        # a c-triple that contradicts the stored couplings is rejected
        path.write_text(path.read_text().replace("# c1 0.0 ", "# c1 0.5 "))
        with pytest.raises(ValueError, match="inconsistent"):
            rl.load_profile_csv(path)

    def test_nan_radius_rejected(self, tmp_path, unit_moduli):
        path = tmp_path / "profile.csv"
        rl.save_profile_csv(rl.RadialProfile(r=np.array([0.0, 1.0, 2.0]), w=np.zeros(3), moduli=unit_moduli,
                                             slope0=1.0, tol=1e-9), path)
        path.write_text(path.read_text().replace("\n1.0,", "\nnan,"))
        with pytest.raises(ValueError, match="strictly increasing"):
            rl.load_profile_csv(path)

    def test_infinite_radius_rejected(self, unit_moduli):
        # strictly increasing and non-negative, so only the finiteness check stops it
        with pytest.raises(ValueError, match="r must be finite"):
            rl.RadialProfile(r=[0.0, 1.0, np.inf], w=np.zeros(3), moduli=unit_moduli, slope0=1.0, tol=1e-9)

    def test_resample_uniform(self, soliton_profile):
        uni = rl.resample_uniform(soliton_profile, n=751)  # dr = 0.08 on [0, 60]
        assert uni.r[0] == 0.0 and uni.r[-1] == 60.0
        assert np.allclose(np.diff(uni.r), uni.r[1] - uni.r[0])
        assert uni.w[0] == 0.0

    def test_resample_overflow_raises_runtime_error(self, unit_moduli):
        # a finite w_t of 1e307 between zero ends: the spline's slopes overflow, silently
        r = np.linspace(0.0, 5.0, 101)
        w_t = np.full_like(r, 1e307)
        w_t[[0, -1]] = 0.0
        p = rl.RadialProfile(r=r, w=np.zeros_like(r), w_t=w_t, moduli=unit_moduli, slope0=0.0, tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="resampled w_t is not finite"):
                rl.resample_uniform(p, 101)


def solve_static_scipy(m, slope0, r_max, tol=1e-10):
    """Oracle: the static IVP through scipy's ``solve_ivp`` RK45 with the same start and blow-up event."""
    from scipy.integrate import solve_ivp

    l1 = m.lambda1

    def rhs(r, y):
        w, dw = y
        return (dw, -2.0 * dw / r - radial.potential_U(w, m) / (l1 * r * r))

    def blowup(r, y):
        return abs(y[0]) - radial.W_BLOWUP

    blowup.terminal = True
    s = indicial_exponent(m)
    y0 = (slope0 * radial.R0**s, slope0 * s * radial.R0 ** (s - 1.0))
    return solve_ivp(rhs, (radial.R0, r_max), y0, method="RK45", rtol=max(tol / 100.0, 1e-13),
                     atol=max(tol / 100.0, 1e-13), dense_output=True, events=blowup)


class TestSchemesAgainstScipy:
    """The NumPy Dormand-Prince integrator and spline against the scipy code they reproduce."""

    @pytest.mark.parametrize("l1, l2, slope0, r_max, tol", [
        pytest.param(1.0, 1.0, 1.0, 50.0, 1e-10, id="1.0-1.0"),
        pytest.param(1.0, 1.25, 1.0, 50.0, 1e-10, id="1.0-1.25"),
        pytest.param(0.4, 2.3, 1.0, 50.0, 1e-10, id="0.4-2.3"),
        # the slopes of the radial_dynamics benchmark, the residual_3d radius and a looser tolerance
        pytest.param(1.0, 1.0, 0.95, 50.0, 1e-10, id="slope0-0.95"),
        pytest.param(1.0, 1.0, 1.05, 50.0, 1e-10, id="slope0-1.05"),
        pytest.param(1.0, 1.0, 1.0, 60.0, 1e-10, id="r_max-60"),
        pytest.param(1.0, 1.0, 1.0, 50.0, 1e-8, id="tol-1e-8"),
    ])
    def test_solve_static_bit_identical_to_solve_ivp(self, l1, l2, slope0, r_max, tol):
        m = rl.Moduli.from_couplings(l1, l2)
        p = rl.solve_static(m, slope0=slope0, r_max=r_max, tol=tol)
        sol = solve_static_scipy(m, slope0=slope0, r_max=r_max, tol=tol)
        assert sol.status == 0
        # two evaluations for the initial step and six per attempted step: some steps were rejected
        assert (sol.nfev - 2) // 6 > len(sol.t) - 1
        # the same steps are accepted, so the step ends and every dense value agree bit for bit
        assert np.array_equal(p.dense.ts, sol.t)
        r = np.linspace(radial.R0, r_max, radial.N_SAMPLES)
        assert np.array_equal(p.r, np.concatenate(([0.0], r)))
        assert np.array_equal(p.w, np.concatenate(([0.0], sol.sol(r)[0])))
        rs = np.geomspace(p.r[1], r_max, radial.N_PROBE)
        xg, _ = np.polynomial.legendre.leggauss(5)
        gauss = (0.5 * (rs[:-1] + rs[1:]))[:, None] + (0.5 * (rs[1:] - rs[:-1]))[:, None] * xg
        unsorted = np.random.default_rng(3).permutation(np.concatenate((gauss.ravel(), sol.t, [0.0, r_max + 10.0])))
        for x in (r, rs, gauss.ravel(), unsorted):
            assert np.array_equal(p.dense(x), sol.sol(x))
        for x in (radial.R0, 3.3, sol.t[7], r_max, 0.0, r_max + 1.0):
            assert np.array_equal(p.dense(x), sol.sol(x))

    @pytest.mark.parametrize("l1, l2, slope0", [(1.0, 1.0, 6e6), (1.0, 3.0, 9e6), (0.4, 2.3, -9.5e6)])
    def test_divergence_radius_matches_t_events(self, l1, l2, slope0):
        m = rl.Moduli.from_couplings(l1, l2)
        sol = solve_static_scipy(m, slope0, r_max=10.0)
        assert sol.status == 1
        with pytest.raises(DivergenceError, match="exceeded 10.0 at r = ") as err:
            rl.solve_static(m, slope0=slope0, r_max=10.0)
        # brentq stops within 4 eps (absolute) of the root, bisection at the spacing of doubles
        assert abs(err.value.radius - sol.t_events[0][0]) <= 1e-12

    def test_too_small_step_fails_as_solve_ivp(self, unit_moduli, monkeypatch):
        # a right-hand side that turns NaN past w = 0.5 rejects every step until the step underflows
        potential = rl.potential_U
        monkeypatch.setattr(radial, "potential_U",
                            lambda w, m: np.nan if w > 0.5 else potential(w, m))
        sol = solve_static_scipy(unit_moduli, 1.0, r_max=20.0)
        assert sol.status == -1
        with pytest.raises(RuntimeError) as err:
            rl.solve_static(unit_moduli, slope0=1.0, r_max=20.0)
        assert str(err.value) == f"static integration failed: {sol.message}"

    def test_r_max_inside_series_start_rejected(self, unit_moduli):
        for r_max in (radial.R0, 0.5 * radial.R0):
            with pytest.raises(ValueError, match="bad solver configuration"):
                rl.solve_static(unit_moduli, slope0=1.0, r_max=r_max)

    def test_spline_matches_cubic_spline(self, soliton_profile):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(11)
        knots = np.sort(rng.uniform(-3.0, 7.0, 40))
        even = np.linspace(0.0, 5.0, 60) + rng.uniform(-0.02, 0.02, 60)
        cases = {
            "soliton": (soliton_profile.r, soliton_profile.w),  # 2002 knots, the first interval 1e-6
            "random knots": (knots, np.sin(knots) + 0.1 * rng.normal(size=40)),
            "jittered even knots": (even, np.cos(even) * even),
            "n = 2": (np.array([0.5, 2.0]), np.array([1.0, -3.0])),
            "n = 3": (np.array([0.0, 0.3, 2.0]), np.array([1.0, 4.0, -3.0])),
            "n = 4": (np.array([0.0, 0.3, 2.0, 2.2]), np.array([1.0, 4.0, -3.0, 0.5])),
        }
        for name, (x, y) in cases.items():
            span = x[-1] - x[0]
            # the knots, points inside, and points beyond both ends
            q = np.concatenate((x, rng.uniform(x[0], x[-1], 500), x[0] - span * rng.uniform(0, 0.2, 20),
                                x[-1] + span * rng.uniform(0, 0.2, 20)))
            spline, ref = radial._Spline(x, y), CubicSpline(x, y)
            for nu in (0, 1, 2):
                want = ref.derivative(nu)(q) if nu else ref(q)
                got = spline(q, nu)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (name, nu)
                if name == "soliton":  # no row exchange in the elimination: the same bits
                    assert np.array_equal(got, want), nu
            assert np.array_equal(spline(x[:-1]), y[:-1]), name  # each cubic starts at its knot value
            assert np.ndim(spline(x[1] + 1e-3)) == 0 and spline(q[:40].reshape(20, 2)).shape == (20, 2)

    def test_two_row_profile_lifts_linearly(self, tmp_path, unit_moduli):
        path = tmp_path / "line.csv"
        rl.save_profile_csv(rl.RadialProfile(r=np.array([0.0, 2.0]), w=np.array([0.0, 0.5]),
                                             moduli=unit_moduli, slope0=0.25, tol=1e-8), path)
        field = rl.lift_hedgehog(rl.load_profile_csv(path))
        r = np.array([0.5, 1.0, 3.0])
        assert np.array_equal(field.w(r), 0.25 * r)
        assert np.array_equal(field.wp(r), np.full(3, 0.25)) and np.array_equal(field.wpp(r), np.zeros(3))
