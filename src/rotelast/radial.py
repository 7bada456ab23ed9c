"""Spherically symmetric sector: static profiles, radial dynamics, equilibria.

Under the hedgehog ansatz ``beta = x_hat cos w(t, r)``, ``alpha = sin w``,
the field equations collapse to a single radial PDE

    w_tt - lambda1 (w_rr + 2 w_r / r) = U(w) / r^2 ,

with the nonlinearity ``U(w) = sin(2w) [(l2 - l1) + (l2 - 2 l1) cos(2w)]``.
The static case is an ODE with a regular singular point at the origin; the
solver starts from a leading-power series there and integrates outward with
an adaptive embedded Runge-Kutta scheme.  Dynamics uses a fixed-step
second-order leapfrog with a clamped far boundary.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .fields import HedgehogField
from .kinematics import Moduli

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
    "discrete_energy",
    "lift_hedgehog",
    "equilibria",
    "autonomous_residual",
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
        if self.r.ndim != 1 or self.r.shape != self.w.shape:
            raise ValueError("r and w must be matching 1-d arrays")
        if np.any(np.diff(self.r) <= 0) or self.r[0] < 0:
            raise ValueError("r must be strictly increasing and non-negative")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("w must be finite")
        if self.w_t is not None:
            self.w_t = np.asarray(self.w_t, dtype=float)
            if self.w_t.shape != self.w.shape:
                raise ValueError("w_t must match w")


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of the autonomous log-radius system."""

    f_star: float
    w_star: float
    eigenvalues: tuple[complex, complex]


def potential_U(w, m: Moduli):
    """Radial nonlinearity ``U(w) = sin 2w [(l2 - l1) + (l2 - 2 l1) cos 2w]``."""
    w = np.asarray(w, dtype=float)
    val = np.sin(2.0 * w) * ((m.lambda2 - m.lambda1) + (m.lambda2 - 2.0 * m.lambda1) * np.cos(2.0 * w))
    return float(val) if val.ndim == 0 else val


def potential_U_integral(w, m: Moduli):
    """Antiderivative ``V(w) = int_0^w U(s) ds``, used by the energy monitor."""
    w = np.asarray(w, dtype=float)
    l1, l2 = m.lambda1, m.lambda2
    val = (l2 - l1) * (1.0 - np.cos(2.0 * w)) / 2.0 + (l2 - 2.0 * l1) * (1.0 - np.cos(4.0 * w)) / 8.0
    return float(val) if val.ndim == 0 else val


def indicial_exponent(m: Moduli) -> float:
    """Leading power s in ``w ~ a r^s`` at the origin.

    Linearizing the static equation gives ``l1 s (s + 1) = -U'(0)`` with
    ``U'(0) = 2 (2 l2 - 3 l1)``.  When no positive real root exists (the
    origin is then oscillatory for the linearized flow and outward
    integration is insensitive to the start), fall back to s = 1.
    """
    q = 2.0 * (2.0 * m.lambda2 - 3.0 * m.lambda1) / m.lambda1
    disc = 1.0 - 4.0 * q
    if disc <= 0.0:
        return 1.0
    s = 0.5 * (-1.0 + np.sqrt(disc))
    return float(s) if s > 0 else 1.0


W_BLOWUP = 10.0


def solve_static(m: Moduli, slope0: float, r_max: float, tol: float = 1e-10,
                 r0: float = 1e-6, n_samples: int = 2001) -> RadialProfile:
    """Integrate the static profile from the origin series to r_max.

    The IVP starts at ``r0`` with ``w = slope0 * r0**s`` and
    ``w' = slope0 * s * r0**(s-1)``, s the indicial exponent, and runs an
    adaptive RK45.  The integrator is driven two orders tighter than the
    requested ``tol`` so the delivered profile meets a 10 * tol residual
    bound including accumulated drift; tol below 1e-11 is capped by the
    integrator floor.  The returned profile is sampled on a uniform grid
    with w(0) = 0 prepended and carries the dense solution for later
    interpolation.

    Raises
    ------
    DivergenceError
        If |w| exceeds 10 before reaching r_max.
    """
    if m.lambda1 <= 0:
        raise ValueError("solver requires lambda1 > 0")
    if r_max <= 0 or tol <= 0 or not np.isfinite(slope0):
        raise ValueError("bad solver configuration")

    l1 = m.lambda1

    def rhs(r, y):
        w, dw = y
        return (dw, -2.0 * dw / r - potential_U(w, m) / (l1 * r * r))

    def blowup(r, y):
        return abs(y[0]) - W_BLOWUP

    blowup.terminal = True

    s = indicial_exponent(m)
    y0 = (slope0 * r0**s, slope0 * s * r0 ** (s - 1.0))
    if abs(y0[0]) > W_BLOWUP:
        raise DivergenceError(f"|w| exceeds {W_BLOWUP} already at the series start", radius=r0)
    tol_int = max(tol / 100.0, 1e-13)
    sol = solve_ivp(rhs, (r0, r_max), y0, method="RK45", rtol=tol_int, atol=tol_int,
                    dense_output=True, events=blowup)
    if sol.status == 1:
        raise DivergenceError(
            f"|w| exceeded {W_BLOWUP} at r = {sol.t_events[0][0]:.6g}", radius=float(sol.t_events[0][0])
        )
    if not sol.success:
        raise RuntimeError(f"static integration failed: {sol.message}")

    r = np.linspace(r0, r_max, n_samples)
    y = sol.sol(r)
    # w(0) = 0 is the exact boundary value for any positive leading power
    r = np.concatenate(([0.0], r))
    w = np.concatenate(([0.0], y[0]))
    return RadialProfile(r=r, w=w, moduli=m, slope0=slope0, tol=tol, dense=sol.sol)


def resample_uniform(profile: RadialProfile, n: int, r_max: float | None = None) -> RadialProfile:
    """Resample a profile onto ``linspace(0, r_max, n)`` by cubic interpolation.

    The dynamic solver needs a uniform grid including the origin.
    """
    r_max = profile.r[-1] if r_max is None else min(r_max, profile.r[-1])
    spline = CubicSpline(profile.r, profile.w)
    r = np.linspace(0.0, r_max, n)
    w = spline(r)
    w[0] = 0.0
    w_t = None
    if profile.w_t is not None:
        w_t = CubicSpline(profile.r, profile.w_t)(r)
    return RadialProfile(r=r, w=w, w_t=w_t, moduli=profile.moduli,
                         slope0=profile.slope0, tol=profile.tol)


def static_residual(profile: RadialProfile, n_probe: int = 400) -> float:
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
    rs = np.geomspace(r_lo, profile.r[-1], n_probe)
    xg, wg = np.polynomial.legendre.leggauss(5)
    worst = 0.0
    for a, b in zip(rs[:-1], rs[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        quad = half * np.sum(wg * potential_U(dense(mid + half * xg)[0], profile.moduli))
        ya, yb = dense(a), dense(b)
        defect = l1 * (b * b * yb[1] - a * a * ya[1]) + quad
        worst = max(worst, abs(defect) / max(1.0, abs(l1 * b * b * yb[1])))
    return worst


@dataclass
class EvolveResult:
    """Trajectory of the radial PDE on a fixed grid."""

    times: np.ndarray
    r: np.ndarray
    w: np.ndarray  # (n_times, n_r)
    w_t: np.ndarray  # (n_times, n_r)
    energy: np.ndarray
    moduli: Moduli

    def profile(self, i: int) -> RadialProfile:
        return RadialProfile(r=self.r, w=self.w[i], w_t=self.w_t[i],
                             moduli=self.moduli, slope0=np.nan, tol=np.nan)


def discrete_energy(r: np.ndarray, w: np.ndarray, w_t: np.ndarray, m: Moduli) -> float:
    """Conserved functional of the radial PDE on the grid.

    ``E = sum dr [ r^2 w_t^2 / 2 + l1 r^2 w_r^2 / 2 - V(w) ]`` with V the
    antiderivative of U; w_r by central differences.
    """
    dr = r[1] - r[0]
    w_r = np.gradient(w, dr)
    dens = 0.5 * r * r * w_t * w_t + 0.5 * m.lambda1 * r * r * w_r * w_r - potential_U_integral(w, m)
    return float(np.sum(dens) * dr)


def evolve_dynamic(initial: RadialProfile, dt: float, t_end: float,
                   n_snapshots: int = 101) -> EvolveResult:
    """Leapfrog integration of ``w_tt = l1 (r^2 w_r)_r / r^2 + U(w)/r^2``.

    The initial profile must live on a uniform grid including r = 0 with
    w(0) = 0; the far boundary value is clamped.  Enforces the CFL-type
    bound ``dt <= dr / sqrt(l1)`` and raises on non-finite values.
    """
    m = initial.moduli
    r = initial.r
    dr = r[1] - r[0]
    if not np.allclose(np.diff(r), dr, rtol=1e-8):
        raise ValueError("dynamic evolution needs a uniform radial grid")
    if abs(r[0]) > 1e-12 or abs(initial.w[0]) > 1e-10:
        raise ValueError("grid must start at r = 0 with w(0) = 0")
    if dt > dr / np.sqrt(m.lambda1):
        raise ValueError(f"CFL violation: dt = {dt} > dr/sqrt(l1) = {dr / np.sqrt(m.lambda1)}")

    w = initial.w.copy()
    v = initial.w_t.copy() if initial.w_t is not None else np.zeros_like(w)
    l1 = m.lambda1
    rsq = r * r
    r_half_sq = (0.5 * (r[:-1] + r[1:])) ** 2

    def accel(wc):
        # conservative form of the radial Laplacian; endpoints handled by b.c.
        acc = np.zeros_like(wc)
        flux = r_half_sq * (wc[1:] - wc[:-1]) / dr
        acc[1:-1] = l1 * (flux[1:] - flux[:-1]) / (dr * rsq[1:-1])
        acc[1:-1] += potential_U(wc[1:-1], m) / rsq[1:-1]
        return acc

    n_steps = int(round(t_end / dt))
    snap_every = max(1, n_steps // max(1, n_snapshots - 1))
    times = [0.0]
    ws = [w.copy()]
    vs = [v.copy()]
    energies = [discrete_energy(r, w, v, m)]

    w_prev = w - dt * v + 0.5 * dt * dt * accel(w)
    for n in range(1, n_steps + 1):
        w_next = 2.0 * w - w_prev + dt * dt * accel(w)
        w_next[0] = 0.0
        w_next[-1] = initial.w[-1]
        w_prev, w = w, w_next
        if not np.all(np.isfinite(w)):
            raise InstabilityError(f"non-finite w at t = {n * dt:.6g}")
        if n % snap_every == 0 or n == n_steps:
            # second-order velocity at the current level
            v_now = (w - w_prev) / dt + 0.5 * dt * accel(w)
            times.append(n * dt)
            ws.append(w.copy())
            vs.append(v_now)
            energies.append(discrete_energy(r, w, v_now, m))
    return EvolveResult(times=np.array(times), r=r, w=np.array(ws), w_t=np.array(vs),
                        energy=np.array(energies), moduli=m)


def lift_hedgehog(profile: RadialProfile) -> HedgehogField:
    """Promote a radial profile to the 3-d hedgehog rotor field.

    The profile must satisfy w(0) = 0 (the boundary condition of the
    localized radial solutions).  Radial interpolation is cubic; spatial
    and time derivatives of the ansatz are analytic.
    """
    if profile.r[0] > 1e-9 or abs(profile.w[0]) > 1e-9:
        raise ValueError("hedgehog lift requires a profile with w(0) = 0")
    spline = CubicSpline(profile.r, profile.w)
    wdot = None
    if profile.w_t is not None:
        tspline = CubicSpline(profile.r, profile.w_t)
        wdot = tspline
    return HedgehogField(
        w=spline,
        wp=spline.derivative(1),
        wpp=spline.derivative(2),
        wdot=wdot,
    )


def _autonomous_force(f, m: Moduli):
    """G(f) such that the autonomous equation is f_bb = G(f) - f_b + tanh(f) f_b^2."""
    ratio = m.lambda2 / m.lambda1
    return 2.0 * np.sinh(f) + 4.0 * np.tanh(f) - 2.0 * ratio * (np.sinh(f) + np.tanh(f))


def autonomous_residual(f: float, f_b: float, f_bb: float, m: Moduli) -> float:
    """Left side of the autonomous log-radius equation.

    ``f_bb + f_b (1 - tanh(f) f_b) - 2 sinh f - 4 tanh f
    + 2 (l2/l1)(sinh f + tanh f)``; zero along static solutions mapped
    through ``w = arctan(sinh f)/2``, ``b = log r``.
    """
    if m.lambda1 <= 0:
        raise ValueError("requires lambda1 > 0")
    return float(f_bb + f_b * (1.0 - np.tanh(f) * f_b) - _autonomous_force(f, m))


def _jacobian_eigenvalues(f_star: float, m: Moduli, step: float = 1e-6):
    """Eigenvalues of the numerical Jacobian of (f, f_b) at an equilibrium."""

    def flow(state):
        f, p = state
        return np.array([p, _autonomous_force(f, m) - p + np.tanh(f) * p * p])

    jac = np.empty((2, 2))
    x0 = np.array([f_star, 0.0])
    for col in range(2):
        dx = np.zeros(2)
        dx[col] = step
        jac[:, col] = (flow(x0 + dx) - flow(x0 - dx)) / (2 * step)
    ev = np.linalg.eigvals(jac)
    return (complex(ev[0]), complex(ev[1]))


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
    has_vel = profile.w_t is not None
    f_ = lambda x: repr(float(x))  # shortest round-trip decimal for 64-bit floats
    with open(path, "w", newline="\n") as f:
        f.write(f"# {PROFILE_MAGIC}\n")
        f.write(f"# lambda1 {f_(m.lambda1)} lambda2 {f_(m.lambda2)}\n")
        f.write(f"# c1 {f_(m.c1)} c2 {f_(m.c2)} c3 {f_(m.c3)}\n")
        f.write(f"# slope0 {f_(profile.slope0)} tol {f_(profile.tol)}\n")
        f.write("r,w,w_t\n" if has_vel else "r,w\n")
        for i in range(profile.r.size):
            if has_vel:
                f.write(f"{f_(profile.r[i])},{f_(profile.w[i])},{f_(profile.w_t[i])}\n")
            else:
                f.write(f"{f_(profile.r[i])},{f_(profile.w[i])}\n")


def load_profile_csv(path) -> RadialProfile:
    """Read a profile written by :func:`save_profile_csv`."""
    with open(path) as f:
        magic = f.readline().strip()
        if magic != f"# {PROFILE_MAGIC}":
            raise ValueError(f"not a radial profile file: {magic!r}")
        lam = f.readline().split()
        c = f.readline().split()
        meta = f.readline().split()
        slope0, tol = float(meta[2]), float(meta[4])
        header = f.readline().strip()
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    # Moduli checks that the stored c-triple and couplings agree
    m = Moduli(c1=float(c[2]), c2=float(c[4]), c3=float(c[6]),
               lambda1=float(lam[2]), lambda2=float(lam[4]))
    w_t = data[:, 2] if header == "r,w,w_t" else None
    return RadialProfile(r=data[:, 0], w=data[:, 1], w_t=w_t, moduli=m,
                         slope0=slope0, tol=tol)
