"""Acceptance suite: one test per criterion, printing PASS/FAIL per line.

Each criterion is asserted at its stated tolerance.  Criteria 1 and 5 check
the soliton's shape and its charge against targets derived inside the test
from the model's own equations, never copied from the program's output:

* criterion 1: for lambda1 = lambda2 = 1, U(w) = -sin(4w)/2, and the static
  equation linearized about w = pi/4 + e is r^2 e'' + 2 r e' + 2 e = 0, with
  exponents -1/2 +- i sqrt(7)/2.  Every solution therefore oscillates into
  pi/4 under an r^(-1/2) envelope (the profile peaks at w ~ 0.913 near
  r ~ 3.3), and the tail must fit that form with centre pi/4;
* criterion 5: a hedgehog core's charge in a ball is a 1-d radial integral,
  (1/pi)[w + sin(2w)/2] between the profile endpoints for a centred ball,
  which tends to 1/4 + 1/(2 pi) ~ 0.409, not 1.  Charge is not additive for
  a product of cores that do not settle to a constant rotation: by the
  Polyakov-Wiegmann identity the two-core charge is 2 x 0.4167 - 0.2428 =
  0.5906 at the separation used, not 2.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

import rotelast as rl

from conftest import LEVI_CIVITA, ConstantField, make_rotor
from test_field_equations import centered_grid, plane_wave_field
from test_radial import eigenvalues_closed_form


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    return ok


# Oracles for criterion 5, written out from the hedgehog ansatz
# beta = x_hat cos w, alpha = sin w rather than taken from the library.

CHARGE_NORM = 1.0 / (96.0 * np.pi**2)


def radial_charge(w):
    """Antiderivative of the hedgehog's radial charge density (2/pi) cos^2 w w'."""
    return (w + 0.5 * np.sin(2.0 * w)) / np.pi


def hedgehog_current(field, y):
    """Matrix u and currents M_k = u d_k u^T of a hedgehog core at offsets y.

    With n = y/|y| the rotor matrix is u = -cos2w I + (1 + cos2w) n n^T
    + sin2w [n], where [n]_ij = eps_ijk n_k; differentiated by hand.
    """
    r = np.linalg.norm(y, axis=-1)
    n = y / r[..., None]
    w, wp = field.w(r), field.wp(r)
    c2, s2 = np.cos(2 * w)[..., None, None], np.sin(2 * w)[..., None, None]
    eye = np.eye(3)
    nn = n[..., :, None] * n[..., None, :]
    cross = np.einsum("ijk,...k->...ij", LEVI_CIVITA, n)
    dn = (eye - nn) / r[..., None, None]  # d_k n_i
    u = -c2 * eye + (1 + c2) * nn + s2 * cross
    du = (  # d_k u_ij at [..., i, j, k]
        2 * (s2 * (eye - nn))[..., None] * (wp[..., None] * n)[..., None, None, :]
        + (1 + c2)[..., None] * (dn[..., :, None, :] * n[..., None, :, None]
                                 + n[..., :, None, None] * dn[..., None, :, :])
        + 2 * (c2 * cross)[..., None] * (wp[..., None] * n)[..., None, None, :]
        + s2[..., None] * np.einsum("ijl,...lk->...ijk", LEVI_CIVITA, dn)
    )
    return u, np.einsum("...ia,...jak->...kij", u, du)


def gauss_legendre(f, a, b):
    """Composite Gauss-Legendre rule (400 panels of order 8) for a vectorized
    integrand on [a, b]."""
    t, wt = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(a, b, 401)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    s = (mid[:, None] + half[:, None] * t).ravel()
    return float(np.sum(f(s) * (half[:, None] * wt).ravel()))


def core_charge_in_ball(field, radius, dist):
    """Charge of one hedgehog core in a ball whose centre lies `dist` > 0 away.

    The core's spheres of radius s < radius - dist lie inside the ball; of a
    sphere with |radius - dist| < s < radius + dist the ball holds the area
    fraction (1 + (radius^2 - dist^2 - s^2) / (2 s dist)) / 2.
    """
    def partial_shells(s):
        w = field.w(s)
        frac = 1 + (radius**2 - dist**2 - s * s) / (2 * s * dist)
        return np.cos(w) ** 2 * field.wp(s) * frac / np.pi

    inner = radial_charge(field.w(max(radius - dist, 0.0)))
    return float(inner) + gauss_legendre(partial_shells, abs(radius - dist), radius + dist)


def product_surface_term(field, left, right, centre, radius):
    """3 N times the flux of V through a sphere, for u = g h.

    g and h are cores at `left` and `right`.  Since M_k(g h) = M_k(g)
    + g M_k(h) g^T, rho(g h) = rho(g) + rho(h) + 3 N d_k V^k with
    V^k = eps^ijk tr(M_i(g) g M_j(h) g^T).  A 64-point Gauss-Legendre rule
    in cos(theta) times 128 uniform points in phi; a 200 x 400 rule agrees
    with it to 2e-13 on the spheres used here.
    """
    t, wt = np.polynomial.legendre.leggauss(64)
    phi = 2 * np.pi * np.arange(128) / 128
    st = np.sqrt(1 - t * t)[:, None]
    normal = np.stack([st * np.cos(phi), st * np.sin(phi),
                       np.broadcast_to(t[:, None], (64, 128))], axis=-1)
    x = centre + radius * normal
    g, m_g = hedgehog_current(field, x - left)
    _, m_h = hedgehog_current(field, x - right)
    m_h_rot = g[..., None, :, :] @ m_h @ np.swapaxes(g, -1, -2)[..., None, :, :]
    v = np.einsum("ijk,...iab,...jba->...k", LEVI_CIVITA, m_g, m_h_rot)
    flux = np.einsum("...k,...k->...", v, normal)
    return 3 * CHARGE_NORM * radius**2 * (2 * np.pi / 128) * float(np.sum(wt[:, None] * flux))


class TestAcceptance:
    def test_01_soliton_reproduction(self):
        """The static profile for lambda1 = lambda2 = 1, w'(0) = 1 oscillates
        into pi/4 with the exponents of the linearized equation.

        U(w) = -sin(4w)/2 (criterion 2), so w = pi/4 + e gives
        r^2 e'' + 2 r e' + 2 e = 0, whose indicial roots k^2 + k + 2 = 0 are
        -1/2 +- i sqrt(7)/2.  A monotone approach is impossible: the profile
        peaks at w ~ 0.913 near r ~ 3.3 and crosses pi/4 at r ~ 1.33 and
        r ~ 14.7.  On 10 <= r <= 50 the solver's samples are fitted by least
        squares to w = c + r^(-1/2) [a cos(phase) + b sin(phase)], phase =
        (sqrt(7)/2) ln r; c must be pi/4 to 1e-3, and the rms misfit must be
        at most 2e-3 times the rms of w - pi/4.  A frequency of 1 or 1.5, or an
        envelope r^(-1) or r^(-1/4), fails both bounds.

        The tail fit leaves the core free, so the core is checked by the
        equation's scale invariance: r -> a r maps solutions to solutions
        and w'(0) to a w'(0).  The solution with w'(0) = 2 must therefore
        reach the same peak value at half the radius, both to 1e-6.
        """
        m = rl.Moduli.from_couplings(1.0, 1.0)
        t0 = time.perf_counter()
        profile = rl.solve_static(m, slope0=1.0, r_max=50.0, tol=1e-10)
        elapsed = time.perf_counter() - t0
        quarter = np.pi / 4
        decay, freq = -0.5, np.sqrt(7.0) / 2
        tail = profile.r >= 10.0
        r, w = profile.r[tail], profile.w[tail]
        phase = freq * np.log(r)
        basis = np.stack([np.ones_like(r), r**decay * np.cos(phase), r**decay * np.sin(phase)],
                         axis=1)
        coef = np.linalg.lstsq(basis, w, rcond=None)[0]
        misfit = np.sqrt(np.mean((w - basis @ coef) ** 2) / np.mean((w - quarter) ** 2))
        offset = coef[0] - quarter
        centre_ok = abs(offset) <= 1e-3
        fit_ok = misfit <= 2e-3
        runtime_ok = elapsed <= 1.0

        def peak(p):
            i = int(np.argmax(p.w))
            r_peak = brentq(lambda x: p.dense(x)[1], p.r[i - 1], p.r[i + 1], xtol=1e-14)
            return r_peak, float(p.dense(r_peak)[0])

        r_peak, w_peak = peak(profile)
        r_peak2, w_peak2 = peak(rl.solve_static(m, slope0=2.0, r_max=25.0, tol=1e-10))
        scale_ok = abs(w_peak2 - w_peak) <= 1e-6 and abs(r_peak2 / r_peak - 0.5) <= 1e-6
        ok = centre_ok and fit_ok and runtime_ok and scale_ok
        report(1, "soliton-reproduction", ok,
               f"tail fit on {r.size} samples: c - pi/4={offset:.1e} (<=1e-3), "
               f"misfit={misfit:.1e} (<=2e-3), runtime={elapsed:.2f}s (<=1s); "
               f"peak {w_peak:.6f} at r={r_peak:.4f}, w'(0)=2: {w_peak2:.6f} at r={r_peak2:.4f}")
        assert runtime_ok, f"runtime {elapsed:.2f}s > 1s"
        assert centre_ok, f"fitted centre {coef[0]:.5f} is {offset:.1e} from pi/4"
        assert fit_ok, f"relative misfit {misfit:.1e} > 2e-3"
        assert scale_ok, (f"w'(0)=2 peaks at {w_peak2:.8f}, r={r_peak2:.6f}; "
                          f"w'(0)=1 at {w_peak:.8f}, r={r_peak:.6f}")

    def test_02_special_case_reductions(self):
        w = np.linspace(-np.pi, np.pi, 1000)
        m_sg = rl.Moduli.from_couplings(1.0, 2.0)
        err_sg = np.abs(rl.potential_U(w, m_sg) - np.sin(2 * w)).max()
        m_eq = rl.Moduli.from_couplings(1.0, 1.0)
        err_eq = np.abs(rl.potential_U(w, m_eq) + 0.5 * np.sin(4 * w)).max()
        ok = err_sg <= 1e-12 and err_eq <= 1e-12
        report(2, "special-case-reductions", ok,
               f"|U - sin 2w|={err_sg:.2e}, |U + sin(4w)/2|={err_eq:.2e}")
        assert ok

    def test_03_radial_to_3d_consistency(self, soliton_field):
        m = rl.Moduli.from_couplings(1.0, 1.0)
        t0 = time.perf_counter()
        res = {}
        for h in (0.2, 0.1):
            grid = centered_grid(soliton_field, h, 5.0 + 3 * h)
            pts, r_arr = rl.residual_grid(grid, m)
            rr = np.linalg.norm(pts, axis=-1)
            mask = (rr >= 1.0) & (rr <= 5.0)
            res[h] = np.abs(r_arr[mask]).max()
        elapsed = time.perf_counter() - t0
        ratio = res[0.2] / res[0.1]
        ok = ratio >= 3.0 and elapsed <= 30.0
        report(3, "radial-to-3d-consistency", ok,
               f"residuals h=0.2: {res[0.2]:.3e}, h=0.1: {res[0.1]:.3e}, "
               f"ratio={ratio:.2f}, runtime={elapsed:.1f}s")
        assert elapsed <= 30.0
        assert ratio >= 3.0

    def test_04_identity_tt(self):
        field = rl.random_smooth_field(seed=7)
        res = {}
        for h in (0.2, 0.1):
            n = int(round(3.2 / h)) + 5  # margin-compensated box [-1.6, 1.6]^3
            grid = rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h,
                                           origin=(-1.6 - 2 * h) * np.ones(3))
            res[h] = rl.check_identity_TT(grid)
        ratio = res[0.2] / res[0.1]
        ok = ratio >= 3.0
        report(4, "identity-TT-refinement", ok,
               f"residuals h=0.2: {res[0.2]:.3e}, h=0.1: {res[0.1]:.3e}, ratio={ratio:.2f}")
        assert ok

    def test_05_topological_charge(self, soliton_field):
        """Charges of the identity field, one core and a two-core product.

        The identity field carries no charge.  A centred ball of radius R
        holds (1/pi)[w + sin(2w)/2] from w(0) = 0 to w(R) of one core's
        charge (0.3966 at R = 40, tending to 1/4 + 1/(2 pi), not 1).

        For the product u = g h of cores at x = +-6.05 in a ball of radius 13,
        M_k(g h) = M_k(g) + g M_k(h) g^T gives the Polyakov-Wiegmann formula
        Q(g h) = Q(g) + Q(h) + 3 N (flux of V through the sphere), see
        `product_surface_term`.  Charge adds only for factors that are
        constant on the boundary; these are not, and the oracle is
        2 x 0.4167 (one core off-centre) - 0.2428 (surface term) = 0.5906,
        not 2.

        The 3-d midpoint rule resolves the 1/distance^2 density near the
        cores poorly, so balls of radius 1.5 around them are cut out and
        their content is added from the same identity on the small spheres
        (0.8116 for both; the content of the bare cores, 0.8404, is wrong by
        0.029).  The h = 0.25 value must match the oracle to 2e-3 and its
        Richardson extrapolation with h = 0.5 to 5e-4.
        """
        ident = ConstantField(make_rotor([0, 0, 0]))
        rep0 = rl.total_charge(ident, ball_radius=3.0, grid_spacing=0.3)
        ok0 = abs(rep0.charge) <= 1e-6

        rep1 = rl.total_charge(soliton_field, ball_radius=40.0, grid_spacing=0.01)
        closed1 = radial_charge(float(soliton_field.w(40.0)))
        ok1 = abs(rep1.charge - closed1) <= 1e-6

        ball, rho, sep = 13.0, 1.5, 6.05
        left, right = np.array([+sep, 0.0, 0.0]), np.array([-sep, 0.0, 0.0])
        centers = [left, right]
        product = rl.ProductField([rl.TranslatedField(soliton_field, c) for c in centers])

        per_core = core_charge_in_ball(soliton_field, ball, sep)
        surface = product_surface_term(soliton_field, left, right, np.zeros(3), ball)
        oracle = 2 * per_core + surface
        own = radial_charge(float(soliton_field.w(rho)))
        other = core_charge_in_ball(soliton_field, rho, 2 * sep)
        excised = sum(own + other + product_surface_term(soliton_field, left, right, c, rho)
                      for c in centers)

        def hybrid_charge(h):
            n = int(np.ceil(2 * ball / h))
            axis = -ball + h * (np.arange(n) + 0.5)
            xy = np.stack([a.ravel() for a in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
            total = 0.0
            for z in axis:
                pts = np.concatenate([xy, np.full((xy.shape[0], 1), z)], axis=1)
                keep = (pts * pts).sum(1) <= ball * ball
                for c in centers:
                    keep &= ((pts - c) ** 2).sum(1) > rho * rho
                if keep.any():
                    total += rl.charge_density(product, pts[keep]).sum()
            return total * h**3 + excised

        q_fine, q_coarse = hybrid_charge(0.25), hybrid_charge(0.5)
        q_rich = q_fine + (q_fine - q_coarse) / 3.0
        ok2 = abs(q_fine - oracle) <= 2e-3 and abs(q_rich - oracle) <= 5e-4

        ok = ok0 and ok1 and ok2
        report(5, "topological-charge", ok,
               f"identity={rep0.charge:.2e}, soliton={rep1.charge:.6f} "
               f"(closed form {closed1:.6f}), two-factor h=0.25: {q_fine:.6f}, "
               f"h=0.5: {q_coarse:.6f}, extrapolated {q_rich:.6f} vs oracle {oracle:.6f} "
               f"= 2 x {per_core:.6f} {surface:+.6f}")
        assert ok0, f"identity field charge {rep0.charge}"
        assert ok1, f"soliton charge {rep1.charge:.8f}, closed form {closed1:.8f}"
        assert abs(q_fine - oracle) <= 2e-3, f"product charge {q_fine:.6f}, oracle {oracle:.6f}"
        assert abs(q_rich - oracle) <= 5e-4, \
            f"extrapolated product charge {q_rich:.6f}, oracle {oracle:.6f}"

    def test_06_equilibria(self):
        m = rl.Moduli.from_couplings(1.0, 1.25)
        ratio = m.lambda2 / m.lambda1

        def force(f):
            return 2 * np.sinh(f) + 4 * np.tanh(f) - 2 * ratio * (np.sinh(f) + np.tanh(f))

        f_oracle = brentq(force, 0.5, 5.0, xtol=1e-14)
        eqs = rl.equilibria(m)
        nontrivial = sorted(e.f_star for e in eqs if e.f_star != 0.0)
        sinh_err = max(abs(np.sinh(nontrivial[1]) - np.sinh(f_oracle)),
                       abs(np.sinh(nontrivial[0]) + np.sinh(f_oracle)))

        trivial_everywhere = all(
            any(e.f_star == 0.0 for e in rl.equilibria(rl.Moduli.from_couplings(l1, l2)))
            for l1, l2 in [(1.0, 1.0), (1.0, 1.25), (1.0, 2.0), (2.0, 1.0), (0.5, 0.7)]
        )

        eig_err = 0.0
        for e in eqs:
            got = sorted(e.eigenvalues, key=lambda z: z.real)
            want = eigenvalues_closed_form(e.f_star, m)
            eig_err = max(eig_err, max(abs(g - w_) for g, w_ in zip(got, want)))

        # the trivial equilibrium has eigenvalues (0.618, -1.618) here, not
        # the reported pair (0, -1); recorded as a comparison, not asserted
        eig0 = sorted(rl.equilibria(m)[0].eigenvalues, key=lambda z: z.real)

        ok = sinh_err <= 1e-8 and trivial_everywhere and eig_err <= 1e-6
        report(6, "equilibria", ok,
               f"sinh f*={np.sinh(nontrivial[1]):.6f} (2sqrt2={2*np.sqrt(2):.6f}), "
               f"oracle gap={sinh_err:.2e}, eig gap={eig_err:.2e}, "
               f"f=0 eigenvalues {eig0[1].real:+.3f}/{eig0[0].real:+.3f} "
               f"(reported reference: 0/-1)")
        assert ok

    def test_07_linearized_dispersion(self):
        """Speed targets derived from the small-amplitude Lagrangian: its
        Euler-Lagrange equations give dd(beta)/dt2 = l1 grad div beta
        - (l2/2) curl curl beta, hence speed^2 = l1 longitudinally and l2/2
        transversally."""
        m = rl.Moduli.from_couplings(1.3, 0.9)
        kmag = 1.7
        x0 = np.array([0.23, 0.41, -0.31])
        amp = 1e-4
        measured = {}
        for name, pol in [("long", (1.0, 0, 0)), ("trans", (0, 1.0, 0))]:
            def pol_residual(om):
                f = plane_wave_field(amp, (1, 0, 0), pol, kmag, om)
                return rl.residual_eqs2_at(f.field_point(x0), m) @ np.asarray(pol)

            om1, om2 = 0.5 * kmag, 2.5 * kmag
            r1, r2 = pol_residual(om1), pol_residual(om2)
            om_sq = (om1**2 * r2 - om2**2 * r1) / (r2 - r1)
            measured[name] = om_sq / kmag**2
        ok_long = abs(measured["long"] - m.lambda1) <= 0.01 * m.lambda1
        ok_trans = abs(measured["trans"] - m.lambda2 / 2) <= 0.01 * (m.lambda2 / 2)
        ok = ok_long and ok_trans
        report(7, "linearized-dispersion", ok,
               f"long speed^2={measured['long']:.6f} (l1={m.lambda1}), "
               f"trans speed^2={measured['trans']:.6f} (l2/2={m.lambda2 / 2})")
        assert ok

    def test_08_dynamic_stability(self, unit_moduli):
        uniform = rl.resample_uniform(rl.solve_static(unit_moduli, slope0=1.0, r_max=50.0, tol=1e-10), n=4001)
        uniform.w_t = np.zeros_like(uniform.w)
        dr = uniform.r[1] - uniform.r[0]
        result = rl.evolve_dynamic(uniform, dt=0.5 * dr, t_end=10.0)
        drift = float(np.abs(result.w - result.w[0]).max())
        e = result.energy
        e_drift = float(np.abs(e - e[0]).max() / abs(e[0]))
        ok = drift <= 1e-3 and e_drift <= 1e-4
        report(8, "dynamic-stability", ok,
               f"sup drift={drift:.2e} (<=1e-3), energy drift={e_drift:.2e} (<=1e-4)")
        assert ok

    def test_09_gradient_check(self):
        m = rl.Moduli.from_couplings(1.1, 0.7)
        rng = np.random.default_rng(99)
        eps = 1e-6
        worst = 0.0
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            a_t = rng.normal(size=3)
            h_t, h_s = rl.h_tensors(a, a_t, m)
            for i in range(3):
                for k in range(3):
                    dp = a.copy(); dp[i, k] += eps
                    dm = a.copy(); dm[i, k] -= eps
                    num = (rl.potential_density(dp, m) - rl.potential_density(dm, m)) / (2 * eps)
                    worst = max(worst, abs(h_s[i, k] - num))
                dp = a_t.copy(); dp[i] += eps
                dm = a_t.copy(); dm[i] -= eps
                num = (rl.kinetic_density(dp) - rl.kinetic_density(dm)) / (2 * eps)
                worst = max(worst, abs(h_t[i] - num))
        ok = worst <= 1e-6
        report(9, "gradient-check", ok, f"max |H - FD grad| = {worst:.2e}")
        assert ok

    def test_10_kinematics_oracle(self):
        field = rl.random_smooth_field(seed=11)
        probes = [np.array([0.3, -0.1, 0.2]), np.array([-0.4, 0.5, 0.1]),
                  np.array([0.2, 0.6, -0.3])]
        worst_ratio = np.inf
        for pt in probes:
            exact = field.nye(pt)
            errs = []
            for h in (0.02, 0.01):
                grid = rl.RotorGrid.from_field(field, dims=(5, 5, 5), spacing=h,
                                               origin=pt - 2 * h)
                errs.append(np.abs(rl.nye_fd_grid(grid)[1, 1, 1] - exact).max())
            worst_ratio = min(worst_ratio, errs[0] / errs[1])
        ok = worst_ratio >= 3.5
        report(10, "kinematics-oracle", ok, f"worst Richardson ratio = {worst_ratio:.2f}")
        assert ok
