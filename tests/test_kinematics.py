import numpy as np
import pytest

import rotelast as rl

from conftest import LEVI_CIVITA, ConstantField, eps_ddot, make_rotor, random_rotor


def hedgehog_test_field():
    """Hedgehog with a smooth non-solution profile, plus its radial data."""
    w = lambda r: 0.4 * r * np.exp(-0.5 * r)
    wp = lambda r: 0.4 * np.exp(-0.5 * r) * (1 - 0.5 * r)
    wpp = lambda r: 0.4 * np.exp(-0.5 * r) * (0.25 * r - 1.0)
    return rl.HedgehogField(w, wp, wpp), w, wp


def linearized_lagrangian(beta_dot, grad_beta, m):
    """Small-amplitude Lagrangian ``4 bdot^2 - 4 l1 (div b)^2 - 2 l2 (curl b)^2``.

    ``grad_beta[l, k] = d_k beta_l``.
    """
    beta_dot = np.asarray(beta_dot, dtype=float)
    g = np.asarray(grad_beta, dtype=float)
    div = np.trace(g)
    curl = eps_ddot(g.T)
    return float(4.0 * beta_dot @ beta_dot - 4.0 * m.lambda1 * div * div
                 - 2.0 * m.lambda2 * curl @ curl)


def nye_hedgehog_oracle(x, w, wp):
    """Closed radial form of the Nye tensor of the hedgehog ansatz."""
    r = np.linalg.norm(x)
    c, s = np.cos(w(r)), np.sin(w(r))
    return 2.0 * (
        np.einsum("lik,i->lk", LEVI_CIVITA, x) * c * c / r**2
        + np.outer(x, x) * wp(r) / r**2
        - s * c * (np.eye(3) / r - np.outer(x, x) / r**3)
    )


class TestModuli:
    def test_coupling_relations(self):
        m = rl.Moduli.from_constants(0.3, 0.5, 0.9)
        assert m.lambda1 == pytest.approx((4 / 3) * (0.9 + 0.15), abs=1e-15)
        assert m.lambda2 == pytest.approx(0.8, abs=1e-15)

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError):
            rl.Moduli.from_constants(-0.1, 0.0, 1.0)

    def test_inconsistent_couplings_rejected(self):
        with pytest.raises(ValueError):
            rl.Moduli(c1=0.0, c2=1.0, c3=1.0, lambda1=0.5, lambda2=1.0)

    def test_nan_coupling_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rl.Moduli.from_couplings(np.nan, 1.0)

    def test_from_couplings_nonnegative_representative(self):
        m = rl.Moduli.from_couplings(1.0, 2.0)
        assert min(m.c1, m.c2, m.c3) >= 0.0
        assert m.lambda1 == 1.0 and m.lambda2 == 2.0


class TestDecompose:
    def test_identity(self):
        d = rl.decompose(np.eye(3))
        assert d.trace_part == 3.0
        assert np.all(d.antisym_part == 0.0)
        assert np.abs(d.sym_traceless_part).max() <= 1e-15

    def test_pure_skew(self, rng):
        s = rng.normal(size=(3, 3))
        s = s - s.T
        d = rl.decompose(s)
        assert d.trace_part == 0.0
        assert np.abs(d.antisym_part - s).max() <= 1e-15
        assert np.abs(d.sym_traceless_part).max() <= 1e-15

    def test_recompose_and_symmetries(self, rng):
        for _ in range(50):
            m = rng.normal(size=(3, 3))
            d = rl.decompose(m)
            recomposed = (d.trace_part / 3.0) * np.eye(3) + d.antisym_part + d.sym_traceless_part
            assert np.abs(recomposed - m).max() <= 1e-12
            assert np.abs(d.antisym_part + d.antisym_part.T).max() <= 1e-15
            assert np.abs(d.sym_traceless_part - d.sym_traceless_part.T).max() <= 1e-15
            assert abs(np.trace(d.sym_traceless_part)) <= 1e-12

    def test_parts_frobenius_orthogonal(self, rng):
        for _ in range(50):
            d = rl.decompose(rng.normal(size=(3, 3)))
            tr_mat = (d.trace_part / 3.0) * np.eye(3)
            assert abs(np.sum(tr_mat * d.antisym_part)) <= 1e-12
            assert abs(np.sum(tr_mat * d.sym_traceless_part)) <= 1e-12
            assert abs(np.sum(d.antisym_part * d.sym_traceless_part)) <= 1e-12


class TestTorsionFromNye:
    def test_zero(self):
        assert np.all(rl.torsion_from_nye(np.zeros((3, 3))) == 0.0)

    def test_identity(self):
        assert np.allclose(rl.torsion_from_nye(np.eye(3)), -2.0 * np.eye(3))

    def test_roundtrip(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            t = rl.torsion_from_nye(a)
            recovered = t - 0.5 * np.trace(t) * np.eye(3)
            assert np.abs(recovered - a).max() <= 1e-13


class TestQuadraticInvariants:
    def test_zero(self):
        assert rl.quadratic_invariants(np.zeros((3, 3))) == (0.0, 0.0)

    def test_identity(self):
        trace_sq, axial_sq = rl.quadratic_invariants(np.eye(3))
        assert trace_sq == 0.0
        assert axial_sq == pytest.approx(3.0, abs=1e-15)

    def test_index_summation_oracle(self, rng):
        # oracle: direct index summation; the trace vector of the torsion
        # matrix is v_k = eps_ijk t_ij and its half square is the invariant
        for _ in range(20):
            t = rng.normal(size=(3, 3))
            v = np.array([t[1, 2] - t[2, 1], t[2, 0] - t[0, 2], t[0, 1] - t[1, 0]])
            trace_sq, axial_sq = rl.quadratic_invariants(t)
            assert trace_sq == pytest.approx(0.5 * v @ v, abs=1e-13)
            assert axial_sq == pytest.approx(np.trace(t) ** 2 / 3.0, abs=1e-13)

    def test_hedgehog_cross_module_consistency(self):
        # potential density reassembles from the torsion-matrix invariants
        field, w, wp = hedgehog_test_field()
        m = rl.Moduli.from_couplings(0.8, 1.7)
        x = np.array([0.9, -0.3, 0.6])
        a = field.nye(x)
        t = rl.torsion_from_nye(a)
        trace_sq, axial_sq = rl.quadratic_invariants(t)
        assert rl.potential_density(a, m) == pytest.approx(
            0.75 * m.lambda1 * axial_sq + m.lambda2 * trace_sq, rel=1e-12
        )


class TestNyeAnalytic:
    def test_constant_field(self, rng):
        f = ConstantField(random_rotor(rng))
        assert np.abs(f.nye([0.3, 0.1, -0.7])).max() == 0.0

    def test_linear_field_linearization(self):
        # beta = eps M x gives A = -2 eps M + O(eps^2)
        M = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.1, 0.2, -0.3]])
        x0 = np.array([0.4, -0.2, 0.7])

        def make(eps):
            return rl.AnalyticRotorField(
                beta=lambda x, t: eps * np.einsum("lk,...k->...l", M, x),
                d_beta=lambda x, t: np.broadcast_to(eps * M, x.shape[:-1] + (3, 3)).copy(),
                dd_beta=lambda x, t: np.zeros(x.shape[:-1] + (3, 3, 3)),
            )

        errs = []
        for eps in (1e-2, 5e-3):
            a = make(eps).nye(x0)
            errs.append(np.abs(a + 2 * eps * M).max())
        assert errs[0] / errs[1] > 3.0  # quadratic in eps up to cubic corrections

    def test_hedgehog_matches_radial_form(self):
        field, w, wp = hedgehog_test_field()
        for x in ([2.0, 0.0, 0.0], [0.7, -0.4, 1.1], [-0.5, 0.9, 0.3]):
            x = np.asarray(x, dtype=float)
            assert np.abs(field.nye(x) - nye_hedgehog_oracle(x, w, wp)).max() <= 1e-13

    def test_nan_beta_rejected(self):
        f = rl.AnalyticRotorField(beta=lambda x, t: np.where(x[..., :1] > 0, np.nan, 0.1 * x),
                                  d_beta=None, dd_beta=None)
        with pytest.raises(ValueError, match="left the unit ball"):
            f.alpha_beta(np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]))


class TestNyeVelocity:
    def test_static_field(self):
        field, _, _ = hedgehog_test_field()
        fp = field.field_point(np.array([1.0, 0.5, -0.2]), order=1)
        assert np.abs(rl.nye_velocity_vector(fp)).max() == 0.0

    def test_hedgehog_velocity(self):
        w = lambda r: 0.3 * r / (1 + r)
        wp = lambda r: 0.3 / (1 + r) ** 2
        wpp = lambda r: -0.6 / (1 + r) ** 3
        wdot = lambda r: 0.1 * np.sin(r)
        field = rl.HedgehogField(w, wp, wpp, wdot=wdot)
        x = np.array([1.2, -0.5, 0.8])
        r = np.linalg.norm(x)
        assert np.abs(rl.nye_velocity_vector(field.field_point(x, order=1)) - 2.0 * x * wdot(r) / r).max() <= 1e-14

    def test_rigid_rotation_time_fd_oracle(self):
        # spatially constant beta(t); oracle differentiates the u entries in time
        from rotelast.so3 import rotor_matrix

        w0, B = 0.9, 0.6
        beta_t = lambda t: B * np.array([np.cos(w0 * t), np.sin(w0 * t), 0.3])
        dbeta_t = lambda t: B * w0 * np.array([-np.sin(w0 * t), np.cos(w0 * t), 0.0])
        f = rl.AnalyticRotorField(
            beta=lambda x, t: np.broadcast_to(beta_t(t), x.shape[:-1] + (3,)).copy(),
            d_beta=lambda x, t: np.zeros(x.shape[:-1] + (3, 3)),
            dd_beta=lambda x, t: np.zeros(x.shape[:-1] + (3, 3, 3)),
            dt_beta=lambda x, t: np.broadcast_to(dbeta_t(t), x.shape[:-1] + (3,)).copy(),
        )
        t0, d = 0.4, 1e-6

        def u_of(t):
            b = beta_t(t)
            return rotor_matrix(np.sqrt(1 - b @ b), b)

        du = (u_of(t0 + d) - u_of(t0 - d)) / (2 * d)
        oracle = 0.5 * np.einsum("lij,ij->l", LEVI_CIVITA, u_of(t0) @ du.T)
        assert np.abs(rl.nye_velocity_vector(f.field_point(np.zeros(3), t0, order=1)) - oracle).max() <= 1e-9


class TestNyeFiniteDifference:
    def test_identity_grid(self):
        n = 5
        alpha = np.ones((n, n, n))
        beta = np.zeros((n, n, n, 3))
        g = rl.RotorGrid(alpha, beta, spacing=0.1, origin=[0, 0, 0])
        assert np.abs(rl.nye_fd_grid(g)[1, 1, 1]).max() == 0.0

    def test_second_order_convergence(self):
        f = rl.random_smooth_field(seed=11)
        pt = np.array([0.3, -0.1, 0.2])
        a_exact = f.nye(pt)
        errs = []
        for h in (0.02, 0.01):
            g = rl.RotorGrid.from_field(f, dims=(5, 5, 5), spacing=h, origin=pt - 2 * h)
            errs.append(np.abs(rl.nye_fd_grid(g)[1, 1, 1] - a_exact).max())
        assert errs[0] / errs[1] >= 3.5

    def test_grid_matches_pointwise(self):
        f = rl.random_smooth_field(seed=5)
        g = rl.RotorGrid.from_field(f, dims=(7, 7, 7), spacing=0.05, origin=[-0.2, -0.1, 0.0])
        block = rl.nye_fd_grid(g)
        # the stencil at node (2, 3, 4) reads only its 3^3 neighbourhood
        near = (slice(1, 4), slice(2, 5), slice(3, 6))
        local = rl.nye_fd_grid(rl.RotorGrid(g.alpha[near], g.beta[near], g.spacing, g.origin))
        assert np.abs(block[1, 2, 3] - local[0, 0, 0]).max() <= 1e-14

    def test_axial_contraction_matches_matrix_oracle(self):
        # oracle: the full 3x3 u d_k u^T by einsum, then its axial part eps_lij w_ij / 2
        f = rl.random_smooth_field(seed=21)
        g = rl.RotorGrid.from_field(f, dims=(41, 41, 41), spacing=0.05, origin=-np.ones(3))
        u = g.u_array()
        oracle = np.empty((39, 39, 39, 3, 3))
        for k in range(3):
            du = rl.kinematics._central_diff(u, k, g.spacing)
            w = np.einsum("...ia,...ja->...ij", u[1:-1, 1:-1, 1:-1], du)
            oracle[..., :, k] = 0.5 * np.einsum("lij,...ij->...l", LEVI_CIVITA, w)
        assert np.abs(rl.nye_fd_grid(g) - oracle).max() <= 1e-14 * np.abs(oracle).max()


class TestEnergyDensities:
    def test_potential_trivial(self, unit_moduli):
        assert rl.potential_density(np.zeros((3, 3)), unit_moduli) == 0.0
        m = rl.Moduli.from_couplings(1.0, 0.37)
        assert rl.potential_density(np.eye(3), m) == pytest.approx(9.0, abs=1e-14)

    def test_potential_nonnegative(self, rng):
        m = rl.Moduli.from_constants(0.2, 0.4, 0.7)
        for _ in range(100):
            assert rl.potential_density(rng.normal(size=(3, 3)), m) >= 0.0

    def test_potential_hedgehog_radial_oracle(self):
        field, w, wp = hedgehog_test_field()
        m = rl.Moduli.from_couplings(1.2, 0.7)
        x = np.array([0.8, 0.5, -1.1])
        r = np.linalg.norm(x)
        trace = 2 * wp(r) - 4 * np.sin(w(r)) * np.cos(w(r)) / r
        skew_sq = 8.0 * np.cos(w(r)) ** 4 / r**2
        oracle = m.lambda1 * trace**2 + m.lambda2 * skew_sq
        a = field.nye(x)
        assert rl.potential_density(a, m) == pytest.approx(oracle, rel=1e-12)

    def test_kinetic(self):
        assert rl.kinetic_density(np.zeros(3)) == 0.0
        assert rl.kinetic_density(np.array([1.0, 2.0, 2.0])) == 9.0

    def test_kinetic_hedgehog(self):
        w = lambda r: 0.2 * r / (1 + r * r)
        wp = lambda r: 0.2 * (1 - r * r) / (1 + r * r) ** 2
        wpp = lambda r: 0.2 * (2 * r**3 - 6 * r) / (1 + r * r) ** 3
        wdot = lambda r: 0.05 * np.cos(r)
        field = rl.HedgehogField(w, wp, wpp, wdot=wdot)
        x = np.array([0.6, -1.2, 0.4])
        r = np.linalg.norm(x)
        a_t = rl.nye_velocity_vector(field.field_point(x, order=1))
        assert rl.kinetic_density(a_t) == pytest.approx(4.0 * wdot(r) ** 2, rel=1e-12)


class TestLinearizedLagrangian:
    def test_zero(self, unit_moduli):
        assert linearized_lagrangian(np.zeros(3), np.zeros((3, 3)), unit_moduli) == 0.0

    def test_pure_kinetic(self, unit_moduli):
        assert linearized_lagrangian([1.0, 0, 0], np.zeros((3, 3)), unit_moduli) == 4.0

    def test_cubic_remainder_scaling(self, rng):
        # |full L - linearized L| = O(|beta|^3): halving amplitude shrinks it ~8x
        m = rl.Moduli.from_couplings(0.9, 1.4)
        M = rng.normal(size=(3, 3)) * 0.3
        bdot0 = rng.normal(size=3) * 0.3
        x0 = np.array([0.5, -0.1, 0.3])

        def full_minus_lin(eps):
            f = rl.AnalyticRotorField(
                beta=lambda x, t: eps * np.einsum("lk,...k->...l", M, x),
                d_beta=lambda x, t: np.broadcast_to(eps * M, x.shape[:-1] + (3, 3)).copy(),
                dd_beta=lambda x, t: np.zeros(x.shape[:-1] + (3, 3, 3)),
                dt_beta=lambda x, t: np.broadcast_to(eps * bdot0, x.shape[:-1] + (3,)).copy(),
            )
            fp = f.field_point(x0)
            full = rl.kinetic_density(rl.nye_velocity_vector(fp)) - rl.potential_density(
                rl.nye_matrix(fp), m
            )
            lin = linearized_lagrangian(eps * bdot0, eps * M, m)
            return abs(full - lin)

        ratio = full_minus_lin(2e-2) / full_minus_lin(1e-2)
        assert 6.0 <= ratio <= 10.0


class TestIdentityTT:
    def test_identity_grid(self):
        n = 6
        g = rl.RotorGrid(np.ones((n, n, n)), np.zeros((n, n, n, 3)), 0.1, [0, 0, 0])
        assert rl.check_identity_TT(g) == 0.0

    def test_grid_too_small(self):
        n = 4
        g = rl.RotorGrid(np.ones((n, n, n)), np.zeros((n, n, n, 3)), 0.1, [0, 0, 0])
        with pytest.raises(ValueError, match="at least 5"):
            rl.check_identity_TT(g)

    def test_random_field_richardson(self):
        f = rl.random_smooth_field(seed=7)
        res = {}
        for h in (0.2, 0.1):
            n = int(np.ceil(3.2 / h)) + 1
            g = rl.RotorGrid.from_field(f, dims=(n, n, n), spacing=h, origin=-1.6 * np.ones(3))
            res[h] = rl.check_identity_TT(g)
        assert res[0.2] / res[0.1] >= 3.0

    def test_hedgehog_richardson(self, soliton_field):
        # margin-compensated grids so both spacings evaluate over [1, 4]^3
        res = {}
        for h in (0.2, 0.1):
            n = int(round(3.0 / h)) + 5
            g = rl.RotorGrid.from_field(soliton_field, dims=(n, n, n), spacing=h,
                                        origin=(1.0 - 2 * h) * np.ones(3))
            res[h] = rl.check_identity_TT(g)
        assert res[0.2] / res[0.1] >= 3.0

    def test_divergence_term_integrates_away(self):
        # on a decaying field the identity minus its divergence term must
        # integrate to ~0, fixing the component form of that term
        f = rl.random_smooth_field(seed=13)
        h = 0.1
        n = int(np.ceil(6.4 / h)) + 1
        g = rl.RotorGrid.from_field(f, dims=(n, n, n), spacing=h, origin=-3.2 * np.ones(3))
        a = rl.nye_fd_grid(g)
        t = rl.torsion_from_nye(a)
        tau = np.trace(t, axis1=-2, axis2=-1)
        skew = 0.5 * (t - np.swapaxes(t, -1, -2))
        symtl = 0.5 * (t + np.swapaxes(t, -1, -2)) - (tau / 3.0)[..., None, None] * np.eye(3)
        lhs = np.einsum("...ij,...ij->...", symtl, symtl)
        alg = np.einsum("...ij,...ij->...", skew, skew) + tau * tau / 6.0
        total_lhs = lhs.sum() * h**3
        total_gap = (lhs - alg).sum() * h**3
        assert abs(total_gap) <= 1e-4 * max(total_lhs, 1.0)


class TestGaugeCovariance:
    def test_rigid_rotation_scalar_property(self, rng):
        # the rigid rotation u'(x) = L u(L^T x) L^T sends the Nye blocks to
        # (L A L^T, L A_t); the energy densities must be scalars under it
        r = make_rotor(np.array([0.36, -0.48, 0.6]) * 0.9)
        L = rl.rotor_matrix(r.alpha, r.beta)
        base = rl.random_smooth_field(seed=21)
        m = rl.Moduli.from_couplings(1.1, 0.6)

        for _ in range(10):
            x = rng.normal(size=3) * 0.8
            fp = base.field_point(x @ L)  # base evaluated at L^T x
            a = rl.nye_matrix(fp)
            a_t = rl.nye_velocity_vector(fp)
            assert rl.potential_density(L @ a @ L.T, m) == pytest.approx(
                rl.potential_density(a, m), rel=1e-10, abs=1e-12
            )
            assert rl.kinetic_density(L @ a_t) == pytest.approx(
                rl.kinetic_density(a_t), rel=1e-10, abs=1e-12
            )

    def test_right_gauge_factor_leaves_nye_invariant(self, rng):
        # u -> u C for constant C changes nothing pointwise
        base = rl.random_smooth_field(seed=22)
        c_rot = random_rotor(rng, max_norm=0.7)
        prod = rl.ProductField([base, ConstantField(c_rot)])
        h = 0.02
        pt = np.array([0.2, -0.3, 0.1])
        g1 = rl.RotorGrid.from_field(base, dims=(5, 5, 5), spacing=h, origin=pt - 2 * h)
        alpha, beta = prod.alpha_beta(g1.points())
        g2 = rl.RotorGrid(alpha, beta, spacing=h, origin=pt - 2 * h)
        assert np.abs(rl.nye_fd_grid(g1)[1, 1, 1] - rl.nye_fd_grid(g2)[1, 1, 1]).max() <= 1e-10


class TestGridSerialization:
    def test_roundtrip_exact(self, tmp_path):
        f = rl.random_smooth_field(seed=3)
        g = rl.RotorGrid.from_field(f, dims=(4, 5, 6), spacing=0.07, origin=[-0.1, 0.2, 0.05])
        path = tmp_path / "grid.csv"
        rl.save_grid_csv(g, path)
        g2 = rl.load_grid_csv(path)
        assert g2.dims == g.dims
        assert g2.spacing == g.spacing
        assert np.array_equal(g2.origin, g.origin)
        assert np.array_equal(g2.alpha, g.alpha)
        assert np.array_equal(g2.beta, g.beta)

    def test_unit_constraint_enforced(self):
        with pytest.raises(ValueError, match="unit constraint"):
            rl.RotorGrid(np.full((3, 3, 3), 0.9), np.zeros((3, 3, 3, 3)), 0.1, [0, 0, 0])

    def test_nan_spacing_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            rl.RotorGrid(np.ones((3, 3, 3)), np.zeros((3, 3, 3, 3)), np.nan, [0, 0, 0])

    @pytest.mark.parametrize("spacing, origin, message", [
        (np.inf, [0.0, 0.0, 0.0], "spacing must be positive and finite"),
        (0.1, [np.nan, 0.0, 0.0], "origin must be a finite 3-vector"),
        (0.1, [0.0, 0.0], "origin must be a finite 3-vector"),
    ], ids=["inf spacing", "nan origin", "2-vector origin"])
    def test_unplaceable_grid_rejected(self, spacing, origin, message):
        with pytest.raises(ValueError, match=message):
            rl.RotorGrid(np.ones((3, 3, 3)), np.zeros((3, 3, 3, 3)), spacing, origin)

    @pytest.mark.parametrize("index, line, message", [
        (2, "# spacing inf\n", "spacing must be positive and finite"),
        (3, "# origin nan 0.0 0.0\n", "origin must be a finite 3-vector"),
        (3, "# origin 0.0 0.0\n", "bad meta line '# origin 0.0 0.0'"),
    ], ids=["inf spacing", "nan origin", "2-vector origin"])
    def test_unplaceable_grid_file_rejected(self, tmp_path, index, line, message):
        path = tmp_path / "grid.csv"
        rl.save_grid_csv(rl.RotorGrid(np.ones((3, 3, 3)), np.zeros((3, 3, 3, 3)), 0.1, [0, 0, 0]), path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[index].split()[1] == line.split()[1]
        path.write_text("".join(lines[:index] + [line] + lines[index + 1:]))
        with pytest.raises(ValueError, match=message):
            rl.load_grid_csv(path)

    def test_nan_rotor_rejected(self):
        alpha = np.ones((3, 3, 3))
        alpha[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="unit constraint"):
            rl.RotorGrid(alpha, np.zeros((3, 3, 3, 3)), 0.1, [0, 0, 0])

    @staticmethod
    def malformed(lines):
        """Each edit of a saved 3 x 4 x 5 grid file, and what the error must name."""
        rows = lines[5:]
        return {
            "missing row": (lines[:-1], r"over 60 to 60 rows, found .* over 59 rows"),
            "fifth column in one row": (lines[:7] + [lines[7].replace("\n", ",0.5\n")] + lines[8:],
                                        "number of columns changed from 4 to 5"),
            "fifth column in every row": (lines[:5] + [r.replace("\n", ",0.5\n") for r in rows],
                                          "over 60 rows of 5 columns"),
            "swapped meta lines": ([lines[0], lines[2], lines[1]] + lines[3:], "bad meta line '# spacing"),
            "two dims": ([lines[0], "# dims 3 4\n"] + lines[2:], "bad meta line '# dims 3 4'"),
            "wrong magic": (["# rotor-grid-csv 2\n"] + lines[1:], "not a 'rotor-grid-csv 1' file"),
            "bad header": (lines[:4] + ["alpha,beta\n"] + rows, "found 'alpha,beta'"),
            "no rows": (lines[:5], "over 0 rows"),
            # dims: three positive integers before any row count, and nothing allocated from them
            **{f"dims {dims}": ([lines[0], f"# dims {dims}\n"] + lines[2:], "dims must be three positive integers")
               for dims in ("inf 4 5", "nan 4 5", "-3 -4 5", "0 4 5", "2.5 4 5", "3.9 4 5")},
            "dims 1e6 1e6 1e6": ([lines[0], "# dims 1e6 1e6 1e6\n"] + lines[2:],
                                 "over 1000000000000000000 to 1000000000000000000 rows"),
        }

    @pytest.mark.parametrize("case", ["missing row", "fifth column in one row", "fifth column in every row",
                                      "swapped meta lines", "two dims", "wrong magic", "bad header", "no rows",
                                      "dims inf 4 5", "dims nan 4 5", "dims -3 -4 5", "dims 0 4 5",
                                      "dims 2.5 4 5", "dims 3.9 4 5", "dims 1e6 1e6 1e6"])
    def test_malformed_file_named(self, tmp_path, case):
        path = tmp_path / "grid.csv"
        grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=3), dims=(3, 4, 5), spacing=0.1,
                                       origin=[0.0, 0.0, 0.0])
        rl.save_grid_csv(grid, path)
        lines, message = self.malformed(path.read_text().splitlines(keepends=True))[case]
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=message):
            rl.load_grid_csv(path)
