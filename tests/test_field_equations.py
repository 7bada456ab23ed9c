import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rotelast as rl
from rotelast.field_equations import _axial
from rotelast.fields import _nye_bracket
from rotelast.so3 import _bl, _cf

from conftest import LEVI_CIVITA, ConstantField, random_rotor
from test_kernels import g_tensor_time


def plane_wave_field(amp, khat, pol, kmag, omega, t=0.0):
    """Single polarized plane wave at time t with exact derivative callables."""
    k = kmag * np.asarray(khat, dtype=float)
    e = np.asarray(pol, dtype=float)

    def ph(x):
        return x @ k - omega * t

    return rl.AnalyticRotorField(
        beta=lambda x: np.multiply.outer(np.sin(ph(x)), amp * e),
        d_beta=lambda x: np.einsum("...,l,k->...lk", np.cos(ph(x)), amp * e, k),
        dd_beta=lambda x: np.einsum("...,l,j,k->...ljk", -np.sin(ph(x)), amp * e, k, k),
        dt_beta=lambda x: np.einsum("...,l->...l", -omega * np.cos(ph(x)), amp * e),
        dtt_beta=lambda x: np.einsum("...,l->...l", -omega**2 * np.sin(ph(x)), amp * e),
    )


def centered_grid(field, h, half_extent):
    """Cell-centered cubic grid covering [-half_extent, half_extent]^3.

    Even point count keeps the origin off the lattice (hedgehog fields are
    direction-dependent there).
    """
    n = int(np.ceil(2 * half_extent / h))
    n += n % 2
    origin = -(n / 2 - 0.5) * h * np.ones(3)
    return rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h, origin=origin)


def soliton_annulus_residual(field, moduli, h, r_in=1.0, r_out=5.0):
    """Max |residual_eqs2| over grid cells inside the annulus."""
    grid = centered_grid(field, h, r_out + 3 * h)
    pts, res = rl.residual_grid(grid, moduli)
    rr = np.linalg.norm(pts, axis=-1)
    mask = (rr >= r_in) & (rr <= r_out)
    return np.abs(res[mask]).max()


class TestGTensors:
    @staticmethod
    def _hedgehog():
        w = lambda r: 0.4 * r * np.exp(-0.5 * r)
        wp = lambda r: 0.4 * np.exp(-0.5 * r) * (1 - 0.5 * r)
        wpp = lambda r: 0.4 * np.exp(-0.5 * r) * (0.25 * r - 1.0)
        return rl.HedgehogField(w, wp, wpp), w, wp

    def test_constant_field_vanishes(self, rng):
        f = ConstantField(random_rotor(rng))
        fp = f.field_point(np.array([0.4, 0.2, -0.6]))
        assert np.abs(rl.g_tensor_space(fp)).max() == 0.0
        assert np.abs(g_tensor_time(fp)).max() == 0.0

    def test_antisymmetry(self):
        f = rl.random_smooth_field(seed=31)
        fp = f.field_point(np.array([0.3, -0.2, 0.5]))
        gs = rl.g_tensor_space(fp)
        gt = g_tensor_time(fp)
        assert np.abs(gs + np.swapaxes(gs, -1, -2)).max() <= 1e-12
        assert np.abs(gt + np.swapaxes(gt, -1, -2)).max() <= 1e-12

    def test_hedgehog_matches_radial_formula(self):
        # radial closed form of G_kj^i, derived by differentiating the ansatz:
        # eps_kji s c / r + eps_jil x_l x_k (s c / r)' / r
        # + (x_i d_kj - x_j d_ik) c^2 / r^2
        field, w, wp = self._hedgehog()
        x = np.array([0.9, -0.5, 0.7])
        r = np.linalg.norm(x)
        c, s = np.cos(w(r)), np.sin(w(r))
        g_over_r = s * c / r
        g_prime = (np.cos(2 * w(r)) * wp(r) - s * c / r) / r  # d/dr (s c / r)
        oracle = np.zeros((3, 3, 3))
        for k in range(3):
            for j in range(3):
                for i in range(3):
                    oracle[k, j, i] = (
                        LEVI_CIVITA[k, j, i] * g_over_r
                        + np.einsum("l,l->", LEVI_CIVITA[j, i, :], x) * x[k] * g_prime / r
                        + (x[i] * (k == j) - x[j] * (i == k)) * c * c / r**2
                    )
        fp = field.field_point(x)
        assert np.abs(rl.g_tensor_space(fp) - oracle).max() <= 1e-12

    def test_hedgehog_time_coupling_vanishes(self):
        # H^{jt} G_tj^i = 0 for any radial profile with any radial velocity
        w = lambda r: 0.3 * r / (1 + r)
        wp = lambda r: 0.3 / (1 + r) ** 2
        wpp = lambda r: -0.6 / (1 + r) ** 3
        wdot = lambda r: 0.2 * np.exp(-r)
        field = rl.HedgehogField(w, wp, wpp, wdot=wdot)
        fp = field.field_point(np.array([0.8, 1.1, -0.3]))
        h_t = 2.0 * rl.nye_velocity_vector(fp)
        gt = g_tensor_time(fp)
        assert np.abs(np.einsum("j,ji->i", h_t, gt)).max() <= 1e-14

    @settings(max_examples=80)
    @given(st.integers(1, 3).flatmap(lambda k: arrays(
        np.float64, st.tuples(st.integers(1, 6), st.just(4 + 4 * k)), elements=st.floats(-10.0, 10.0))))
    def test_axial_read_off_nye_bracket(self, x):
        # A/2 + w = 2 beta (x) d alpha for any (alpha, beta), unit or not, along k directions
        k = (x.shape[1] - 4) // 4
        alpha, beta, d_alpha = x[:, 0], x[:, 1:4], x[:, 4:4 + k]
        d_beta = x[:, 4 + k:].reshape(-1, 3, k)
        w = (beta[:, :, None] * d_alpha[:, None, :] + alpha[:, None, None] * d_beta
             - np.cross(beta[:, :, None], d_beta, axis=-2))
        a = _nye_bracket(alpha, _cf(beta), _cf(d_alpha), _cf(d_beta, 2))  # component axes first
        tol = 1e-13 * (1.0 + np.abs(x).max() ** 2)
        np.testing.assert_allclose(_bl(a, 2) / 2 + w, 2 * beta[:, :, None] * d_alpha[:, None, :], rtol=0, atol=tol)
        np.testing.assert_allclose(_bl(_axial(_cf(beta), _cf(d_alpha), a), 2), w, rtol=0, atol=tol)


class TestHTensors:
    def test_zero_input(self, unit_moduli):
        h_t, h_s = rl.h_tensors(np.zeros((3, 3)), np.zeros(3), unit_moduli)
        assert np.all(h_t == 0.0) and np.all(h_s == 0.0)

    def test_identity_nye(self):
        m = rl.Moduli.from_couplings(0.7, 1.9)
        _, h_s = rl.h_tensors(np.eye(3), np.zeros(3), m)
        assert np.abs(h_s - 6.0 * m.lambda1 * np.eye(3)).max() <= 1e-14

    def test_gradient_oracle(self, rng):
        # central-difference gradients of the energy densities
        m = rl.Moduli.from_couplings(1.3, 0.8)
        eps = 1e-6
        for _ in range(100):
            a = rng.normal(size=(3, 3))
            a_t = rng.normal(size=3)
            h_t, h_s = rl.h_tensors(a, a_t, m)
            num_s = np.zeros((3, 3))
            for i in range(3):
                for k in range(3):
                    dp = a.copy(); dp[i, k] += eps
                    dm = a.copy(); dm[i, k] -= eps
                    num_s[i, k] = (rl.potential_density(dp, m) - rl.potential_density(dm, m)) / (2 * eps)
            num_t = np.zeros(3)
            for i in range(3):
                dp = a_t.copy(); dp[i] += eps
                dm = a_t.copy(); dm[i] -= eps
                num_t[i] = (rl.kinetic_density(dp) - rl.kinetic_density(dm)) / (2 * eps)
            assert np.abs(h_s - num_s).max() <= 1e-6
            assert np.abs(h_t - num_t).max() <= 1e-6


class TestResidualEqs2:
    def test_constant_field_is_vacuum(self, rng, unit_moduli):
        f = ConstantField(random_rotor(rng))
        res = rl.residual_eqs2_at(f.field_point([0.2, -0.5, 0.9]), unit_moduli)
        assert np.abs(res).max() == 0.0

    def test_hedgehog_reduces_to_radial_form(self):
        # the full residual must collapse to 4 x/r [ -l1 (w'' + 2w'/r) - U/r^2 ]
        w = lambda r: 0.4 * r * np.exp(-0.5 * r)
        wp = lambda r: 0.4 * np.exp(-0.5 * r) * (1 - 0.5 * r)
        wpp = lambda r: 0.4 * np.exp(-0.5 * r) * (0.25 * r - 1.0)
        field = rl.HedgehogField(w, wp, wpp)
        x = np.array([0.7, -0.4, 1.1])
        r = np.linalg.norm(x)
        for l1, l2 in [(1.0, 1.0), (1.0, 2.0), (0.7, 0.9)]:
            m = rl.Moduli.from_couplings(l1, l2)
            res = rl.residual_eqs2_at(field.field_point(x), m)
            radial = 4 * x / r * (-l1 * (wpp(r) + 2 * wp(r) / r)
                                  - rl.potential_U(w(r), m) / r**2)
            assert np.abs(res - radial).max() <= 1e-12

    def test_static_soliton_residual_second_order(self, soliton_field, unit_moduli):
        r1 = soliton_annulus_residual(soliton_field, unit_moduli, 0.4, r_in=1.5, r_out=3.0)
        r2 = soliton_annulus_residual(soliton_field, unit_moduli, 0.2, r_in=1.5, r_out=3.0)
        assert r1 / r2 >= 3.0

    def test_polarized_plane_waves_are_exact(self):
        # a single polarized wave at its linear dispersion solves the full
        # nonlinear equations; the residual vanishes at finite amplitude
        m = rl.Moduli.from_couplings(1.3, 0.9)
        kmag = 1.7
        x0 = np.array([0.23, 0.41, -0.31])
        for pol, speed_sq in [((1, 0, 0), m.lambda1), ((0, 1, 0), m.lambda2 / 2)]:
            f = plane_wave_field(0.05, (1, 0, 0), pol, kmag, np.sqrt(speed_sq) * kmag, t=0.3)
            res = rl.residual_eqs2_at(f.field_point(x0), m)
            assert np.abs(res).max() <= 1e-12

    def test_mixed_wave_residual_quadratic_in_amplitude(self):
        m = rl.Moduli.from_couplings(1.3, 0.9)
        kmag = 1.7
        k = kmag * np.array([1.0, 0, 0])
        oL, oT = np.sqrt(m.lambda1) * kmag, np.sqrt(m.lambda2 / 2) * kmag
        eL, eT = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
        x0 = np.array([0.23, 0.41, -0.31])

        def mixed(amp, t):
            def term(e, om):
                return (
                    lambda x: np.multiply.outer(np.sin(x @ k - om * t), amp * e),
                    lambda x: np.einsum("...,l,k->...lk", np.cos(x @ k - om * t), amp * e, k),
                    lambda x: np.einsum("...,l,j,k->...ljk", -np.sin(x @ k - om * t), amp * e, k, k),
                    lambda x: np.einsum("...,l->...l", -om * np.cos(x @ k - om * t), amp * e),
                    lambda x: np.einsum("...,l->...l", -om**2 * np.sin(x @ k - om * t), amp * e),
                )

            L, T = term(eL, oL), term(eT, oT)
            return rl.AnalyticRotorField(
                beta=lambda x: L[0](x) + T[0](x),
                d_beta=lambda x: L[1](x) + T[1](x),
                dd_beta=lambda x: L[2](x) + T[2](x),
                dt_beta=lambda x: L[3](x) + T[3](x),
                dtt_beta=lambda x: L[4](x) + T[4](x),
            )

        r_big = np.abs(rl.residual_eqs2_at(mixed(2e-3, t=0.2).field_point(x0), m)).max()
        r_small = np.abs(rl.residual_eqs2_at(mixed(1e-3, t=0.2).field_point(x0), m)).max()
        assert 3.5 <= r_big / r_small <= 4.5


class TestRadialStructure:
    def test_hedgehog_residual_is_radial(self, soliton_field, unit_moduli):
        for x in ([1.3, 0.2, -0.4], [2.0, 1.0, 0.5], [0.0, 2.5, 0.0]):
            x = np.asarray(x, dtype=float)
            res = rl.residual_eqs2_at(soliton_field.field_point(x), unit_moduli)
            xhat = x / np.linalg.norm(x)
            transverse = res - (res @ xhat) * xhat
            assert np.abs(transverse).max() <= 1e-10 * max(1.0, np.abs(res).max())


class TestFieldPointConsistency:
    def test_constraint_residual_small(self, rng):
        f = rl.random_smooth_field(seed=41)
        for _ in range(20):
            fp = f.field_point(rng.normal(size=3))
            assert fp.constraint_residual() <= 1e-10
