import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rotelast as rl
from rotelast import kinematics
from rotelast.topology import _centred_axis, _charge_midpoint_3d

from conftest import ConstantField, make_rotor, random_rotor


def tanh_hedgehog(w_from, w_to, scale):
    """Hedgehog whose profile runs from w_from at 0 to w_to at infinity."""
    dw = w_to - w_from
    w = lambda r: w_from + dw * np.tanh(r / scale)
    wp = lambda r: dw / scale / np.cosh(r / scale) ** 2
    wpp = lambda r: -2 * dw / scale**2 * np.tanh(r / scale) / np.cosh(r / scale) ** 2
    return rl.HedgehogField(w, wp, wpp)


def smoothstep_hedgehog(w_from, w_to, r_c):
    """Hedgehog whose profile runs from w_from at 0 to w_to at r_c and stays there.

    The quintic smoothstep ``t^3 (10 - 15 t + 6 t^2)`` has zero first and
    second derivatives at both ends, so the profile is C2 across ``r_c``.
    """
    dw = w_to - w_from
    t = lambda r: np.clip(r / r_c, 0.0, 1.0)
    w = lambda r: w_from + dw * t(r) ** 3 * (10.0 - 15.0 * t(r) + 6.0 * t(r) ** 2)
    wp = lambda r: dw / r_c * 30.0 * t(r) ** 2 * (1.0 - t(r)) ** 2
    wpp = lambda r: dw / r_c**2 * 60.0 * t(r) * (1.0 - t(r)) * (1.0 - 2.0 * t(r))
    return rl.HedgehogField(w, wp, wpp)


def degree_one_field(scale=1.2):
    """Constant-boundary reference map: w from pi/2 to -pi/2, charge -1."""
    return tanh_hedgehog(np.pi / 2, -np.pi / 2, scale)


def charge_radial_midpoint(field, ball_radius, h):
    """Midpoint rule on the radial density (2/pi) cos^2(w) w' of a hedgehog."""
    n = int(np.ceil(ball_radius / h))
    step = ball_radius / n
    r = (np.arange(n) + 0.5) * step
    dens = (2.0 / np.pi) * np.cos(field.w(r)) ** 2 * field.wp(r)
    return float(np.sum(dens) * step)


def charge_midpoint_3d_planes(field, ball_radius, h, time=0.0):
    """The 3-d midpoint rule one z-plane of the centred lattice at a time."""
    axis = _centred_axis(ball_radius, h)
    total = 0.0
    xy = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for z in axis:
        pts = np.concatenate([xy, np.full((xy.shape[0], 1), z)], axis=1)
        pts = pts[(pts * pts).sum(axis=1) <= ball_radius * ball_radius]
        total += float(np.sum(rl.charge_density(field, pts, time)))
    return total * h**3


class TestChargeDensity:
    def test_constant_field(self, rng):
        f = ConstantField(random_rotor(rng))
        pts = rng.normal(size=(10, 3))
        assert np.abs(rl.charge_density(f, pts)).max() == 0.0

    def test_hedgehog_spherical_symmetry(self):
        f = tanh_hedgehog(0.0, np.pi / 4, 1.5)
        r0 = 2.0
        dirs = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1], [0.3, -1.1, 1.6], [-0.2, 0.4, -0.9]])
        pts = r0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        rho = rl.charge_density(f, pts)
        assert rho.max() - rho.min() <= 1e-10 * max(1.0, np.abs(rho).max())

    def test_density_matches_radial_reduction(self):
        # derived oracle: cos^2(w) w' / (2 pi^2 r^2) for the hedgehog
        f = tanh_hedgehog(0.0, np.pi / 4, 1.5)
        for x in ([1.1, -0.7, 0.4], [2.5, 0.0, 0.0], [0.4, 0.5, -0.8]):
            x = np.asarray(x, dtype=float)
            r = np.linalg.norm(x)
            w = f.w(r)
            oracle = np.cos(w) ** 2 * f.wp(r) / (2 * np.pi**2 * r**2)
            assert rl.charge_density(f, x) == pytest.approx(oracle, rel=1e-10)

    def test_left_rotation_leaves_density_invariant(self, rng):
        # constant left factor conjugates the connection; the trace density
        # is pointwise unchanged
        base = degree_one_field()
        rot = ConstantField(random_rotor(rng, max_norm=0.8))
        prod = rl.ProductField([rot, base])
        pts = rng.normal(size=(8, 3)) * 2.0
        assert np.abs(rl.charge_density(prod, pts) - rl.charge_density(base, pts)).max() <= 1e-12


class TestTotalCharge:
    def test_identity_field(self, rng):
        f = ConstantField(make_rotor([0, 0, 0]))
        rep = rl.total_charge(f, ball_radius=3.0, grid_spacing=0.3)
        assert abs(rep.charge) <= 1e-6

    def test_degree_one_quantized(self):
        f = degree_one_field()
        rep = rl.total_charge(f, ball_radius=25.0, grid_spacing=0.01)
        assert rep.charge == pytest.approx(-1.0, abs=1e-6)
        assert abs(rep.charge - round(rep.charge)) <= max(3 * rep.estimated_error, 1e-6)

    @settings(max_examples=20)
    @given(j=st.integers(-2, 2), winding=st.integers(-2, 2), r_c=st.floats(0.5, 4.5))
    def test_constant_boundary_charge_is_integer(self, j, winding, r_c):
        # beta = 0 at w = pi/2 + n pi: regular at the core, a constant rotation for r >= r_c
        k = j + winding
        f = smoothstep_hedgehog(np.pi / 2 + j * np.pi, np.pi / 2 + k * np.pi, r_c)
        R = 5.0
        expected = rl.hedgehog_charge_profile(float(f.w(0.0)), float(f.w(R)))
        assert expected == pytest.approx(k - j, abs=1e-12)
        rep = rl.total_charge(f, ball_radius=R, grid_spacing=0.01)
        assert abs(rep.charge - expected) <= max(3 * rep.estimated_error, 1e-9)

    def test_fast_path_matches_3d_quadrature(self):
        # validates the radial closed form against the full midpoint rule
        f = degree_one_field()
        fast = rl.total_charge(f, ball_radius=8.0, grid_spacing=0.01)
        full = rl.total_charge(f, ball_radius=8.0, grid_spacing=0.2, force_3d=True)
        assert abs(fast.charge - full.charge) <= 1e-3

    def test_mirror_profile_positive_charge(self):
        f = tanh_hedgehog(-np.pi / 2, np.pi / 2, 1.2)
        rep = rl.total_charge(f, ball_radius=25.0, grid_spacing=0.01)
        assert rep.charge == pytest.approx(+1.0, abs=1e-6)

    def test_soliton_charge_value(self, soliton_field):
        # the connection-gauge integral over a ball equals the endpoint
        # formula (1/pi)[w + sin(2w)/2]; with w(inf) = pi/4 the large-radius
        # limit is 1/4 + 1/(2 pi) ~ 0.40915, not an integer (the matrix
        # field does not settle to a constant rotation at infinity, and the
        # profile approaches its asymptote only as 1/sqrt(r))
        R = 55.0
        rep = rl.total_charge(soliton_field, ball_radius=R, grid_spacing=0.01)
        w_R = float(soliton_field.w(np.array([R]))[0])
        assert rep.charge == pytest.approx(rl.hedgehog_charge_profile(0.0, w_R), abs=1e-6)
        assert rep.charge == pytest.approx(0.25 + 1.0 / (2 * np.pi), abs=0.02)

    def test_left_rotation_invariance(self, rng):
        base = degree_one_field()
        rot = ConstantField(random_rotor(rng, max_norm=0.8))
        prod = rl.ProductField([rot, base])
        rep = rl.total_charge(prod, ball_radius=10.0, grid_spacing=0.25, force_3d=True)
        assert rep.charge == pytest.approx(-1.0, abs=5e-3)

    def test_bad_arguments(self):
        f = degree_one_field()
        with pytest.raises(ValueError):
            rl.total_charge(f, ball_radius=-1.0, grid_spacing=0.1)
        with pytest.raises(ValueError):
            rl.total_charge(f, ball_radius=1.0, grid_spacing=0.0)

    @pytest.mark.parametrize("force_3d", [False, True])
    @pytest.mark.parametrize("ball_radius, grid_spacing",
                             [(np.nan, 0.5), (np.inf, 0.5), (2.0, np.nan), (2.0, np.inf)])
    def test_non_finite_arguments(self, ball_radius, grid_spacing, force_3d):
        # on a hedgehog: the closed form without force_3d, the 3-d lattice with it
        f = tanh_hedgehog(0.0, np.pi, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            rl.total_charge(f, ball_radius=ball_radius, grid_spacing=grid_spacing, force_3d=force_3d)


class TestRadialClosedForm:
    # the hedgehog path returns (1/pi)[w + sin 2w / 2], the exact integral
    # of the density the midpoint rule approximates
    @pytest.mark.parametrize("ball_radius", [3.0, 8.0])
    def test_matches_midpoint_rule_on_tanh_core(self, ball_radius):
        f = tanh_hedgehog(0.0, np.pi / 4, 1.5)
        rep = rl.total_charge(f, ball_radius=ball_radius, grid_spacing=0.1)
        assert abs(rep.charge - charge_radial_midpoint(f, ball_radius, 1e-3)) <= 1e-9

    def test_matches_midpoint_rule_on_lifted_soliton(self, soliton_field):
        rep = rl.total_charge(soliton_field, ball_radius=40.0, grid_spacing=0.1)
        assert abs(rep.charge - charge_radial_midpoint(soliton_field, 40.0, 1e-3)) <= 1e-9

    def test_zero_error_and_spacing_reported_not_used(self, soliton_field):
        coarse = rl.total_charge(soliton_field, ball_radius=6.0, grid_spacing=0.4)
        fine = rl.total_charge(soliton_field, ball_radius=6.0, grid_spacing=0.01)
        assert coarse.estimated_error == 0.0 and fine.estimated_error == 0.0
        assert coarse.charge == fine.charge
        assert (coarse.grid_spacing, fine.grid_spacing) == (0.4, 0.01)


def assert_slabs_match_planes(monkeypatch, field, ball_radius, h):
    """Slabs of three planes or more, several of them: the per-plane sums regroup, nothing else."""
    n = len(_centred_axis(ball_radius, h))
    monkeypatch.setattr(kinematics, "_SLAB_POINTS", 3 * n * n)
    slabs = list(kinematics._slabs(n, n * n))
    assert len(slabs) >= 3 and min(hi - lo for lo, hi in slabs) >= 3
    new = _charge_midpoint_3d(field, ball_radius, h, 0.0)
    old = charge_midpoint_3d_planes(field, ball_radius, h)
    assert abs(new - old) <= 1e-14 * abs(old)


class TestSlabStream:
    def test_single_core(self, monkeypatch):
        assert_slabs_match_planes(monkeypatch, degree_one_field(), 4.0, 0.3)

    def test_two_core_product(self, monkeypatch):
        core = degree_one_field(scale=0.8)
        prod = rl.ProductField([rl.TranslatedField(core, [2.0, 0.0, 0.0]),
                                rl.TranslatedField(core, [-2.0, 0.5, 0.0])])
        assert_slabs_match_planes(monkeypatch, prod, 5.0, 0.4)

    def test_odd_coarse_cell_count(self, monkeypatch, soliton_field):
        # the coarse pass of `charge --radius 6 --spacing 0.4 --full-3d`:
        # 2R/h = 15 cells, rounded up to the even count 16
        assert len(_centred_axis(6.0, 0.8)) == 16
        assert_slabs_match_planes(monkeypatch, soliton_field, 6.0, 0.8)

    def test_non_finite_density_raises(self):
        f = tanh_hedgehog(0.0, np.nan, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            _charge_midpoint_3d(f, 2.0, 0.5, 0.0)


class TestProductField:
    def test_single_factor_identical(self, rng):
        base = degree_one_field()
        prod = rl.ProductField([base])
        pts = rng.normal(size=(5, 3))
        assert np.abs(prod.u(pts) - base.u(pts)).max() == 0.0
        assert np.abs(prod.u_and_du(pts)[1] - base.u_and_du(pts)[1]).max() == 0.0

    def test_identity_factor_absorbed(self, rng):
        base = degree_one_field()
        ident = ConstantField(make_rotor([0, 0, 0]))
        prod = rl.ProductField([base, ident])
        pts = rng.normal(size=(5, 3))
        assert np.abs(prod.u(pts) - base.u(pts)).max() == 0.0
        assert np.abs(prod.u_and_du(pts)[1] - base.u_and_du(pts)[1]).max() == 0.0

    def test_product_rule_against_finite_differences(self):
        f1 = rl.TranslatedField(degree_one_field(), [0.4, 0.0, -0.2])
        f2 = tanh_hedgehog(0.0, np.pi / 4, 1.5)
        # four factors: the inner ones have both prefix and suffix products
        four = [f1, ConstantField(make_rotor([0.2, -0.3, 0.1])),
                rl.TranslatedField(degree_one_field(0.8), [-0.5, 0.3, 0.1]),
                rl.TranslatedField(f2, [0.1, 0.2, 0.3])]
        x = np.array([0.9, -0.3, 0.7])
        h = 1e-6
        for factors in ([f1, f2], four):
            prod = rl.ProductField(factors)
            for k in range(3):
                dx = np.zeros(3)
                dx[k] = h
                fd = (prod.u(x + dx) - prod.u(x - dx)) / (2 * h)
                assert np.abs(prod.u_and_du(x)[1][..., k] - fd).max() <= 1e-8

    def test_charge_additive_for_separated_factors(self):
        # degree-(-1) cores at +/- 5: total charge -2 up to the stated 0.1
        core = degree_one_field(scale=0.8)
        f1 = rl.TranslatedField(core, [5.0, 0.0, 0.0])
        f2 = rl.TranslatedField(core, [-5.0, 0.0, 0.0])
        prod = rl.ProductField([f1, f2])
        rep = rl.total_charge(prod, ball_radius=12.0, grid_spacing=0.3)
        assert abs(rep.charge - (-2.0)) <= 0.1

    def test_translated_product_is_the_product_of_translated_factors(self, rng):
        core = degree_one_field(scale=0.8)
        factors = [rl.TranslatedField(core, [1.5, 0.0, 0.0]), tanh_hedgehog(0.0, np.pi / 4, 1.5)]
        offset = [0.3, -0.2, 0.1]
        moved = rl.TranslatedField(rl.ProductField(factors), offset)
        oracle = rl.ProductField([rl.TranslatedField(f, offset) for f in factors])
        pts = rng.normal(size=(7, 3))
        for name in ("u", "nye"):
            assert getattr(moved, name)(pts).tobytes() == getattr(oracle, name)(pts).tobytes()
        assert rl.total_charge(moved, 3.0, 0.5) == rl.total_charge(oracle, 3.0, 0.5)
        grids = [kinematics.RotorGrid.from_field(f, (4, 3, 5), 0.4, [-0.8, -0.4, -1.0]) for f in (moved, oracle)]
        assert all(getattr(grids[0], k).tobytes() == getattr(grids[1], k).tobytes() for k in ("alpha", "beta"))

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            rl.ProductField([])

    def test_rotor_extraction_sign_alignment(self):
        # the product's rotor comes back from its matrix with alpha >= 0: the base's, up to a sign per point
        base = degree_one_field()
        prod = rl.ProductField([base, ConstantField(make_rotor([0, 0, 0]))])
        line = np.stack([np.linspace(0.2, 4.0, 50), np.zeros(50), np.zeros(50)], axis=-1)
        alpha, beta = prod.alpha_beta(line)
        four = np.concatenate([alpha[:, None], beta], axis=1)
        base_alpha, base_beta = base.alpha_beta(line)
        base_four = np.concatenate([base_alpha[:, None], base_beta], axis=1)
        assert np.all(alpha >= 0.0)
        assert np.minimum(np.abs(four - base_four).max(axis=1), np.abs(four + base_four).max(axis=1)).max() <= 1e-12


class TestChargeReport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            rl.ChargeReport(charge=np.nan, ball_radius=1.0, grid_spacing=0.1, estimated_error=0.0)
        with pytest.raises(ValueError):
            rl.ChargeReport(charge=1.0, ball_radius=1.0, grid_spacing=0.1, estimated_error=-1.0)

    def test_nan_error_estimate_rejected(self):
        with pytest.raises(ValueError, match="estimated_error"):
            rl.ChargeReport(charge=1.0, ball_radius=1.0, grid_spacing=0.1, estimated_error=np.nan)
