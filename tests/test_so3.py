import numpy as np
import pytest

import rotelast as rl
from rotelast.so3 import rotor_matrix

from conftest import random_rotor


def quat_mul(p, q):
    """Quaternion composition of (alpha, beta) pairs; the test oracle."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 @ b2, a1 * b2 + a2 * b1 + np.cross(b1, b2)


class TestMakeRotor:
    def test_identity(self):
        r = rl.make_rotor([0.0, 0.0, 0.0], +1)
        assert r.alpha == 1.0
        assert np.all(r.beta == 0.0)

    def test_unit_ball_boundary(self):
        r = rl.make_rotor([1.0, 0.0, 0.0], +1)
        assert r.alpha == 0.0

    def test_alpha_forced_to_zero(self):
        r = rl.make_rotor([0.6, 0.0, 0.8], -1)
        assert r.alpha == 0.0
        assert r.unit_defect() <= 1e-12

    def test_outside_unit_ball(self):
        with pytest.raises(ValueError, match="unit ball"):
            rl.make_rotor([1.0, 0.1, 0.0])

    def test_unit_invariant_random(self, rng):
        for _ in range(200):
            assert random_rotor(rng).unit_defect() <= 1e-12


class TestRotorToMatrix:
    def test_identity_rotor(self):
        assert np.array_equal(rl.rotor_to_matrix(rl.make_rotor([0, 0, 0])), np.eye(3))

    def test_pi_rotation(self):
        u = rl.rotor_to_matrix(rl.make_rotor([1.0, 0, 0]))
        assert np.allclose(u, np.diag([1.0, -1.0, -1.0]))

    def test_quarter_turn_about_z(self):
        # alpha = beta_3 = 1/sqrt(2): all beta^2 terms cancel the identity,
        # leaving e3 e3^T plus the Levi-Civita block
        s = 1.0 / np.sqrt(2.0)
        u = rl.rotor_to_matrix(rl.make_rotor([0.0, 0.0, s]))
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(u - expected).max() <= 1e-15
        assert rl.is_special_orthogonal(u, 1e-12)

    def test_special_orthogonal_random(self, rng):
        for _ in range(200):
            u = rl.rotor_to_matrix(random_rotor(rng))
            assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    def test_double_cover(self, rng):
        for _ in range(50):
            r = random_rotor(rng)
            minus = rl.Rotor(beta=-r.beta, alpha=-r.alpha)
            assert np.array_equal(rl.rotor_to_matrix(r), rl.rotor_to_matrix(minus))


class TestInverse:
    def test_identity(self):
        assert np.array_equal(rl.rotor_to_matrix_inv(rl.make_rotor([0, 0, 0])), np.eye(3))

    def test_inverse_by_construction(self, rng):
        for _ in range(100):
            r = random_rotor(rng)
            prod = rl.rotor_to_matrix(r) @ rl.rotor_to_matrix_inv(r)
            assert np.abs(prod - np.eye(3)).max() <= 1e-12

    def test_symmetric_rotation_self_inverse(self):
        r = rl.make_rotor([1.0, 0, 0])
        assert np.allclose(rl.rotor_to_matrix_inv(r), np.diag([1.0, -1.0, -1.0]))

    def test_inverse_is_transpose(self, rng):
        for _ in range(100):
            r = random_rotor(rng)
            assert np.abs(rl.rotor_to_matrix_inv(r) - rl.rotor_to_matrix(r).T).max() <= 1e-12


class TestMatrixProduct:
    def test_identity_neutral(self, rng):
        m = rng.normal(size=(3, 3))
        assert np.array_equal(np.eye(3) @ m, m)

    def test_orthogonal_times_transpose(self, rng):
        u = rl.rotor_to_matrix(random_rotor(rng))
        assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-14

    def test_pi_rotations_compose_to_third_axis(self):
        ux = rl.rotor_to_matrix(rl.make_rotor([1.0, 0, 0]))
        uy = rl.rotor_to_matrix(rl.make_rotor([0, 1.0, 0]))
        uz = rl.rotor_to_matrix(rl.make_rotor([0, 0, 1.0]))
        assert np.allclose(ux @ uy, uz)

    def test_quaternion_composition_oracle(self, rng):
        # the matrix map reverses composition order: u(p*q) = u(q) u(p)
        for _ in range(50):
            p, q = random_rotor(rng), random_rotor(rng)
            a, b = quat_mul((p.alpha, p.beta), (q.alpha, q.beta))
            direct = rotor_matrix(a, b)
            composed = rl.rotor_to_matrix(q) @ rl.rotor_to_matrix(p)
            assert np.abs(direct - composed).max() <= 1e-12


class TestIsSpecialOrthogonal:
    def test_identity(self):
        assert rl.is_special_orthogonal(np.eye(3), 1e-12)

    def test_scaled_identity(self):
        assert not rl.is_special_orthogonal(2.0 * np.eye(3), 1e-12)

    def test_reflection_rejected(self):
        assert not rl.is_special_orthogonal(np.diag([1.0, 1.0, -1.0]), 1e-12)

    def test_thousand_random_rotors(self, rng):
        for _ in range(1000):
            assert rl.is_special_orthogonal(rl.rotor_to_matrix(random_rotor(rng)), 1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            rl.is_special_orthogonal(np.eye(3), 0.0)


class TestMatrixToRotor:
    def test_roundtrip_random(self, rng):
        for _ in range(300):
            r = random_rotor(rng)
            a, b = rl.matrix_to_rotor(rl.rotor_to_matrix(r))
            # recovery is up to overall sign
            dot = a * r.alpha + b @ r.beta
            assert abs(abs(dot) - 1.0) <= 1e-10

    def test_near_zero_alpha_branch(self):
        r = rl.make_rotor([0.6, 0.0, 0.8], +1)  # alpha exactly 0
        a, b = rl.matrix_to_rotor(rl.rotor_to_matrix(r))
        assert abs(a) <= 1e-12
        assert min(np.abs(b - r.beta).max(), np.abs(b + r.beta).max()) <= 1e-12
