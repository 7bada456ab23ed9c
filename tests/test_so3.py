import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import rotelast as rl
from rotelast.so3 import matrix_to_rotor, rotor_matrix

from conftest import Rotor, make_rotor, random_rotor


def matrix(r):
    """Matrix of a Rotor value."""
    return rotor_matrix(r.alpha, r.beta)


def inverse_matrix(r):
    """Matrix of the conjugate rotor (alpha negated): the inverse rotation."""
    return rotor_matrix(-r.alpha, r.beta)


def quat_mul(p, q):
    """Quaternion composition of (alpha, beta) pairs; the test oracle."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 @ b2, a1 * b2 + a2 * b1 + np.cross(b1, b2)


class TestRotorToMatrix:
    def test_identity_rotor(self):
        assert np.array_equal(rotor_matrix(1.0, [0.0, 0.0, 0.0]), np.eye(3))

    def test_pi_rotation(self):
        u = rotor_matrix(0.0, [1.0, 0.0, 0.0])
        assert np.allclose(u, np.diag([1.0, -1.0, -1.0]))

    def test_quarter_turn_about_z(self):
        # alpha = beta_3 = 1/sqrt(2): all beta^2 terms cancel the identity,
        # leaving e3 e3^T plus the Levi-Civita block
        s = 1.0 / np.sqrt(2.0)
        u = rotor_matrix(s, [0.0, 0.0, s])
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(u - expected).max() <= 1e-15
        assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-12
        assert np.linalg.det(u) > 0.0

    def test_special_orthogonal_random(self, rng):
        for _ in range(200):
            u = matrix(random_rotor(rng))
            assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    def test_double_cover(self, rng):
        for _ in range(50):
            r = random_rotor(rng)
            minus = Rotor(beta=-r.beta, alpha=-r.alpha)
            assert np.array_equal(matrix(r), matrix(minus))


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse_matrix(make_rotor([0, 0, 0])), np.eye(3))

    def test_inverse_by_construction(self, rng):
        for _ in range(100):
            r = random_rotor(rng)
            prod = matrix(r) @ inverse_matrix(r)
            assert np.abs(prod - np.eye(3)).max() <= 1e-12

    def test_symmetric_rotation_self_inverse(self):
        r = make_rotor([1.0, 0, 0])
        assert np.allclose(inverse_matrix(r), np.diag([1.0, -1.0, -1.0]))

    def test_inverse_is_transpose(self, rng):
        for _ in range(100):
            r = random_rotor(rng)
            assert np.abs(inverse_matrix(r) - matrix(r).T).max() <= 1e-12


class TestMatrixProduct:
    def test_identity_neutral(self, rng):
        m = rng.normal(size=(3, 3))
        assert np.array_equal(np.eye(3) @ m, m)

    def test_orthogonal_times_transpose(self, rng):
        u = matrix(random_rotor(rng))
        assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-14

    def test_pi_rotations_compose_to_third_axis(self):
        ux = matrix(make_rotor([1.0, 0, 0]))
        uy = matrix(make_rotor([0, 1.0, 0]))
        uz = matrix(make_rotor([0, 0, 1.0]))
        assert np.allclose(ux @ uy, uz)

    def test_quaternion_composition_oracle(self, rng):
        # the matrix map reverses composition order: u(p*q) = u(q) u(p)
        for _ in range(50):
            p, q = random_rotor(rng), random_rotor(rng)
            a, b = quat_mul((p.alpha, p.beta), (q.alpha, q.beta))
            direct = rotor_matrix(a, b)
            composed = matrix(q) @ matrix(p)
            assert np.abs(direct - composed).max() <= 1e-12


class TestMatrixToRotor:
    def test_roundtrip_random(self, rng):
        for _ in range(300):
            r = random_rotor(rng)
            a, b = rl.matrix_to_rotor(matrix(r))
            # recovery is up to overall sign
            dot = a * r.alpha + b @ r.beta
            assert abs(abs(dot) - 1.0) <= 1e-10

    def test_near_zero_alpha_branch(self):
        r = make_rotor([0.6, 0.0, 0.8], +1)  # alpha exactly 0
        a, b = rl.matrix_to_rotor(matrix(r))
        assert abs(a) <= 1e-12
        assert min(np.abs(b - r.beta).max(), np.abs(b + r.beta).max()) <= 1e-12


# ---------------------------------------------------------------------------
# properties of the rotor algebra


def _normalize(q):
    """Rows scaled to unit 4-vectors ``(alpha, beta)``; rows too short to scale become the identity."""
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(norm > 1e-3, q / np.where(norm > 1e-3, norm, 1.0), [1.0, 0.0, 0.0, 0.0])


def unit_rotors(max_rows=8):
    """Batches of unit rotors as ``(n, 4)`` rows ``(alpha, beta)``."""
    return arrays(np.float64, st.tuples(st.integers(1, max_rows), st.just(4)),
                  elements=st.floats(-1.0, 1.0)).map(_normalize)


class TestRotorAlgebraProperties:
    @given(unit_rotors())
    def test_rotor_matrix_lands_in_so3(self, q):
        u = rotor_matrix(q[:, 0], q[:, 1:])
        assert np.abs(u @ np.swapaxes(u, -1, -2) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(u) - 1.0).max() <= 1e-12

    @given(unit_rotors())
    def test_matrix_to_rotor_roundtrips_up_to_sign(self, q):
        alpha, beta = matrix_to_rotor(rotor_matrix(q[:, 0], q[:, 1:]))
        back = np.concatenate([alpha[:, None], beta], axis=1)
        assert np.all(alpha >= 0.0)
        assert np.minimum(np.abs(back - q).max(axis=1), np.abs(back + q).max(axis=1)).max() <= 1e-12

    @given(arrays(np.float64, (3, 3), elements=st.floats(-1e3, 1e3)))
    def test_decompose_recomposes(self, m):
        parts = rl.decompose(m)
        scale = max(1.0, float(np.abs(m).max()))
        recomposed = (parts.trace_part / 3.0) * np.eye(3) + parts.antisym_part + parts.sym_traceless_part
        assert np.abs(recomposed - m).max() <= 1e-14 * scale
        assert np.array_equal(parts.antisym_part, -parts.antisym_part.T)
        assert np.array_equal(parts.sym_traceless_part, parts.sym_traceless_part.T)
        assert abs(np.trace(parts.sym_traceless_part)) <= 1e-14 * scale
