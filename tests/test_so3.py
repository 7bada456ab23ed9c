import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import rotelast as rl
from rotelast.so3 import align_rotor_signs, matrix_to_rotor, rotor_matrix

from conftest import random_rotor


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

    @pytest.mark.parametrize("beta", [[np.nan, 0.0, 0.0], [0.1, np.inf, 0.0]])
    def test_non_finite_rejected(self, beta):
        with pytest.raises(ValueError, match="unit ball"):
            rl.make_rotor(beta)

    def test_unit_invariant_random(self, rng):
        for _ in range(200):
            assert random_rotor(rng).unit_defect() <= 1e-12


class TestRotorToMatrix:
    def test_identity_rotor(self):
        assert np.array_equal(matrix(rl.make_rotor([0, 0, 0])), np.eye(3))

    def test_pi_rotation(self):
        u = matrix(rl.make_rotor([1.0, 0, 0]))
        assert np.allclose(u, np.diag([1.0, -1.0, -1.0]))

    def test_quarter_turn_about_z(self):
        # alpha = beta_3 = 1/sqrt(2): all beta^2 terms cancel the identity,
        # leaving e3 e3^T plus the Levi-Civita block
        s = 1.0 / np.sqrt(2.0)
        u = matrix(rl.make_rotor([0.0, 0.0, s]))
        expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(u - expected).max() <= 1e-15
        assert rl.is_special_orthogonal(u, 1e-12)

    def test_special_orthogonal_random(self, rng):
        for _ in range(200):
            u = matrix(random_rotor(rng))
            assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    def test_double_cover(self, rng):
        for _ in range(50):
            r = random_rotor(rng)
            minus = rl.Rotor(beta=-r.beta, alpha=-r.alpha)
            assert np.array_equal(matrix(r), matrix(minus))


class TestInverse:
    def test_identity(self):
        assert np.array_equal(inverse_matrix(rl.make_rotor([0, 0, 0])), np.eye(3))

    def test_inverse_by_construction(self, rng):
        for _ in range(100):
            r = random_rotor(rng)
            prod = matrix(r) @ inverse_matrix(r)
            assert np.abs(prod - np.eye(3)).max() <= 1e-12

    def test_symmetric_rotation_self_inverse(self):
        r = rl.make_rotor([1.0, 0, 0])
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
        ux = matrix(rl.make_rotor([1.0, 0, 0]))
        uy = matrix(rl.make_rotor([0, 1.0, 0]))
        uz = matrix(rl.make_rotor([0, 0, 1.0]))
        assert np.allclose(ux @ uy, uz)

    def test_quaternion_composition_oracle(self, rng):
        # the matrix map reverses composition order: u(p*q) = u(q) u(p)
        for _ in range(50):
            p, q = random_rotor(rng), random_rotor(rng)
            a, b = quat_mul((p.alpha, p.beta), (q.alpha, q.beta))
            direct = rotor_matrix(a, b)
            composed = matrix(q) @ matrix(p)
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
            assert rl.is_special_orthogonal(matrix(random_rotor(rng)), 1e-12)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            rl.is_special_orthogonal(np.eye(3), 0.0)

    def test_nan_tol(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            rl.is_special_orthogonal(np.eye(3), np.nan)


class TestMatrixToRotor:
    def test_roundtrip_random(self, rng):
        for _ in range(300):
            r = random_rotor(rng)
            a, b = rl.matrix_to_rotor(matrix(r))
            # recovery is up to overall sign
            dot = a * r.alpha + b @ r.beta
            assert abs(abs(dot) - 1.0) <= 1e-10

    def test_near_zero_alpha_branch(self):
        r = rl.make_rotor([0.6, 0.0, 0.8], +1)  # alpha exactly 0
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
        assert np.abs(parts.recompose() - m).max() <= 1e-14 * scale
        assert np.array_equal(parts.antisym_part, -parts.antisym_part.T)
        assert np.array_equal(parts.sym_traceless_part, parts.sym_traceless_part.T)
        assert abs(np.trace(parts.sym_traceless_part)) <= 1e-14 * scale

    @given(unit_rotors(max_rows=12))
    def test_align_rotor_signs_gives_non_negative_steps(self, q):
        alpha, beta = align_rotor_signs(q[:, 0], q[:, 1:])
        out = np.concatenate([alpha[:, None], beta], axis=1)
        assert np.all(np.einsum("ni,ni->n", out[1:], out[:-1]) >= 0.0)
        # each sample keeps its rotation: it is the input or its negative
        assert all(np.array_equal(o, x) or np.array_equal(o, -x) for o, x in zip(out, q))

    @given(arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)), st.floats(0.01, 1.0),
           arrays(np.float64, 16, elements=st.sampled_from([-1.0, 1.0])))
    def test_align_rotor_signs_recovers_a_smooth_path(self, axis, step, signs):
        # a rotation about a fixed axis, sampled every `step` radians, with random sign flips
        norm = np.linalg.norm(axis)
        axis = axis / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
        theta = step * np.arange(16)
        path = np.concatenate([np.cos(theta)[:, None], np.sin(theta)[:, None] * axis], axis=1)
        alpha, beta = align_rotor_signs(signs * path[:, 0], signs[:, None] * path[:, 1:])
        out = np.concatenate([alpha[:, None], beta], axis=1)
        assert np.array_equal(out, signs[0] * path)
