"""The hand-contracted tensor kernels against their Levi-Civita einsum forms.

Each oracle below is the dense einsum against ``LEVI_CIVITA`` (or the
per-point loop) that the library kernel replaces.  Kernels must agree with
them to 1e-12 relative to the largest entry on seeded batches from three
sources: points of ``random_smooth_field``, an ordered two-factor
``ProductField``, and the central-difference ``grid_field_point`` batch.
The field-equation residual and its closed-form contractions are checked
against the unfused ``d_k A_lm`` and ``G`` on those batches and on two with
time blocks: a travelling ``AnalyticRotorField`` and a hedgehog with
``wdot``.  The rotor-extraction kernels must reproduce their loops bit for
bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rotelast as rl
from rotelast.field_equations import _axial, _coupling, _d_nye, _nye_divergences
from rotelast.so3 import (LEVI_CIVITA, align_rotor_signs, eps_ddot, eps_dot, matrix_to_rotor,
                          rotor_matrix)

REL = 1e-12


def assert_close(new, oracle):
    new, oracle = np.asarray(new), np.asarray(oracle)
    assert new.shape == oracle.shape
    assert np.abs(new - oracle).max() <= REL * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# oracles: the einsum forms and loops the kernels replace


def eps_triple_trace_oracle(m):
    return np.einsum("ijk,...iab,...jbc,...kca->...", LEVI_CIVITA, m, m, m)


def charge_density_oracle(field, x):
    u, du = field.u_and_du(x)
    m = np.einsum("...ia,...jak->...kij", u, du)
    return np.einsum("ijk,...iab,...jbc,...kca->...", LEVI_CIVITA, m, m, m) / (96.0 * np.pi**2)


def du_oracle(alpha, beta, d_alpha, d_beta):
    eye = np.eye(3)
    bdb = np.einsum("...l,...lk->...k", beta, d_beta)
    term_tr = -4.0 * np.einsum("...k,ij->...ijk", bdb, eye)
    term_bb = 2.0 * (np.einsum("...ik,...j->...ijk", d_beta, beta)
                     + np.einsum("...i,...jk->...ijk", beta, d_beta))
    term_eps = 2.0 * (np.einsum("...k,ijm,...m->...ijk", d_alpha, LEVI_CIVITA, beta)
                      + np.einsum("...,ijm,...mk->...ijk", alpha, LEVI_CIVITA, d_beta))
    return term_tr + term_bb + term_eps


def d_nye_oracle(fp):
    return 2.0 * (
        np.einsum("lij,...ik,...jm->...lmk", LEVI_CIVITA, fp.d_beta, fp.d_beta)
        + np.einsum("lij,...i,...jmk->...lmk", LEVI_CIVITA, fp.beta, fp.dd_beta)
        + np.einsum("...lk,...m->...lmk", fp.d_beta, fp.d_alpha)
        + np.einsum("...l,...km->...lmk", fp.beta, fp.dd_alpha)
        - np.einsum("...k,...lm->...lmk", fp.d_alpha, fp.d_beta)
        - np.einsum("...,...lkm->...lmk", fp.alpha, fp.dd_beta)
    )


def g_space_oracle(fp):
    dab = fp.d_alpha[..., None, :] * fp.beta[..., :, None] + fp.alpha[..., None, None] * fp.d_beta
    return (np.einsum("jil,...lk->...kji", LEVI_CIVITA, dab)
            + np.einsum("...i,...jk->...kji", fp.beta, fp.d_beta)
            - np.einsum("...j,...ik->...kji", fp.beta, fp.d_beta))


def g_time_oracle(fp):
    dab = fp.dt_alpha[..., None] * fp.beta + fp.alpha[..., None] * fp.dt_beta
    return (np.einsum("jil,...l->...ji", LEVI_CIVITA, dab)
            + np.einsum("...i,...j->...ji", fp.beta, fp.dt_beta)
            - np.einsum("...j,...i->...ji", fp.beta, fp.dt_beta))


def g_tensor_time(fp):
    """Time block ``G_tj^i = eps_jil w_l``, ``w = d_t(alpha beta) - beta x d_t beta``, from the
    library's axial form ``w = 2 beta d_t alpha - A_t / 2``; index order ``[..., j, i]``."""
    return eps_dot(_axial(fp.beta, fp.dt_alpha[..., None], rl.nye_velocity_vector(fp)[..., None])[..., 0])


def residual_oracle(fp, m):
    """The G-form residual from the full ``d_k A_lm`` and ``G`` tensors."""
    h_t, h_s = rl.h_tensors(rl.nye_matrix(fp), rl.nye_velocity_vector(fp), m)
    d_nye = _d_nye(fp)  # [..., l, m, k] = d_k A_lm
    div_h = 2.0 * m.lambda1 * np.einsum("...llk->...k", d_nye) + m.lambda2 * (
        np.einsum("...ikk->...i", d_nye) - np.einsum("...kik->...i", d_nye))
    # d_t A_lt: the first-derivative cross terms cancel
    dt_a_t = 2.0 * (np.einsum("lij,...i,...j->...l", LEVI_CIVITA, fp.beta, fp.dtt_beta)
                    + fp.beta * fp.dtt_alpha[..., None] - fp.alpha[..., None] * fp.dtt_beta)
    coupling = 2.0 * (np.einsum("...j,...ji->...i", h_t, g_tensor_time(fp))
                      - np.einsum("...jk,...kji->...i", h_s, rl.g_tensor_space(fp)))
    return 2.0 * dt_a_t - div_h + coupling


def nye_oracle(fp):
    return 2.0 * (np.einsum("lij,...i,...jk->...lk", LEVI_CIVITA, fp.beta, fp.d_beta)
                  + np.einsum("...l,...k->...lk", fp.beta, fp.d_alpha)
                  - fp.alpha[..., None, None] * fp.d_beta)


def nye_velocity_oracle(fp):
    return 2.0 * (np.einsum("lij,...i,...j->...l", LEVI_CIVITA, fp.beta, fp.dt_beta)
                  + fp.beta * fp.dt_alpha[..., None] - fp.alpha[..., None] * fp.dt_beta)


def product_u_and_du_oracle(field, x):
    pairs = [f.u_and_du(x) for f in field.factors]
    u = pairs[0][0]
    for v, _ in pairs[1:]:
        u = u @ v
    terms = []
    for m, (_, du) in enumerate(pairs):
        for v, _ in reversed(pairs[:m]):
            du = np.einsum("...ia,...ajk->...ijk", v, du)
        for v, _ in pairs[m + 1:]:
            du = np.einsum("...iak,...aj->...ijk", du, v)
        terms.append(du)
    return u, sum(terms)


def matrix_to_rotor_oracle(u):
    u = np.asarray(u, dtype=float)
    tr = np.trace(u, axis1=-2, axis2=-1)
    a2 = np.clip((1.0 + tr) / 4.0, 0.0, 1.0)
    b2 = np.clip((1.0 + 2.0 * np.einsum("...ii->...i", u) - tr[..., None]) / 4.0, 0.0, 1.0)
    skew = 0.5 * np.einsum("kij,...ij->...k", LEVI_CIVITA, u)
    sym = 0.5 * (u + np.swapaxes(u, -1, -2))
    pivot = np.argmax(np.concatenate([a2[..., None], b2], axis=-1), axis=-1)
    alpha = np.empty(u.shape[:-2])
    beta = np.empty(u.shape[:-2] + (3,))
    flat_a, flat_b = alpha.reshape(-1), beta.reshape(-1, 3)
    flat_skew, flat_sym = skew.reshape(-1, 3), sym.reshape(-1, 3, 3)
    flat_a2, flat_b2 = a2.reshape(-1), b2.reshape(-1, 3)
    for n, p in enumerate(pivot.reshape(-1)):
        if p == 0:
            a = np.sqrt(flat_a2[n])
            b = flat_skew[n] / (2.0 * a)
        else:
            i = p - 1
            b = np.empty(3)
            b[i] = np.sqrt(flat_b2[n, i])
            for j in range(3):
                if j != i:
                    b[j] = flat_sym[n, i, j] / (2.0 * b[i])
            a = flat_skew[n, i] / (2.0 * b[i]) if abs(b[i]) > 0 else 0.0
            if a < 0.0:
                a, b = -a, -b
        flat_a[n] = a
        flat_b[n] = b
    return alpha, beta


def align_rotor_signs_oracle(alpha, beta):
    alpha = np.array(alpha, dtype=float)
    beta = np.array(beta, dtype=float)
    flat_a, flat_b = alpha.reshape(-1), beta.reshape(-1, 3)
    for n in range(1, flat_a.size):
        if flat_a[n] * flat_a[n - 1] + flat_b[n] @ flat_b[n - 1] < 0.0:
            flat_a[n] = -flat_a[n]
            flat_b[n] = -flat_b[n]
    return alpha, beta


def same_bits(new, oracle):
    return all(np.asarray(a).shape == np.asarray(b).shape
               and np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(new, oracle))


# ---------------------------------------------------------------------------
# seeded inputs


def tanh_core(scale):
    return rl.HedgehogField(lambda r: np.pi / 2 - np.pi * np.tanh(r / scale),
                            lambda r: -np.pi / scale / np.cosh(r / scale) ** 2,
                            lambda r: 2 * np.pi / scale**2 * np.tanh(r / scale) / np.cosh(r / scale) ** 2)


@pytest.fixture(scope="module")
def smooth_batch():
    field = rl.random_smooth_field(seed=11)
    x = np.random.default_rng(101).uniform(-1.6, 1.6, size=(400, 3))
    return field, x, field.field_point(x)


@pytest.fixture(scope="module")
def two_core_product():
    rng = np.random.default_rng(102)
    centres = np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]]) + rng.uniform(-0.5, 0.5, size=(2, 3))
    field = rl.ProductField([rl.TranslatedField(tanh_core(0.8), c) for c in centres])
    return field, rng.uniform(-8.0, 8.0, size=(500, 3))


@pytest.fixture(scope="module")
def grid_batch():
    grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=12), dims=(9, 10, 11),
                                   spacing=0.25, origin=(-1.0, -1.1, -1.2))
    return rl.grid_field_point(grid)


def travelling_field(seed, amplitude=0.3, n_modes=3):
    """Superposed travelling waves ``beta = sum_m a e_m sin(k_m . x - om_m t + phi_m)``."""
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=(n_modes, 3))
    es = rng.normal(size=(n_modes, 3))
    es *= amplitude / np.linalg.norm(es, axis=1, keepdims=True) / n_modes
    oms, phis = rng.uniform(0.5, 2.0, size=(2, n_modes))

    def phase(x, t):
        return x @ ks.T - oms * t + phis  # [..., m]

    return rl.AnalyticRotorField(
        beta=lambda x, t: np.sin(phase(x, t)) @ es,
        d_beta=lambda x, t: np.einsum("...m,ml,mk->...lk", np.cos(phase(x, t)), es, ks),
        dd_beta=lambda x, t: np.einsum("...m,ml,mj,mk->...ljk", -np.sin(phase(x, t)), es, ks, ks),
        dt_beta=lambda x, t: (-oms * np.cos(phase(x, t))) @ es,
        dtt_beta=lambda x, t: (-oms**2 * np.sin(phase(x, t))) @ es,
    )


def breathing_hedgehog():
    """Hedgehog snapshot with a nonzero ``wdot``."""
    return rl.HedgehogField(lambda r: np.sin(r) * np.exp(-r / 3),
                            lambda r: (np.cos(r) - np.sin(r) / 3) * np.exp(-r / 3),
                            lambda r: (-np.sin(r) * 8 / 9 - np.cos(r) * 2 / 3) * np.exp(-r / 3),
                            wdot=lambda r: 0.7 * np.cos(r))


@pytest.fixture(scope="module")
def residual_batches(smooth_batch, grid_batch):
    x = np.random.default_rng(105).uniform(-3.0, 3.0, size=(400, 3))
    return {"smooth": smooth_batch[2],
            "travelling": travelling_field(seed=13).field_point(x, 0.3),
            "hedgehog": breathing_hedgehog().field_point(x),
            "grid": grid_batch}


def with_time_blocks(fp, seed):
    """The same batch with seeded time derivatives kept tangent to the unit constraint."""
    rng = np.random.default_rng(seed)
    dtb, dttb = rng.normal(size=(2,) + fp.beta.shape)
    return rl.FieldPoint(alpha=fp.alpha, beta=fp.beta, d_beta=fp.d_beta, d_alpha=fp.d_alpha,
                         dt_beta=dtb, dt_alpha=-np.einsum("...l,...l->...", fp.beta, dtb) / fp.alpha,
                         dd_beta=fp.dd_beta, dd_alpha=fp.dd_alpha, dtt_beta=dttb,
                         dtt_alpha=rng.normal(size=fp.alpha.shape))


# ---------------------------------------------------------------------------


class TestEpsContractions:
    def test_eps_dot_every_axis(self):
        v = np.random.default_rng(1).normal(size=(4, 3, 5))
        assert np.array_equal(eps_dot(v, axis=1), np.einsum("ijm,amb->aijb", LEVI_CIVITA, v))
        assert np.array_equal(eps_dot(v, axis=-2), np.einsum("ijm,amb->aijb", LEVI_CIVITA, v))
        w = np.moveaxis(v, 1, -1)
        assert np.array_equal(eps_dot(w), np.einsum("ijm,...m->...ij", LEVI_CIVITA, w))

    def test_eps_ddot(self):
        w = np.random.default_rng(2).normal(size=(6, 2, 3, 3))
        assert np.array_equal(eps_ddot(w), np.einsum("lij,...ij->...l", LEVI_CIVITA, w))


class TestChargeDensityKernel:
    def test_smooth_field(self, smooth_batch):
        field, x, _ = smooth_batch
        assert_close(rl.charge_density(field, x), charge_density_oracle(field, x))

    def test_two_core_product(self, two_core_product):
        field, x = two_core_product
        assert_close(rl.charge_density(field, x), charge_density_oracle(field, x))

    @settings(max_examples=60)
    @given(arrays(np.float64, st.tuples(st.integers(1, 6), st.just(3), st.just(3)),
                  elements=st.floats(-10.0, 10.0)))
    def test_triple_trace_identity_for_any_matrices(self, a):
        # with M_k = eps_dot(A_{.k}), eps^ijk tr(M_i M_j M_k) = 6 det A for any 3x3 A
        m = np.moveaxis(eps_dot(a, axis=-2), -1, -3)  # m[..., k, :, :] = M_k
        scale = max(1.0, float(np.max(np.abs(a))) ** 3)
        assert np.abs(eps_triple_trace_oracle(m) - 6.0 * np.linalg.det(a)).max() <= REL * scale


class TestFieldKernels:
    def test_du_from_blocks_smooth_field(self, smooth_batch):
        # u_and_du takes the gradient from the Nye tensor; the oracle is the chain rule
        field, x, fp = smooth_batch
        assert_close(field.u_and_du(x)[1], du_oracle(fp.alpha, fp.beta, fp.d_alpha, fp.d_beta))

    def test_product_u_and_du(self, two_core_product):
        field, x = two_core_product
        u, du = field.u_and_du(x)
        u_ref, du_ref = product_u_and_du_oracle(field, x)
        assert_close(u, u_ref)
        assert_close(du, du_ref)

    def test_three_factor_product_u_and_du(self, two_core_product):
        field, x = two_core_product
        rot = rl.ConstantField(rl.make_rotor([0.3, -0.2, 0.5], sign=-1))
        three = rl.ProductField([field.factors[0], rot, field.factors[1]])
        u, du = three.u_and_du(x)
        u_ref, du_ref = product_u_and_du_oracle(three, x)
        assert_close(u, u_ref)
        assert_close(du, du_ref)


@pytest.mark.parametrize("source", ["smooth", "grid"])
class TestNyeKernels:
    @pytest.fixture()
    def fp(self, source, smooth_batch, grid_batch):
        return with_time_blocks(smooth_batch[2] if source == "smooth" else grid_batch, seed=7)

    def test_d_nye(self, fp):
        assert_close(_d_nye(fp), d_nye_oracle(fp))

    def test_g_tensor_space(self, fp):
        assert_close(rl.g_tensor_space(fp), g_space_oracle(fp))

    def test_g_tensor_time(self, fp):
        assert_close(g_tensor_time(fp), g_time_oracle(fp))

    def test_nye_matrix(self, fp):
        assert_close(rl.nye_matrix(fp), nye_oracle(fp))

    def test_nye_velocity_vector(self, fp):
        assert_close(rl.nye_velocity_vector(fp), nye_velocity_oracle(fp))


@pytest.mark.parametrize("source", ["smooth", "travelling", "hedgehog", "grid"])
class TestResidualKernel:
    @pytest.fixture()
    def fp(self, source, residual_batches):
        return residual_batches[source]

    def test_time_blocks_present(self, source, fp):
        moving = np.abs(fp.dt_beta).max() > 0 and np.abs(fp.dtt_beta).max() > 0
        assert moving == (source in ("travelling", "hedgehog"))

    @pytest.mark.parametrize("couplings", [(1.0, 1.0), (0.4, 2.3)])
    def test_residual_eqs2_at(self, fp, couplings):
        m = rl.Moduli.from_couplings(*couplings)
        assert_close(rl.residual_eqs2_at(fp, m), residual_oracle(fp, m))

    def test_row_divergence(self, fp):
        assert_close(_nye_divergences(fp)[0], np.einsum("...ikk->...i", _d_nye(fp)))

    def test_column_divergence(self, fp):
        assert_close(_nye_divergences(fp)[1], np.einsum("...kik->...i", _d_nye(fp)))

    def test_trace_gradient(self, fp):
        assert_close(_nye_divergences(fp)[2], np.einsum("...llk->...k", _d_nye(fp)))

    def test_coupling(self, fp):
        # any H, not only the Lagrangian's: the identity is G = eps w
        rng = np.random.default_rng(106)
        h_t, h_s = rng.normal(size=fp.beta.shape), rng.normal(size=fp.d_beta.shape)
        oracle = (np.einsum("...j,...ji->...i", h_t, g_tensor_time(fp))
                  - np.einsum("...jk,...kji->...i", h_s, rl.g_tensor_space(fp)))
        assert_close(_coupling(fp, rl.nye_matrix(fp), rl.nye_velocity_vector(fp), h_t, h_s), oracle)


class TestRotorExtraction:
    # exact rotations with tied pivots and alpha = 0: the identity, pi about x
    # and about (1, 1, 0)/sqrt 2 (alpha = 0, tie between beta_x and beta_y),
    # pi/2 about z (alpha^2 = beta_z^2) and 2 pi/3 about (1, 1, 1) (four-way tie)
    EXACT = np.array([
        np.eye(3),
        np.diag([1.0, -1.0, -1.0]),
        [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ])

    def test_exact_rotations_with_ties_and_zero_alpha(self):
        u = np.concatenate([self.EXACT, np.swapaxes(self.EXACT, -1, -2)])
        assert same_bits(matrix_to_rotor(u), matrix_to_rotor_oracle(u))

    def test_random_and_zero_alpha_rotors(self):
        rng = np.random.default_rng(103)
        b = rng.normal(size=(300, 3))
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        scale = rng.uniform(0.0, 1.0, size=300)
        scale[::3] = 1.0  # |beta| = 1: alpha = 0
        beta = b * scale[:, None]
        alpha = np.sqrt(1.0 - scale**2) * rng.choice([-1.0, 1.0], size=300)
        u = rotor_matrix(alpha, beta).reshape(20, 15, 3, 3)
        assert same_bits(matrix_to_rotor(u), matrix_to_rotor_oracle(u))

    def test_product_field_grid(self, two_core_product):
        field, x = two_core_product
        u = field.u(x.reshape(10, 50, 3))
        assert same_bits(matrix_to_rotor(u), matrix_to_rotor_oracle(u))

    def test_align_signs_random_flips(self, two_core_product):
        field, _ = two_core_product
        line = np.linspace(-7.0, 7.0, 400)[:, None] * np.array([1.0, 0.1, -0.05])
        alpha, beta = field.alpha_beta(line)
        flip = np.random.default_rng(104).choice([-1.0, 1.0], size=400)
        alpha, beta = alpha * flip, beta * flip[:, None]
        assert same_bits(align_rotor_signs(alpha, beta), align_rotor_signs_oracle(alpha, beta))

    def test_align_signs_restart_at_zero_dot(self):
        # consecutive orthogonal 4-vectors have a zero dot product: the loop keeps the sample
        q = np.array([[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, -1, 0, 0], [0, -1, 0, 0],
                      [0, 0, 0, 1], [0, 0, 0, -1], [0.6, 0, -0.8, 0], [-0.6, 0, 0.8, 0]], dtype=float)
        alpha, beta = q[:, 0].reshape(3, 3), q[:, 1:].reshape(3, 3, 3)
        new = align_rotor_signs(alpha, beta)
        assert same_bits(new, align_rotor_signs_oracle(alpha, beta))
        assert new[0].shape == (3, 3) and new[1].shape == (3, 3, 3)

    def test_align_signs_single_sample(self):
        assert same_bits(align_rotor_signs(-0.5, [0.5, 0.5, -0.5]),
                         align_rotor_signs_oracle(-0.5, [0.5, 0.5, -0.5]))
