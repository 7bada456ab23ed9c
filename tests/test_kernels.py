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
bit, and every kernel that takes a cross product with ``so3._cross`` must
reproduce its ``np.cross`` form bit for bit.  The component-first residual
kernels and ``grid_field_point`` must reproduce the batch-first chain kept
below bit for bit, and each hand-written sum the order of the NumPy
reduction it replaced.  So must the component-first kinematics:
``rotor_matrix``, ``matrix_to_rotor``, ``nye_fd_grid`` and the identity
check against their batch-first forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, mutually_broadcastable_shapes

import rotelast as rl
from rotelast.field_equations import _axial, _coupling, _d_nye, _nye_divergences
from rotelast.fields import _components_first
from rotelast.kinematics import _central_diff, _identity_residual, _shifted, _sym_traceless, _trace_skew
from rotelast.so3 import _bl, _cf, _cross, _dot, _norm2, eps_dot, matrix_to_rotor, rotor_matrix

from conftest import LEVI_CIVITA, ConstantField, eps_ddot, make_rotor

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
    p = _components_first(fp)
    return eps_dot(_bl(_axial(p.beta, p.dt_alpha[None], _cf(rl.nye_velocity_vector(fp))[:, None])[:, 0]))


def nye_divergences(fp):
    """The library's row divergence, column divergence and trace gradient, ``[..., i]``."""
    return tuple(_bl(x) for x in _nye_divergences(_components_first(fp)))


def coupling(fp, a, a_t, h_t, h_s):
    """The library's coupling term for batch-first arguments, ``[..., i]``."""
    return _bl(_coupling(_components_first(fp), _cf(a, 2), _cf(a_t), _cf(h_t), _cf(h_s, 2)))


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


def nye_bracket_np_cross(alpha, beta, d_alpha, d_beta):
    return 2.0 * (np.cross(beta[..., :, None], d_beta, axis=-2) + beta[..., :, None] * d_alpha[..., None, :]
                  - alpha[..., None, None] * d_beta)


def nye_np_cross(fp):
    return nye_bracket_np_cross(fp.alpha, fp.beta, fp.d_alpha, fp.d_beta)


def nye_velocity_np_cross(fp):
    return nye_bracket_np_cross(fp.alpha, fp.beta, fp.dt_alpha[..., None], fp.dt_beta[..., None])[..., 0]


# the batch-first residual chain that the component-first kernels replace, np.cross for so3._cross


def axial_batch_first(beta, d_alpha, a):
    return 2.0 * beta[..., :, None] * d_alpha[..., None, :] - 0.5 * a


def h_tensors_batch_first(a, a_t, m):
    tr, skew = np.trace(a, axis1=-2, axis2=-1), 0.5 * (a - np.swapaxes(a, -1, -2))
    return 2.0 * a_t, 2.0 * m.lambda1 * tr[..., None, None] * np.eye(3) + 2.0 * m.lambda2 * skew


def nye_divergences_batch_first(fp):
    a, b, da, db, dda, ddb = fp.alpha, fp.beta, fp.d_alpha, fp.d_beta, fp.dd_alpha, fp.dd_beta
    lap_alpha = np.trace(dda, axis1=-2, axis2=-1)
    lap_beta = np.einsum("...ljj->...l", ddb)
    row = nye_bracket_np_cross(a, b, lap_alpha[..., None], lap_beta[..., None])[..., 0]
    div = np.trace(db, axis1=-2, axis2=-1)
    curl = eps_ddot(np.swapaxes(db, -1, -2))
    d_curl = eps_ddot(np.swapaxes(ddb, -1, -3))
    hess = 2.0 * (
        np.einsum("...k,...ki->...i", b, dda)
        - np.einsum("...n,...in->...i", b, d_curl)
        - a[..., None] * np.einsum("...lli->...i", ddb)
    )
    first = 2.0 * (np.einsum("...l,...li->...i", curl - da, db) + div[..., None] * da)
    return row, hess + first, hess - first


def coupling_batch_first(fp, a, a_t, h_t, h_s):
    w_t = axial_batch_first(fp.beta, fp.dt_alpha[..., None], a_t[..., None])[..., 0]
    w_s = axial_batch_first(fp.beta, fp.d_alpha, a)
    return np.cross(w_t, h_t) - np.cross(w_s, h_s, axis=-2).sum(axis=-1)


def residual_np_cross(fp, m):
    """``residual_eqs2_at`` as the batch-first chain, with ``np.cross`` for every cross product."""
    a, a_t = nye_np_cross(fp), nye_velocity_np_cross(fp)
    h_t, h_s = h_tensors_batch_first(a, a_t, m)
    row, col, d_tr = nye_divergences_batch_first(fp)
    dt_a_t = nye_bracket_np_cross(fp.alpha, fp.beta, fp.dtt_alpha[..., None], fp.dtt_beta[..., None])[..., 0]
    div_h = 2.0 * m.lambda1 * d_tr + m.lambda2 * (row - col)
    return 2.0 * dt_a_t - div_h + 2.0 * coupling_batch_first(fp, a, a_t, h_t, h_s)


def central_diff2(arr, ax1, ax2, h, margin):
    """Second-order central ``d_ax1 d_ax2``: three-point stencil on the diagonal, four-point cross
    stencil off it; layout as ``kinematics._central_diff``."""
    e1, e2 = np.eye(3, dtype=int)[[ax1, ax2]]
    if ax1 == ax2:
        return (_shifted(arr, margin, e1) - 2 * _shifted(arr, margin, (0, 0, 0))
                + _shifted(arr, margin, -e1)) / (h * h)
    return (_shifted(arr, margin, e1 + e2) - _shifted(arr, margin, e1 - e2)
            - _shifted(arr, margin, e2 - e1) + _shifted(arr, margin, -e1 - e2)) / (4 * h * h)


def grid_field_point_batch_first(grid):
    """``grid_field_point`` with batch-first blocks: each stencil along the trailing axes."""
    h, margin = grid.spacing, 2
    shp = tuple(n - 2 * margin for n in grid.dims)

    def blocks(arr):
        d = np.empty(shp + arr.shape[3:] + (3,))
        dd = np.empty(shp + arr.shape[3:] + (3, 3))
        for j in range(3):
            d[..., j] = _central_diff(arr, j, h, margin)
            for k in range(j, 3):
                block = central_diff2(arr, j, k, h, margin)
                dd[..., j, k] = block
                if k != j:
                    dd[..., k, j] = block
        return d, dd

    d_alpha, dd_alpha = blocks(grid.alpha)
    d_beta, dd_beta = blocks(grid.beta)
    zero_v, zero_s = np.zeros(shp + (3,)), np.zeros(shp)
    c = (slice(margin, -margin),) * 3
    return rl.FieldPoint(alpha=grid.alpha[c], beta=grid.beta[c], d_beta=d_beta, d_alpha=d_alpha, dt_beta=zero_v,
                         dt_alpha=zero_s, dd_beta=dd_beta, dd_alpha=dd_alpha, dtt_beta=zero_v.copy(),
                         dtt_alpha=zero_s.copy())


# the batch-first kinematics that the component-first kernels replace: loops over the 3-entry axes


def rotor_matrix_batch_first(alpha, beta):
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    b2 = 0.0 + (beta[..., 0] * beta[..., 0] + beta[..., 2] * beta[..., 2]) + beta[..., 1] * beta[..., 1]  # any layout
    return ((1.0 - 2.0 * b2)[..., None, None] * np.eye(3) + 2.0 * beta[..., :, None] * beta[..., None, :]
            + 2.0 * alpha[..., None, None] * eps_dot(beta))


def matrix_to_rotor_batch_first(u):
    u = np.asarray(u, dtype=float)
    tr = np.trace(u, axis1=-2, axis2=-1)
    quads = np.clip(np.concatenate([(1.0 + tr)[..., None],
                                    1.0 + 2.0 * np.einsum("...ii->...i", u) - tr[..., None]],
                                   axis=-1) / 4.0, 0.0, 1.0)
    products = np.zeros(u.shape[:-2] + (4, 4))
    products[..., 0, 1:] = products[..., 1:, 0] = 0.5 * eps_ddot(u)
    products[..., 1:, 1:] = 0.5 * (u + np.swapaxes(u, -1, -2))
    pivot = np.argmax(quads, axis=-1)[..., None]
    q_pivot = np.sqrt(np.take_along_axis(quads, pivot, axis=-1))
    q = np.take_along_axis(products, pivot[..., None], axis=-2)[..., 0, :] / (2.0 * q_pivot)
    np.put_along_axis(q, pivot, q_pivot, axis=-1)
    q = np.where(q[..., :1] < 0.0, -q, q)
    return q[..., 0], q[..., 1:]


def nye_fd_grid_batch_first(grid):
    u = rotor_matrix_batch_first(grid.alpha, grid.beta)
    core = u[1:-1, 1:-1, 1:-1]
    a = np.empty(core.shape[:3] + (3, 3))
    for k in range(3):
        du = _central_diff(u, k, grid.spacing)
        dot = lambda i, j: np.einsum("...a,...a->...", core[..., i, :], du[..., j, :])
        for l, m, n in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            a[..., l, k] = 0.5 * (dot(m, n) - dot(n, m))
    return a


def identity_residual_batch_first(grid):
    a = nye_fd_grid_batch_first(grid)
    t = a - np.trace(a, axis1=-2, axis2=-1)[..., None, None] * np.eye(3)
    tau = np.trace(t, axis1=-2, axis2=-1)
    s = 0.5 * (t - np.swapaxes(t, -1, -2))
    d = 0.5 * (t + np.swapaxes(t, -1, -2)) - (tau / 3.0)[..., None, None] * np.eye(3)
    div_v = sum(_central_diff(eps_ddot(t), k, grid.spacing)[..., k] for k in range(3))
    c = (slice(1, -1),) * 3
    lhs = np.einsum("...ij,...ij->...", d, d)[c]
    rhs = (np.einsum("...ij,...ij->...", s, s) + tau * tau / 6.0)[c] + 2.0 * div_v
    return float(np.abs(lhs - rhs).max())


def field_nye_np_cross(field, x):
    """``field.nye(x)`` with ``np.cross`` in the Nye bracket; a two-factor product by the product rule."""
    if not isinstance(field, rl.ProductField):
        return nye_np_cross(field.field_point(x, order=1))
    first, last = field.factors
    fp = first.field_point(x, order=1)
    return nye_np_cross(fp) + rotor_matrix(fp.alpha, fp.beta) @ field_nye_np_cross(last, x)


def charge_density_np_cross(field, x):
    a_x, a_y, a_z = np.moveaxis(field_nye_np_cross(field, x), -1, 0)
    val = 1.0 / (16.0 * np.pi**2) * np.einsum("...i,...i->...", a_x, np.cross(a_y, a_z))
    return float(val) if val.ndim == 0 else val


def u_and_du_np_cross(field, x):
    fp = field.field_point(x, order=1)
    u, a = rotor_matrix(fp.alpha, fp.beta), nye_np_cross(fp)
    return u, np.cross(a[..., :, None, :], u[..., :, :, None], axis=-3)


def cross_along(a, b, axis=-1):
    """``so3._cross`` of batch-first operands along ``axis``, as ``np.cross`` takes them."""
    a, b = np.broadcast_arrays(a, b)
    return np.moveaxis(_cross(np.moveaxis(a, axis, 0), np.moveaxis(b, axis, 0)), 0, axis)


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


def travelling_field(seed, t, amplitude=0.3, n_modes=3):
    """Superposed travelling waves ``beta = sum_m a e_m sin(k_m . x - om_m t + phi_m)`` at time t."""
    rng = np.random.default_rng(seed)
    ks = rng.normal(size=(n_modes, 3))
    es = rng.normal(size=(n_modes, 3))
    es *= amplitude / np.linalg.norm(es, axis=1, keepdims=True) / n_modes
    oms, phis = rng.uniform(0.5, 2.0, size=(2, n_modes))

    def phase(x):
        return x @ ks.T - oms * t + phis  # [..., m]

    return rl.AnalyticRotorField(
        beta=lambda x: np.sin(phase(x)) @ es,
        d_beta=lambda x: np.einsum("...m,ml,mk->...lk", np.cos(phase(x)), es, ks),
        dd_beta=lambda x: np.einsum("...m,ml,mj,mk->...ljk", -np.sin(phase(x)), es, ks, ks),
        dt_beta=lambda x: (-oms * np.cos(phase(x))) @ es,
        dtt_beta=lambda x: (-oms**2 * np.sin(phase(x))) @ es,
    )


def breathing_hedgehog():
    """Hedgehog snapshot with a nonzero ``wdot``."""
    return rl.HedgehogField(lambda r: np.sin(r) * np.exp(-r / 3),
                            lambda r: (np.cos(r) - np.sin(r) / 3) * np.exp(-r / 3),
                            lambda r: (-np.sin(r) * 8 / 9 - np.cos(r) * 2 / 3) * np.exp(-r / 3),
                            wdot=lambda r: 0.7 * np.cos(r))


def plane_zero_hedgehog():
    """Hedgehog with ``g = cos(w) / r = -r^3`` on r < 1: ``g' < 0`` and ``g''/r - g'/r^2 < 0``, so on a
    coordinate plane all four terms of some off-diagonal ``dd_beta`` entries are -0.0."""
    return rl.HedgehogField(lambda r: np.arccos(-r**4), lambda r: 4 * r**3 / np.sqrt(1 - r**8),
                            lambda r: (12 * r**2 * (1 - r**8) + 16 * r**10) / (1 - r**8) ** 1.5)


def hedgehog_second_order_einsum(field, x):
    """Oracle: ``HedgehogField``'s ``dd_beta``, ``dd_alpha`` and ``dtt_beta`` built batch first, the
    four ``dd_beta`` terms by ``np.einsum``, which adds each product to a zeroed output."""
    r = np.sqrt(np.einsum("...i,...i->...", x, x))
    w, wp, wpp = field.w(r), field.wp(r), field.wpp(r)
    wd = np.zeros(r.shape) if field.wdot is None else field.wdot(r)
    c, s, eye, xhat = np.cos(w), np.sin(w), np.eye(3), x / r[..., None]
    cp = -s * wp
    gp = cp / r - c / r**2
    gpp = (-c * wp * wp - s * wpp) / r - 2.0 * cp / r**2 + 2.0 * c / r**3
    dd_beta = (np.einsum("...,lk,...j->...ljk", gp, eye, xhat)
               + np.einsum("...,lj,...k->...ljk", gp / r, eye, x)
               + np.einsum("...,jk,...l->...ljk", gp / r, eye, x)
               + np.einsum("...,...l,...k,...j->...ljk", gpp / r - gp / r**2, x, x, xhat))
    xx = xhat[..., :, None] * xhat[..., None, :]
    dd_alpha = ((-s * wp * wp + c * wpp)[..., None, None] * xhat[..., :, None] * xhat[..., None, :]
                + (c * wp / r)[..., None, None] * (eye - xx))
    return dd_beta, dd_alpha, -xhat * (c * wd * wd)[..., None]


@pytest.fixture(scope="module")
def residual_batches(smooth_batch, grid_batch):
    x = np.random.default_rng(105).uniform(-3.0, 3.0, size=(400, 3))
    return {"smooth": smooth_batch[2],
            "travelling": travelling_field(seed=13, t=0.3).field_point(x),
            "hedgehog": breathing_hedgehog().field_point(x),
            "grid": grid_batch}


# coordinates 0.0 and -0.0 next to nonzero ones (never the origin, where a hedgehog raises)
SIGNED_ZERO_POINTS = np.array([[0.0, -0.0, 1.3], [-0.0, 0.7, 0.0], [0.9, 0.0, -0.0], [-0.0, -0.0, -2.1],
                               [0.0, 0.0, 0.4], [-1.7, -0.0, 0.0], [0.0, 2.2, -0.0], [-0.0, -0.6, -0.0]])


@pytest.fixture(scope="module", params=["random", "single", "signed_zeros"])
def cross_points(request):
    """A random batch, one point of shape (3,) and points with signed-zero coordinates."""
    return {"random": np.random.default_rng(107).uniform(-3.0, 3.0, size=(300, 3)),
            "single": np.array([0.4, -1.1, 0.8]), "signed_zeros": SIGNED_ZERO_POINTS}[request.param]


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
        rot = ConstantField(make_rotor([0.3, -0.2, 0.5], sign=-1))
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
        assert_close(nye_divergences(fp)[0], np.einsum("...ikk->...i", _d_nye(fp)))

    def test_column_divergence(self, fp):
        assert_close(nye_divergences(fp)[1], np.einsum("...kik->...i", _d_nye(fp)))

    def test_trace_gradient(self, fp):
        assert_close(nye_divergences(fp)[2], np.einsum("...llk->...k", _d_nye(fp)))

    def test_coupling(self, fp):
        # any H, not only the Lagrangian's: the identity is G = eps w
        rng = np.random.default_rng(106)
        h_t, h_s = rng.normal(size=fp.beta.shape), rng.normal(size=fp.d_beta.shape)
        oracle = (np.einsum("...j,...ji->...i", h_t, g_tensor_time(fp))
                  - np.einsum("...jk,...kji->...i", h_s, rl.g_tensor_space(fp)))
        assert_close(coupling(fp, rl.nye_matrix(fp), rl.nye_velocity_vector(fp), h_t, h_s), oracle)


class TestCrossProductBits:
    """Each kernel that calls ``so3._cross`` gives its ``np.cross`` form's bytes."""

    def test_nye_matrix_and_velocity(self, cross_points):
        fp = breathing_hedgehog().field_point(cross_points, order=1)
        assert np.abs(fp.dt_beta).max() > 0
        assert same_bits((rl.nye_matrix(fp), rl.nye_velocity_vector(fp)),
                         (nye_np_cross(fp), nye_velocity_np_cross(fp)))

    @pytest.mark.parametrize("couplings", [(1.0, 1.0), (0.4, 2.3)])
    def test_residual_eqs2_at(self, cross_points, couplings):
        fp, m = breathing_hedgehog().field_point(cross_points), rl.Moduli.from_couplings(*couplings)
        assert same_bits((rl.residual_eqs2_at(fp, m),), (residual_np_cross(fp, m),))

    def test_charge_density_single_core(self, cross_points):
        field = tanh_core(0.8)
        assert same_bits((rl.charge_density(field, cross_points),),
                         (charge_density_np_cross(field, cross_points),))

    def test_charge_density_two_core_product(self, two_core_product, cross_points):
        field, _ = two_core_product
        x = 2.5 * cross_points  # reaches both cores at +-5 e_x
        assert same_bits((rl.charge_density(field, x),), (charge_density_np_cross(field, x),))

    @pytest.mark.parametrize("make_field", [breathing_hedgehog, lambda: rl.random_smooth_field(seed=11)])
    def test_u_and_du(self, make_field, cross_points):
        field = make_field()
        assert same_bits(field.u_and_du(cross_points), u_and_du_np_cross(field, cross_points))

    @settings(max_examples=150)
    @given(st.data())
    def test_helper_broadcasts_like_np_cross(self, data):
        axis = data.draw(st.sampled_from([-1, -2]))
        shapes = data.draw(mutually_broadcastable_shapes(num_shapes=2, min_dims=1, max_dims=3, max_side=3))
        cut = [len(s) + axis + 1 for s in shapes.input_shapes]
        a, b = (data.draw(arrays(np.float64, s[:c] + (3,) + s[c:], elements=st.floats(width=64)))
                for s, c in zip(shapes.input_shapes, cut))
        with np.errstate(all="ignore"):
            new, oracle = cross_along(a, b, axis=axis), np.cross(a, b, axis=axis)
        # inf, -0.0 and the place of every NaN bit for bit; which payload a NaN result keeps depends
        # on the operand order, which so3._cross does not take from np.cross, so payloads are not compared
        new, oracle = (np.where(np.isnan(v), np.nan, v) for v in (new, oracle))
        assert same_bits((new,), (oracle,))

    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.just(3)), elements=st.floats(-1e150, 1e150)),
           arrays(np.float64, st.tuples(st.just(1), st.just(3)), elements=st.floats(-1e150, 1e150)))
    def test_helper_antisymmetric_and_zero_on_the_diagonal(self, a, b):
        assert np.array_equal(cross_along(a, b), -cross_along(b, a))  # by value: x - x is +0.0, -(x - x) is -0.0
        assert same_bits((cross_along(a, a),), (np.zeros(a.shape),))


class TestComponentFirstBits:
    """The component-first kernels give the bytes of the batch-first chain above.

    ``grid_field_point`` stores its blocks with the component axes first and
    the residual kernels loop along the batch; on batch-first points they read
    strided views.  Each hand-written sum repeats the order in which NumPy
    adds the reduction it replaces (the last test pins those orders).
    """

    @staticmethod
    def residual_3d_grid(field, h):
        """The ``residual_3d`` workload's grid at spacing h, seed-1 sub-cell shift."""
        n = int(np.ceil(2 * (1.5 + 3 * h) / h))
        n += n % 2
        shift = np.random.default_rng(1).uniform(-0.25, 0.25, size=3)
        return rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h, origin=(shift - (n / 2 - 0.5)) * h)

    def test_grid_slab(self, soliton_field):
        grid = self.residual_3d_grid(soliton_field, 0.1)
        slab = rl.RotorGrid(grid.alpha[14:22], grid.beta[14:22], spacing=0.1, origin=grid.origin)  # 4 planes and halos
        new, old = rl.grid_field_point(slab), grid_field_point_batch_first(slab)
        assert list(vars(new)) == list(vars(old)) and same_bits(vars(new).values(), vars(old).values())
        assert new.dd_beta.base is not None and _cf(new.dd_beta, 3).flags.c_contiguous
        for couplings in ((1.0, 1.0), (0.4, 2.3)):
            m = rl.Moduli.from_couplings(*couplings)
            assert same_bits((rl.residual_eqs2_at(new, m),), (residual_np_cross(old, m),))

    def test_residual_grid(self, soliton_field, unit_moduli):
        grid = self.residual_3d_grid(soliton_field, 0.2)
        _, res = rl.residual_grid(grid, unit_moduli)
        assert same_bits((res,), (residual_np_cross(grid_field_point_batch_first(grid), unit_moduli),))

    @pytest.mark.parametrize("make_field", [breathing_hedgehog, lambda: rl.random_smooth_field(seed=11),
                                            lambda: travelling_field(seed=13, t=0.3)])
    @pytest.mark.parametrize("couplings", [(1.0, 1.0), (0.4, 2.3)])
    def test_fields(self, make_field, couplings, cross_points):
        fp, m = make_field().field_point(cross_points), rl.Moduli.from_couplings(*couplings)
        a, a_t = nye_np_cross(fp), nye_velocity_np_cross(fp)
        assert same_bits((rl.nye_matrix(fp), rl.nye_velocity_vector(fp), *rl.h_tensors(a, a_t, m)),
                         (a, a_t, *h_tensors_batch_first(a, a_t, m)))
        assert same_bits((rl.residual_eqs2_at(fp, m),), (residual_np_cross(fp, m),))
        g_oracle = np.moveaxis(eps_dot(axial_batch_first(fp.beta, fp.d_alpha, a), axis=-2), -1, -3)
        assert same_bits((rl.g_tensor_space(fp),), (g_oracle,))

    def test_hedgehog_second_order_blocks(self):
        # random points with w_t != 0, signed-zero coordinates, and coordinate planes where every
        # term of an off-diagonal dd_beta entry is -0.0
        axis = 0.2 * np.arange(-2, 3)
        plane = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        plane = plane[np.abs(plane).sum(axis=1) > 0]
        for field, x in ((breathing_hedgehog(), np.random.default_rng(109).uniform(-3.0, 3.0, (2000, 3))),
                         (breathing_hedgehog(), SIGNED_ZERO_POINTS), (breathing_hedgehog(), np.array([0.4, -1.1, 0.8])),
                         (plane_zero_hedgehog(), plane), (plane_zero_hedgehog(), -plane)):
            fp = field.field_point(x)
            assert same_bits((fp.dd_beta, fp.dd_alpha, fp.dtt_beta), hedgehog_second_order_einsum(field, x))
            cf = _components_first(fp)
            assert all(getattr(cf, k).flags.c_contiguous for k in ("dd_beta", "dd_alpha", "dtt_beta"))

    def test_travelling_field_has_second_time_blocks(self):
        fp = travelling_field(seed=13, t=0.3).field_point(np.random.default_rng(108).uniform(-3, 3, (50, 3)))
        assert np.abs(fp.dtt_beta).min() > 0 and np.abs(fp.dtt_alpha).min() > 0

    @settings(max_examples=200)
    @given(st.data())
    def test_hand_written_sums_add_as_numpy(self, data):
        # every sum over a 3-axis on the residual and charge paths, against the np.trace, .sum,
        # np.einsum or np.cross form it replaces, on batch-first blocks with -0.0 and inf
        batch = data.draw(st.sampled_from([(), (1,), (6,), (2, 3)]))
        elements = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e16]))
        draw = lambda *shape: data.draw(arrays(np.float64, batch + shape, elements=elements))
        fp = rl.FieldPoint(alpha=draw(), beta=draw(3), d_beta=draw(3, 3), d_alpha=draw(3), dt_beta=draw(3),
                           dt_alpha=draw(), dd_beta=draw(3, 3, 3), dd_alpha=draw(3, 3), dtt_beta=draw(3),
                           dtt_alpha=draw())
        a, a_t, h_s, m = draw(3, 3), draw(3), draw(3, 3), rl.Moduli.from_couplings(0.4, 2.3)
        nan_places = lambda v: np.where(np.isnan(v), np.nan, v)
        with np.errstate(all="ignore"):
            pairs = [
                (_norm2(fp.beta), np.einsum("...i,...i->...", fp.beta, fp.beta)),
                *zip(nye_divergences(fp), nye_divergences_batch_first(fp)),
                (coupling(fp, a, a_t, a_t, h_s), coupling_batch_first(fp, a, a_t, a_t, h_s)),
                *zip(rl.h_tensors(a, a_t, m), h_tensors_batch_first(a, a_t, m)),
                # np.trace adds in the same order in component-first memory, where the residual calls it
                *zip(rl.h_tensors(_bl(np.ascontiguousarray(_cf(a, 2)), 2), a_t, m), h_tensors_batch_first(a, a_t, m)),
                (rl.charge_density(FixedNye(a), None),
                 1.0 / (16.0 * np.pi**2) * np.einsum("...i,...i->...", a[..., 0], np.cross(a[..., 1], a[..., 2]))),
            ]
            # the kinematics kernels: the (u d_k u^T) dot with and without scratch, and the trace
            # helpers on component-first memory (tr A and tr T stay np.trace there)
            c, d, cf_a = draw(3), draw(3), _bl(np.ascontiguousarray(_cf(a, 2)), 2)
            tr = np.trace(a, axis1=-2, axis2=-1)
            pairs += [
                (_dot(_cf(c), _cf(d)), np.einsum("...a,...a->...", c, d)),
                (_dot(_cf(c), _cf(d), np.empty(batch), np.empty(batch)), np.einsum("...a,...a->...", c, d)),
                *[(new, a - tr[..., None, None] * np.eye(3)) for new in (rl.torsion_from_nye(a),
                                                                           rl.torsion_from_nye(cf_a))],
                *zip(_trace_skew(cf_a), (tr, 0.5 * (a - np.swapaxes(a, -1, -2)))),
                (_sym_traceless(cf_a, tr),
                 0.5 * (a + np.swapaxes(a, -1, -2)) - (tr / 3.0)[..., None, None] * np.eye(3)),
                # matrix_to_rotor's hand-written trace, clip, pivot (np.argmax's, NaN first) and signs
                *zip(matrix_to_rotor(a), matrix_to_rotor_batch_first(a)),
            ]
        for new, oracle in pairs:
            assert same_bits((nan_places(new),), (nan_places(oracle),))


class TestGridFieldPointWorkspace:
    """``grid_field_point(grid, out=buf)`` writes every block but alpha, a view of the grid, into ``buf``,
    with the bits of a call that allocates its own buffer; calls without ``out`` share no memory."""

    @staticmethod
    def grid(dims, order="C"):
        grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=12), dims=dims, spacing=0.25,
                                       origin=(-1.0, -1.1, -1.2))
        return rl.RotorGrid(np.asarray(grid.alpha, order=order), np.asarray(grid.beta, order=order),
                            spacing=grid.spacing, origin=grid.origin)

    @staticmethod
    def blocks(fp):
        return [v for k, v in vars(fp).items() if k != "alpha"]

    # a residual_3d slab, the smallest grid, and a transposed grid as load_grid_csv may give
    @pytest.mark.parametrize("dims, order", [((8, 36, 36), "C"), ((5, 5, 5), "C"), ((9, 10, 11), "F")])
    def test_out_gives_the_same_bits_in_place(self, dims, order):
        grid, size = self.grid(dims, order), 59 * np.prod(np.subtract(dims, 4))
        buf = np.full(size + 5, np.nan)  # stale entries: the zero time blocks are written too
        new, own = rl.grid_field_point(grid, out=buf), rl.grid_field_point(grid)
        assert same_bits(vars(new).values(), vars(own).values())
        assert all(np.shares_memory(block, buf) for block in self.blocks(new))
        assert np.isnan(buf[size:]).all()

    def test_calls_without_out_share_no_memory(self):
        grid = self.grid((9, 10, 11))
        first, second = self.blocks(rl.grid_field_point(grid)), self.blocks(rl.grid_field_point(grid))
        assert not any(np.shares_memory(a, b) for a in first for b in second)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(first) for b in first[i + 1:])

    def test_out_is_checked(self):
        grid, size = self.grid((5, 5, 5)), 59
        for buf in (np.empty(size - 1), np.empty(size, dtype=np.float32), np.empty((size, 2))[:, 0],
                    np.empty((1, size))):
            with pytest.raises(ValueError, match="out must be"):
                rl.grid_field_point(grid, out=buf)


class TestKinematicsBits:
    """The component-first rotor matrix, rotor extraction, Nye stencil and identity check give the
    bytes of the batch-first forms above."""

    # (alpha, beta): alpha = 0 with |beta| = 1, the identity and -1, and signed zeros throughout
    SPECIAL = np.array([[0.0, 1.0, 0.0, -0.0], [-0.0, -0.0, 0.6, -0.8], [1.0, 0.0, -0.0, 0.0],
                        [-1.0, -0.0, -0.0, -0.0], [0.0, 0.0, -1.0, 0.0], [-0.6, 0.0, 0.8, -0.0]])

    @pytest.fixture(scope="class", params=[0.1, 0.05])
    def identity_grid(self, request):
        """The identity-check grid of the box [-1, 1]^3 at spacing h (the grid_kinematics workload's)."""
        h = request.param
        n = int(np.ceil(2.0 / h)) + 1
        return rl.RotorGrid.from_field(rl.random_smooth_field(seed=7), dims=(n, n, n), spacing=h,
                                       origin=-np.ones(3))

    def test_check_identity(self, identity_grid):
        assert same_bits((rl.check_identity_TT(identity_grid),), (identity_residual_batch_first(identity_grid),))

    def test_slab(self, identity_grid):
        _, _, slab = next(identity_grid._slabs(2, min_planes=12))
        nye = rl.nye_fd_grid(slab)
        assert nye.flags.c_contiguous and same_bits((nye,), (nye_fd_grid_batch_first(slab),))
        assert same_bits((_identity_residual(slab),), (identity_residual_batch_first(slab),))

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    def test_rotor_matrix(self, shape):
        rng = np.random.default_rng(109)
        b = rng.normal(size=(6, 3))
        b *= (rng.uniform(size=6) / np.linalg.norm(b, axis=1))[:, None]
        a = np.sqrt(1.0 - np.einsum("ni,ni->n", b, b)) * rng.choice([-1.0, 1.0], size=6)
        for q in (self.SPECIAL, np.column_stack([a, b])):
            for x in (q if shape == () else [q[:int(np.prod(shape))].reshape(shape + (4,))]):
                alpha, beta = x[..., 0], x[..., 1:]
                u = rotor_matrix(alpha, beta)
                assert u.flags.c_contiguous and same_bits((u,), (rotor_matrix_batch_first(alpha, beta),))
                assert same_bits(matrix_to_rotor(u), matrix_to_rotor_batch_first(u))

    def test_rotor_matrix_broadcasts_alpha(self):
        beta = self.SPECIAL[:, 1:].reshape(2, 3, 3)
        for alpha in (np.float64(-0.0), np.array([[0.5], [-0.5]])):
            assert same_bits((rotor_matrix(alpha, beta),), (rotor_matrix_batch_first(alpha, beta),))

    def test_product_grid(self, two_core_product):
        # grid_kinematics' product grid: 24^3 cell-centred nodes on [-6, 6]^3
        field, _ = two_core_product
        n, half = 24, 6.0
        grid = rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=2 * half / n,
                                       origin=(half / n - half) * np.ones(3))
        x = grid.points()
        left, right = (rotor_matrix_batch_first(*f.alpha_beta(x)) for f in field.factors)
        assert same_bits((grid.u_array(), field.u(x)), (rotor_matrix_batch_first(grid.alpha, grid.beta), left @ right))
        assert same_bits(field.alpha_beta(x), matrix_to_rotor_batch_first(left @ right))


class FixedNye:
    """A stand-in field whose Nye tensor is the given array at every point."""

    def __init__(self, a):
        self.a = a

    def nye(self, x):
        return self.a


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
