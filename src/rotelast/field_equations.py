"""Pointwise residual of the full nonlinear equations of motion.

Two equivalent forms are provided.  The canonical one (:func:`residual_eqs2_at`)
is polynomial in (alpha, beta) and reads

    d_t H^it - d_k H^ik + 2 (H^jt G_tj^i - H^jk G_kj^i) = 0 ,

with H the derivatives of the quadratic Lagrangian with respect to the Nye
blocks and G built from first derivatives of the rotor.  The P-form
(:func:`residual_eqs_at`) is the G-form times the matrix P of :func:`p_matrix`,
which contains 1/alpha; it exists for the equivalence property and raises
near the singular gauge |alpha| < 1e-8.  A field's residual at points x and
time t is ``residual_eqs2_at(field.field_point(x, t), moduli)``.

All evaluators accept batched FieldPoints.  :func:`residual_grid` feeds
them a grid in x-slabs of about ``kinematics._SLAB_POINTS`` (4096) interior
points, each read with ``margin`` halo planes per side, so the FieldPoint
blocks (60 doubles per point) and the kernel's temporaries never exist for
more than one slab: beyond the grid and its outputs, memory stays bounded by
the slab, and the pointwise kernels give results bit-identical to one
whole-grid batch.

The residual reads four 3-vectors of the 27-entry ``d_k A_lm`` and
``G_kj^i``, and :func:`residual_eqs2_at` builds each in closed form.  With
``c = curl beta``:

* row divergence, ``sum_k d_k A_ik = 2 (beta x Lap beta + beta Lap alpha
  - alpha Lap beta)_i``: ``d_k beta x d_k beta`` vanishes and
  ``d_k beta_i d_k alpha - d_k alpha d_k beta_i`` cancels, leaving the Nye
  bracket along the Laplacians;
* column divergence, ``sum_k d_k A_ki = S_i + F_i``, and
* trace gradient, ``d_i tr A = S_i - F_i``, where
  ``S_i = 2 (beta . grad d_i alpha - beta . d_i c - alpha d_i div beta)``
  and ``F_i = 2 ((c - grad alpha) . d_i beta + div beta d_i alpha)``:
  contracting ``l`` with ``k`` or with ``m`` turns the cross products into
  curls, the Hessian terms are symmetric in the swapped pair so they agree,
  and the first-derivative terms change sign;
* coupling, ``sum_jk H^jk G_kj^i = sum_k (w_{.k} x H_{.k})_i`` and
  ``sum_j H^jt G_tj^i = (w_t x H_t)_i``: ``G_kj^i = eps_jil w_lk`` with the
  axial ``w_lk = d_k(alpha beta_l) - (beta x d_k beta)_l``, and
  ``eps_ilj w_l H_j`` is a cross product.  The Nye bracket ``A/2 = beta x d beta
  + beta d alpha - alpha d beta`` gives ``w = 2 beta d alpha - A/2`` (and ``w_t``
  from ``A_t`` alike) by algebra alone, for unit and non-unit rotors.

:func:`_d_nye` (``d_k A_lm`` in full) and :func:`g_tensor_space` are the
unfused reference forms of these contractions; the residual calls neither.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldPoint, _nye_bracket
from .kinematics import (Moduli, RotorGrid, _central_diff, _central_diff2, _slabs, _trace_skew,
                         nye_matrix, nye_velocity_vector)
from .so3 import _cross, eps_ddot, eps_dot

__all__ = [
    "SingularGaugeError",
    "FieldPoint",
    "ALPHA_MIN",
    "p_matrix",
    "p_inverse",
    "g_tensor_space",
    "h_tensors",
    "residual_eqs2_at",
    "residual_eqs_at",
    "grid_field_point",
    "residual_grid",
]

ALPHA_MIN = 1e-8


class SingularGaugeError(ValueError):
    """The 1/alpha parametrization degenerates near alpha = 0."""


def p_matrix(alpha, beta) -> np.ndarray:
    """``P_ij = eps_ijl beta^l + (1/alpha)(delta_ij (1 - beta^2) + beta_i beta_j)``.

    Batched over leading axes; requires |alpha| >= 1e-8 everywhere.
    """
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if np.min(np.abs(alpha)) < ALPHA_MIN:
        raise SingularGaugeError(f"P singular: min |alpha| = {np.min(np.abs(alpha))!r}")
    b2 = np.einsum("...i,...i->...", beta, beta)
    return (
        eps_dot(beta)
        + ((1.0 - b2)[..., None, None] * np.eye(3) + beta[..., :, None] * beta[..., None, :])
        / alpha[..., None, None]
    )


def p_inverse(alpha, beta) -> np.ndarray:
    """``(P^-1)^jk = alpha delta^jk - eps^jkn beta_n`` (regular for all rotors; batched)."""
    alpha, beta = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    return alpha[..., None, None] * np.eye(3) - eps_dot(beta)


def _axial(beta, d_alpha, a) -> np.ndarray:
    """``w_lk = d_k(alpha beta_l) - (beta x d_k beta)_l = 2 beta_l d_k alpha - A_lk / 2``, ``a``
    the :func:`fields._nye_bracket` of the same derivatives, directions on the last axis:
    spatial derivatives give ``G_kj^i = eps_jil w_lk``, d_t the time block."""
    return 2.0 * beta[..., :, None] * d_alpha[..., None, :] - 0.5 * a


def g_tensor_space(fp: FieldPoint) -> np.ndarray:
    """``G_kj^i = eps_jil d_k(alpha beta_l) + beta^i d_k beta_j - beta_j d_k beta^i``.

    Since ``a_i b_j - a_j b_i = -eps_jin (a x b)_n``, this is
    ``eps_jil w_lk`` with ``w_lk = d_k(alpha beta_l) - (beta x d_k beta)_l``.
    Returned with index order ``[..., k, j, i]``; antisymmetric in (i, j).
    """
    w = _axial(fp.beta, fp.d_alpha, nye_matrix(fp))  # [..., l, k]
    return np.moveaxis(eps_dot(w, axis=-2), -1, -3)


def h_tensors(a: np.ndarray, a_t: np.ndarray, m: Moduli) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the quadratic Lagrangian with respect to the Nye blocks.

    ``H^it = 2 A^it`` and ``H^ik = 2 l1 tr(A) delta^ik + 2 l2 A^[ik]``;
    these equal the gradients of the kinetic/potential densities.
    """
    a = np.asarray(a, dtype=float)
    a_t = np.asarray(a_t, dtype=float)
    h_t = 2.0 * a_t
    tr, skew = _trace_skew(a)
    h_s = 2.0 * m.lambda1 * tr[..., None, None] * np.eye(3) + 2.0 * m.lambda2 * skew
    return h_t, h_s


def _d_nye(fp: FieldPoint) -> np.ndarray:
    """Spatial gradient of the Nye tensor, ``[..., l, m, k] = d_k A_lm``.

    ``d_k A_lm = 2 (d_k beta x d_m beta + beta x d_k d_m beta)_l
    + 2 (d_k beta_l d_m alpha + beta_l d_k d_m alpha - d_k alpha d_m beta_l
    - alpha d_k d_m beta_l)``; the cross products run over axis -3.
    The unfused reference for :func:`_nye_divergences`; no kernel calls it.
    """
    b, db, ddb = fp.beta, fp.d_beta, fp.dd_beta
    return 2.0 * (
        np.cross(db[..., :, None, :], db[..., :, :, None], axis=-3)
        + np.cross(b[..., :, None, None], ddb, axis=-3)
        + db[..., :, None, :] * fp.d_alpha[..., None, :, None]
        + b[..., :, None, None] * np.swapaxes(fp.dd_alpha, -1, -2)[..., None, :, :]
        - fp.d_alpha[..., None, None, :] * db[..., :, :, None]
        - fp.alpha[..., None, None, None] * np.swapaxes(ddb, -1, -2)
    )


def _nye_divergences(fp: FieldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sum_k d_k A_ik``, ``sum_k d_k A_ki`` and ``d_i tr A`` without building ``d_k A_lm``.

    The row divergence is the Nye bracket along the Laplacians; with
    ``c = curl beta`` the column divergence and the trace gradient are
    ``S + F`` and ``S - F``: Hessian terms plus or minus first-derivative
    terms (see the module docstring).
    """
    a, b, da, db, dda, ddb = fp.alpha, fp.beta, fp.d_alpha, fp.d_beta, fp.dd_alpha, fp.dd_beta
    lap_alpha = np.trace(dda, axis1=-2, axis2=-1)
    lap_beta = np.einsum("...ljj->...l", ddb)
    row = _nye_bracket(a, b, lap_alpha[..., None], lap_beta[..., None])[..., 0]

    div = np.trace(db, axis1=-2, axis2=-1)
    curl = eps_ddot(np.swapaxes(db, -1, -2))
    d_curl = eps_ddot(np.swapaxes(ddb, -1, -3))  # [..., i, n] = d_i (curl beta)_n
    hess = 2.0 * (
        np.einsum("...k,...ki->...i", b, dda)
        - np.einsum("...n,...in->...i", b, d_curl)
        - a[..., None] * np.einsum("...lli->...i", ddb)
    )
    first = 2.0 * (np.einsum("...l,...li->...i", curl - da, db) + div[..., None] * da)
    return row, hess + first, hess - first


def _dt_nye_velocity(fp: FieldPoint) -> np.ndarray:
    """``d_t A_lt``; the first-derivative cross terms cancel identically."""
    return _nye_bracket(fp.alpha, fp.beta, fp.dtt_alpha[..., None], fp.dtt_beta[..., None])[..., 0]


def _coupling(fp: FieldPoint, a: np.ndarray, a_t: np.ndarray, h_t: np.ndarray,
              h_s: np.ndarray) -> np.ndarray:
    """``H^jt G_tj^i - H^jk G_kj^i = w_t x H_t - sum_k w_{.k} x H_{.k}``, since ``G = eps w``, both
    by :func:`so3._cross`; ``a`` and ``a_t`` are the Nye tensor and velocity column at ``fp``."""
    w_t = _axial(fp.beta, fp.dt_alpha[..., None], a_t[..., None])[..., 0]
    w_s = _axial(fp.beta, fp.d_alpha, a)
    return _cross(w_t, h_t) - _cross(w_s, h_s, axis=-2).sum(axis=-1)


def residual_eqs2_at(fp: FieldPoint, m: Moduli) -> np.ndarray:
    """G-form residual vector at a FieldPoint (batched)."""
    a, a_t = nye_matrix(fp), nye_velocity_vector(fp)
    h_t, h_s = h_tensors(a, a_t, m)
    row, col, d_tr = _nye_divergences(fp)
    # d_k H^ik = 2 l1 d_i tr A + l2 d_k (A_ik - A_ki)
    div_h = 2.0 * m.lambda1 * d_tr + m.lambda2 * (row - col)
    return 2.0 * _dt_nye_velocity(fp) - div_h + 2.0 * _coupling(fp, a, a_t, h_t, h_s)


def residual_eqs_at(fp: FieldPoint, m: Moduli) -> np.ndarray:
    """P-form residual (free index j); requires |alpha| >= 1e-8 everywhere.

    Its Q blocks are ``Q = G P``, so the P-form is the G-form residual
    contracted with P, and right-multiplication by P^-1 recovers the G-form.
    """
    p = p_matrix(fp.alpha, fp.beta)
    return np.einsum("...i,...ij->...j", residual_eqs2_at(fp, m), p)


def _check_margin(grid: RotorGrid, margin: int) -> None:
    if margin < 1:
        raise ValueError("margin must be at least 1")
    if min(grid.dims) < 2 * margin + 1:
        raise ValueError("grid too small for the requested margin")


def grid_field_point(grid: RotorGrid, margin: int = 2) -> FieldPoint:
    """Batched FieldPoint over the interior of a grid, by central differences.

    Needs ``margin >= 1`` cell on every side, the reach of the stencils.
    Time blocks are zero: grids are static snapshots.
    """
    _check_margin(grid, margin)
    h = grid.spacing
    shp = tuple(n - 2 * margin for n in grid.dims)

    def blocks(arr):
        """Gradient ``[..., j]`` and symmetric Hessian ``[..., j, k]`` of a grid array."""
        d = np.empty(shp + arr.shape[3:] + (3,))
        dd = np.empty(shp + arr.shape[3:] + (3, 3))
        for j in range(3):
            d[..., j] = _central_diff(arr, j, h, margin)
            for k in range(j, 3):
                block = _central_diff2(arr, j, k, h, margin)
                dd[..., j, k] = block
                if k != j:  # each diagonal block is written once
                    dd[..., k, j] = block
        return d, dd

    d_alpha, dd_alpha = blocks(grid.alpha)
    d_beta, dd_beta = blocks(grid.beta)
    zero_v = np.zeros(shp + (3,))
    zero_s = np.zeros(shp)
    c = (slice(margin, -margin),) * 3
    return FieldPoint(
        alpha=grid.alpha[c],
        beta=grid.beta[c],
        d_beta=d_beta,
        d_alpha=d_alpha,
        dt_beta=zero_v,
        dt_alpha=zero_s,
        dd_beta=dd_beta,
        dd_alpha=dd_alpha,
        dtt_beta=zero_v.copy(),
        dtt_alpha=zero_s.copy(),
    )


def residual_grid(grid: RotorGrid, m: Moduli, margin: int = 2):
    """Residual of the G-form equations over a grid interior.

    Returns ``(points, residuals)`` with residuals of shape
    ``(nx-2m, ny-2m, nz-2m, 3)`` evaluated by central differences.  The
    interior is processed in x-slabs that read ``margin`` halo planes per
    side: each slab's :func:`grid_field_point` and kernel temporaries exist
    only while it runs, so memory beyond the grid and the outputs stays
    bounded by the slab, and the results equal one whole-grid call bit for
    bit.
    """
    _check_margin(grid, margin)
    nx, ny, nz = grid.dims
    axes = [grid.origin[d] + grid.spacing * np.arange(n)[margin:-margin] for d, n in enumerate(grid.dims)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    res = np.empty(pts.shape)
    for lo, hi in _slabs(nx, (ny - 2 * margin) * (nz - 2 * margin), halo=margin):
        fp = grid_field_point(grid._planes(lo - margin, hi + margin), margin=margin)
        res[lo - margin:hi - margin] = residual_eqs2_at(fp, m)
    return pts, res
