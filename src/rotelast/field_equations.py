"""Pointwise residual of the full nonlinear equations of motion.

The residual :func:`residual_eqs2_at` is polynomial in (alpha, beta) and reads

    d_t H^it - d_k H^ik + 2 (H^jt G_tj^i - H^jk G_kj^i) = 0 ,

with H the derivatives of the quadratic Lagrangian with respect to the Nye
blocks and G built from first derivatives of the rotor.  A field is a
snapshot that carries its time derivatives, and its residual at points x
is ``residual_eqs2_at(field.field_point(x), moduli)``.

All evaluators accept batched FieldPoints.  :func:`residual_grid` feeds
them a grid in x-slabs of about ``kinematics._SLAB_POINTS`` (4096) interior
points from the grid walker ``RotorGrid._slabs``, two halo planes per side,
so the FieldPoint blocks (60 doubles per point) and the kernel's temporaries
exist for at most two slabs at once: beyond the grid and its outputs, memory
stays bounded by two slabs, and the pointwise kernels give results
bit-identical to one whole-grid batch.

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
They stay as the references that the tests compare against, and the
benchmark traces both by name.

Memory layout.  :func:`grid_field_point` stores its blocks component axes
first, batch axes last, and the kernels take component-first views
(:func:`fields._components_first`), so each ufunc loop runs along the batch,
strided for batch-first points.  Public shapes stay ``[..., l, k]``: blocks,
``H^ik`` and the residual are views.  Each hand-written sum over a 3-axis
adds in the order of the NumPy reduction it replaced, so bits, signed zeros
included, are kept: ``np.trace``, ``.sum(axis=-1)`` and ``np.einsum`` over a
strided axis give ``((0 + t_0) + t_1) + t_2``, ``np.einsum`` over a
contiguous axis ``(0 + (t_0 + t_2)) + t_1`` (NumPy 2.4, pinned by the tests).
"""

from __future__ import annotations

import numpy as np

from .fields import FieldPoint, _components_first, _nye_bracket
from .kinematics import (Moduli, RotorGrid, _central_diff, _central_diff2, _trace_skew, nye_matrix,
                         nye_velocity_vector)
from .so3 import _bl, _cf, _cross, _eps_ddot, eps_dot

__all__ = [
    "g_tensor_space",
    "h_tensors",
    "residual_eqs2_at",
    "grid_field_point",
    "residual_grid",
]

_MARGIN = 2  # cells left out on every side of a grid; the stencils reach one


def _axial(beta, d_alpha, a) -> np.ndarray:
    """``w_lk = d_k(alpha beta_l) - (beta x d_k beta)_l = 2 beta_l d_k alpha - A_lk / 2``, ``a``
    the :func:`fields._nye_bracket` of the same derivatives, component axes first, directions on
    axis 1: spatial derivatives give ``G_kj^i = eps_jil w_lk``, d_t the time block."""
    return 2.0 * beta[:, None] * d_alpha[None] - 0.5 * a


def g_tensor_space(fp: FieldPoint) -> np.ndarray:
    """``G_kj^i = eps_jil d_k(alpha beta_l) + beta^i d_k beta_j - beta_j d_k beta^i``.

    Since ``a_i b_j - a_j b_i = -eps_jin (a x b)_n``, this is
    ``eps_jil w_lk`` with ``w_lk = d_k(alpha beta_l) - (beta x d_k beta)_l``.
    Returned with index order ``[..., k, j, i]``; antisymmetric in (i, j).
    """
    w = _bl(_axial(_cf(fp.beta), _cf(fp.d_alpha), _cf(nye_matrix(fp), 2)), 2)  # [..., l, k]
    return np.moveaxis(eps_dot(w, axis=-2), -1, -3)


def h_tensors(a: np.ndarray, a_t: np.ndarray, m: Moduli) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the quadratic Lagrangian with respect to the Nye blocks.

    ``H^it = 2 A^it`` and ``H^ik = 2 l1 tr(A) delta^ik + 2 l2 A^[ik]``;
    these equal the gradients of the kinetic/potential densities.  ``H^ik``
    is a view of a component-first array.
    """
    tr, skew = _trace_skew(np.asarray(a, dtype=float))
    eye = np.eye(3).reshape((3, 3) + (1,) * np.ndim(tr))
    h_s = 2.0 * m.lambda1 * tr * eye + 2.0 * m.lambda2 * _cf(skew, 2)
    return 2.0 * np.asarray(a_t, dtype=float), _bl(h_s, 2)


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


def _nye_divergences(p: FieldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sum_k d_k A_ik``, ``sum_k d_k A_ki`` and ``d_i tr A`` without building ``d_k A_lm``.

    ``p`` has the component axes first (:func:`fields._components_first`).
    The row divergence is the Nye bracket along the Laplacians; with
    ``c = curl beta`` the column divergence and the trace gradient are
    ``S + F`` and ``S - F``: Hessian terms plus or minus first-derivative
    terms (see the module docstring).
    """
    a, b, da, db, dda, ddb = p.alpha, p.beta, p.d_alpha, p.d_beta, p.dd_alpha, p.dd_beta
    lap_beta = 0.0 + ddb[:, 0, 0] + ddb[:, 1, 1] + ddb[:, 2, 2]
    row = _nye_bracket(a, b, (0.0 + dda[0, 0] + dda[1, 1] + dda[2, 2])[None], lap_beta[:, None])[:, 0]
    div = 0.0 + db[0, 0] + db[1, 1] + db[2, 2]
    c = [cn - dan for cn, dan in zip(_eps_ddot(db.swapaxes(0, 1)), da)]  # curl beta - grad alpha
    d_curl = _eps_ddot(ddb.swapaxes(0, 1))  # [n][i] = d_i (curl beta)_n
    hess = 2.0 * (
        (0.0 + b[0] * dda[0] + b[1] * dda[1] + b[2] * dda[2])
        - (0.0 + (b[0] * d_curl[0] + b[2] * d_curl[2]) + b[1] * d_curl[1])  # was over a contiguous axis
        - a * (0.0 + ddb[0, 0] + ddb[1, 1] + ddb[2, 2])
    )
    first = 2.0 * ((0.0 + c[0] * db[0] + c[1] * db[1] + c[2] * db[2]) + div * da)
    return row, hess + first, hess - first


def _dt_nye_velocity(p: FieldPoint) -> np.ndarray:
    """``d_t A_lt`` of a component-first ``p``; the first-derivative cross terms cancel identically."""
    return _nye_bracket(p.alpha, p.beta, p.dtt_alpha[None], p.dtt_beta[:, None])[:, 0]


def _coupling(p: FieldPoint, a: np.ndarray, a_t: np.ndarray, h_t: np.ndarray,
              h_s: np.ndarray) -> np.ndarray:
    """``H^jt G_tj^i - H^jk G_kj^i = w_t x H_t - sum_k w_{.k} x H_{.k}``, since ``G = eps w``, both
    by :func:`so3._cross`; ``a`` and ``a_t`` are the Nye tensor and velocity column at ``p``,
    every argument component-first."""
    w_t = _axial(p.beta, p.dt_alpha[None], a_t[:, None])[:, 0]
    w_s = _cross(_axial(p.beta, p.d_alpha, a), h_s)
    return _cross(w_t, h_t) - (0.0 + w_s[:, 0] + w_s[:, 1] + w_s[:, 2])


def residual_eqs2_at(fp: FieldPoint, m: Moduli) -> np.ndarray:
    """G-form residual vector at a FieldPoint (batched), a view of a component-first array."""
    p, a, a_t = _components_first(fp), nye_matrix(fp), nye_velocity_vector(fp)
    h_t, h_s = h_tensors(a, a_t, m)
    coupling = 2.0 * _coupling(p, _cf(a, 2), _cf(a_t), _cf(h_t), _cf(h_s, 2))  # first: fewer arrays alive at its peak
    row, col, d_tr = _nye_divergences(p)
    # d_k H^ik = 2 l1 d_i tr A + l2 d_k (A_ik - A_ki)
    div_h = 2.0 * m.lambda1 * d_tr + m.lambda2 * (row - col)
    return _bl(2.0 * _dt_nye_velocity(p) - div_h + coupling)


def _check_dims(grid: RotorGrid) -> None:
    if min(grid.dims) < 2 * _MARGIN + 1:
        raise ValueError(f"grid too small for the margin of {_MARGIN} cells")


def grid_field_point(grid: RotorGrid) -> FieldPoint:
    """Batched FieldPoint over the grid's nodes two cells or more inside every face, by central differences.

    Time blocks are zero: grids are static snapshots.  Every block is a
    ``[..., l, k]`` view of a contiguous array with the component axes first.
    """
    _check_dims(grid)
    h, margin = grid.spacing, _MARGIN
    shp = tuple(n - 2 * margin for n in grid.dims)

    def blocks(arr):
        """Gradient ``[..., j, x, y, z]`` and symmetric Hessian ``[..., j, k, x, y, z]`` of a grid array."""
        n = arr.ndim - 3  # component axes, moved in front of the grid axes
        d, dd = np.empty(arr.shape[3:] + (3,) + shp), np.empty(arr.shape[3:] + (3, 3) + shp)
        for j in range(3):
            d[..., j, :, :, :] = _cf(_central_diff(arr, j, h, margin), n)
            for k in range(j, 3):
                dd[..., j, k, :, :, :] = _cf(_central_diff2(arr, j, k, h, margin), n)
                if k != j:  # each diagonal block is written once
                    dd[..., k, j, :, :, :] = dd[..., j, k, :, :, :]
        return d, dd

    d_alpha, dd_alpha = blocks(grid.alpha)
    d_beta, dd_beta = blocks(grid.beta)
    c = (slice(margin, -margin),) * 3
    zero_v, zero_s = np.zeros((3,) + shp), np.zeros(shp)
    return FieldPoint(alpha=grid.alpha[c], beta=_bl(np.ascontiguousarray(_cf(grid.beta[c]))), d_beta=_bl(d_beta, 2),
                      d_alpha=_bl(d_alpha), dt_beta=_bl(zero_v), dt_alpha=zero_s, dd_beta=_bl(dd_beta, 3),
                      dd_alpha=_bl(dd_alpha, 2), dtt_beta=_bl(zero_v.copy()), dtt_alpha=zero_s.copy())


def residual_grid(grid: RotorGrid, m: Moduli):
    """Residual of the G-form equations over a grid interior.

    Returns ``(points, residuals)`` with residuals of shape
    ``(nx-4, ny-4, nz-4, 3)`` evaluated by central differences, slab by
    slab (see the module docstring): memory beyond the grid and the outputs
    stays bounded by two slabs, and the results equal one whole-grid call
    bit for bit.
    """
    _check_dims(grid)
    axes = [grid.origin[d] + grid.spacing * np.arange(n)[_MARGIN:-_MARGIN] for d, n in enumerate(grid.dims)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    res = np.empty(pts.shape)
    for lo, hi, slab in grid._slabs(_MARGIN):
        # fp holds the last slab's blocks while these are built: freed first, glibc trims them and they re-fault
        fp = grid_field_point(slab)
        res[lo - _MARGIN:hi - _MARGIN] = residual_eqs2_at(fp, m)
    return pts, res
