"""Pointwise residual of the full nonlinear equations of motion.

Two equivalent forms are provided.  The canonical one (:func:`residual_eqs2`)
is polynomial in (alpha, beta) and reads

    d_t H^it - d_k H^ik + 2 (H^jt G_tj^i - H^jk G_kj^i) = 0 ,

with H the derivatives of the quadratic Lagrangian with respect to the Nye
blocks and G built from first derivatives of the rotor.  The P-form
(:func:`residual_eqs`) is the G-form times the matrix P of :func:`p_matrix`,
which contains 1/alpha; it exists for the equivalence property and raises
near the singular gauge |alpha| < 1e-8.

All evaluators accept batched FieldPoints, so whole grids can be processed
in one vectorized call (:func:`residual_grid`).
"""

from __future__ import annotations

import numpy as np

from .fields import FieldPoint, RotorField
from .kinematics import (Moduli, RotorGrid, central_diff, central_diff2, nye_matrix,
                         nye_velocity_vector)
from .so3 import LEVI_CIVITA, Rotor

__all__ = [
    "SingularGaugeError",
    "FieldPoint",
    "ALPHA_MIN",
    "p_matrix",
    "p_inverse",
    "g_tensor_space",
    "g_tensor_time",
    "h_tensors",
    "residual_eqs2_at",
    "residual_eqs_at",
    "residual_eqs2",
    "residual_eqs",
    "residual_grid",
]

ALPHA_MIN = 1e-8


class SingularGaugeError(ValueError):
    """The 1/alpha parametrization degenerates near alpha = 0."""


def _alpha_beta(r) -> tuple[np.ndarray, np.ndarray]:
    alpha, beta = (r.alpha, r.beta) if isinstance(r, Rotor) else r
    return np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)


def p_matrix(r) -> np.ndarray:
    """``P_ij = eps_ijl beta^l + (1/alpha)(delta_ij (1 - beta^2) + beta_i beta_j)``.

    Accepts a Rotor or an (alpha, beta) pair, batched over leading axes;
    requires |alpha| >= 1e-8 everywhere.
    """
    alpha, beta = _alpha_beta(r)
    if np.min(np.abs(alpha)) < ALPHA_MIN:
        raise SingularGaugeError(f"P singular: min |alpha| = {np.min(np.abs(alpha))!r}")
    b2 = np.einsum("...i,...i->...", beta, beta)
    return (
        np.einsum("ijl,...l->...ij", LEVI_CIVITA, beta)
        + ((1.0 - b2)[..., None, None] * np.eye(3) + beta[..., :, None] * beta[..., None, :])
        / alpha[..., None, None]
    )


def p_inverse(r) -> np.ndarray:
    """``(P^-1)^jk = alpha delta^jk - eps^jkn beta_n`` (regular for all rotors; batched)."""
    alpha, beta = _alpha_beta(r)
    return alpha[..., None, None] * np.eye(3) - np.einsum("jkn,...n->...jk", LEVI_CIVITA, beta)


def g_tensor_space(fp: FieldPoint) -> np.ndarray:
    """``G_kj^i = eps_jil d_k(alpha beta_l) + beta^i d_k beta_j - beta_j d_k beta^i``.

    Returned with index order ``[..., k, j, i]``; antisymmetric in (i, j).
    """
    dab = (
        fp.d_alpha[..., None, :] * fp.beta[..., :, None]
        + fp.alpha[..., None, None] * fp.d_beta
    )  # [..., l, k] = d_k(alpha beta_l)
    return (
        np.einsum("jil,...lk->...kji", LEVI_CIVITA, dab)
        + np.einsum("...i,...jk->...kji", fp.beta, fp.d_beta)
        - np.einsum("...j,...ik->...kji", fp.beta, fp.d_beta)
    )


def g_tensor_time(fp: FieldPoint) -> np.ndarray:
    """Time block ``G_tj^i``, index order ``[..., j, i]``; antisymmetric."""
    dab = fp.dt_alpha[..., None] * fp.beta + fp.alpha[..., None] * fp.dt_beta
    return (
        np.einsum("jil,...l->...ji", LEVI_CIVITA, dab)
        + np.einsum("...i,...j->...ji", fp.beta, fp.dt_beta)
        - np.einsum("...j,...i->...ji", fp.beta, fp.dt_beta)
    )


def h_tensors(a: np.ndarray, a_t: np.ndarray, m: Moduli) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the quadratic Lagrangian with respect to the Nye blocks.

    ``H^it = 2 A^it`` and ``H^ik = 2 l1 tr(A) delta^ik + 2 l2 A^[ik]``;
    these equal the gradients of the kinetic/potential densities.
    """
    a = np.asarray(a, dtype=float)
    a_t = np.asarray(a_t, dtype=float)
    h_t = 2.0 * a_t
    tr = np.trace(a, axis1=-2, axis2=-1)
    skew = 0.5 * (a - np.swapaxes(a, -1, -2))
    h_s = 2.0 * m.lambda1 * tr[..., None, None] * np.eye(3) + 2.0 * m.lambda2 * skew
    return h_t, h_s


def _d_nye(fp: FieldPoint) -> np.ndarray:
    """Spatial gradient of the Nye tensor, ``[..., l, m, k] = d_k A_lm``."""
    return 2.0 * (
        np.einsum("lij,...ik,...jm->...lmk", LEVI_CIVITA, fp.d_beta, fp.d_beta)
        + np.einsum("lij,...i,...jmk->...lmk", LEVI_CIVITA, fp.beta, fp.dd_beta)
        + np.einsum("...lk,...m->...lmk", fp.d_beta, fp.d_alpha)
        + np.einsum("...l,...km->...lmk", fp.beta, fp.dd_alpha)
        - np.einsum("...k,...lm->...lmk", fp.d_alpha, fp.d_beta)
        - np.einsum("...,...lkm->...lmk", fp.alpha, fp.dd_beta)
    )


def _dt_nye_velocity(fp: FieldPoint) -> np.ndarray:
    """``d_t A_lt``; the first-derivative cross terms cancel identically."""
    return 2.0 * (
        np.einsum("lij,...i,...j->...l", LEVI_CIVITA, fp.beta, fp.dtt_beta)
        + fp.beta * fp.dtt_alpha[..., None]
        - fp.alpha[..., None] * fp.dtt_beta
    )


def residual_eqs2_at(fp: FieldPoint, m: Moduli) -> np.ndarray:
    """G-form residual vector at a FieldPoint (batched)."""
    a = nye_matrix(fp)
    a_t = nye_velocity_vector(fp)
    h_t, h_s = h_tensors(a, a_t, m)

    dA = _d_nye(fp)  # [..., l, m, k] = d_k A_lm
    d_tr = np.einsum("...llk->...k", dA)
    # d_k H^ik = 2 l1 d_i tr A + l2 d_k (A_ik - A_ki)
    div_h = 2.0 * m.lambda1 * d_tr + m.lambda2 * (
        np.einsum("...ikk->...i", dA) - np.einsum("...kik->...i", dA)
    )
    dt_h_t = 2.0 * _dt_nye_velocity(fp)

    g_s = g_tensor_space(fp)  # [..., k, j, i]
    g_t = g_tensor_time(fp)  # [..., j, i]
    coupling = 2.0 * (
        np.einsum("...j,...ji->...i", h_t, g_t)
        - np.einsum("...jk,...kji->...i", h_s, g_s)
    )
    return dt_h_t - div_h + coupling


def residual_eqs_at(fp: FieldPoint, m: Moduli) -> np.ndarray:
    """P-form residual (free index j); requires |alpha| >= 1e-8 everywhere.

    Its Q blocks are ``Q = G P``, so the P-form is the G-form residual
    contracted with P, and right-multiplication by P^-1 recovers the G-form.
    """
    p = p_matrix((fp.alpha, fp.beta))
    return np.einsum("...i,...ij->...j", residual_eqs2_at(fp, m), p)


def residual_eqs2(field: RotorField, point, time: float = 0.0, *, moduli: Moduli) -> np.ndarray:
    """G-form residual of a rotor field at a point."""
    return residual_eqs2_at(field.field_point(np.asarray(point, dtype=float), time), moduli)


def residual_eqs(field: RotorField, point, time: float = 0.0, *, moduli: Moduli) -> np.ndarray:
    """P-form residual of a rotor field at a point (alpha must stay regular)."""
    return residual_eqs_at(field.field_point(np.asarray(point, dtype=float), time), moduli)


def grid_field_point(grid: RotorGrid, margin: int = 2) -> FieldPoint:
    """Batched FieldPoint over the interior of a grid, by central differences.

    Needs ``margin >= 2`` cells on every side.  Time blocks are zero: grids
    are static snapshots.
    """
    if margin < 2:
        raise ValueError("margin must be at least 2")
    if min(grid.dims) < 2 * margin + 1:
        raise ValueError("grid too small for the requested margin")
    h = grid.spacing
    a = grid.alpha
    b = grid.beta
    shp = tuple(n - 2 * margin for n in grid.dims)
    d_alpha = np.empty(shp + (3,))
    d_beta = np.empty(shp + (3, 3))
    dd_alpha = np.empty(shp + (3, 3))
    dd_beta = np.empty(shp + (3, 3, 3))
    for j in range(3):
        d_alpha[..., j] = central_diff(a, j, h, margin)
        d_beta[..., :, j] = central_diff(b, j, h, margin)
        for k in range(j, 3):
            daa = central_diff2(a, j, k, h, margin)
            dbb = central_diff2(b, j, k, h, margin)
            dd_alpha[..., j, k] = daa
            dd_beta[..., :, j, k] = dbb
            if k != j:  # each diagonal block is written once
                dd_alpha[..., k, j] = daa
                dd_beta[..., :, k, j] = dbb

    zero_v = np.zeros(shp + (3,))
    zero_s = np.zeros(shp)
    c = (slice(margin, -margin),) * 3
    return FieldPoint(
        alpha=a[c],
        beta=b[c],
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
    ``(nx-2m, ny-2m, nz-2m, 3)`` evaluated by central differences.
    """
    fp = grid_field_point(grid, margin=margin)
    res = residual_eqs2_at(fp, m)
    pts = grid.points()[(slice(margin, -margin),) * 3]
    return pts, res
