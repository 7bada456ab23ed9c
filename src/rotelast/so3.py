"""Rotors: the constrained (alpha, beta) parametrization of SO(3).

A rotor is a pair of a 3-vector ``beta`` and a scalar ``alpha`` subject to
``alpha**2 + |beta|**2 == 1``.  It is a unit-quaternion-like object, except
that no angle/axis interpretation is ever relied upon: the rotation matrix
is defined literally by :func:`rotor_matrix` and everything downstream
is built from that matrix.

Index convention for all 3x3 matrices in this package: the first index is
the coordinate (row) index, the second the anholonomic (column) index.
The Levi-Civita symbol uses ``eps[0,1,2] = +1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LEVI_CIVITA",
    "Rotor",
    "make_rotor",
    "is_special_orthogonal",
    "rotor_matrix",
    "matrix_to_rotor",
    "align_rotor_signs",
    "eps_dot",
    "eps_ddot",
]

UNIT_TOL = 1e-12

#: totally antisymmetric symbol, eps[0,1,2] = +1
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0

# Contractions with the symbol are written out by component: an einsum
# against LEVI_CIVITA multiplies all 27 entries, 21 of them zero.  The
# two-vector contraction eps_lij a_i b_j is ``np.cross``.


def eps_dot(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Antisymmetric matrix ``[..., i, j] = eps_ijm v_m``, batched.

    ``axis`` is the axis of ``v`` that carries m; it is replaced by the
    pair (i, j), so ``v[..., m, k]`` with ``axis=-2`` gives ``[..., i, j, k]``.
    """
    v = np.asarray(v, dtype=float)
    axis %= v.ndim
    v = np.moveaxis(v, axis, 0)
    out = np.zeros((3, 3) + v.shape[1:])
    out[0, 1], out[1, 2], out[2, 0] = v[2], v[0], v[1]
    out[1, 0], out[2, 1], out[0, 2] = -v[2], -v[0], -v[1]
    return np.moveaxis(out, (0, 1), (axis, axis + 1))


def eps_ddot(w: np.ndarray) -> np.ndarray:
    """Axial contraction ``[..., l] = eps_lij w_ij`` of a batch of 3x3 matrices."""
    w = np.asarray(w, dtype=float)
    return np.stack([w[..., 1, 2] - w[..., 2, 1], w[..., 2, 0] - w[..., 0, 2],
                     w[..., 0, 1] - w[..., 1, 0]], axis=-1)


@dataclass(frozen=True)
class Rotor:
    """Immutable rotor value; construct through :func:`make_rotor`."""

    beta: np.ndarray
    alpha: float

    def unit_defect(self) -> float:
        """Return ``|alpha^2 + |beta|^2 - 1|``."""
        return float(_unit_defect(self.alpha, self.beta))


def _unit_defect(alpha, beta) -> np.ndarray:
    """``|alpha^2 + |beta|^2 - 1|`` of a batch of rotors: every unit-constraint check reads it."""
    return np.abs(alpha**2 + np.einsum("...i,...i->...", beta, beta) - 1.0)


def make_rotor(beta, sign: int = +1) -> Rotor:
    """Build a rotor from ``beta``, with ``alpha = sign*sqrt(1 - |beta|^2)``.

    The sign of alpha is an explicit argument rather than being recomputed
    from beta; fields that cross alpha = 0 must carry it in their
    representation.

    Raises
    ------
    ValueError
        If ``|beta|^2 > 1 + 1e-12`` (beta outside unit ball) or beta is NaN.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise ValueError("beta must be a 3-vector")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b2 = float(beta @ beta)
    if not b2 <= 1.0 + UNIT_TOL:  # NaN fails the bound too
        raise ValueError(f"beta outside unit ball: |beta|^2 = {b2!r}")
    alpha = sign * np.sqrt(max(0.0, 1.0 - b2))
    return Rotor(beta=beta, alpha=float(alpha))


def rotor_matrix(alpha, beta) -> np.ndarray:
    """Orthogonal matrix of a rotor, batched.

    ``u_ij = (1 - 2 b^2) d_ij + 2 b_i b_j + 2 a eps_ijk b_k``; accepts
    ``alpha`` of shape ``(...,)`` and ``beta`` of shape ``(..., 3)`` and
    returns ``(..., 3, 3)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    b2 = np.einsum("...i,...i->...", beta, beta)
    eye = np.eye(3)
    u = (
        (1.0 - 2.0 * b2)[..., None, None] * eye
        + 2.0 * beta[..., :, None] * beta[..., None, :]
        + 2.0 * alpha[..., None, None] * eps_dot(beta)
    )
    return u


def is_special_orthogonal(m: np.ndarray, tol: float) -> bool:
    """True iff ``max|m m^T - I| <= tol`` and ``det m > 0``."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=float)
    defect = np.abs(m @ m.T - np.eye(3)).max()
    return bool(defect <= tol and np.linalg.det(m) > 0.0)


def matrix_to_rotor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover (alpha, beta) from special orthogonal matrices, batched.

    The largest of the squared components ``alpha^2``, ``beta_i^2`` (read
    off the diagonal) is the pivot; the other three components follow from
    the products ``4 q_p q_r`` by dividing by ``2 q_p`` (Shepperd 1978;
    Markley 2008), where ``2 alpha beta`` is the axial vector of the skew
    part of u and ``2 beta_i beta_j`` the off-diagonal of its symmetric part.
    The sign ambiguity of the double cover is resolved per point by taking
    alpha >= 0; callers that need sign continuity along a path should
    realign with :func:`align_rotor_signs`.

    Returns ``alpha (...,)`` and ``beta (..., 3)``.
    """
    u = np.asarray(u, dtype=float)
    tr = np.trace(u, axis1=-2, axis2=-1)
    # squared components from the diagonal; clip guards roundoff
    quads = np.clip(np.concatenate([(1.0 + tr)[..., None],
                                    1.0 + 2.0 * np.einsum("...ii->...i", u) - tr[..., None]],
                                   axis=-1) / 4.0, 0.0, 1.0)
    # products[p, r] = 4 q_p q_r for p != r, with q = (alpha, beta)
    products = np.zeros(u.shape[:-2] + (4, 4))
    products[..., 0, 1:] = products[..., 1:, 0] = 0.5 * eps_ddot(u)
    products[..., 1:, 1:] = 0.5 * (u + np.swapaxes(u, -1, -2))
    pivot = np.argmax(quads, axis=-1)[..., None]
    q_pivot = np.sqrt(np.take_along_axis(quads, pivot, axis=-1))
    q = np.take_along_axis(products, pivot[..., None], axis=-2)[..., 0, :] / (2.0 * q_pivot)
    np.put_along_axis(q, pivot, q_pivot, axis=-1)
    q = np.where(q[..., :1] < 0.0, -q, q)
    return q[..., 0], q[..., 1:]


def align_rotor_signs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix double-cover signs along the flattened scan order.

    For each sample after the first, the sign maximizing the 4-vector dot
    product with the previous (already realigned) sample is chosen; a zero
    dot product keeps the sample as it is.  The signs are therefore a
    running product of the signs of consecutive raw dot products, restarted
    at +1 wherever that dot product is zero.
    """
    alpha = np.array(alpha, dtype=float)
    beta = np.array(beta, dtype=float)
    flat_a = alpha.reshape(-1)
    flat_b = beta.reshape(-1, 3)
    dot = flat_a[1:] * flat_a[:-1] + np.einsum("ni,ni->n", flat_b[1:], flat_b[:-1])
    flips = np.concatenate(([0], np.cumsum(dot < 0.0)))
    # a zero (or NaN) dot product restarts the running product; sample 0 starts it
    restarts = np.concatenate(([True], ~(dot != 0.0)))
    last_restart = np.maximum.accumulate(np.where(restarts, np.arange(flat_a.size), 0))
    sign = np.where((flips - flips[last_restart]) % 2 == 1, -1.0, 1.0)
    flat_a *= sign
    flat_b *= sign[:, None]
    return alpha, beta
