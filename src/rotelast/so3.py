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

import numpy as np

__all__ = [
    "rotor_matrix",
    "matrix_to_rotor",
    "eps_dot",
]

# Contractions with the symbol are written out by component, eps_lij a_i b_j by
# :func:`_cross`: an einsum against the dense symbol multiplies all 27 entries, 21 of them zero.


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


def _eps_ddot(w) -> list:
    """The rows ``eps_lij w_ij``, l = 0, 1, 2, of matrices ``w[i, j, ...]`` with the component axes first."""
    return [w[i, j] - w[j, i] for i, j in ((1, 2), (2, 0), (0, 1))]


def _cf(x, n: int = 1):
    """View of ``x`` with its last ``n`` (component) axes first and its batch axes last."""
    return x.transpose(*range(x.ndim - n, x.ndim), *range(x.ndim - n))


def _bl(x, n: int = 1):
    """View of component-first ``x`` with its first ``n`` axes last: the inverse of :func:`_cf`."""
    return x.transpose(*range(n, x.ndim), *range(n))


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a x b)_l = a_m b_n - a_n b_m``, (l, m, n) cyclic, over the first axis, in C-order loops
    along the batch axes: np.cross's bits for every finite, infinite and signed-zero input and the
    place of every NaN, though a NaN's payload may differ."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape)
    for l, m, n in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[m], b[n], out=out[l, ...], order="C")
        np.subtract(out[l, ...], np.multiply(a[n], b[m], order="C"), out=out[l, ...], order="C")
    return out


def _norm2(v) -> np.ndarray:
    """``|v|^2`` over the last axis in any memory order, as :func:`_dot` adds it."""
    return _dot(_cf(v), _cf(v))


def _dot(a, b, out=None, term=None) -> np.ndarray:
    """``a . b`` over the first axis, each loop along the batch, added as np.einsum adds a contiguous
    axis: ``(a_0 b_0 + a_2 b_2) + a_1 b_1``, from +0.0.  ``out`` and ``term`` are optional scratch
    arrays of the batch shape."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(a[0]), np.shape(b[0])))
    np.multiply(a[0], b[0], out=out)
    np.add(out, np.multiply(a[2], b[2], out=term), out=out)
    np.add(0.0, out, out=out)
    return np.add(out, np.multiply(a[1], b[1], out=term), out=out)


def _unit_defect(alpha, beta) -> np.ndarray:
    """``|alpha^2 + |beta|^2 - 1|`` of a batch of rotors: every unit-constraint check reads it."""
    return np.abs(alpha**2 + _norm2(beta) - 1.0)


def rotor_matrix(alpha, beta) -> np.ndarray:
    """Orthogonal matrix of a rotor, batched.

    ``u_ij = (1 - 2 b^2) d_ij + 2 b_i b_j + 2 a eps_ijk b_k``; accepts
    ``alpha`` of shape ``(...,)`` and ``beta`` of shape ``(..., 3)`` and
    returns ``(..., 3, 3)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    u = np.empty(np.broadcast_shapes(alpha.shape, beta.shape[:-1]) + (3, 3))
    _rotor_matrix(alpha, beta, _cf(u, 2))
    return u


def _rotor_matrix(alpha, beta, out: np.ndarray) -> np.ndarray:
    """The entries ``u_ij = ((1 - 2 b^2) d_ij + (2 b_i) b_j) + (2 a) eps_ijk b_k`` into ``out[i, j, ...]``,
    each along the batch; the zero terms ``(1 - 2 b^2) 0.0`` and ``(2 a) 0.0`` stay, so signed zeros
    are those of the broadcast ``(..., 3, 3)`` sum.  Two scratch arrays hold the entries' temporaries:
    fresh ones of a grid slab's size cost page faults."""
    b = _cf(beta)
    diag, two_a, two_b = 1.0 - 2.0 * _norm2(beta), 2.0 * alpha, [2.0 * b_i for b_i in b]
    zero, zero_a = diag * 0.0, two_a * 0.0
    first, last = np.empty(out.shape[2:]), np.empty(out.shape[2:])
    for i, j in np.ndindex(3, 3):
        np.multiply(two_b[i], b[j], out=first)
        if i == j:
            np.add(diag, first, out=first)
            np.add(first, zero_a, out=out[i, j, ...])
            continue
        k = 3 - i - j  # eps_ijk b_k: b_k on the cyclic (i, j, k), -b_k on the others
        np.add(zero, first, out=first)
        np.multiply(two_a, b[k] if (j - i) % 3 == 1 else np.negative(b[k], out=last), out=last)
        np.add(first, last, out=out[i, j, ...])
    return out


def matrix_to_rotor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover (alpha, beta) from special orthogonal matrices, batched.

    The largest of the squared components ``alpha^2``, ``beta_i^2`` (read
    off the diagonal) is the pivot; the other three components follow from
    the products ``4 q_p q_r`` by dividing by ``2 q_p`` (Shepperd 1978;
    Markley 2008), where ``2 alpha beta`` is the axial vector of the skew
    part of u and ``2 beta_i beta_j`` the off-diagonal of its symmetric part.
    The sign ambiguity of the double cover is resolved per point by taking
    alpha >= 0.

    Returns ``alpha (...,)`` and ``beta (..., 3)``.
    """
    m = _cf(np.asarray(u, dtype=float), 2)
    tr = 0.0 + m[0, 0] + m[1, 1] + m[2, 2]  # np.trace's order
    # squared components from the diagonal; clip guards roundoff
    quads = [np.clip((1.0 + tr) / 4.0, 0.0, 1.0)] + [np.clip((1.0 + 2.0 * m[i, i] - tr) / 4.0, 0.0, 1.0)
                                                      for i in range(3)]
    # products[p][r] = 4 q_p q_r for p != r, with q = (alpha, beta); the diagonal is never read
    skew = [0.5 * s for s in _eps_ddot(m)]
    products = [[None, *skew]] + [[skew[i]] + [0.5 * (m[i, j] + m[j, i]) if j != i else None for j in range(3)]
                                  for i in range(3)]
    # the pivot is np.argmax's: the first largest, or the first NaN
    pivot, largest = np.zeros(tr.shape, dtype=np.intp), quads[0]
    for p in range(1, 4):
        take = ~(quads[p] <= largest) & ~np.isnan(largest)
        pivot, largest = np.where(take, p, pivot), np.where(take, quads[p], largest)
    q_pivot, at = np.sqrt(largest), [pivot == p for p in range(4)]
    q = []
    for r in range(4):
        p0, p1, p2 = (p for p in range(4) if p != r)
        pivot_row = np.where(at[p0], products[p0][r], np.where(at[p1], products[p1][r], products[p2][r]))
        q.append(np.where(at[r], q_pivot, pivot_row / (2.0 * q_pivot)))
    q = np.stack([np.where(q[0] < 0.0, -c, c) for c in q], axis=-1)
    return q[..., 0], q[..., 1:]
