"""Rotors: the constrained (alpha, beta) parametrization of SO(3).

A rotor is a pair of a 3-vector ``beta`` and a scalar ``alpha`` subject to
``alpha**2 + |beta|**2 == 1``.  It is a unit-quaternion-like object, except
that no angle/axis interpretation is ever relied upon: the rotation matrix
is defined literally by :func:`rotor_to_matrix` and everything downstream
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
    "rotor_to_matrix",
    "rotor_to_matrix_inv",
    "is_special_orthogonal",
    "rotor_matrix",
    "matrix_to_rotor",
]

UNIT_TOL = 1e-12

#: totally antisymmetric symbol, eps[0,1,2] = +1
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0


@dataclass(frozen=True)
class Rotor:
    """Immutable rotor value; construct through :func:`make_rotor`."""

    beta: np.ndarray
    alpha: float

    def unit_defect(self) -> float:
        """Return ``|alpha^2 + |beta|^2 - 1|``."""
        return abs(self.alpha**2 + float(self.beta @ self.beta) - 1.0)

    def normalized(self) -> "Rotor":
        """Rescale the 4-vector (alpha, beta) onto the unit sphere."""
        n = np.sqrt(self.alpha**2 + float(self.beta @ self.beta))
        return Rotor(beta=self.beta / n, alpha=self.alpha / n)


def make_rotor(beta, sign: int = +1) -> Rotor:
    """Build a rotor from ``beta``, with ``alpha = sign*sqrt(1 - |beta|^2)``.

    The sign of alpha is an explicit argument rather than being recomputed
    from beta; fields that cross alpha = 0 must carry it in their
    representation.

    Raises
    ------
    ValueError
        If ``|beta|^2 > 1 + 1e-12`` (beta outside unit ball).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (3,):
        raise ValueError("beta must be a 3-vector")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b2 = float(beta @ beta)
    if b2 > 1.0 + UNIT_TOL:
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
        + 2.0 * alpha[..., None, None] * np.einsum("ijk,...k->...ij", LEVI_CIVITA, beta)
    )
    return u


def rotor_to_matrix(r: Rotor) -> np.ndarray:
    """3x3 special orthogonal matrix of a rotor."""
    return rotor_matrix(r.alpha, r.beta)


def rotor_to_matrix_inv(r: Rotor) -> np.ndarray:
    """Inverse matrix; same closed form with the alpha term negated."""
    return rotor_matrix(-r.alpha, r.beta)


def is_special_orthogonal(m: np.ndarray, tol: float) -> bool:
    """True iff ``max|m m^T - I| <= tol`` and ``det m > 0``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=float)
    defect = np.abs(m @ m.T - np.eye(3)).max()
    return bool(defect <= tol and np.linalg.det(m) > 0.0)


def matrix_to_rotor(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover (alpha, beta) from special orthogonal matrices, batched.

    The sign ambiguity of the double cover is resolved per point by the
    largest-magnitude component of the 4-vector (alpha made non-negative
    where possible); callers that need sign continuity along a path should
    realign with :func:`align_rotor_signs`.

    Returns ``alpha (...,)`` and ``beta (..., 3)``.
    """
    u = np.asarray(u, dtype=float)
    tr = np.trace(u, axis1=-2, axis2=-1)
    # squared components from the diagonal; clip guards roundoff
    a2 = np.clip((1.0 + tr) / 4.0, 0.0, 1.0)
    b2 = np.clip((1.0 + 2.0 * np.einsum("...ii->...i", u) - tr[..., None]) / 4.0, 0.0, 1.0)
    # off-diagonal products; axial of the skew part of u equals 2 a b
    skew = 0.5 * np.einsum("kij,...ij->...k", LEVI_CIVITA, u)
    sym = 0.5 * (u + np.swapaxes(u, -1, -2))
    quads = np.stack(
        [
            a2,
            b2[..., 0],
            b2[..., 1],
            b2[..., 2],
        ],
        axis=-1,
    )
    pivot = np.argmax(quads, axis=-1)
    alpha = np.empty(u.shape[:-2])
    beta = np.empty(u.shape[:-2] + (3,))

    flat_u = u.reshape(-1, 3, 3)
    flat_piv = pivot.reshape(-1)
    flat_a = alpha.reshape(-1)
    flat_b = beta.reshape(-1, 3)
    flat_skew = skew.reshape(-1, 3)
    flat_sym = sym.reshape(-1, 3, 3)
    flat_a2 = a2.reshape(-1)
    flat_b2 = b2.reshape(-1, 3)
    for n in range(flat_u.shape[0]):
        p = flat_piv[n]
        if p == 0:
            a = np.sqrt(flat_a2[n])
            b = flat_skew[n] / (2.0 * a)
        else:
            i = p - 1
            bi = np.sqrt(flat_b2[n, i])
            # sym offdiag: (u + u^T)/2 with identity part removed gives 2 b_i b_j
            b = np.empty(3)
            b[i] = bi
            for j in range(3):
                if j != i:
                    b[j] = flat_sym[n, i, j] / (2.0 * bi)
            a = flat_skew[n, i] / (2.0 * b[i]) if abs(b[i]) > 0 else 0.0
            # prefer the alpha >= 0 branch for reproducibility
            if a < 0.0:
                a, b = -a, -b
        flat_a[n] = a
        flat_b[n] = b
    return alpha, beta


def align_rotor_signs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix double-cover signs along the leading (scan) axis.

    For each sample after the first, the sign maximizing the 4-vector dot
    product with the previous sample is chosen.
    """
    alpha = np.array(alpha, dtype=float)
    beta = np.array(beta, dtype=float)
    flat_a = alpha.reshape(-1)
    flat_b = beta.reshape(-1, 3)
    for n in range(1, flat_a.size):
        dot = flat_a[n] * flat_a[n - 1] + flat_b[n] @ flat_b[n - 1]
        if dot < 0.0:
            flat_a[n] = -flat_a[n]
            flat_b[n] = -flat_b[n]
    return alpha, beta
