"""Topological charge of rotor fields in the connection gauge.

The charge is the integral of the triple-product density of the flat
connection built from the orthogonal matrix field u,

    rho = (1 / 96 pi^2) eps^ijk tr(M_i M_j M_k),   M_i = u d_i(u^T) .

Each M_k is the antisymmetric matrix of the Nye column A_{.k}, and the
trace of three such matrices is a triple product, so

    M_k = eps_dot(A_{.k}),              (M_k)_ab = eps_abm A_mk
    tr(M_i M_j M_k) = eps_mnp A_mi A_nj A_pk
    eps^ijk tr(M_i M_j M_k) = 6 det A ,

and :func:`charge_density` evaluates ``rho = det(A) / 16 pi^2`` as the
triple product of the columns ``A_{.x} . (A_{.y} x A_{.z})``.

For maps that settle to a constant rotation at the ball boundary the
integral converges to an integer (the degree of the lifted 3-sphere map);
the orientation here makes an outward-winding hedgehog with increasing
profile carry positive charge.

For hedgehog fields the density ``(2/pi) cos^2(w) w'`` per unit radius
integrates to the closed form

    Q(R) = (1/pi) [ w + sin(2w)/2 ]_{w(0)}^{w(R)} ,

which :func:`total_charge` returns with zero error and without the grid
spacing (the full 3-d quadrature is checked against it in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import HedgehogField
from .kinematics import _slabs
from .so3 import _cf, _cross

__all__ = [
    "ChargeReport",
    "charge_density",
    "total_charge",
    "hedgehog_charge_profile",
]

_NORM = 1.0 / (16.0 * np.pi**2)


@dataclass(frozen=True)
class ChargeReport:
    """Charge estimate with the quadrature parameters that produced it."""

    charge: float
    ball_radius: float
    grid_spacing: float
    estimated_error: float

    def __post_init__(self):
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")
        if not self.estimated_error >= 0:
            raise ValueError("estimated_error must be non-negative")


def charge_density(field, point):
    """Triple-product charge density ``det(A) / 16 pi^2`` at a point (batched over leading axes)."""
    x = np.asarray(point, dtype=float)
    a = _cf(field.nye(x), 2)
    c = _cross(a[:, 1], a[:, 2])
    val = _NORM * (0.0 + a[0, 0] * c[0] + a[1, 0] * c[1] + a[2, 0] * c[2])  # einsum's order over a strided axis
    return float(val) if val.ndim == 0 else val


def hedgehog_charge_profile(w0: float, w1: float) -> float:
    """Exact hedgehog charge between profile endpoints.

    ``(1/pi) [w + sin(2w)/2]`` evaluated from w0 to w1; follows from the
    volume swept on the unit 3-sphere by the lifted rotor.
    """
    def antider(w):
        return (w + 0.5 * np.sin(2.0 * w)) / np.pi

    return float(antider(w1) - antider(w0))


def _centred_axis(half_width: float, h: float) -> np.ndarray:
    """Centres of the even count ``ceil(2 half_width / h)`` (rounded up) of cells of
    width h that cover ``[-half_width, half_width]``: symmetric, none lands on 0."""
    n = int(np.ceil(2.0 * half_width / h))
    n += n % 2
    return h * (np.arange(n) - (n - 1) / 2)


def _charge_midpoint_3d(field, ball_radius: float, h: float) -> float:
    axis = _centred_axis(ball_radius, h)
    total = 0.0
    for lo, hi in _slabs(axis.size, axis.size**2):
        pts = np.stack(np.meshgrid(axis[lo:hi], axis, axis, indexing="ij"), axis=-1)
        pts = pts[(pts * pts).sum(axis=-1) <= ball_radius * ball_radius]
        rho = charge_density(field, pts)
        if not np.all(np.isfinite(rho)):
            raise ValueError("non-finite charge density inside the ball")
        total += float(np.sum(rho))
    return total * h**3


def total_charge(field, ball_radius: float, grid_spacing: float, *, force_3d: bool = False) -> ChargeReport:
    """Charge over a ball, with a two-spacing Richardson error estimate.

    Uses the midpoint rule on a uniform Cartesian grid restricted to the
    ball.  ``estimated_error = |q_h - q_2h| / 3`` assumes second order; near
    a singular core the rule is first order and the estimate about 3x too
    small.  A hedgehog field, unless ``force_3d`` is set, takes the closed form
    :func:`hedgehog_charge_profile` of ``w(0)`` and ``w(ball_radius)`` instead,
    with zero error; ``grid_spacing`` is validated and reported but unused there.
    """
    if not (0 < ball_radius < np.inf and 0 < grid_spacing < np.inf):
        raise ValueError("ball_radius and grid_spacing must be positive and finite")
    if isinstance(field, HedgehogField) and not force_3d:
        q = hedgehog_charge_profile(float(field.w(0.0)), float(field.w(ball_radius)))
        err = 0.0
    else:
        q = _charge_midpoint_3d(field, ball_radius, grid_spacing)
        q_coarse = _charge_midpoint_3d(field, ball_radius, 2.0 * grid_spacing)
        err = abs(q - q_coarse) / 3.0
    return ChargeReport(charge=q, ball_radius=float(ball_radius),
                        grid_spacing=float(grid_spacing), estimated_error=err)
