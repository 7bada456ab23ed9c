"""Topological charge of rotor fields in the connection gauge.

The charge is the integral of the triple-product density of the flat
connection built from the orthogonal matrix field u,

    rho = (1 / 96 pi^2) eps^ijk tr(M_i M_j M_k),   M_i = u d_i(u^T) .

For maps that settle to a constant rotation at the ball boundary the
integral converges to an integer (the degree of the lifted 3-sphere map);
the orientation here makes an outward-winding hedgehog with increasing
profile carry positive charge.

For hedgehog fields the integral collapses exactly to one radial
quadrature,

    Q(R) = (1/pi) [ w + sin(2w)/2 ]_{w(0)}^{w(R)} ,

which :func:`total_charge` uses as a fast path (validated against the full
3-d quadrature in the test suite).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import HedgehogField
from .so3 import LEVI_CIVITA

__all__ = [
    "ChargeReport",
    "charge_density",
    "total_charge",
    "hedgehog_charge_profile",
]

_NORM = 1.0 / (96.0 * np.pi**2)


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
        if self.estimated_error < 0:
            raise ValueError("estimated_error must be non-negative")

    def to_json(self) -> str:
        return json.dumps(
            {
                "charge": self.charge,
                "ball_radius": self.ball_radius,
                "grid_spacing": self.grid_spacing,
                "estimated_error": self.estimated_error,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChargeReport":
        d = json.loads(text)
        return cls(charge=d["charge"], ball_radius=d["ball_radius"],
                   grid_spacing=d["grid_spacing"], estimated_error=d["estimated_error"])


def charge_density(field, point, time: float = 0.0):
    """Triple-product charge density at a point (batched over leading axes)."""
    x = np.asarray(point, dtype=float)
    u, du = field.u_and_du(x, time)
    m = np.einsum("...ia,...jak->...kij", u, du)  # M_k = u d_k u^T
    val = _NORM * np.einsum("ijk,...iab,...jbc,...kca->...", LEVI_CIVITA, m, m, m)
    return float(val) if val.ndim == 0 else val


def hedgehog_charge_profile(w0: float, w1: float) -> float:
    """Exact hedgehog charge between profile endpoints.

    ``(1/pi) [w + sin(2w)/2]`` evaluated from w0 to w1; follows from the
    volume swept on the unit 3-sphere by the lifted rotor.
    """
    def antider(w):
        return (w + 0.5 * np.sin(2.0 * w)) / np.pi

    return float(antider(w1) - antider(w0))


def _charge_midpoint_3d(field, ball_radius: float, h: float, time: float,
                        chunk: int = 200_000) -> float:
    n = int(np.ceil(2.0 * ball_radius / h))
    # cell centers; never contains the exact origin
    axis = -ball_radius + h * (np.arange(n) + 0.5)
    total = 0.0
    xy = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    r2_max = ball_radius * ball_radius
    for z in axis:
        pts = np.concatenate([xy, np.full((xy.shape[0], 1), z)], axis=1)
        mask = (pts * pts).sum(axis=1) <= r2_max
        pts = pts[mask]
        for lo in range(0, pts.shape[0], chunk):
            rho = charge_density(field, pts[lo:lo + chunk], time)
            if not np.all(np.isfinite(rho)):
                raise ValueError("non-finite charge density inside the ball")
            total += float(np.sum(rho))
    return total * h**3


def _charge_radial(field: HedgehogField, ball_radius: float, h: float) -> float:
    # midpoint rule on the exact radial density (2/pi) cos^2(w) w'
    n = int(np.ceil(ball_radius / h))
    step = ball_radius / n
    r = (np.arange(n) + 0.5) * step
    w = np.asarray(field.w(r), dtype=float)
    wp = np.asarray(field.wp(r), dtype=float)
    dens = (2.0 / np.pi) * np.cos(w) ** 2 * wp
    return float(np.sum(dens) * step)


def total_charge(field, ball_radius: float, grid_spacing: float,
                 time: float = 0.0, force_3d: bool = False) -> ChargeReport:
    """Charge over a ball, with a two-spacing Richardson error estimate.

    Uses the midpoint rule on a uniform Cartesian grid restricted to the
    ball; pure hedgehog fields take the exact 1-d radial reduction instead
    (same two-resolution error estimate) unless ``force_3d`` is set.
    """
    if ball_radius <= 0 or grid_spacing <= 0:
        raise ValueError("ball_radius and grid_spacing must be positive")
    if isinstance(field, HedgehogField) and not force_3d:
        q_fine = _charge_radial(field, ball_radius, grid_spacing)
        q_coarse = _charge_radial(field, ball_radius, 2.0 * grid_spacing)
    else:
        q_fine = _charge_midpoint_3d(field, ball_radius, grid_spacing, time)
        q_coarse = _charge_midpoint_3d(field, ball_radius, 2.0 * grid_spacing, time)
    err = abs(q_fine - q_coarse) / 3.0
    return ChargeReport(charge=q_fine, ball_radius=float(ball_radius),
                        grid_spacing=float(grid_spacing), estimated_error=err)

