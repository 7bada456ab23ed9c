"""Rotor field objects: analytic ansatz fields, grids, and matrix products.

A field supplies the rotor (alpha, beta) and whichever derivative blocks a
consumer needs, either exactly (analytic ansatz) or by central differences
(grids).  All evaluators are batched: points have shape ``(..., 3)`` and
results carry the same leading axes.

A field is a snapshot, built at its instant: ``field_point(x, order=...)``
builds its blocks, time derivatives included, up to derivative ``order`` (0,
1 or 2, default 2) and leaves the higher ones ``None``.  Each consumer asks
for what it reads: the rotor values (:meth:`RotorField.alpha_beta`, hence
grids and matrix products) need order 0; the Nye tensor, its velocity
column and the charge density need order 1; only the field equations need
order 2.

Array index conventions (matching the matrix convention in :mod:`so3`):

==============  =========================================
``d_beta``      ``[..., l, k] = d_k beta_l``
``d_alpha``     ``[..., k]    = d_k alpha``
``dd_beta``     ``[..., l, j, k] = d_j d_k beta_l``
``dd_alpha``    ``[..., j, k] = d_j d_k alpha``
``nye``         ``[..., l, k] = A_lk``
``du``          ``[..., i, j, k] = d_k u_ij``
==============  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so3 import _bl, _cf, _cross, _unit_defect, matrix_to_rotor, rotor_matrix

__all__ = [
    "FieldPoint",
    "nye_matrix",
    "RotorField",
    "AnalyticRotorField",
    "HedgehogField",
    "ProductField",
    "TranslatedField",
    "random_smooth_field",
]


@dataclass
class FieldPoint:
    """Rotor value plus derivative blocks at one point (or a batch).

    Blocks above the derivative order that was built are ``None``: the
    first-order blocks are ``d_*`` and ``dt_*``, the second-order ones
    ``dd_*`` and ``dtt_*``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    d_beta: np.ndarray | None = None
    d_alpha: np.ndarray | None = None
    dt_beta: np.ndarray | None = None
    dt_alpha: np.ndarray | None = None
    dd_beta: np.ndarray | None = None
    dd_alpha: np.ndarray | None = None
    dtt_beta: np.ndarray | None = None
    dtt_alpha: np.ndarray | None = None

    def constraint_residual(self) -> float:
        """Max violation of the unit constraint and, if built, its first derivatives.

        Checks ``|alpha^2 + beta^2 - 1|`` together with
        ``alpha d_k alpha + beta_l d_k beta_l`` (and the time analogue),
        which must vanish for any valid rotor field.
        """
        unit = _unit_defect(self.alpha, self.beta)
        if self.d_beta is None:
            return float(unit.max())
        dsp = np.abs(
            self.alpha[..., None] * self.d_alpha
            + np.einsum("...l,...lk->...k", self.beta, self.d_beta)
        )
        dt = np.abs(
            self.alpha * self.dt_alpha + np.einsum("...l,...l->...", self.beta, self.dt_beta)
        )
        return float(np.max([unit.max(), dsp.max(), dt.max()]))  # np.max keeps a NaN


def _check_order(order) -> None:
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order!r}")


def _components_first(fp: FieldPoint) -> FieldPoint:
    """``fp`` with every block viewed component axes first (:func:`so3._cf`): contiguous views of
    :func:`field_equations.grid_field_point`'s and :class:`HedgehogField`'s blocks, strided ones of
    :class:`AnalyticRotorField`'s batch-first blocks."""
    nb = np.ndim(fp.alpha)
    return FieldPoint(**{k: None if v is None else _cf(v, v.ndim - nb) for k, v in vars(fp).items()})


def _nye_bracket(alpha, beta, d_alpha, d_beta):
    """``2 (beta x d beta + beta d alpha - alpha d beta)`` along one or more directions.

    Component axes first: ``d_beta[l, k, ...]`` and ``d_alpha[k, ...]``
    carry the directions on axis 1 and 0; spatial derivatives give the Nye
    tensor, d_t its velocity column and d_t^2 that column's time
    derivative; ``x`` is :func:`so3._cross`.
    """
    return 2.0 * (_cross(beta[:, None], d_beta) + beta[:, None] * d_alpha[None] - alpha * d_beta)


def nye_matrix(fp: FieldPoint) -> np.ndarray:
    """Nye tensor from rotor derivative blocks (batched), a view of a component-first array.

    ``A_lk = 2 (eps_lij beta^i d_k beta^j + beta_l d_k alpha - alpha d_k beta_l)``.
    """
    return _bl(_nye_bracket(fp.alpha, _cf(fp.beta), _cf(fp.d_alpha), _cf(fp.d_beta, 2)), 2)


class RotorField:
    """Base class; subclasses implement :meth:`field_point`.

    The gradient of u follows from the pair (u, A) of :meth:`u_and_nye`.
    """

    def field_point(self, x, *, order: int = 2) -> FieldPoint:
        raise NotImplementedError

    def alpha_beta(self, x):
        fp = self.field_point(x, order=0)
        return fp.alpha, fp.beta

    def u(self, x) -> np.ndarray:
        """Orthogonal matrix field, shape ``(..., 3, 3)``."""
        alpha, beta = self.alpha_beta(x)
        return rotor_matrix(alpha, beta)

    def nye(self, x) -> np.ndarray:
        """Nye tensor ``[..., l, k] = A_lk`` from an order-1 field evaluation."""
        return nye_matrix(self.field_point(x, order=1))

    def u_and_nye(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and Nye tensor ``[..., l, k] = A_lk`` from one field evaluation."""
        fp = self.field_point(x, order=1)
        return rotor_matrix(fp.alpha, fp.beta), nye_matrix(fp)

    def u_and_du(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and its spatial gradient ``[..., i, j, k] = d_k u_ij``.

        Column by column ``d_k u_{.j} = A_{.k} x u_{.j}`` (:func:`so3._cross`):
        ``d_k u u^T`` is the cross-product matrix of the Nye column ``A_{.k}``.
        """
        u, a = self.u_and_nye(x)
        return u, _bl(_cross(_cf(a, 2)[:, None], _cf(u, 2)[:, :, None]), 3)


class AnalyticRotorField(RotorField):
    """Field defined by a closed-form ``beta(x)`` with exact derivatives, at one instant.

    ``alpha`` is derived from the unit constraint with the plus branch, so
    the supplied beta must keep ``|beta| < 1`` on the evaluation domain.

    Parameters
    ----------
    beta, d_beta, dd_beta : callables ``x -> array``
        Values and exact spatial derivatives, shaped per the module table.
    dt_beta, dtt_beta : callables ``x -> array`` or None
        First/second time derivatives at that instant; None means zero.
    """

    def __init__(self, beta, d_beta, dd_beta, dt_beta=None, dtt_beta=None):
        self._beta = beta
        self._d_beta = d_beta
        self._dd_beta = dd_beta
        self._dt_beta = dt_beta
        self._dtt_beta = dtt_beta

    def field_point(self, x, *, order: int = 2) -> FieldPoint:
        _check_order(order)
        x = np.asarray(x, dtype=float)
        b = np.asarray(self._beta(x), dtype=float)
        b2 = np.einsum("...i,...i->...", b, b)
        if not np.all(b2 < 1.0):  # NaN fails the bound too
            raise ValueError("analytic field left the unit ball: |beta| >= 1 or NaN")
        a = np.sqrt(1.0 - b2)
        fp = FieldPoint(alpha=a, beta=b)
        if order == 0:
            return fp
        db = np.asarray(self._d_beta(x), dtype=float)
        dtb = np.zeros(b.shape) if self._dt_beta is None else np.asarray(self._dt_beta(x), dtype=float)
        # alpha-derivatives from alpha d alpha = -beta . d beta
        da = -np.einsum("...l,...lk->...k", b, db) / a[..., None]
        dta = -np.einsum("...l,...l->...", b, dtb) / a
        fp.d_beta, fp.d_alpha, fp.dt_beta, fp.dt_alpha = db, da, dtb, dta
        if order == 1:
            return fp
        ddb = np.asarray(self._dd_beta(x), dtype=float)
        dttb = np.zeros(b.shape) if self._dtt_beta is None else np.asarray(self._dtt_beta(x), dtype=float)
        # d_j d_k alpha from differentiating the constraint once more
        fp.dd_alpha = (
            -np.einsum("...lj,...lk->...jk", db, db)
            - np.einsum("...l,...ljk->...jk", b, ddb)
            - da[..., :, None] * da[..., None, :]
        ) / a[..., None, None]
        fp.dtt_alpha = (
            -np.einsum("...l,...l->...", dtb, dtb)
            - np.einsum("...l,...l->...", b, dttb)
            - dta * dta
        ) / a
        fp.dd_beta, fp.dtt_beta = ddb, dttb
        return fp


class HedgehogField(RotorField):
    """Spherically symmetric ansatz ``beta = x_hat cos w(r)``, ``alpha = sin w(r)``.

    Derivatives are analytic in the profile; ``w``, ``wp``, ``wpp`` are
    callables of r (vectorized).  An optional ``wdot`` gives the time
    derivative of w on the same radial slice, making the field a snapshot
    of a dynamic configuration (with w_tt = 0).  ``wp`` and ``wdot`` are
    evaluated only from order 1 on, ``wpp`` only at order 2.

    The rotor direction is undefined at r = 0; evaluation there raises.
    """

    def __init__(self, w, wp, wpp, wdot=None):
        self.w = w
        self.wp = wp
        self.wpp = wpp
        self.wdot = wdot

    def field_point(self, x, *, order: int = 2) -> FieldPoint:
        _check_order(order)
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        if np.any(r == 0.0):
            raise ValueError("hedgehog field is direction-dependent at the origin")
        w = np.asarray(self.w(r), dtype=float)
        c, s = np.cos(w), np.sin(w)
        xc = np.ascontiguousarray(_cf(x))  # every vector and matrix block is built component axes first
        xhat = xc / r
        # alpha = sin(w(r)), beta_l = x_l g(r) with g = cos(w)/r
        fp = FieldPoint(alpha=s, beta=_bl(xhat * c))
        if order == 0:
            return fp
        wp = np.asarray(self.wp(r), dtype=float)
        eye = np.eye(3).reshape((3, 3) + (1,) * r.ndim)
        g = c / r
        cp = -s * wp
        gp = cp / r - c / r**2
        gpr = gp / r
        sp = c * wp
        fp.d_beta = _bl(g * eye + gpr * xc[:, None] * xc[None], 2)
        fp.d_alpha = _bl(sp * xhat)
        if self.wdot is not None:
            wd = np.asarray(self.wdot(r), dtype=float)
            fp.dt_beta = _bl(-xhat * (s * wd))
            fp.dt_alpha = c * wd
        else:
            wd = np.zeros(r.shape)
            fp.dt_beta, fp.dt_alpha = _bl(np.zeros((3,) + r.shape)), np.zeros(r.shape)
        if order == 1:
            return fp
        wpp = np.asarray(self.wpp(r), dtype=float)
        cpp = -c * wp * wp - s * wpp
        gpp = cpp / r - 2.0 * cp / r**2 + 2.0 * c / r**3
        # d_j d_k beta_l at [l, j, k], symmetric in (j, k); the sum starts at 0.0 so that an entry whose
        # four terms are all -0.0 (off the diagonal, on a coordinate plane) reads +0.0
        fp.dd_beta = _bl(
            0.0 + gp * eye[:, None] * xhat[None, :, None]
            + gpr * eye[:, :, None] * xc[None, None]
            + gpr * eye[None] * xc[:, None, None]
            + (gpp / r - gp / r**2) * xc[:, None, None] * xc[None, None] * xhat[None, :, None],
            3,
        )
        spp = -s * wp * wp + c * wpp
        fp.dd_alpha = _bl(spp * xhat[:, None] * xhat[None] + (sp / r) * (eye - xhat[:, None] * xhat[None]), 2)
        fp.dtt_beta = _bl(-xhat * (c * wd * wd))
        fp.dtt_alpha = -s * wd * wd
        return fp


class TranslatedField(RotorField):
    """A field displaced by a constant offset: value at x is base(x - offset).

    Every evaluator shifts x and delegates to the base, so a base without
    rotor derivative blocks (a :class:`ProductField`) translates too.
    """

    def __init__(self, base: RotorField, offset):
        self.base = base
        self.offset = np.asarray(offset, dtype=float)

    def _shift(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.offset

    def field_point(self, x, *, order: int = 2) -> FieldPoint:
        return self.base.field_point(self._shift(x), order=order)

    def alpha_beta(self, x):
        return self.base.alpha_beta(self._shift(x))

    def u(self, x) -> np.ndarray:
        return self.base.u(self._shift(x))

    def nye(self, x) -> np.ndarray:
        return self.base.nye(self._shift(x))

    def u_and_nye(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.base.u_and_nye(self._shift(x))


class ProductField(RotorField):
    """Ordered matrix product of rotor fields.

    Works at the matrix level throughout: ``u = u1 u2 ... uN``, and the Nye
    tensor follows from the product rule ``A = sum_m (u1 ... u_{m-1}) A_m``
    (the axial vector of ``d_k u u^T`` rotates with the left factors).
    Rotor values, when requested, are recovered from the matrix
    (double-cover sign chosen as in :func:`rotelast.so3.matrix_to_rotor`);
    derivative blocks of the rotor parametrization are not provided.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product of zero fields")
        self.factors = factors

    def u(self, x) -> np.ndarray:
        out = self.factors[0].u(x)
        for f in self.factors[1:]:
            out = out @ f.u(x)
        return out

    def nye(self, x) -> np.ndarray:
        """Nye tensor by the product rule of :meth:`u_and_nye`, without the last factor's matrix."""
        *head, last = self.factors
        if not head:
            return last.nye(x)
        left, a = ProductField(head).u_and_nye(x)
        return a + left @ np.ascontiguousarray(last.nye(x))  # a component-first view: matmul is faster on C order

    def u_and_nye(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and Nye tensor; ``left`` runs over the prefix products."""
        left, a = self.factors[0].u_and_nye(x)
        for f in self.factors[1:]:
            u, a_f = f.u_and_nye(x)
            a = a + left @ np.ascontiguousarray(a_f)  # as in nye
            left = left @ u
        return left, a

    def alpha_beta(self, x):
        return matrix_to_rotor(self.u(x))


def random_smooth_field(seed: int) -> AnalyticRotorField:
    """Random smooth rotor field decaying to the identity.

    ``beta(x) = exp(-r^2/R^2) * sum_m c_m cos(k_m . x + phi_m)`` over 4
    modes, with fixed seed and R = 1.6; amplitudes are normalized so that
    ``sup|beta| <= 0.35``.  Derivatives are exact, so the field can serve
    as a finite-difference oracle.
    """
    n_modes, amplitude, support_radius = 4, 0.35, 1.6
    rng = np.random.default_rng(seed)
    ks = rng.normal(scale=1.2, size=(n_modes, 3))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    cs = rng.normal(size=(n_modes, 3))
    cs *= amplitude / np.abs(cs).sum(axis=0).max()
    R2 = support_radius**2

    def series(x, order):
        """The envelope and the mode sum with its derivatives up to ``order``."""
        sums = [0.0] * (order + 1)
        for k, p, c in zip(ks, phis, cs):
            ph = x @ k + p
            sums[0] = sums[0] + np.multiply.outer(np.cos(ph), c)
            if order >= 1:
                sums[1] = sums[1] + np.einsum("...,l,k->...lk", -np.sin(ph), c, k)
            if order == 2:
                sums[2] = sums[2] + np.einsum("...,l,j,k->...ljk", -np.cos(ph), c, k, k)
        return np.exp(-np.einsum("...i,...i->...", x, x) / R2), sums

    def beta(x):
        env, (val,) = series(x, 0)
        return env[..., None] * val

    def d_beta(x):
        env, (val, dval) = series(x, 1)
        denv = -2.0 * x / R2 * env[..., None]  # [..., k]
        return env[..., None, None] * dval + np.einsum("...l,...k->...lk", val, denv)

    def dd_beta(x):
        env, (val, dval, ddval) = series(x, 2)
        denv = -2.0 * x / R2 * env[..., None]
        # d_j d_k env = (-2/R^2) (delta_jk env + x_k d_j env)
        eye = np.eye(3)
        ddenv = (-2.0 / R2) * (
            np.einsum("jk,...->...jk", eye, env)
            + np.einsum("...k,...j->...jk", x, denv)
        )
        return (
            env[..., None, None, None] * ddval
            + np.einsum("...lj,...k->...ljk", dval, denv)
            + np.einsum("...lk,...j->...ljk", dval, denv)
            + np.einsum("...l,...jk->...ljk", val, ddenv)
        )

    return AnalyticRotorField(beta, d_beta, dd_beta)
