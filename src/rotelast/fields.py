"""Rotor field objects: analytic ansatz fields, grids, and matrix products.

A field supplies the rotor (alpha, beta) and whichever derivative blocks a
consumer needs, either exactly (analytic ansatz) or by central differences
(grids).  All evaluators are batched: points have shape ``(..., 3)`` and
results carry the same leading axes.

Array index conventions (matching the matrix convention in :mod:`so3`):

==============  =========================================
``d_beta``      ``[..., l, k] = d_k beta_l``
``d_alpha``     ``[..., k]    = d_k alpha``
``dd_beta``     ``[..., l, j, k] = d_j d_k beta_l``
``dd_alpha``    ``[..., j, k] = d_j d_k alpha``
``du``          ``[..., i, j, k] = d_k u_ij``
==============  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .so3 import LEVI_CIVITA, Rotor, align_rotor_signs, matrix_to_rotor, rotor_matrix

__all__ = [
    "FieldPoint",
    "RotorField",
    "AnalyticRotorField",
    "HedgehogField",
    "ConstantField",
    "ProductField",
    "TranslatedField",
    "random_smooth_field",
]


@dataclass
class FieldPoint:
    """Rotor value plus derivative blocks at one point (or a batch).

    Second-derivative blocks default to zeros, which is correct for the
    static/constant cases; analytic fields fill them in.
    """

    alpha: np.ndarray
    beta: np.ndarray
    d_beta: np.ndarray
    d_alpha: np.ndarray
    dt_beta: np.ndarray
    dt_alpha: np.ndarray
    dd_beta: np.ndarray
    dd_alpha: np.ndarray
    dtt_beta: np.ndarray
    dtt_alpha: np.ndarray

    @property
    def rotor(self) -> Rotor:
        return Rotor(beta=np.asarray(self.beta, dtype=float), alpha=float(self.alpha))

    def constraint_residual(self) -> float:
        """Max violation of the unit constraint and its first derivatives.

        Checks ``|alpha^2 + beta^2 - 1|`` together with
        ``alpha d_k alpha + beta_l d_k beta_l`` (and the time analogue),
        which must vanish for any valid rotor field.
        """
        unit = np.abs(self.alpha**2 + np.einsum("...i,...i->...", self.beta, self.beta) - 1.0)
        dsp = np.abs(
            self.alpha[..., None] * self.d_alpha
            + np.einsum("...l,...lk->...k", self.beta, self.d_beta)
        )
        dt = np.abs(
            self.alpha * self.dt_alpha + np.einsum("...l,...l->...", self.beta, self.dt_beta)
        )
        return float(max(unit.max(), dsp.max(), dt.max()))


def _zeros_like_blocks(alpha, beta):
    shp = np.shape(alpha)
    return dict(
        d_beta=np.zeros(shp + (3, 3)),
        d_alpha=np.zeros(shp + (3,)),
        dt_beta=np.zeros(shp + (3,)),
        dt_alpha=np.zeros(shp),
        dd_beta=np.zeros(shp + (3, 3, 3)),
        dd_alpha=np.zeros(shp + (3, 3)),
        dtt_beta=np.zeros(shp + (3,)),
        dtt_alpha=np.zeros(shp),
    )


class RotorField:
    """Base class; subclasses implement :meth:`field_point`."""

    def field_point(self, x, t: float = 0.0) -> FieldPoint:
        raise NotImplementedError

    def alpha_beta(self, x, t: float = 0.0):
        fp = self.field_point(x, t)
        return fp.alpha, fp.beta

    def u(self, x, t: float = 0.0) -> np.ndarray:
        """Orthogonal matrix field, shape ``(..., 3, 3)``."""
        alpha, beta = self.alpha_beta(x, t)
        return rotor_matrix(alpha, beta)

    def u_and_du(self, x, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and its spatial gradient ``[..., i, j, k] = d_k u_ij``.

        The gradient follows by the chain rule from the rotor derivative
        blocks of one field evaluation; the matrix is linear in
        ``(beta beta^T, beta^2, alpha beta)``.
        """
        fp = self.field_point(x, t)
        return (rotor_matrix(fp.alpha, fp.beta),
                _du_from_blocks(fp.alpha, fp.beta, fp.d_alpha, fp.d_beta))


def _du_from_blocks(alpha, beta, d_alpha, d_beta):
    eye = np.eye(3)
    bdb = np.einsum("...l,...lk->...k", beta, d_beta)  # d_k (beta^2) / 2
    term_tr = -4.0 * np.einsum("...k,ij->...ijk", bdb, eye)
    term_bb = 2.0 * (
        np.einsum("...ik,...j->...ijk", d_beta, beta)
        + np.einsum("...i,...jk->...ijk", beta, d_beta)
    )
    term_eps = 2.0 * (
        np.einsum("...k,ijm,...m->...ijk", d_alpha, LEVI_CIVITA, beta)
        + np.einsum("...,ijm,...mk->...ijk", alpha, LEVI_CIVITA, d_beta)
    )
    return term_tr + term_bb + term_eps


class AnalyticRotorField(RotorField):
    """Field defined by a closed-form ``beta(x, t)`` with exact derivatives.

    ``alpha`` is derived from the unit constraint with the plus branch, so
    the supplied beta must keep ``|beta| < 1`` on the evaluation domain.

    Parameters
    ----------
    beta, d_beta, dd_beta : callables ``(x, t) -> array``
        Values and exact spatial derivatives, shaped per the module table.
    dt_beta, dtt_beta : callables or None
        First/second time derivatives; None means static.
    """

    def __init__(self, beta, d_beta, dd_beta, dt_beta=None, dtt_beta=None):
        self._beta = beta
        self._d_beta = d_beta
        self._dd_beta = dd_beta
        self._dt_beta = dt_beta
        self._dtt_beta = dtt_beta

    def field_point(self, x, t: float = 0.0) -> FieldPoint:
        x = np.asarray(x, dtype=float)
        b = np.asarray(self._beta(x, t), dtype=float)
        db = np.asarray(self._d_beta(x, t), dtype=float)
        ddb = np.asarray(self._dd_beta(x, t), dtype=float)
        shp = b.shape[:-1]
        if self._dt_beta is not None:
            dtb = np.asarray(self._dt_beta(x, t), dtype=float)
        else:
            dtb = np.zeros(shp + (3,))
        if self._dtt_beta is not None:
            dttb = np.asarray(self._dtt_beta(x, t), dtype=float)
        else:
            dttb = np.zeros(shp + (3,))

        b2 = np.einsum("...i,...i->...", b, b)
        if np.any(b2 >= 1.0):
            raise ValueError("analytic field left the unit ball: |beta| >= 1")
        a = np.sqrt(1.0 - b2)
        # alpha-derivatives from alpha d alpha = -beta . d beta
        da = -np.einsum("...l,...lk->...k", b, db) / a[..., None]
        dta = -np.einsum("...l,...l->...", b, dtb) / a
        # d_j d_k alpha from differentiating the constraint once more
        dda = (
            -np.einsum("...lj,...lk->...jk", db, db)
            - np.einsum("...l,...ljk->...jk", b, ddb)
            - da[..., :, None] * da[..., None, :]
        ) / a[..., None, None]
        dtta = (
            -np.einsum("...l,...l->...", dtb, dtb)
            - np.einsum("...l,...l->...", b, dttb)
            - dta * dta
        ) / a
        return FieldPoint(
            alpha=a,
            beta=b,
            d_beta=db,
            d_alpha=da,
            dt_beta=dtb,
            dt_alpha=dta,
            dd_beta=ddb,
            dd_alpha=dda,
            dtt_beta=dttb,
            dtt_alpha=dtta,
        )


class HedgehogField(RotorField):
    """Spherically symmetric ansatz ``beta = x_hat cos w(r)``, ``alpha = sin w(r)``.

    Derivatives are analytic in the profile; ``w``, ``wp``, ``wpp`` are
    callables of r (vectorized).  Optional ``wdot``/``wddot`` give the
    first/second time derivatives of w on the same radial slice, making
    the field a snapshot of a dynamic configuration.

    The rotor direction is undefined at r = 0; evaluation there raises.
    """

    def __init__(self, w, wp, wpp, wdot=None, wddot=None):
        self.w = w
        self.wp = wp
        self.wpp = wpp
        self.wdot = wdot
        self.wddot = wddot

    def field_point(self, x, t: float = 0.0) -> FieldPoint:
        x = np.asarray(x, dtype=float)
        r = np.sqrt(np.einsum("...i,...i->...", x, x))
        if np.any(r == 0.0):
            raise ValueError("hedgehog field is direction-dependent at the origin")
        w = np.asarray(self.w(r), dtype=float)
        wp = np.asarray(self.wp(r), dtype=float)
        wpp = np.asarray(self.wpp(r), dtype=float)
        c, s = np.cos(w), np.sin(w)
        xhat = x / r[..., None]
        eye = np.eye(3)

        # beta_l = x_l g(r) with g = cos(w)/r
        g = c / r
        cp = -s * wp
        cpp = -c * wp * wp - s * wpp
        gp = cp / r - c / r**2
        gpp = cpp / r - 2.0 * cp / r**2 + 2.0 * c / r**3

        b = xhat * c[..., None]
        db = (
            g[..., None, None] * eye
            + (gp / r)[..., None, None] * x[..., :, None] * x[..., None, :]
        )
        # d_j d_k beta_l, symmetric in (j, k)
        ddb = (
            np.einsum("...,lk,...j->...ljk", gp, eye, xhat)
            + np.einsum("...,lj,...k->...ljk", gp / r, eye, x)
            + np.einsum("...,jk,...l->...ljk", gp / r, eye, x)
            + np.einsum("...,...l,...k,...j->...ljk", gpp / r - gp / r**2, x, x, xhat)
        )

        # alpha = sin(w(r))
        sp = c * wp
        spp = -s * wp * wp + c * wpp
        da = sp[..., None] * xhat
        dda = (
            spp[..., None, None] * xhat[..., :, None] * xhat[..., None, :]
            + (sp / r)[..., None, None]
            * (eye - xhat[..., :, None] * xhat[..., None, :])
        )

        shp = np.shape(r)
        if self.wdot is not None:
            wd = np.asarray(self.wdot(r), dtype=float)
            dtb = -xhat * (s * wd)[..., None]
            dta = c * wd
        else:
            wd = np.zeros(shp)
            dtb = np.zeros(shp + (3,))
            dta = np.zeros(shp)
        if self.wddot is not None:
            wdd = np.asarray(self.wddot(r), dtype=float)
        else:
            wdd = np.zeros(shp)
        dttb = -xhat * (c * wd * wd + s * wdd)[..., None]
        dtta = -s * wd * wd + c * wdd

        return FieldPoint(
            alpha=s,
            beta=b,
            d_beta=db,
            d_alpha=da,
            dt_beta=dtb,
            dt_alpha=dta,
            dd_beta=ddb,
            dd_alpha=dda,
            dtt_beta=dttb,
            dtt_alpha=dtta,
        )


class TranslatedField(RotorField):
    """A field displaced by a constant offset: value at x is base(x - offset)."""

    def __init__(self, base: RotorField, offset):
        self.base = base
        self.offset = np.asarray(offset, dtype=float)

    def field_point(self, x, t: float = 0.0) -> FieldPoint:
        return self.base.field_point(np.asarray(x, dtype=float) - self.offset, t)


class ConstantField(RotorField):
    """Spatially and temporally constant rotor."""

    def __init__(self, rotor: Rotor):
        self.rotor_value = rotor

    def field_point(self, x, t: float = 0.0) -> FieldPoint:
        x = np.asarray(x, dtype=float)
        shp = x.shape[:-1]
        alpha = np.full(shp, self.rotor_value.alpha)
        beta = np.broadcast_to(self.rotor_value.beta, shp + (3,)).copy()
        return FieldPoint(alpha=alpha, beta=beta, **_zeros_like_blocks(alpha, beta))


class ProductField:
    """Ordered matrix product of rotor fields.

    Works at the matrix level throughout: ``u = u1 u2 ... uN`` and the
    gradient follows by the product rule.  Rotor values, when requested,
    are recovered from the matrix (double-cover sign chosen as in
    :func:`rotelast.so3.matrix_to_rotor`); derivative blocks of the rotor
    parametrization are not provided.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product of zero fields")
        self.factors = factors

    def u(self, x, t: float = 0.0) -> np.ndarray:
        out = self.factors[0].u(x, t)
        for f in self.factors[1:]:
            out = out @ f.u(x, t)
        return out

    def u_and_du(self, x, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and gradient; the product rule runs over prefix and suffix products."""
        pairs = [f.u_and_du(x, t) for f in self.factors]
        # prefix[m] = u_0 ... u_{m-1} and suffix[m] = u_{m+1} ... u_{n-1}; None is the identity
        prefix, suffix = [None], [None]
        for (u, _), (v, _) in zip(pairs[:-1], reversed(pairs[1:])):
            prefix.append(u if prefix[-1] is None else prefix[-1] @ u)
            suffix.append(v if suffix[-1] is None else v @ suffix[-1])
        suffix.reverse()
        terms = []
        for (_, du), left, right in zip(pairs, prefix, suffix):
            if left is not None:
                du = np.einsum("...ia,...ajk->...ijk", left, du)
            if right is not None:
                du = np.einsum("...iak,...aj->...ijk", du, right)
            terms.append(du)
        u_last = pairs[-1][0]
        return (u_last if prefix[-1] is None else prefix[-1] @ u_last), sum(terms)

    def alpha_beta(self, x, t: float = 0.0):
        return matrix_to_rotor(self.u(x, t))

    def alpha_beta_aligned(self, x, t: float = 0.0):
        """Rotor samples with double-cover signs made continuous along the scan order."""
        return align_rotor_signs(*self.alpha_beta(x, t))


def random_smooth_field(seed: int, amplitude: float = 0.35, support_radius: float = 1.6,
                        n_modes: int = 4) -> AnalyticRotorField:
    """Random smooth rotor field decaying to the identity.

    ``beta(x) = exp(-r^2/R^2) * sum_m c_m cos(k_m . x + phi_m)``, with fixed
    seed; amplitudes are normalized so that ``sup|beta| <= amplitude < 1``.
    Derivatives are exact, so the field can serve as a finite-difference
    oracle.
    """
    rng = np.random.default_rng(seed)
    ks = rng.normal(scale=1.2, size=(n_modes, 3))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    cs = rng.normal(size=(n_modes, 3))
    cs *= amplitude / np.abs(cs).sum(axis=0).max()
    R2 = support_radius**2

    def envelope(x):
        r2 = np.einsum("...i,...i->...", x, x)
        return np.exp(-r2 / R2)

    def beta(x, t=0.0):
        env = envelope(x)
        out = 0.0
        for k, p, c in zip(ks, phis, cs):
            out = out + np.multiply.outer(np.cos(x @ k + p), c)
        return env[..., None] * out

    def d_beta(x, t=0.0):
        env = envelope(x)
        denv = -2.0 * x / R2 * env[..., None]  # [..., k]
        val = 0.0
        dval = 0.0
        for k, p, c in zip(ks, phis, cs):
            ph = x @ k + p
            val = val + np.multiply.outer(np.cos(ph), c)
            dval = dval + np.einsum("...,l,k->...lk", -np.sin(ph), c, k)
        return env[..., None, None] * dval + np.einsum("...l,...k->...lk", val, denv)

    def dd_beta(x, t=0.0):
        env = envelope(x)
        denv = -2.0 * x / R2 * env[..., None]
        # d_j d_k env = (-2/R^2) (d_jk env + x_k d_j env * (-2/R^2) ... ) expand directly
        eye = np.eye(3)
        ddenv = (-2.0 / R2) * (
            np.einsum("jk,...->...jk", eye, env)
            + np.einsum("...k,...j->...jk", x, denv)
        )
        val = 0.0
        dval = 0.0
        ddval = 0.0
        for k, p, c in zip(ks, phis, cs):
            ph = x @ k + p
            val = val + np.multiply.outer(np.cos(ph), c)
            dval = dval + np.einsum("...,l,k->...lk", -np.sin(ph), c, k)
            ddval = ddval + np.einsum("...,l,j,k->...ljk", -np.cos(ph), c, k, k)
        return (
            env[..., None, None, None] * ddval
            + np.einsum("...lj,...k->...ljk", dval, denv)
            + np.einsum("...lk,...j->...ljk", dval, denv)
            + np.einsum("...l,...jk->...ljk", val, ddenv)
        )

    return AnalyticRotorField(beta, d_beta, dd_beta)
