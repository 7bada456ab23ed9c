"""The derivative-order contract of ``field_point(x, order=...)``.

A field evaluated at order 0, 1 or 2 builds the blocks up to that order and
leaves the higher ones ``None``.  Every block that is built must equal the
order-2 block bit for bit, and a field must not call the callables of the
orders it was not asked for.
"""

import numpy as np
import pytest

import rotelast as rl
from rotelast.fields import nye_matrix
from rotelast.so3 import rotor_matrix

from conftest import ConstantField, make_rotor

ORDER_BLOCKS = (
    ("alpha", "beta"),
    ("d_beta", "d_alpha", "dt_beta", "dt_alpha"),
    ("dd_beta", "dd_alpha", "dtt_beta", "dtt_alpha"),
)


class Counting:
    """A callable that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def tanh_hedgehog(wdot=None):
    """A degree-one tanh core with counted profile callables."""
    return rl.HedgehogField(Counting(lambda r: np.pi / 2 - np.pi * np.tanh(r)),
                            Counting(lambda r: -np.pi / np.cosh(r) ** 2),
                            Counting(lambda r: 2 * np.pi * np.tanh(r) / np.cosh(r) ** 2),
                            wdot=None if wdot is None else Counting(wdot))


def breathing_smooth_field(seed, t):
    """``beta(x) = cos(t) beta_s(x)`` at time t for a seeded smooth ``beta_s``, every callable counted."""
    s = rl.random_smooth_field(seed=seed)
    return rl.AnalyticRotorField(
        Counting(lambda x: np.cos(t) * s._beta(x)),
        Counting(lambda x: np.cos(t) * s._d_beta(x)),
        Counting(lambda x: np.cos(t) * s._dd_beta(x)),
        dt_beta=Counting(lambda x: -np.sin(t) * s._beta(x)),
        dtt_beta=Counting(lambda x: -np.cos(t) * s._beta(x)),
    )


def fields():
    smooth = rl.random_smooth_field(seed=5)
    return {
        "hedgehog": tanh_hedgehog(),
        "hedgehog_wdot": tanh_hedgehog(wdot=lambda r: 0.3 * np.exp(-r)),
        "random_smooth_field": rl.AnalyticRotorField(Counting(smooth._beta), Counting(smooth._d_beta),
                                                     Counting(smooth._dd_beta)),
        "breathing_smooth_field": breathing_smooth_field(6, t=0.7),
        "translated": rl.TranslatedField(tanh_hedgehog(wdot=lambda r: np.sin(r)), [0.4, -0.3, 0.2]),
        "constant": ConstantField(make_rotor([0.2, -0.5, 0.1], -1)),
    }


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(7).uniform(-1.5, 1.5, size=(300, 3))


def counted(field):
    """The counted callables of a field, by name."""
    base = field.base if isinstance(field, rl.TranslatedField) else field
    if isinstance(base, rl.HedgehogField):
        names = ("w", "wp", "wpp", "wdot")
        return {n: getattr(base, n) for n in names if getattr(base, n) is not None}
    if isinstance(base, rl.AnalyticRotorField):
        names = ("beta", "d_beta", "dd_beta", "dt_beta", "dtt_beta")
        return {n: getattr(base, "_" + n) for n in names if getattr(base, "_" + n) is not None}
    return {}


#: the callables an evaluation of each order may call
ALLOWED = {
    0: {"w", "beta"},
    1: {"w", "wp", "wdot", "beta", "d_beta", "dt_beta"},
    2: {"w", "wp", "wpp", "wdot", "beta", "d_beta", "dd_beta", "dt_beta", "dtt_beta"},
}


@pytest.mark.parametrize("name", list(fields()))
class TestOrderContract:
    @pytest.mark.parametrize("order", [0, 1])
    def test_built_blocks_equal_order_2_and_higher_are_none(self, name, order, points):
        field = fields()[name]
        full = field.field_point(points)
        low = field.field_point(points, order=order)
        for level, blocks in enumerate(ORDER_BLOCKS):
            for block in blocks:
                if level <= order:
                    got, want = getattr(low, block), getattr(full, block)
                    assert got.shape == want.shape, block
                    assert got.tobytes() == want.tobytes(), block
                else:
                    assert getattr(low, block) is None, block

    def test_order_2_builds_every_block(self, name, points):
        fp = fields()[name].field_point(points)
        for blocks in ORDER_BLOCKS:
            for block in blocks:
                assert getattr(fp, block).shape[:1] == (len(points),), block

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_calls_only_the_callables_of_the_order(self, name, order, points):
        field = fields()[name]
        field.field_point(points, order=order)
        calls = {n: fn.calls for n, fn in counted(field).items()}
        assert {n for n, c in calls.items() if c} == set(calls) & ALLOWED[order]
        assert all(c <= 1 for c in calls.values())

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_constraint_residual_at_every_order(self, name, order, points):
        assert fields()[name].field_point(points, order=order).constraint_residual() <= 1e-12

    @pytest.mark.parametrize("order", [-1, 3, 1.5])
    def test_invalid_order_rejected(self, name, order, points):
        with pytest.raises(ValueError, match="order"):
            fields()[name].field_point(points, order=order)

    def test_stale_positional_time_rejected(self, name, points):
        # a field is a snapshot: a second positional argument, once the time, is no order either
        with pytest.raises(TypeError):
            fields()[name].field_point(points, 1)


class TestConsumerOrders:
    def test_alpha_beta_and_grid_sample_at_order_0(self, points):
        field = tanh_hedgehog()
        alpha, beta = field.alpha_beta(points)
        rl.RotorGrid.from_field(field, dims=(4, 4, 4), spacing=0.3, origin=(0.1, 0.2, 0.3))
        assert field.wp.calls == 0 and field.wpp.calls == 0
        full = field.field_point(points)
        assert alpha.tobytes() == full.alpha.tobytes() and beta.tobytes() == full.beta.tobytes()

    def test_nye_consumers_at_order_1(self, points):
        field = breathing_smooth_field(8, t=0.3)
        field.nye(points)
        rl.nye_velocity_vector(field.field_point(points, order=1))
        field.u_and_nye(points)
        rl.charge_density(field, points)
        assert field._dd_beta.calls == 0 and field._dtt_beta.calls == 0
        assert field._d_beta.calls == 4

    def test_constraint_residual_sees_first_order_blocks(self, points):
        fp = tanh_hedgehog().field_point(points, order=1)
        assert fp.constraint_residual() <= 1e-12
        fp.d_alpha = fp.d_alpha + 1e-6
        assert fp.constraint_residual() >= 1e-7

    def test_constraint_residual_reports_nan(self, points):
        # Python's max(0.0, nan, 0.0) is 0.0; the residual must not hide a NaN block
        fp = rl.random_smooth_field(seed=5).field_point(points, order=1)
        fp.d_alpha = fp.d_alpha.copy()
        fp.d_alpha[1, 2] = np.nan
        assert np.isnan(fp.constraint_residual())


def charge_density_all_blocks(field, x):
    """``det(A) / 16 pi^2`` with every Nye tensor taken from a full order-2 evaluation."""
    factors = field.factors if isinstance(field, rl.ProductField) else [field]
    fp = factors[0].field_point(x)
    left, a = rotor_matrix(fp.alpha, fp.beta), nye_matrix(fp)
    for f in factors[1:]:
        fp = f.field_point(x)
        a = a + left @ nye_matrix(fp)
        left = left @ rotor_matrix(fp.alpha, fp.beta)
    a_x, a_y, a_z = np.moveaxis(a, -1, 0)
    return (1.0 / (16.0 * np.pi**2)) * np.einsum("...i,...i->...", a_x, np.cross(a_y, a_z))


class TestChargeDensityUnchanged:
    def test_single_hedgehog(self, points):
        field = tanh_hedgehog()
        assert rl.charge_density(field, points).tobytes() == \
            charge_density_all_blocks(field, points).tobytes()
        assert field.wpp.calls == 1  # the oracle's evaluation only

    def test_two_core_product(self):
        rng = np.random.default_rng(9)
        centres = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]]) + rng.uniform(-0.3, 0.3, size=(2, 3))
        field = rl.ProductField([rl.TranslatedField(tanh_hedgehog(), c) for c in centres])
        x = rng.uniform(-4.0, 4.0, size=(500, 3))
        assert rl.charge_density(field, x).tobytes() == charge_density_all_blocks(field, x).tobytes()
        assert field.nye(x).tobytes() == field.u_and_nye(x)[1].tobytes()
