from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

import rotelast as rl
from rotelast.fields import _check_order
from rotelast.so3 import _cf, _eps_ddot

# property tests draw the same examples on every run, with no per-example time limit
settings.register_profile("rotelast", derandomize=True, deadline=None)
settings.load_profile("rotelast")


@pytest.fixture(scope="session")
def unit_moduli():
    return rl.Moduli.from_couplings(1.0, 1.0)


@pytest.fixture(scope="session")
def soliton_profile(unit_moduli):
    """The reference static profile: lambda1 = lambda2 = 1, w'(0) = 1."""
    return rl.solve_static(unit_moduli, slope0=1.0, r_max=60.0, tol=1e-10)


@pytest.fixture(scope="session")
def soliton_field(soliton_profile):
    return rl.lift_hedgehog(soliton_profile)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


#: totally antisymmetric symbol, eps[0,1,2] = +1: the dense oracle of the package's hand-written contractions
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0


def eps_ddot(w: np.ndarray) -> np.ndarray:
    """Axial contraction ``[..., l] = eps_lij w_ij`` of a batch of 3x3 matrices."""
    return np.stack(_eps_ddot(_cf(np.asarray(w, dtype=float), 2)), axis=-1)


@dataclass(frozen=True)
class Rotor:
    """One rotor value; construct through :func:`make_rotor`."""

    beta: np.ndarray
    alpha: float


def make_rotor(beta, sign: int = +1) -> Rotor:
    """The rotor with ``beta`` and ``alpha = sign*sqrt(1 - |beta|^2)``; |beta| may exceed 1 by 1e-12."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    assert beta.shape == (3,) and sign in (+1, -1) and b2 <= 1.0 + 1e-12
    return Rotor(beta=beta, alpha=float(sign * np.sqrt(max(0.0, 1.0 - b2))))


class ConstantField(rl.RotorField):
    """Spatially and temporally constant rotor."""

    def __init__(self, rotor: Rotor):
        self.rotor_value = rotor

    def field_point(self, x, *, order: int = 2) -> rl.FieldPoint:
        _check_order(order)
        shp = np.shape(x)[:-1]
        fp = rl.FieldPoint(alpha=np.full(shp, self.rotor_value.alpha),
                           beta=np.broadcast_to(self.rotor_value.beta, shp + (3,)).copy())
        if order >= 1:
            fp.d_beta, fp.d_alpha = np.zeros(shp + (3, 3)), np.zeros(shp + (3,))
            fp.dt_beta, fp.dt_alpha = np.zeros(shp + (3,)), np.zeros(shp)
        if order == 2:
            fp.dd_beta, fp.dd_alpha = np.zeros(shp + (3, 3, 3)), np.zeros(shp + (3, 3))
            fp.dtt_beta, fp.dtt_alpha = np.zeros(shp + (3,)), np.zeros(shp)
        return fp


def random_rotor(rng, max_norm=0.999):
    b = rng.normal(size=3)
    b *= rng.uniform(0.0, max_norm) / np.linalg.norm(b)
    return make_rotor(b, sign=int(rng.choice([-1, 1])))
