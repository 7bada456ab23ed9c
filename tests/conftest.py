import numpy as np
import pytest
from hypothesis import settings

import rotelast as rl

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


def random_rotor(rng, max_norm=0.999):
    b = rng.normal(size=3)
    b *= rng.uniform(0.0, max_norm) / np.linalg.norm(b)
    return rl.make_rotor(b, sign=int(rng.choice([-1, 1])))
