"""Rotational elasticity on SO(3) rotor fields.

Kinematics of the Nye tensor, the nonlinear equations of motion, the
spherically symmetric soliton sector, and the topological winding charge.
Each module's ``__all__`` lists its public names; the package re-exports them.
"""

from .so3 import *
from .fields import *
from .kinematics import *
from .field_equations import *
from .radial import *
from .topology import *

__version__ = "0.1.0"
