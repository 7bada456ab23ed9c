"""Rotational elasticity on SO(3) rotor fields.

Kinematics of the Nye tensor, the nonlinear equations of motion, the
spherically symmetric soliton sector, and the topological winding charge.
"""

from .so3 import (
    LEVI_CIVITA,
    Rotor,
    is_special_orthogonal,
    make_rotor,
    matrix_to_rotor,
    rotor_to_matrix,
    rotor_to_matrix_inv,
)
from .fields import (
    AnalyticRotorField,
    ConstantField,
    FieldPoint,
    HedgehogField,
    ProductField,
    RotorField,
    TranslatedField,
    random_smooth_field,
)
from .kinematics import (
    Moduli,
    NyeDecomposition,
    RotorGrid,
    check_identity_TT,
    decompose,
    kinetic_density,
    linearized_lagrangian,
    load_grid_csv,
    nye_analytic,
    nye_fd,
    nye_fd_grid,
    nye_matrix,
    nye_velocity,
    nye_velocity_vector,
    potential_density,
    quadratic_invariants,
    save_grid_csv,
    torsion_from_nye,
)
from .field_equations import (
    ALPHA_MIN,
    SingularGaugeError,
    g_tensor_space,
    g_tensor_time,
    grid_field_point,
    h_tensors,
    p_inverse,
    p_matrix,
    residual_eqs,
    residual_eqs2,
    residual_eqs2_at,
    residual_eqs_at,
    residual_grid,
)
from .radial import (
    DivergenceError,
    Equilibrium,
    EvolveResult,
    InstabilityError,
    RadialProfile,
    autonomous_residual,
    discrete_energy,
    equilibria,
    evolve_dynamic,
    indicial_exponent,
    lift_hedgehog,
    load_profile_csv,
    potential_U,
    potential_U_integral,
    resample_uniform,
    save_profile_csv,
    solve_static,
    static_residual,
)
from .topology import (
    ChargeReport,
    charge_density,
    hedgehog_charge_profile,
    total_charge,
)

__version__ = "0.1.0"
