"""Nye tensor kinematics, irreducible decomposition, and energy densities.

The Nye tensor of an orthogonal matrix field u is

    A_lk = (1/2) eps_lij (u d_k u^T)_ij ,

computed either analytically from the rotor blocks (for ansatz fields) or by
second-order central differences on a :class:`RotorGrid`.  The torsion
matrix is the linear image ``T = A - tr(A) I``; its trace, antisymmetric and
symmetric-traceless parts carry the quadratic invariants that build the
potential energy density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldPoint, RotorField
from .so3 import LEVI_CIVITA, Rotor, rotor_matrix

__all__ = [
    "Moduli",
    "NyeDecomposition",
    "RotorGrid",
    "nye_matrix",
    "nye_velocity_vector",
    "nye_analytic",
    "nye_velocity",
    "nye_fd",
    "nye_fd_grid",
    "torsion_from_nye",
    "decompose",
    "quadratic_invariants",
    "potential_density",
    "kinetic_density",
    "linearized_lagrangian",
    "check_identity_TT",
    "save_grid_csv",
    "load_grid_csv",
]

RECOMPOSE_TOL = 1e-12


@dataclass(frozen=True)
class Moduli:
    """Elastic moduli c1, c2, c3 >= 0 and the derived couplings.

    The effective couplings of the quadratic energy are
    ``lambda1 = (4/3)(c3 + c1/2)`` and ``lambda2 = c1 + c2``.  Units are
    dimensionless throughout; the overall scale is the caller's business.
    """

    c1: float
    c2: float
    c3: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if min(self.c1, self.c2, self.c3) < 0:
            raise ValueError("elastic moduli must be non-negative")
        if abs(self.lambda1 - (4.0 / 3.0) * (self.c3 + 0.5 * self.c1)) > 1e-12 * max(1.0, abs(self.lambda1)):
            raise ValueError("lambda1 inconsistent with (c1, c3)")
        if abs(self.lambda2 - (self.c1 + self.c2)) > 1e-12 * max(1.0, abs(self.lambda2)):
            raise ValueError("lambda2 inconsistent with (c1, c2)")

    @classmethod
    def from_constants(cls, c1: float, c2: float, c3: float) -> "Moduli":
        return cls(c1=c1, c2=c2, c3=c3,
                   lambda1=(4.0 / 3.0) * (c3 + 0.5 * c1), lambda2=c1 + c2)

    @classmethod
    def from_couplings(cls, lambda1: float, lambda2: float) -> "Moduli":
        """Build from the couplings; the c-triple (0, lambda2, 3 lambda1/4) is
        one non-negative representative (only the couplings enter dynamics)."""
        if lambda1 < 0 or lambda2 < 0:
            raise ValueError("couplings must be non-negative")
        return cls(c1=0.0, c2=lambda2, c3=0.75 * lambda1,
                   lambda1=lambda1, lambda2=lambda2)


@dataclass(frozen=True)
class NyeDecomposition:
    """Trace / antisymmetric / symmetric-traceless split of a 3x3 matrix."""

    trace_part: float
    antisym_part: np.ndarray
    sym_traceless_part: np.ndarray

    def recompose(self) -> np.ndarray:
        return (self.trace_part / 3.0) * np.eye(3) + self.antisym_part + self.sym_traceless_part


def decompose(m: np.ndarray) -> NyeDecomposition:
    """Split m into trace scalar, skew part, and symmetric traceless part."""
    m = np.asarray(m, dtype=float)
    tr = float(np.trace(m))
    skew = 0.5 * (m - m.T)
    symtl = 0.5 * (m + m.T) - (tr / 3.0) * np.eye(3)
    return NyeDecomposition(trace_part=tr, antisym_part=skew, sym_traceless_part=symtl)


def torsion_from_nye(a: np.ndarray) -> np.ndarray:
    """Torsion matrix ``T = A - tr(A) I`` (batched)."""
    a = np.asarray(a, dtype=float)
    tr = np.trace(a, axis1=-2, axis2=-1)
    return a - tr[..., None, None] * np.eye(3)


def quadratic_invariants(t: np.ndarray) -> tuple[float, float]:
    """Densities of the two surviving quadratic torsion invariants.

    For the torsion matrix t these are the Frobenius square of the skew
    part (``trace_sq``, the square of the torsion trace vector) and
    ``tr(t)^2 / 3`` (``axial_sq``, the square of the axial trace).  Both
    are non-negative.
    """
    t = np.asarray(t, dtype=float)
    skew = 0.5 * (t - np.swapaxes(t, -1, -2))
    trace_sq = np.einsum("...ij,...ij->...", skew, skew)
    tr = np.trace(t, axis1=-2, axis2=-1)
    axial_sq = tr * tr / 3.0
    if t.ndim == 2:
        return float(trace_sq), float(axial_sq)
    return trace_sq, axial_sq


def nye_matrix(fp: FieldPoint) -> np.ndarray:
    """Nye tensor from rotor derivative blocks (batched).

    ``A_lk = 2 (eps_lij beta^i d_k beta^j + beta_l d_k alpha - alpha d_k beta_l)``.
    """
    term = (
        np.einsum("lij,...i,...jk->...lk", LEVI_CIVITA, fp.beta, fp.d_beta)
        + np.einsum("...l,...k->...lk", fp.beta, fp.d_alpha)
        - fp.alpha[..., None, None] * fp.d_beta
    )
    return 2.0 * term


def nye_velocity_vector(fp: FieldPoint) -> np.ndarray:
    """Deformation velocity ``A_lt``, same contraction with d_t in place of d_k."""
    term = (
        np.einsum("lij,...i,...j->...l", LEVI_CIVITA, fp.beta, fp.dt_beta)
        + fp.beta * fp.dt_alpha[..., None]
        - fp.alpha[..., None] * fp.dt_beta
    )
    return 2.0 * term


def nye_analytic(field: RotorField, point, time: float = 0.0) -> np.ndarray:
    """Nye tensor of an analytic rotor field at a point."""
    return nye_matrix(field.field_point(np.asarray(point, dtype=float), time))


def nye_velocity(field: RotorField, point, time: float = 0.0) -> np.ndarray:
    """Velocity column A_lt of an analytic rotor field at a point."""
    return nye_velocity_vector(field.field_point(np.asarray(point, dtype=float), time))


def potential_density(a: np.ndarray, m: Moduli):
    """Quadratic potential density ``lambda1 (tr A)^2 + lambda2 |skew A|^2``."""
    a = np.asarray(a, dtype=float)
    tr = np.trace(a, axis1=-2, axis2=-1)
    skew = 0.5 * (a - np.swapaxes(a, -1, -2))
    val = m.lambda1 * tr * tr + m.lambda2 * np.einsum("...ij,...ij->...", skew, skew)
    return float(val) if a.ndim == 2 else val


def kinetic_density(a_t: np.ndarray):
    """Kinetic density ``A_lt A^lt`` (Euclidean norm squared)."""
    a_t = np.asarray(a_t, dtype=float)
    val = np.einsum("...l,...l->...", a_t, a_t)
    return float(val) if a_t.ndim == 1 else val


def linearized_lagrangian(beta_dot, grad_beta, m: Moduli) -> float:
    """Small-amplitude Lagrangian ``4 bdot^2 - 4 l1 (div b)^2 - 2 l2 (curl b)^2``.

    ``grad_beta[l, k] = d_k beta_l``.
    """
    beta_dot = np.asarray(beta_dot, dtype=float)
    g = np.asarray(grad_beta, dtype=float)
    div = np.trace(g)
    curl = np.array([g[2, 1] - g[1, 2], g[0, 2] - g[2, 0], g[1, 0] - g[0, 1]])
    return float(4.0 * beta_dot @ beta_dot - 4.0 * m.lambda1 * div * div
                 - 2.0 * m.lambda2 * curl @ curl)


# ---------------------------------------------------------------------------
# grids


class RotorGrid:
    """Uniform Cartesian grid of rotors, stored as (alpha, beta) arrays.

    ``alpha`` has shape ``dims`` and ``beta`` shape ``dims + (3,)``; the
    point of index ``(i, j, k)`` sits at ``origin + h * (i, j, k)``.  Alpha
    is stored explicitly so fields crossing alpha = 0 stay smooth in the
    joint representation.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray, spacing: float, origin):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.ndim != 3 or beta.shape != alpha.shape + (3,):
            raise ValueError("alpha must be (nx,ny,nz), beta (nx,ny,nz,3)")
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        defect = np.abs(alpha**2 + np.einsum("...i,...i->...", beta, beta) - 1.0).max()
        if defect > 1e-10:
            raise ValueError(f"stored rotors violate the unit constraint by {defect:.3e}")
        self.alpha = alpha
        self.beta = beta
        self.spacing = float(spacing)
        self.origin = np.asarray(origin, dtype=float)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.alpha.shape

    def rotor_at(self, i: int, j: int, k: int) -> Rotor:
        return Rotor(beta=self.beta[i, j, k].copy(), alpha=float(self.alpha[i, j, k]))

    def point(self, i: int, j: int, k: int) -> np.ndarray:
        return self.origin + self.spacing * np.array([i, j, k], dtype=float)

    def points(self) -> np.ndarray:
        """All grid point coordinates, shape dims + (3,)."""
        axes = [self.origin[d] + self.spacing * np.arange(self.dims[d]) for d in range(3)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def u_array(self) -> np.ndarray:
        """Orthogonal matrices at every node, shape dims + (3, 3)."""
        return rotor_matrix(self.alpha, self.beta)

    @classmethod
    def from_field(cls, field, dims, spacing: float, origin, time: float = 0.0) -> "RotorGrid":
        dims = tuple(int(d) for d in dims)
        axes = [np.asarray(origin, dtype=float)[d] + spacing * np.arange(dims[d]) for d in range(3)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        alpha, beta = field.alpha_beta(pts, time)
        return cls(alpha=alpha, beta=beta, spacing=spacing, origin=origin)


def _shifted(arr: np.ndarray, margin: int, offset) -> np.ndarray:
    """``arr`` over the nodes ``margin`` cells inside every face of the grid
    axes, displaced by ``offset`` cells along each of them."""
    return arr[tuple(slice(margin + o, n - margin + o) for n, o in zip(arr.shape, offset))]


def central_diff(arr: np.ndarray, axis: int, h: float, margin: int = 1) -> np.ndarray:
    """Second-order central first derivative along a grid axis.

    ``arr`` has the three grid axes first; trailing axes are carried along.
    The output covers the nodes at least ``margin`` cells from every face,
    so stacked derivatives stay index-aligned; callers track the margin.
    """
    e = np.eye(3, dtype=int)[axis]
    return (_shifted(arr, margin, e) - _shifted(arr, margin, -e)) / (2.0 * h)


def central_diff2(arr: np.ndarray, ax1: int, ax2: int, h: float, margin: int = 1) -> np.ndarray:
    """Second-order central ``d_ax1 d_ax2``: three-point stencil on the
    diagonal, four-point cross stencil off it; layout as :func:`central_diff`."""
    e1, e2 = np.eye(3, dtype=int)[[ax1, ax2]]
    if ax1 == ax2:
        return (_shifted(arr, margin, e1) - 2 * _shifted(arr, margin, (0, 0, 0))
                + _shifted(arr, margin, -e1)) / (h * h)
    return (_shifted(arr, margin, e1 + e2) - _shifted(arr, margin, e1 - e2)
            - _shifted(arr, margin, e2 - e1) + _shifted(arr, margin, -e1 - e2)) / (4 * h * h)


def nye_fd_grid(grid: RotorGrid) -> np.ndarray:
    """Nye tensor at all interior nodes by central differences of u.

    Returns shape ``(nx-2, ny-2, nz-2, 3, 3)``, aligned with indices
    ``1..n-2`` of the grid.
    """
    u = grid.u_array()
    core = u[1:-1, 1:-1, 1:-1]
    A = np.empty(core.shape[:3] + (3, 3))
    for k in range(3):
        du = central_diff(u, k, grid.spacing)
        w = np.einsum("...ia,...ja->...ij", core, du)  # u d_k u^T
        A[..., :, k] = 0.5 * np.einsum("lij,...ij->...l", LEVI_CIVITA, w)
    return A


def nye_fd(grid: RotorGrid, index) -> np.ndarray:
    """Nye tensor at one grid node by second-order central differences.

    The index must be at least one cell from every boundary.
    """
    i, j, k = (int(v) for v in index)
    for d, n in zip((i, j, k), grid.dims):
        if d < 1 or d > n - 2:
            raise IndexError(f"index {(i, j, k)} not interior to grid of dims {grid.dims}")
    near = (slice(i - 1, i + 2), slice(j - 1, j + 2), slice(k - 1, k + 2))
    return nye_fd_grid(RotorGrid(grid.alpha[near], grid.beta[near], grid.spacing, grid.origin))[0, 0, 0]


def check_identity_TT(grid: RotorGrid) -> float:
    """Max pointwise residual of the quadratic-invariant identity.

    With T the torsion matrix of the sampled field, tau = tr T, S and D its
    skew and symmetric-traceless parts, and v_k = eps_ijk T_ij, the flat
    3-space identity in components reads

        |D|^2 = |S|^2 + tau^2 / 6 + 2 div v .

    Both sides are evaluated by central differences (margin 2: the Nye
    tensor needs one neighbour layer, div v a second), and the maximum of
    |lhs - rhs| over the remaining interior is returned.  For smooth fields
    it decays at second order in the spacing.
    """
    if min(grid.dims) < 5:
        raise ValueError("identity check needs a grid of at least 5 cells per axis")
    A = nye_fd_grid(grid)
    T = torsion_from_nye(A)
    tau = np.trace(T, axis1=-2, axis2=-1)
    S = 0.5 * (T - np.swapaxes(T, -1, -2))
    D = 0.5 * (T + np.swapaxes(T, -1, -2)) - (tau / 3.0)[..., None, None] * np.eye(3)
    v = np.einsum("ijk,...ij->...k", LEVI_CIVITA, T)
    div_v = sum(central_diff(v, k, grid.spacing)[..., k] for k in range(3))
    c = (slice(1, -1),) * 3
    lhs = np.einsum("...ij,...ij->...", D, D)[c]
    rhs = (np.einsum("...ij,...ij->...", S, S) + tau * tau / 6.0)[c] + 2.0 * div_v
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# serialization (format shared with the command line front end)

GRID_MAGIC = "rotor-grid-csv 1"


def save_grid_csv(grid: RotorGrid, path) -> None:
    """Write a grid as CSV: header comments, then alpha,bx,by,bz rows.

    Rows run in x-fastest order: index i varies fastest, then j, then k.
    """
    nx, ny, nz = grid.dims
    f_ = lambda x: repr(float(x))  # shortest round-trip decimal for 64-bit floats
    with open(path, "w", newline="\n") as f:
        f.write(f"# {GRID_MAGIC}\n")
        f.write(f"# dims {nx} {ny} {nz}\n")
        f.write(f"# spacing {f_(grid.spacing)}\n")
        f.write(f"# origin {f_(grid.origin[0])} {f_(grid.origin[1])} {f_(grid.origin[2])}\n")
        f.write("alpha,beta_x,beta_y,beta_z\n")
        a = np.transpose(grid.alpha, (2, 1, 0)).reshape(-1)
        b = np.transpose(grid.beta, (2, 1, 0, 3)).reshape(-1, 3)
        for n in range(a.size):
            f.write(f"{f_(a[n])},{f_(b[n,0])},{f_(b[n,1])},{f_(b[n,2])}\n")


def load_grid_csv(path) -> RotorGrid:
    """Read a grid written by :func:`save_grid_csv`."""
    with open(path) as f:
        magic = f.readline().strip()
        if magic != f"# {GRID_MAGIC}":
            raise ValueError(f"not a rotor grid file: {magic!r}")
        dims = tuple(int(v) for v in f.readline().split()[2:5])
        spacing = float(f.readline().split()[2])
        origin = np.array([float(v) for v in f.readline().split()[2:5]])
        header = f.readline().strip()
        if header != "alpha,beta_x,beta_y,beta_z":
            raise ValueError("bad column header")
        data = np.loadtxt(f, delimiter=",").reshape(-1, 4)
    nx, ny, nz = dims
    alpha = np.transpose(data[:, 0].reshape(nz, ny, nx), (2, 1, 0))
    beta = np.transpose(data[:, 1:].reshape(nz, ny, nx, 3), (2, 1, 0, 3))
    return RotorGrid(alpha=alpha, beta=beta, spacing=spacing, origin=origin)
