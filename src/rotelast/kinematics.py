"""Nye tensor kinematics, irreducible decomposition, and energy densities.

The Nye tensor of an orthogonal matrix field u is

    A_lk = (1/2) eps_lij (u d_k u^T)_ij ,

computed either analytically from the rotor blocks (for ansatz fields) or by
second-order central differences on a :class:`RotorGrid`.  The torsion
matrix is the linear image ``T = A - tr(A) I``; its trace, antisymmetric and
symmetric-traceless parts carry the quadratic invariants that build the
potential energy density.

The grid stencil builds u and the Nye tensor with the component axes first
and the grid axes last, so each ufunc loop runs along the grid; the public
results stay C-order ``[..., l, k]`` arrays.  The trace and part helpers
keep the memory order they are given, so the identity check applies them to
views of that layout.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

# nye_matrix is public in fields, next to FieldPoint; this binding is the name the benchmark traces
from .fields import FieldPoint, _nye_bracket, nye_matrix
from .so3 import _bl, _cf, _dot, _eps_ddot, _rotor_matrix, _unit_defect, rotor_matrix

__all__ = [
    "Moduli",
    "NyeDecomposition",
    "RotorGrid",
    "nye_velocity_vector",
    "nye_fd_grid",
    "torsion_from_nye",
    "decompose",
    "quadratic_invariants",
    "potential_density",
    "kinetic_density",
    "check_identity_TT",
    "save_grid_csv",
    "load_grid_csv",
]

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
        # written so that NaN fails every bound
        if not all(c >= 0 for c in (self.c1, self.c2, self.c3)):
            raise ValueError("elastic moduli must be non-negative")
        if not abs(self.lambda1 - (4.0 / 3.0) * (self.c3 + 0.5 * self.c1)) <= 1e-12 * max(1.0, abs(self.lambda1)):
            raise ValueError("lambda1 inconsistent with (c1, c3)")
        if not abs(self.lambda2 - (self.c1 + self.c2)) <= 1e-12 * max(1.0, abs(self.lambda2)):
            raise ValueError("lambda2 inconsistent with (c1, c2)")

    @classmethod
    def from_constants(cls, c1: float, c2: float, c3: float) -> "Moduli":
        return cls(c1=c1, c2=c2, c3=c3,
                   lambda1=(4.0 / 3.0) * (c3 + 0.5 * c1), lambda2=c1 + c2)

    @classmethod
    def from_couplings(cls, lambda1: float, lambda2: float) -> "Moduli":
        """Build from the couplings; the c-triple (0, lambda2, 3 lambda1/4) is
        one non-negative representative (only the couplings enter dynamics)."""
        if not (lambda1 >= 0 and lambda2 >= 0):
            raise ValueError("couplings must be non-negative")
        return cls(c1=0.0, c2=lambda2, c3=0.75 * lambda1,
                   lambda1=lambda1, lambda2=lambda2)


@dataclass(frozen=True)
class NyeDecomposition:
    """Trace / antisymmetric / symmetric-traceless split of a 3x3 matrix."""

    trace_part: float
    antisym_part: np.ndarray
    sym_traceless_part: np.ndarray


def _trace_skew(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace and skew part ``(m - m^T) / 2`` of a batch of 3x3 matrices."""
    skew = np.subtract(m, np.swapaxes(m, -1, -2))
    return np.trace(m, axis1=-2, axis2=-1), np.multiply(0.5, skew, out=skew)


def _sym_traceless(m: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Symmetric traceless part ``(m + m^T) / 2 - (tr / 3) I`` of a batch of 3x3 matrices of trace tr."""
    sym = np.add(m, np.swapaxes(m, -1, -2))
    return _minus_scalar(np.multiply(0.5, sym, out=sym), tr / 3.0, out=sym)


def _minus_scalar(m: np.ndarray, s, out=None) -> np.ndarray:
    """``m - s I`` for batches of 3x3 matrices m and scalars s, with ``s * 0.0`` subtracted off the
    diagonal, into ``out`` or an array in the memory order of m: on a :func:`so3._bl` view of
    component-first memory every loop runs along the batch."""
    out, zero = np.empty_like(m) if out is None else out, s * 0.0
    for i, j in np.ndindex(3, 3):
        np.subtract(_cf(m, 2)[i, j], s if i == j else zero, out=_cf(out, 2)[i, j, ...])
    return out


def decompose(m: np.ndarray) -> NyeDecomposition:
    """Split m into trace scalar, skew part, and symmetric traceless part."""
    m = np.asarray(m, dtype=float)
    tr, skew = _trace_skew(m)
    return NyeDecomposition(trace_part=float(tr), antisym_part=skew,
                            sym_traceless_part=_sym_traceless(m, tr))


def torsion_from_nye(a: np.ndarray) -> np.ndarray:
    """Torsion matrix ``T = A - tr(A) I`` (batched)."""
    a = np.asarray(a, dtype=float)
    return _minus_scalar(a, np.trace(a, axis1=-2, axis2=-1))


def quadratic_invariants(torsion: np.ndarray) -> tuple[float, float]:
    """Densities of the two surviving quadratic torsion invariants.

    For the torsion matrix T these are the Frobenius square of the skew
    part (``trace_sq``, the square of the torsion trace vector) and
    ``tr(T)^2 / 3`` (``axial_sq``, the square of the axial trace).  Both
    are non-negative.
    """
    torsion = np.asarray(torsion, dtype=float)
    tr, skew = _trace_skew(torsion)
    trace_sq = np.einsum("...ij,...ij->...", skew, skew)
    axial_sq = tr * tr / 3.0
    if torsion.ndim == 2:
        return float(trace_sq), float(axial_sq)
    return trace_sq, axial_sq


def nye_velocity_vector(fp: FieldPoint) -> np.ndarray:
    """Deformation velocity ``A_lt``, the bracket of :func:`nye_matrix` with d_t in place of d_k."""
    return _bl(_nye_bracket(fp.alpha, _cf(fp.beta), fp.dt_alpha[None], _cf(fp.dt_beta)[:, None])[:, 0])


def potential_density(a: np.ndarray, m: Moduli):
    """Quadratic potential density ``lambda1 (tr A)^2 + lambda2 |skew A|^2``."""
    a = np.asarray(a, dtype=float)
    tr, skew = _trace_skew(a)
    val = m.lambda1 * tr * tr + m.lambda2 * np.einsum("...ij,...ij->...", skew, skew)
    return float(val) if a.ndim == 2 else val


def kinetic_density(a_t: np.ndarray):
    """Kinetic density ``A_lt A^lt`` (Euclidean norm squared)."""
    a_t = np.asarray(a_t, dtype=float)
    val = np.einsum("...l,...l->...", a_t, a_t)
    return float(val) if a_t.ndim == 1 else val


# ---------------------------------------------------------------------------
# grids

# Whole-grid consumers work through a grid in slabs of whole planes, each of
# about this many output points (under twice as many), so their temporaries
# stay bounded by the slab rather than the grid (see _slabs).  The two walkers
# are _blocks over a lattice's axes and RotorGrid._slabs over a grid's planes.
_SLAB_POINTS = 4096


def _slabs(n: int, plane_points: int, halo: int = 0, min_planes: int = 1):
    """Split the planes ``halo .. n - halo - 1`` of an axis into ``(lo, hi)`` slabs.

    The slabs share the planes evenly, as many of them as fit at a thickness
    of ``_SLAB_POINTS // plane_points`` planes and of at least ``min_planes``
    (a consumer that recomputes work on its halo planes bounds that overhead
    with it): each slab is that thick or thicker, but under twice that,
    unless the axis holds fewer planes.  Every kernel applied to a slab is
    pointwise, so slab by slab results are bit-identical to whole-grid ones.
    """
    planes = n - 2 * halo
    thickness = max(_SLAB_POINTS // max(plane_points, 1), min_planes)
    count = max(planes // thickness, 1) if planes > 0 else 0
    for i in range(count):
        yield halo + i * planes // count, halo + (i + 1) * planes // count


def _blocks(axes, halo: int = 0, min_planes: int = 1):
    """Walk the lattice ``axes[0] x axes[1] x axes[2]`` in x-blocks: yield ``lo, hi`` of each
    :func:`_slabs` slab and the ``[..., 3]`` coordinates of its planes ``lo - halo .. hi + halo - 1``."""
    for lo, hi in _slabs(len(axes[0]), len(axes[1]) * len(axes[2]), halo, min_planes):
        yield lo, hi, np.stack(np.meshgrid(axes[0][lo - halo:hi + halo], *axes[1:], indexing="ij"), axis=-1)


def _centred_axis(half_width: float, h: float) -> np.ndarray:
    """Centres of the even count ``ceil(2 half_width / h)`` (rounded up) of cells of
    width h that cover ``[-half_width, half_width]``: symmetric, none lands on 0."""
    n = int(np.ceil(2.0 * half_width / h))
    n += n % 2
    return h * (np.arange(n) - (n - 1) / 2)


class RotorGrid:
    """Uniform Cartesian grid of rotors, stored as (alpha, beta) arrays.

    ``alpha`` has shape ``dims`` and ``beta`` shape ``dims + (3,)``; the
    point of index ``(i, j, k)`` sits at ``origin + h * (i, j, k)``.  Alpha
    is stored explicitly so fields crossing alpha = 0 stay smooth in the
    joint representation.  The unit constraint is checked on every node,
    slab by slab.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray, spacing: float, origin):
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.ndim != 3 or beta.shape != alpha.shape + (3,):
            raise ValueError("alpha must be (nx,ny,nz), beta (nx,ny,nz,3)")
        if not 0 < spacing < np.inf:  # NaN fails the bound too
            raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
        origin = np.asarray(origin, dtype=float)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValueError(f"origin must be a finite 3-vector, got {origin.tolist()!r}")
        nx, ny, nz = alpha.shape
        defect = np.max([_unit_defect(alpha[lo:hi], beta[lo:hi]).max() for lo, hi in _slabs(nx, ny * nz)])
        if not defect <= 1e-10:  # NaN fails the bound too
            raise ValueError(f"stored rotors violate the unit constraint by {defect:.3e}")
        self.alpha = alpha
        self.beta = beta
        self.spacing = float(spacing)
        self.origin = origin

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.alpha.shape

    def points(self) -> np.ndarray:
        """All grid point coordinates, shape dims + (3,)."""
        axes = [self.origin[d] + self.spacing * np.arange(self.dims[d]) for d in range(3)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def u_array(self) -> np.ndarray:
        """Orthogonal matrices at every node, shape dims + (3, 3)."""
        return rotor_matrix(self.alpha, self.beta)

    def _slabs(self, halo: int, min_planes: int = 1):
        """Walk the grid in the x-slabs of :func:`_slabs` with ``halo`` planes a side: yield ``lo, hi``
        and the planes ``lo - halo .. hi + halo - 1`` as a grid of views, not checked again."""
        nx, ny, nz = self.dims
        for lo, hi in _slabs(nx, (ny - 2 * halo) * (nz - 2 * halo), halo, min_planes):
            sub, x = object.__new__(RotorGrid), slice(lo - halo, hi + halo)
            sub.alpha, sub.beta, sub.spacing = self.alpha[x], self.beta[x], self.spacing
            sub.origin = self.origin + self.spacing * np.array([lo - halo, 0.0, 0.0])
            yield lo, hi, sub

    @classmethod
    def from_field(cls, field, dims, spacing: float, origin) -> "RotorGrid":
        """Sample ``field.alpha_beta`` on the grid, one x-slab of points at a time.

        Only a slab's coordinates and field temporaries exist at once; the
        values equal those of one whole-grid call bit for bit.
        """
        dims = tuple(int(d) for d in dims)
        axes = [np.asarray(origin, dtype=float)[d] + spacing * np.arange(dims[d]) for d in range(3)]
        alpha, beta = np.empty(dims), np.empty(dims + (3,))
        for lo, hi, pts in _blocks(axes):
            alpha[lo:hi], beta[lo:hi] = field.alpha_beta(pts)
        return cls(alpha=alpha, beta=beta, spacing=spacing, origin=origin)


def _shifted(arr: np.ndarray, margin: int, offset) -> np.ndarray:
    """``arr`` over the nodes ``margin`` cells inside every face of the grid
    axes, displaced by ``offset`` cells along each of them."""
    return arr[tuple(slice(margin + o, n - margin + o) for n, o in zip(arr.shape, offset))]


def _central_diff(arr: np.ndarray, axis: int, h: float, margin: int = 1, out=None) -> np.ndarray:
    """Second-order central first derivative along a grid axis.

    ``arr`` has the three grid axes first; trailing axes are carried along.
    The output covers the nodes at least ``margin`` cells from every face,
    so stacked derivatives stay index-aligned; callers track the margin.
    It goes to ``out`` if given, else to an array in the memory order of ``arr``.
    """
    e = np.eye(3, dtype=int)[axis]
    diff = np.subtract(_shifted(arr, margin, e), _shifted(arr, margin, -e), out=out)
    return np.divide(diff, 2.0 * h, out=diff)


def _central_diff2(arr: np.ndarray, ax1: int, ax2: int, h: float, margin: int = 1) -> np.ndarray:
    """Second-order central ``d_ax1 d_ax2``: three-point stencil on the
    diagonal, four-point cross stencil off it; layout as :func:`_central_diff`."""
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
    return np.ascontiguousarray(_bl(_nye_fd(grid), 2))


def _nye_fd(grid: RotorGrid) -> np.ndarray:
    """:func:`nye_fd_grid` with the component axes first, ``[l, k, x, y, z]``: u is built component
    axes first, every loop runs along the grid, and scratch arrays take the temporaries."""
    u = _rotor_matrix(grid.alpha, grid.beta, np.empty((3, 3) + grid.dims))
    core = u[:, :, 1:-1, 1:-1, 1:-1]
    A, du = np.empty(core.shape), np.empty(core.shape)
    mn, nm, term = (np.empty(core.shape[2:]) for _ in range(3))
    # (u d_k u^T)_ij
    dot = lambda i, j, out: _dot(core[i], du[j], out, term)
    for k in range(3):
        _central_diff(_bl(u, 2), k, grid.spacing, out=_bl(du, 2))
        # axial part of u d_k u^T, one component at a time: (1/2) sum_a u_{.a} x d_k u_{.a}
        for l, m, n in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(0.5, np.subtract(dot(m, n, mn), dot(n, m, nm), out=A[l, k]), out=A[l, k])
    return A


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

    The grid is processed in x-slabs that each read two halo planes per
    side (the Nye tensor is recomputed on the inner one), so the memory
    held at once is bounded by the slab; the maximum over the slabs equals
    the whole-grid one exactly.
    """
    if min(grid.dims) < 5:
        raise ValueError("identity check needs a grid of at least 5 cells per axis")
    # neighbours both compute the Nye tensor on the 2 planes at their boundary: 12-plane slabs keep that to 1/6
    return float(np.max([_identity_residual(slab) for _, _, slab in grid._slabs(2, min_planes=12)]))


def _identity_residual(grid: RotorGrid) -> float:
    """:func:`check_identity_TT` over one grid, margin 2, each loop along the grid: the Nye tensor
    is built component axes first, and T, tau, S, D, v and div v keep that memory order.  |D|^2
    and |S|^2 stay np.einsum on C-order copies: no plain order of adds reproduces its 9-term sums."""
    T = torsion_from_nye(_bl(_nye_fd(grid), 2))
    v = _eps_ddot(_cf(T, 2))
    div_v = sum(_central_diff(v[k], k, grid.spacing) for k in range(3))
    c = (slice(1, -1),) * 3
    tau, S = _trace_skew(T[c])
    D, S = np.ascontiguousarray(_sym_traceless(T[c], tau)), np.ascontiguousarray(S)
    sq = lambda m: np.einsum("...ij,...ij->...", m, m)
    return float(np.abs(sq(D) - ((sq(S) + tau * tau / 6.0) + 2.0 * div_v)).max())


# ---------------------------------------------------------------------------
# serialization (format shared with the command line front end and radial)

GRID_MAGIC = "rotor-grid-csv 1"


def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a finite 2-d float table as CSV, each number as ``repr(float(x))``.

    orjson's Ryū formatter writes the same shortest round-trip digits as
    ``repr`` about ten times faster, in the same layout except in three bands:
    1e-9 <= |x| < 1e-5 gets a one-digit exponent (``1e-6`` for ``1e-06``),
    which a zero pads; 1e-5 <= |x| < 1e-4 is positional (``0.0000543`` for
    ``5.43e-05``) and |x| >= 1e16 lacks the plus (``1e16`` for ``1e+16``).
    Those two are dumped as 1e300, whose bytes stand for no other number
    since it lies in the last band, and formatted by ``%r`` in its place.
    """
    import orjson  # here, so that processes that write no CSV never load it

    flat = table.ravel()
    mag = np.abs(flat)
    short = (mag >= 1e-9) & (mag < 1e-5)
    odd = ((mag >= 1e-5) & (mag < 1e-4)) | (mag >= 1e16)
    chars = np.frombuffer(orjson.dumps(np.where(odd, 1e300, flat), option=orjson.OPT_SERIALIZE_NUMPY)
                          .replace(b"1e300", b"%r"), np.uint8)
    # "[x0,x1,...]": number k ends at ends[k], and after the padding at ends[k] + cumsum(short)[k]
    ends = np.append(np.flatnonzero(chars == ord(",")), chars.size - 1)
    chars = np.insert(chars, ends[short] - 1, ord("0"))  # a copy, which can be written
    chars[(ends + np.cumsum(short))[table.shape[1] - 1::table.shape[1]]] = ord("\n")
    return chars[1:].tobytes() % tuple(flat[odd].tolist())


def _write_table(path, magic: str, meta, header: str, columns) -> None:
    """Write ``# magic``, a ``# key values`` line per dict of ``meta``, the header and the
    rows of ``columns`` (one shape, rows in C order, formatted in slabs along axis 0).
    Numbers go out as ``repr(float(x))``, the shortest round-trip decimal; strings as is.
    A non-finite number in ``columns`` raises ``ValueError`` before the file is opened."""
    if not all(np.isfinite(c).all() for c in columns):
        raise ValueError("table entries must be finite")
    fmt = lambda v: " ".join(x if isinstance(x, str) else repr(float(x)) for x in np.ravel(v))
    head = [f"# {magic}"] + ["#" + "".join(f" {key} {fmt(v)}" for key, v in line.items()) for line in meta]
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in head + [header]).encode())
        for lo, hi in _slabs(len(columns[0]), np.size(columns[0][0])):
            f.write(_csv_rows(np.stack([np.ravel(c[lo:hi]) for c in columns], axis=-1, dtype=float)))


def _read_rows(f, ncols: int) -> np.ndarray:
    """``np.loadtxt(f, delimiter=",", ndmin=2)`` bit for bit.  orjson reads chunks of whole lines (64 KiB at the
    default slab size) while each holds only ``0-9 . e + -`` and ``ncols - 1`` commas a line, parses as JSON and
    has a sign bit set for each token that starts with ``-`` (orjson reads the integer ``-0`` as +0).  Any other
    input (``nan``, ``+1``, ``.5``, ``1E5``, CRLF, blank or ``#`` lines) is np.loadtxt's from the first row."""
    import orjson  # here, so that processes without CSV I/O never load it

    start, row, blocks, tail = f.tell(), b"," * (ncols - 1) + b"\n", [], b""
    f.buffer.seek(start)
    while chunk := f.buffer.read(16 * _SLAB_POINTS):
        cut = (chunk := tail + chunk).rfind(b"\n") + 1
        chunk, tail, n = chunk[:cut], chunk[cut:], chunk.count(b"\n", 0, cut)
        marks = chunk.translate(None, b"0123456789.+")  # a "-" not after an "e" starts a negative number
        if marks.translate(None, b"e-") != row * n:
            break
        try:  # orjson's JSONDecodeError, or too few numbers for fromiter (blank lines of one column)
            values = np.fromiter(orjson.loads(b"[" + chunk[:-1].replace(b"\n", b",") + b"]"), float, n * ncols)
        except ValueError:
            break
        if np.count_nonzero(np.signbit(values)) != marks.count(b"-") - marks.count(b"e-"):
            break
        blocks.append(values)
    if not chunk and blocks and not tail:  # every chunk read
        return np.concatenate(blocks).reshape(-1, ncols)
    f.seek(start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no rows at all: the row count check reports it
        return np.loadtxt(f, delimiter=",", ndmin=2)


def _read_table(path, magic: str, layout, headers, rows) -> tuple[dict, np.ndarray]:
    """Read a :func:`_write_table` file with the meta keys and value counts of ``layout``
    (``{"dims": 3}`` a line), one of ``headers`` and ``rows(meta) = (least, most)`` rows;
    any other file raises ``ValueError`` naming the problem.  Returns the meta values
    (float lists by key) and the rows."""
    meta = {}
    with open(path) as f:
        line = f.readline().strip()
        if line != f"# {magic}":
            raise ValueError(f"not a {magic!r} file: first line {line!r}")
        for keys in layout:
            line = f.readline().strip()
            match = re.fullmatch("#" + "".join(rf"\s+{key}\s+(?P<{key}>\S+(?:\s+\S+){{{n - 1}}})"
                                               for key, n in keys.items()), line)
            if match is None:
                raise ValueError(f"bad meta line {line!r}: expected {keys} (key: number of values)")
            meta.update({key: [float(v) for v in text.split()] for key, text in match.groupdict().items()})
        header = f.readline().strip()
        least, most = rows(meta)
        data = _read_rows(f, len(header.split(",")))
    if header not in headers or not least <= len(data) <= most or data.shape[1] != len(header.split(",")):
        raise ValueError(f"expected a header {' or '.join(headers)} over {least} to {most} rows, found "
                         f"{header!r} over {len(data)} rows of {data.shape[1]} columns")
    return meta, data


def save_grid_csv(grid: RotorGrid, path) -> None:
    """Write a grid as CSV: header comments, then alpha,bx,by,bz rows.

    Rows run in x-fastest order: index i varies fastest, then j, then k.
    """
    meta = ({"dims": [str(n) for n in grid.dims]}, {"spacing": grid.spacing}, {"origin": grid.origin})
    # the transposed (k, j, i) views run x-fastest in C order
    columns = [grid.alpha.T] + [grid.beta[..., d].T for d in range(3)]
    _write_table(path, GRID_MAGIC, meta, "alpha,beta_x,beta_y,beta_z", columns)


def _grid_rows(meta) -> tuple[int, int]:
    """The least and most rows of a grid file, ``nx ny nz`` both; ``# dims`` must hold three positive integers."""
    if not all(1 <= d < np.inf and d % 1 == 0 for d in meta["dims"]):  # NaN fails the bound too
        raise ValueError(f"dims must be three positive integers, got {meta['dims']}")
    nx, ny, nz = (int(d) for d in meta["dims"])
    return nx * ny * nz, nx * ny * nz


def load_grid_csv(path) -> RotorGrid:
    """Read a grid written by :func:`save_grid_csv`; a malformed file, or one
    without ``nx ny nz`` rows of four columns, raises ``ValueError``."""
    meta, data = _read_table(path, GRID_MAGIC, ({"dims": 3}, {"spacing": 1}, {"origin": 3}),
                             ("alpha,beta_x,beta_y,beta_z",), rows=_grid_rows)
    nx, ny, nz = (int(v) for v in meta["dims"])
    alpha = np.transpose(data[:, 0].reshape(nz, ny, nx), (2, 1, 0))
    beta = np.transpose(data[:, 1:].reshape(nz, ny, nx, 3), (2, 1, 0, 3))
    return RotorGrid(alpha=alpha, beta=beta, spacing=meta["spacing"][0], origin=meta["origin"])
