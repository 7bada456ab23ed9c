"""Slab-streamed grid consumers against their whole-grid forms.

``RotorGrid.from_field``, the unit-constraint check, ``residual_grid``,
``check_identity_TT`` and the CSV writers work through a grid in slabs of
about ``kinematics._SLAB_POINTS`` points.  Every kernel they apply is
pointwise, so each result must equal, bit for bit, the same computation on
the whole grid at once, which these tests write out.  The slab size is
shrunk here so that small grids span several slabs, of unequal thickness
where the planes do not divide evenly; grids thinner than one slab are
checked too.  Under ``tracemalloc`` (which
sees numpy's allocations) the residual and the identity check must stay
far below their whole-grid peaks.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rotelast as rl
from rotelast import field_equations, kinematics
from rotelast.kinematics import _slabs

from conftest import eps_ddot


@pytest.fixture()
def slab_points(monkeypatch):
    """Set the slab budget for one test: ``slab_points(n)``."""
    return lambda n: monkeypatch.setattr(kinematics, "_SLAB_POINTS", n)


def two_core_product():
    return rl.ProductField([rl.TranslatedField(rl.random_smooth_field(seed=4), [0.4, -0.2, 0.1]),
                            rl.random_smooth_field(seed=8)])


def tanh_hedgehog():
    return rl.HedgehogField(lambda r: np.pi / 2 - np.pi * np.tanh(r),
                            lambda r: -np.pi / np.cosh(r) ** 2,
                            lambda r: 2 * np.pi * np.tanh(r) / np.cosh(r) ** 2)


def soliton_grid(soliton_field, dims, h=0.15):
    # about centred, with an offset that keeps the hedgehog's origin off the nodes
    dims = np.array(dims)
    return rl.RotorGrid.from_field(soliton_field, dims=dims, spacing=h, origin=0.013 - (dims / 2 - 0.5) * h)


def whole_identity_residual(grid):
    """The identity check's formula on the whole grid in one batch."""
    T = rl.torsion_from_nye(rl.nye_fd_grid(grid))
    tau = np.trace(T, axis1=-2, axis2=-1)
    S = 0.5 * (T - np.swapaxes(T, -1, -2))
    D = 0.5 * (T + np.swapaxes(T, -1, -2)) - (tau / 3.0)[..., None, None] * np.eye(3)
    v = eps_ddot(T)
    div_v = sum(kinematics._central_diff(v, k, grid.spacing)[..., k] for k in range(3))
    c = (slice(1, -1),) * 3
    lhs = np.einsum("...ij,...ij->...", D, D)[c]
    rhs = (np.einsum("...ij,...ij->...", S, S) + tau * tau / 6.0)[c] + 2.0 * div_v
    return float(np.abs(lhs - rhs).max())


class TestSlabs:
    @pytest.mark.parametrize("n, plane, halo, min_planes", [
        (30, 7, 0, 1), (31, 7, 2, 1), (30, 100, 1, 1), (30, 1, 2, 12), (41, 1, 2, 12),
        (5, 1, 2, 12), (4, 10, 2, 1)])
    def test_slabs_tile_the_planes_evenly(self, slab_points, n, plane, halo, min_planes):
        slab_points(20)
        slabs = list(_slabs(n, plane, halo, min_planes))
        assert [i for lo, hi in slabs for i in range(lo, hi)] == list(range(halo, n - halo))
        planes, target = n - 2 * halo, max(20 // plane, min_planes)
        thickness = [hi - lo for lo, hi in slabs]
        assert max(thickness, default=0) - min(thickness, default=0) <= 1
        assert all(min(target, planes) <= t < max(2 * target, planes + 1) for t in thickness)

    @pytest.mark.parametrize("halo, min_planes", [(0, 1), (2, 1), (0, 12), (2, 12)])
    def test_blocks_tile_the_lattice(self, slab_points, halo, min_planes):
        slab_points(3 * 5 * 4)  # 3 planes of 5 x 4 a block, or min_planes
        axes = [-0.7 + 0.13 * np.arange(31), 0.2 * np.arange(5) - 0.41, np.linspace(-1.0, 1.0, 4)]
        whole = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        blocks = list(kinematics._blocks(axes, halo, min_planes))
        assert [(lo, hi) for lo, hi, _ in blocks] == list(_slabs(31, 5 * 4, halo, min_planes))
        assert np.array_equal(np.concatenate([pts[halo:len(pts) - halo] for _, _, pts in blocks]),
                              whole[halo:31 - halo])
        for lo, hi, pts in blocks:  # the halo planes are the neighbouring blocks' nodes, or the lattice's edge
            assert pts.shape == (hi - lo + 2 * halo, 5, 4, 3)
            assert np.array_equal(pts, whole[lo - halo:hi + halo])

    @pytest.mark.parametrize("halo", [0, 2])
    def test_grid_slabs_are_views_of_the_planes(self, slab_points, halo):
        slab_points(2 * 5 * 3)
        grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=9), dims=(13, 5 + 2 * halo, 3 + 2 * halo),
                                       spacing=0.17, origin=[-0.9, 0.3, -0.2])
        slabs = list(grid._slabs(halo))
        assert [(lo, hi) for lo, hi, _ in slabs] == list(_slabs(13, 5 * 3, halo))
        for lo, hi, slab in slabs:
            assert slab.alpha.base is not None and slab.beta.base is not None
            assert np.array_equal(slab.alpha, grid.alpha[lo - halo:hi + halo])
            assert np.array_equal(slab.beta, grid.beta[lo - halo:hi + halo])
            assert slab.spacing == grid.spacing
            assert np.array_equal(slab.origin, grid.origin + grid.spacing * np.array([lo - halo, 0, 0]))


class TestFromField:
    @pytest.mark.parametrize("make", [tanh_hedgehog, lambda: rl.random_smooth_field(seed=21),
                                      two_core_product], ids=["hedgehog", "random", "product"])
    @pytest.mark.parametrize("budget", [1, 70, 10**9], ids=["plane", "uneven", "one-slab"])
    def test_fill_equals_whole_grid_evaluation(self, slab_points, make, budget):
        slab_points(budget)  # 70 points: two 5 x 7 planes, so slabs of 2, 2, 2 and 3 planes
        field = make()
        grid = rl.RotorGrid.from_field(field, dims=(9, 5, 7), spacing=0.21, origin=[-0.83, -0.47, -0.61])
        alpha, beta = field.alpha_beta(grid.points())
        assert np.array_equal(grid.alpha, alpha)
        assert np.array_equal(grid.beta, beta)

    def test_non_unit_field_raises_from_streamed_fill(self, slab_points):
        class Stretched(rl.RotorField):
            """A unit field except on the last x-plane, where alpha is 2."""

            def field_point(self, x, *, order=2):
                fp = rl.random_smooth_field(seed=3).field_point(x, order=0)
                fp.alpha = np.where(x[..., 0] > 0.45, 2.0, fp.alpha)
                return fp

        slab_points(8)
        with pytest.raises(ValueError, match="violate the unit constraint"):
            rl.RotorGrid.from_field(Stretched(), dims=(6, 2, 2), spacing=0.1, origin=[0.0, 0.0, 0.0])


class TestResidualGrid:
    @pytest.mark.parametrize("planes", [1, 3, 100], ids=["plane", "uneven", "one-slab"])
    def test_residual_equals_whole_grid_kernel(self, slab_points, soliton_field, unit_moduli, planes):
        # 3 planes: 14 interior planes split 3, 3, 4, 4
        grid = soliton_grid(soliton_field, (18, 13, 11))
        slab_points(planes * (13 - 4) * (11 - 4))
        pts, res = rl.residual_grid(grid, unit_moduli)
        whole = field_equations.residual_eqs2_at(field_equations.grid_field_point(grid), unit_moduli)
        assert np.array_equal(res, whole)
        assert np.array_equal(pts, grid.points()[(slice(2, -2),) * 3])

    def test_margin_still_checked(self, soliton_field, unit_moduli):
        grid = soliton_grid(soliton_field, (8, 5, 3))
        with pytest.raises(ValueError, match="grid too small"):
            rl.residual_grid(grid, unit_moduli)  # 3 nodes along z: the margin of 2 needs 5
        with pytest.raises(ValueError, match="grid too small"):
            field_equations.grid_field_point(grid)


class TestResidualWorkspace:
    def test_one_workspace_for_every_slab(self, slab_points, soliton_field, unit_moduli, monkeypatch):
        # slabs of 3, 4, 3 and 4 planes: each calls grid_field_point through the module attribute, as the
        # benchmark's tracer sees it, and writes its blocks to a prefix of one cache-aligned workspace
        grid = soliton_grid(soliton_field, (18, 13, 11))
        slab_points(3 * (13 - 4) * (11 - 4))
        calls, grid_field_point = [], field_equations.grid_field_point

        def slab_spy(slab, **kw):
            calls.append((slab.dims[0], kw["out"]))
            return grid_field_point(slab, **kw)

        monkeypatch.setattr(field_equations, "grid_field_point", slab_spy)
        rl.residual_grid(grid, unit_moduli)
        assert [nx for nx, _ in calls] == [3 + 4, 4 + 4, 3 + 4, 4 + 4]
        work = calls[0][1]
        assert all(out is work for _, out in calls) and work.ctypes.data % 64 == 0
        assert work.size == 59 * 4 * (13 - 4) * (11 - 4)


class TestIdentityCheck:
    @pytest.mark.parametrize("nx", [9, 31, 43], ids=["thinner-than-a-slab", "two-uneven", "three"])
    def test_identity_equals_whole_grid(self, slab_points, nx):
        # at least 12 planes per slab: 31 and 43 nodes give 27 = 13 + 14 and 39 = 3 x 13 output planes
        slab_points(1)
        grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=5), dims=(nx, 7, 6), spacing=0.12,
                                       origin=[-1.1, -0.3, -0.4])
        assert rl.check_identity_TT(grid) == whole_identity_residual(grid)

    def test_identity_default_slabs(self, soliton_field):
        grid = soliton_grid(soliton_field, (40, 21, 19), h=0.3)  # 18 + 18 planes of 17 x 15
        assert rl.check_identity_TT(grid) == whole_identity_residual(grid)


# the double nearest each power of ten (the writer's sentinel 1e300 among them), its neighbours
# on either side, zero, the least subnormal and the largest double, each with both signs
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
DECADE_EDGES = np.concatenate([POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf),
                               [0.0, 5e-324, np.finfo(float).max]])
DECADE_EDGES = np.concatenate([DECADE_EDGES, -DECADE_EDGES])


class TestCsvRows:
    """Whole files of both writers against a per-line f-string oracle.

    Each writer formats its rows in slabs and its meta lines through the
    shared table writer; the oracle writes every line on its own, each
    number as ``repr(float(x))``.  The edge values are a negative zero, the
    least subnormal, a huge float and integer-valued moduli (stored as
    ``1.0``, not ``1``).  The rows go through orjson, which lays out
    1e-9 <= |x| < 1e-4 and |x| >= 1e16 otherwise than ``repr``; tables of
    any finite doubles, and every power of ten with its neighbours, pin
    those bands to the oracle's bytes at the default slab size and at one
    row a slab.
    """

    EDGES = (-0.0, 5e-324, 1e308)

    @staticmethod
    def table_file(path, table):
        """Write ``table`` as a file of its own through the shared writer; return its bytes."""
        kinematics._write_table(path, "table 1", ({"rows": str(len(table))},), "header", list(table.T))
        return path.read_bytes()

    @staticmethod
    def table_file_per_line(table):
        rows = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in table)
        return f"# table 1\n# rows {len(table)}\nheader\n{rows}".encode()

    # the slab budget and the file stay the same for every example
    @pytest.mark.parametrize("budget", [None, 1])
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(DECADE_EDGES.tolist()))))
    def test_any_finite_table_matches_the_per_row_formatter(self, tmp_path, slab_points, budget, table):
        if budget is not None:
            slab_points(budget)
        assert self.table_file(tmp_path / "t.csv", table) == self.table_file_per_line(table)

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("columns", [1, 2, 3, 4])
    def test_decade_edges_match_the_per_row_formatter(self, tmp_path, slab_points, budget, columns):
        if budget is not None:
            slab_points(budget)
        table = np.resize(DECADE_EDGES, (-(-DECADE_EDGES.size // columns), columns))
        assert self.table_file(tmp_path / "t.csv", table) == self.table_file_per_line(table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_and_writes_nothing(self, tmp_path, bad):
        grid = rl.RotorGrid.from_field(two_core_product(), dims=(3, 4, 5), spacing=0.3, origin=[0.0, 0.0, 0.0])
        grid.beta[2, 3, 4, 1] = bad  # the writer checks what the grid's own check no longer sees
        with pytest.raises(ValueError, match="must be finite"):
            rl.save_grid_csv(grid, tmp_path / "g.csv")
        p = rl.RadialProfile(r=[0.0, 1.0, 2.0], w=np.zeros(3), w_t=np.zeros(3),
                             moduli=rl.Moduli.from_couplings(1, 1), slope0=1.0, tol=1e-9)
        p.w_t[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            rl.save_profile_csv(p, tmp_path / "p.csv")
        assert not (tmp_path / "g.csv").exists() and not (tmp_path / "p.csv").exists()

    @staticmethod
    def grid_file_per_line(grid):
        f_ = lambda x: repr(float(x))
        nx, ny, nz = grid.dims
        ox, oy, oz = grid.origin
        head = (f"# rotor-grid-csv 1\n# dims {nx} {ny} {nz}\n# spacing {f_(grid.spacing)}\n"
                f"# origin {f_(ox)} {f_(oy)} {f_(oz)}\nalpha,beta_x,beta_y,beta_z\n")
        a = np.transpose(grid.alpha, (2, 1, 0)).reshape(-1)
        b = np.transpose(grid.beta, (2, 1, 0, 3)).reshape(-1, 3)
        return head + "".join(f"{f_(a[n])},{f_(b[n, 0])},{f_(b[n, 1])},{f_(b[n, 2])}\n" for n in range(a.size))

    @staticmethod
    def profile_file_per_line(p):
        f_ = lambda x: repr(float(x))
        m = p.moduli
        cols = (p.r, p.w) if p.w_t is None else (p.r, p.w, p.w_t)
        head = (f"# radial-profile-csv 1\n# lambda1 {f_(m.lambda1)} lambda2 {f_(m.lambda2)}\n"
                f"# c1 {f_(m.c1)} c2 {f_(m.c2)} c3 {f_(m.c3)}\n# slope0 {f_(p.slope0)} tol {f_(p.tol)}\n"
                + ("r,w\n" if p.w_t is None else "r,w,w_t\n"))
        return head + "".join(",".join(f_(c[i]) for c in cols) + "\n" for i in range(p.r.size))

    @pytest.mark.parametrize("budget", [1, 50, 10**9])
    def test_grid_csv_matches_the_per_row_formatter(self, tmp_path, slab_points, budget):
        grid = rl.RotorGrid.from_field(two_core_product(), dims=(5, 4, 7), spacing=0.3,
                                       origin=[-0.6, -0.45, -0.9])
        # the writer does not check
        grid.alpha[0, 0, 0], grid.beta[0, 0, 0] = -0.0, [1e-300, 1.0, 0.0]
        grid.alpha[1, 0, 0], grid.beta[1, 0, 0], grid.origin = self.EDGES[1], self.EDGES, np.array(self.EDGES)
        slab_points(budget)
        rl.save_grid_csv(grid, tmp_path / "g.csv")
        assert (tmp_path / "g.csv").read_bytes() == self.grid_file_per_line(grid).encode()

    @pytest.mark.parametrize("with_velocity", [False, True])
    def test_profile_csv_matches_the_per_row_formatter(self, tmp_path, slab_points, with_velocity):
        r = np.concatenate([[0.0, 5e-324], np.linspace(0.1, 7.0, 99) ** 1.5, [1e308]])
        w = np.sin(r[:-1]) * 1e-5
        moduli = rl.Moduli.from_couplings(1, 2)  # integer-valued: stored as 1.0 and 2.0
        p = rl.RadialProfile(r=r, w=np.concatenate([w, [-0.0]]), moduli=moduli, slope0=1, tol=1e-9,
                             w_t=np.cos(r) if with_velocity else None)
        slab_points(40)
        rl.save_profile_csv(p, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == self.profile_file_per_line(p).encode()


def read_both(path, ncols, monkeypatch):
    """What ``np.loadtxt`` and :func:`kinematics._read_rows` make of the rows after a file's first line:
    ``("rows", shape, bytes)`` or ``("raises", type, message)`` each, and whether the reader fell back."""
    def outcome(read):
        with open(path) as f:
            f.readline()
            try:
                data = read(f)
            except Exception as exc:  # the oracle's own exception, whatever it is
                return "raises", type(exc), str(exc)
        return "rows", data.shape, data.tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        expected = outcome(lambda f: np.loadtxt(f, delimiter=",", ndmin=2))
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    return expected, outcome(lambda f: kinematics._read_rows(f, ncols)), bool(calls)


# two rows of two columns in the writer's grammar, and hand edits of them: tokens off it, integer tokens,
# line ends and ragged rows that keep the total, each with whether the orjson path may read it
BODY = "0.5,-1.25\n3.0,4e-07\n"
EDITS = {
    "as written": (BODY, True),
    "-0": (BODY.replace("0.5", "-0"), False),  # orjson reads +0; the sign count sends it to np.loadtxt
    "-0.0 and -0e0": (BODY.replace("0.5", "-0.0").replace("3.0", "-0e0"), True),
    "+1.0": (BODY.replace("0.5", "+1.0"), False),
    ".5": (BODY.replace("0.5", ".5"), False),
    "1.": (BODY.replace("3.0", "1."), False),
    "1E5": (BODY.replace("3.0", "1E5"), False),
    "01.5": (BODY.replace("0.5", "01.5"), False),
    "1e400": (BODY.replace("3.0", "1e400"), False),
    "-1e400": (BODY.replace("3.0", "-1e400"), False),
    "1e-400": (BODY.replace("3.0", "1e-400"), True),
    "-1e-400": (BODY.replace("3.0", "-1e-400"), True),
    "nan": (BODY.replace("3.0", "nan"), False),
    "CRLF": (BODY.replace("\n", "\r\n"), False),
    "blank line": (BODY.replace("\n", "\n\n", 1), False),
    "comment line": (BODY.replace("\n", "\n# note\n", 1), False),
    "trailing comma": (BODY.replace("\n", ",\n", 1), False),
    "empty field": (BODY.replace("0.5", ""), False),
    "no last newline": (BODY[:-1], False),
    "integer tokens": ("1,-2\n30,12345678901234567891\n", True),
    "integer beyond 64 bits": ("1,-2\n30,123456789012345678901234567890\n", True),
    "ragged rows of the same total": ("0.5,-1.25,3.0\n4e-07\n", False),
    "one column": ("0.5,-1.25,3.0,4e-07\n", False),
    "no rows": ("", False),
}


class TestReadRows:
    """The table reader against ``np.loadtxt``, which it must match bit for bit: rows in the
    writer's grammar through orjson, a chunk of whole lines at a time, and anything else through
    ``np.loadtxt`` itself.  A small slab budget makes chunks of a few bytes, so rows straddle them."""

    # the slab budget and the file stay the same for every example
    @pytest.mark.parametrize("budget", [None, 1, 3])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 4)),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(DECADE_EDGES.tolist()))))
    def test_written_tables_read_as_loadtxt_reads_them(self, tmp_path, slab_points, monkeypatch, budget, table):
        if budget is not None:
            slab_points(budget)
        path = tmp_path / "t.csv"
        path.write_bytes(b"header\n" + kinematics._csv_rows(table))
        expected, got, fell_back = read_both(path, table.shape[1], monkeypatch)
        assert got == expected and not fell_back

    @pytest.mark.parametrize("budget", [None, 1])
    def test_decade_edges_read_as_loadtxt_reads_them(self, tmp_path, slab_points, monkeypatch, budget):
        if budget is not None:
            slab_points(budget)
        path = tmp_path / "t.csv"
        path.write_bytes(b"header\n" + kinematics._csv_rows(DECADE_EDGES.reshape(-1, 3)))
        expected, got, fell_back = read_both(path, 3, monkeypatch)
        assert got == expected and not fell_back

    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("edit", EDITS)
    def test_hand_edited_rows_read_as_loadtxt_reads_them(self, tmp_path, slab_points, monkeypatch, budget, edit):
        body, fast = EDITS[edit]
        if budget is not None:
            slab_points(budget)
        path = tmp_path / "t.csv"
        path.write_bytes(b"r,w\n" + body.encode())
        expected, got, fell_back = read_both(path, 2, monkeypatch)
        assert got == expected and fell_back == (not fast)


class TestMemoryBound:
    """Peak traced allocation of the streamed consumers on a 40^3 grid.

    Whole-grid batching peaks at about 48 MB (residual), 21 MB (identity
    check) and 4.7 MB over the grid (fill) here; the slabs keep the first
    two under 12 MB and the fill under 2 MB over the grid.
    """

    BOUND = 12e6

    @staticmethod
    def traced_peak(fn):
        """Peak traced bytes allocated while ``fn`` runs, and its result."""
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn()
            return tracemalloc.get_traced_memory()[1] - base, out
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_fill_peak(self, soliton_field):
        peak, grid = self.traced_peak(lambda: soliton_grid(soliton_field, (40, 40, 40), h=0.1))
        assert peak - grid.alpha.nbytes - grid.beta.nbytes < 2e6

    def test_residual_grid_peak(self, soliton_field, unit_moduli):
        grid = soliton_grid(soliton_field, (40, 40, 40), h=0.1)
        peak, (pts, res) = self.traced_peak(lambda: rl.residual_grid(grid, unit_moduli))
        assert peak - pts.nbytes - res.nbytes < self.BOUND

    def test_identity_check_peak(self, soliton_field):
        grid = soliton_grid(soliton_field, (40, 40, 40), h=0.1)
        peak, _ = self.traced_peak(lambda: rl.check_identity_TT(grid))
        assert peak < self.BOUND
