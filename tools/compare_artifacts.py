"""Compare the command artifacts and library results of two checkouts number by number.

Usage, from anywhere:

    python3 tools/compare_artifacts.py OLD_CHECKOUT NEW_CHECKOUT

For each checkout, in fresh processes with that checkout's ``src`` on
``PYTHONPATH``, this runs every command in ``RUNS`` in a scratch ``cli``
directory, then this file's :func:`write_library`, which saves the library
results below as ``.npy`` files in a ``library`` directory; both sides run the
same tool code, so only the library differs.  A command that exits 3, a
solver failure, writes no files; its one-line JSON record from stdout is
saved in place of its summary (its ``--summary`` file, else its ``-o`` file),
so a run that stops failing or starts to fail shows as a move of that file.
Any other nonzero exit stops the tool.  The library results are:

* ``residual_grid`` (points and residuals) on the two grids of the
  ``residual_3d`` workload and on the criterion-3 grid (h = 0.1, annulus to
  r = 5), which takes a few seconds and about 250 MB;
* all ten ``grid_field_point`` blocks of the first eight x-planes of the
  ``residual_3d`` h = 0.1 grid, the first slab that ``residual_grid`` reads;
* ``check_identity_TT`` at h = 0.1 and 0.05 on the box [-1, 1]^3, and on
  the h = 0.1 grid ``RotorGrid.u_array``, ``nye_fd_grid`` and
  ``torsion_from_nye`` of that Nye tensor;
* on a 9 x 10 x 11 grid of the same field at h = 0.2, whose three axes
  differ, so that a stencil that mixes up two axes moves a result:
  ``residual_grid``, the ``grid_field_point`` blocks of its first slab (the
  whole grid), ``check_identity_TT``, ``nye_fd_grid`` and the grid CSV round
  trip, whose CSV is saved as ``library/grid_off_cube.csv``;
* ``ProductField.u`` and ``alpha_beta`` (``matrix_to_rotor``) on the nodes of
  a 24^3 grid of [-6, 6]^3, for the ordered product of two tanh cores at
  +-5 e_x with seeded offsets (the ``grid_kinematics`` workload's grid);
* every block of ``random_smooth_field`` and its ``constraint_residual`` at
  orders 0, 1 and 2, and ``residual_eqs2_at`` of the order-2 batch, whose
  blocks the kernels read as strided views;
* ``decompose``, ``quadratic_invariants``, ``potential_density`` and
  ``h_tensors`` on a random batch (the middle two on one matrix as well);
* the grid CSV round trip of ``grid.csv``, and the profile CSV round trip
  of ``profile.csv`` given the velocity ``w_t = 0.01 r exp(-(r - 2)^2)``,
  whose CSV is saved as ``library/profile_moving.csv``;
* ``charge_density`` on 2000 random points of the lifted ``profile.csv``
  and of a seeded ordered product of two translated copies of it, and
  ``u_and_du`` of the lifted ``profile.csv`` on the same points;
* ``residual_eqs2_at`` of that moving profile, lifted, on those points: its
  ``w_t`` makes the time blocks, which the static grids above leave zero,
  take part; and the ten order-2 blocks of that lifted field on those
  points and on the nodes of the coordinate planes of a 9^3 lattice of
  [-2, 2]^3, with both signs of zero;
* ``static_residual`` of the three static profiles that ``RUNS`` solves,
  solved in process with the command's defaults;
* ``potential_U`` on a seeded batch with the doubles nearest the poles of
  tan, +-1e6, NaN and +-0, as an array and one float at a time.

The library results read only the static profile and the grid, so a change
to the leapfrog, which moves every ``evolve`` output, leaves them in place.

Every file of the two checkouts is then compared.  A byte-identical file
prints ``identical``, and a file that only one side wrote prints ``LAYOUT
only in old`` or ``LAYOUT only in new``.  Otherwise every number of a JSON
file is compared relative to its old value, every column of a CSV file
relative to the largest magnitude among the old file's columns after the
first (``max|w|`` for a profile, whose first column is r), and an array
relative to its largest old magnitude.  Arrays are saved in C order, so a
result returned as a view of differently ordered memory saves the same
bytes.  Each moved key, column or array prints with its relative and its
absolute difference.  Metadata lines
(``#``), strings, dtypes and shapes must match exactly.  The exit code is 1
when any file differs by more than ``--rtol`` (default 1e-12) or in its
layout, else 0, so one command proves bit-identity and sizes any move that a
change is allowed to make.  ``DECLARED_MOVES`` holds the moves the current
change makes on purpose: per file, the keys or columns that may move, or
``None`` for the whole file, its layout included.  A file whose moves beyond
``--rtol`` are all declared prints ``declared move`` with its differences
and does not fail; the next change empties the list.  A JSON value that is itself a small difference,
such as ``estimated_error`` or ``sup_drift``, moves by far more than 1e-12 of
itself when its operands move in the last bits.

The ``evolve`` runs integrate to ``t_end`` 2 (on 801 and 4001 radial nodes)
and to 20, where rounding differences grow through the soliton's unstable
mode (see ROADMAP aim 2); a difference above ``--rtol`` there is reported,
not hidden.  Two more ``evolve`` runs start from ``INPUTS``' huge uniform
velocities, which no command writes: the tool saves those profiles under
``inputs`` in each work directory.  With 3e307 the run exits 3 at a level
inside a snapshot interval, so its record shows the time of the first
non-finite level; with 1e305 the levels stay finite but the energy
overflows, and the run exits 3 with a record that names the first
non-finite snapshot energy.  One more ``evolve`` run starts from a profile
written in tokens the CSV writer never emits (``+0.5``, ``.25``, ``1E-3``,
an integer ``-0``, CRLF line ends and a ``#`` line among the rows), which
the reader leaves to ``np.loadtxt``.  The CSV comparison below reads every
file with ``np.loadtxt`` itself, independently of the library's reader.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNS = (
    ("static", ["--lambda1", "1", "--lambda2", "1", "-o", "profile.csv", "--summary", "static.json"]),
    ("static", ["--lambda1", "0.4", "--lambda2", "2.3", "--rmax", "50", "-o", "profile_b.csv",
                "--summary", "static_b.json"]),
    ("evolve", ["--from-profile", "profile.csv", "--n-grid", "801", "--t-end", "2",
                "-o", "final.csv", "--summary", "evolve.json"]),
    ("evolve", ["--from-profile", "profile.csv", "--t-end", "2", "-o", "final_4001.csv",
                "--summary", "evolve_4001.json"]),
    ("evolve", ["--from-profile", "profile_b.csv", "--n-grid", "801", "--t-end", "2",
                "-o", "final_b.csv", "--summary", "evolve_b.json"]),
    ("evolve", ["--from-profile", "profile.csv", "--t-end", "20", "-o", "final_t20.csv",
                "--summary", "evolve_t20.json"]),
    ("charge", ["--from-profile", "profile.csv", "--radius", "6", "--spacing", "0.01",
                "-o", "charge_radial.json"]),
    ("charge", ["--from-profile", "profile.csv", "--full-3d", "--radius", "3", "--spacing", "0.2",
                "-o", "charge_3d.json"]),
    ("residual", ["--from-profile", "profile.csv", "--h", "0.2", "-o", "residual.json"]),
    # 52 interior x-planes in four blocks, each sampled with two halo planes a side
    ("residual", ["--from-profile", "profile.csv", "--h", "0.1", "--rmin", "0.5", "--rmax-annulus", "2.5",
                  "-o", "residual_b.json"]),
    ("decompose", ["--matrix", "1,2,3,4,5,-6,7.5,8,1e-300", "-o", "decompose.json"]),
    ("equilibria", ["--lambda1", "1", "--lambda2", "1.25", "-o", "equilibria.json"]),
    ("identity-check", ["--h", "0.2", "--refine", "--dump-grid", "grid.csv", "-o", "identity.json"]),
    # lambda2 / lambda1 = 1.25: the core exponent of the profile, w ~ r^s, is s = 0.618, not 1
    ("static", ["--lambda1", "1", "--lambda2", "1.25", "-o", "profile_c.csv", "--summary", "static_c.json"]),
    ("evolve", ["--from-profile", "profile_c.csv", "--n-grid", "801", "--t-end", "2",
                "-o", "final_c.csv", "--summary", "evolve_c.json"]),
    ("charge", ["--from-profile", "profile_c.csv", "--full-3d", "--radius", "3", "--spacing", "0.2",
                "-o", "charge_3d_c.json"]),
    # 400 steps in snapshot intervals of 4; the levels overflow first at step 3, inside an interval, so
    # the run exits 3 and its instability record stands in for the summary
    ("evolve", ["--from-profile", "../inputs/huge_velocity.csv", "--n-grid", "101", "--dt", "0.05",
                "--t-end", "20", "-o", "final_huge.csv", "--summary", "evolve_huge.json"]),
    # 300 steps in intervals of 3: the same levels overflow first at step 3, the first snapshot
    ("evolve", ["--from-profile", "../inputs/huge_velocity.csv", "--n-grid", "101", "--dt", "0.05",
                "--t-end", "15", "-o", "final_huge_snap.csv", "--summary", "evolve_huge_snap.json"]),
    # 411 steps in intervals of 4 and a last one of 3, (408, 411]; the levels overflow first at step 410
    ("evolve", ["--from-profile", "../inputs/late_overflow.csv", "--n-grid", "101", "--dt", "0.05",
                "--t-end", "20.55", "-o", "final_late.csv", "--summary", "evolve_late.json"]),
    # every level stays finite, but r^2 w_t^2 overflows the energy at t = 0, so the run exits 3
    ("evolve", ["--from-profile", "../inputs/overflow_energy.csv", "--n-grid", "101", "--dt", "0.05",
                "--t-end", "1", "--summary", "evolve_overflow.json"]),
    # a profile in tokens the writer never emits, which the reader leaves to np.loadtxt
    ("evolve", ["--from-profile", "../inputs/off_grammar.csv", "--n-grid", "101", "--t-end", "1",
                "-o", "final_off_grammar.csv", "--summary", "evolve_off_grammar.json"]),
)


_PROFILE_HEAD = ["# radial-profile-csv 1", "# lambda1 1.0 lambda2 1.0", "# c1 0.0 c2 1.0 c3 0.75",
                 "# slope0 0.0 tol 1e-10", "r,w,w_t"]


def _uniform_velocity_csv(r_max: float, velocity: str) -> str:
    """A (1, 1) profile at w = 0 with a uniform velocity on the 101 nodes of [0, r_max]."""
    return "".join(line + "\n" for line in _PROFILE_HEAD + [f"{r!r},0.0,{velocity}"
                                                          for r in np.linspace(0.0, r_max, 101).tolist()])


def _off_grammar_csv() -> str:
    """A (1, 1) bump ``w = 0.01 r exp(-(r - 2)^2)`` on the 101 nodes of [0, 5] with a uniform velocity,
    written with CRLF line ends, an integer ``-0``, ``+0.5``, ``.25``, a capital exponent (``1E-3``)
    and a ``#`` line among the rows: tokens and lines the CSV writer never emits."""
    rows = [f"{r!r},{0.01 * r * math.exp(-(r - 2.0) ** 2)!r},1E-3" for r in np.linspace(0.0, 5.0, 101).tolist()]
    rows[0], rows[5], rows[10] = "0,-0,1E-3", ".25" + rows[5][4:], "+0.5" + rows[10][3:]
    return "".join(line + "\r\n" for line in _PROFILE_HEAD + rows[:20] + ["# a comment among the rows"] + rows[20:])


# inputs that no command writes, saved in the work directory's ``inputs``
INPUTS = {"huge_velocity.csv": _uniform_velocity_csv(10.0, "3e+307"),
          "late_overflow.csv": _uniform_velocity_csv(10.0, "1.5e+307"),
          "overflow_energy.csv": _uniform_velocity_csv(5.0, "1e+305"),
          "off_grammar.csv": _off_grammar_csv()}
# what the current change moves on purpose, with the reason: per file, the keys or columns that may move,
# or None for the whole file, its layout included
DECLARED_MOVES = {}
# the child process that runs write_library: argv is this file, the cli directory, the library directory
LIBRARY = "import runpy, sys; runpy.run_path(sys.argv[1])['write_library'](*sys.argv[2:])"


def write_library(cli: str, out: str) -> None:
    """Save the library results that the module docstring lists, one ``<result>[.<part>].npy`` per array,
    and the moving profile's CSV."""
    import rotelast as rl

    res = {}
    moduli = rl.Moduli.from_couplings(1.0, 1.0)
    field = rl.lift_hedgehog(rl.solve_static(moduli, slope0=1.0, r_max=60.0, tol=1e-10))
    shift = np.random.default_rng(1).uniform(-0.25, 0.25, size=3)  # the residual_3d workload's seed-1 shift
    for name, h, r_out, s in (("residual_3d_h0.2", 0.2, 1.5, shift), ("residual_3d_h0.1", 0.1, 1.5, shift),
                              ("criterion3_h0.1", 0.1, 5.0, np.zeros(3))):
        n = int(np.ceil(2 * (r_out + 3 * h) / h))
        n += n % 2
        grid = rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h, origin=(s - (n / 2 - 0.5)) * h)
        res[f"residual_grid_{name}.points"], res[f"residual_grid_{name}.residuals"] = rl.residual_grid(grid, moduli)
        if name == "residual_3d_h0.1":
            fp = rl.grid_field_point(rl.RotorGrid(grid.alpha[:8], grid.beta[:8], spacing=h, origin=grid.origin))
            res.update({f"grid_field_point_{name}.{k}": v for k, v in vars(fp).items()})
        del grid

    for h in (0.1, 0.05):
        n = int(np.ceil(2.0 / h)) + 1
        grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=7), dims=(n, n, n), spacing=h,
                                       origin=-np.ones(3))
        res[f"check_identity_TT_h{h}"] = rl.check_identity_TT(grid)
        if h == 0.1:
            res["identity_h0.1.u_array"], res["identity_h0.1.nye_fd_grid"] = grid.u_array(), rl.nye_fd_grid(grid)
            res["identity_h0.1.torsion_from_nye"] = rl.torsion_from_nye(res["identity_h0.1.nye_fd_grid"])
    # nx, ny and nz all differ, so a stencil that takes one axis's step for another's moves these results
    grid = rl.RotorGrid.from_field(rl.random_smooth_field(seed=7), dims=(9, 10, 11), spacing=0.2,
                                   origin=(-0.8, -0.9, -1.0))
    res["residual_grid_off_cube.points"], res["residual_grid_off_cube.residuals"] = rl.residual_grid(grid, moduli)
    res.update({f"grid_field_point_off_cube.{k}": v for k, v in vars(rl.grid_field_point(grid)).items()})
    res["check_identity_TT_off_cube"], res["nye_fd_grid_off_cube"] = rl.check_identity_TT(grid), rl.nye_fd_grid(grid)
    rl.save_grid_csv(grid, Path(out) / "grid_off_cube.csv")
    grid = rl.load_grid_csv(Path(out) / "grid_off_cube.csv")
    res.update({f"grid_roundtrip_off_cube.{k}": getattr(grid, k) for k in ("alpha", "beta", "spacing", "origin")})
    core = rl.HedgehogField(lambda r: np.pi / 2 - np.pi * np.tanh(r / 0.8),
                            lambda r: -np.pi / 0.8 / np.cosh(r / 0.8) ** 2,
                            lambda r: 2 * np.pi / 0.8**2 * np.tanh(r / 0.8) / np.cosh(r / 0.8) ** 2)
    centres = np.array([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0]]) + np.random.default_rng(2).uniform(-0.5, 0.5, (2, 3))
    product = rl.ProductField([rl.TranslatedField(core, c) for c in centres])
    axis = -6.0 + 0.5 * (np.arange(24) + 0.5)
    x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    res["product_grid.u"] = product.u(x)
    res["product_grid.alpha"], res["product_grid.beta"] = product.alpha_beta(x)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.5, 1.5, size=(500, 3))
    for order in (0, 1, 2):
        fp = rl.random_smooth_field(seed=11).field_point(x, order=order)
        res.update({f"random_smooth_field_order{order}.{k}": v for k, v in vars(fp).items()})
        res[f"constraint_residual_order{order}"] = fp.constraint_residual()
    res["residual_eqs2_at.random_smooth_field"] = rl.residual_eqs2_at(fp, rl.Moduli.from_couplings(0.4, 2.3))
    a, a_t = rng.normal(size=(400, 3, 3)), rng.normal(size=(400, 3))
    moduli = rl.Moduli.from_constants(0.3, 0.7, 1.1)
    parts = [rl.decompose(m) for m in a[:50]]
    for k in ("trace_part", "antisym_part", "sym_traceless_part"):
        res[f"decompose.{k}"] = [getattr(d, k) for d in parts]
    res["quadratic_invariants.batch"], res["quadratic_invariants.one"] = (rl.quadratic_invariants(a),
                                                                           rl.quadratic_invariants(a[0]))
    res["potential_density.batch"], res["potential_density.one"] = (rl.potential_density(a, moduli),
                                                                     rl.potential_density(a[0], moduli))
    res["h_tensors.h_t"], res["h_tensors.h_s"] = rl.h_tensors(a, a_t, moduli)

    grid = rl.load_grid_csv(Path(cli) / "grid.csv")
    res.update({f"grid_roundtrip.{k}": getattr(grid, k) for k in ("alpha", "beta", "spacing", "origin")})
    profile = rl.load_profile_csv(Path(cli) / "profile.csv")
    profile.w_t = 0.01 * profile.r * np.exp(-((profile.r - 2.0) ** 2))
    rl.save_profile_csv(profile, Path(out) / "profile_moving.csv")
    profile = rl.load_profile_csv(Path(out) / "profile_moving.csv")
    res.update({f"profile_roundtrip.{k}": getattr(profile, k) for k in ("r", "w", "w_t", "slope0", "tol")})
    res["profile_roundtrip.moduli"] = dataclasses.astuple(profile.moduli)

    x = rng.uniform(-4.0, 4.0, size=(2000, 3))
    soliton = rl.lift_hedgehog(rl.load_profile_csv(Path(cli) / "profile.csv"))
    product = rl.ProductField([rl.TranslatedField(soliton, c) for c in rng.uniform(-2.0, 2.0, size=(2, 3))])
    res["charge_density.soliton"], res["charge_density.product"] = (rl.charge_density(soliton, x),
                                                                     rl.charge_density(product, x))
    res["u_and_du.u"], res["u_and_du.du"] = soliton.u_and_du(x)
    moving = rl.lift_hedgehog(profile)
    res["residual_eqs2_at.moving"] = rl.residual_eqs2_at(moving.field_point(x), profile.moduli)
    axis = 0.5 * np.arange(-4, 5)
    plane = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    plane = plane[(plane == 0).any(axis=1) & (plane != 0).any(axis=1)]
    fp = moving.field_point(np.concatenate((x, plane, -plane)))
    res.update({f"hedgehog_moving.{k}": v for k, v in vars(fp).items()})

    for l1, l2 in ((1.0, 1.0), (0.4, 2.3), (1.0, 1.25)):  # the static profiles of RUNS
        res[f"static_residual.l{l1}_{l2}"] = rl.static_residual(
            rl.solve_static(rl.Moduli.from_couplings(l1, l2), slope0=1.0, r_max=50.0, tol=1e-10))
    poles = np.array([np.nextafter(np.pi / 2 + k * np.pi, side) for k in range(11) for side in (0.0, 40.0)])
    w = np.concatenate((rng.normal(scale=3.0, size=4000), poles, -poles, [1e6, -1e6, np.nan, 0.0, -0.0]))
    moduli = rl.Moduli.from_couplings(1.0, 1.25)
    res["potential_U.array"] = rl.potential_U(w, moduli)
    res["potential_U.floats"] = [rl.potential_U(v, moduli) for v in w.tolist()]
    for name, value in res.items():
        if value is not None:  # a block above the order built, or a profile without w_t
            np.save(Path(out) / f"{name}.npy", np.asarray(value, order="C"))


def run_all(checkout: Path, workdir: Path) -> None:
    """The checkout's command artifacts into ``workdir/cli``, its library results into ``workdir/library``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cli, library = workdir / "cli", workdir / "library"
    cli.mkdir(parents=True)
    library.mkdir()
    (workdir / "inputs").mkdir()
    for name, text in INPUTS.items():
        (workdir / "inputs" / name).write_text(text)
    jobs = [(f"rotelast {command}", ["-m", "rotelast.cli", command, *argv],
             argv[argv.index("--summary" if "--summary" in argv else "-o") + 1]) for command, argv in RUNS]
    jobs.append(("write_library", ["-c", LIBRARY, str(Path(__file__).resolve()), str(cli), str(library)], None))
    for what, args, summary in jobs:
        proc = subprocess.run([sys.executable, *args], cwd=cli, env=env, stdout=subprocess.PIPE)
        if proc.returncode == 3 and summary:
            (cli / summary).write_bytes(proc.stdout)
        elif proc.returncode != 0:
            raise SystemExit(f"{checkout}: {what} exited with code {proc.returncode}")


def json_leaves(value, key=""):
    """Yield (key, leaf) for every leaf of a parsed JSON document."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from json_leaves(v, f"{key}[{i}]")
    else:
        yield key, value


def differences(old: Path, new: Path) -> dict[str, tuple[float, float]]:
    """(relative, absolute) difference per key, column or array; ``ValueError`` names a layout difference."""
    if old.suffix == ".npy":
        a, b = np.load(old), np.load(new)
        if (a.dtype, a.shape) != (b.dtype, b.shape):
            raise ValueError(f"arrays {a.dtype} {a.shape} and {b.dtype} {b.shape}")
        d = float(np.abs(a - b).max(initial=0.0))
        return {"array": (d / max(float(np.abs(a).max(initial=0.0)), 1e-300), d)}
    if old.suffix == ".json":
        a, b = dict(json_leaves(json.loads(old.read_text()))), dict(json_leaves(json.loads(new.read_text())))
        if a.keys() != b.keys():
            raise ValueError(f"different keys: {sorted(a.keys() - b.keys())} only in old, "
                             f"{sorted(b.keys() - a.keys())} only in new")
        out = {}
        for key, x in a.items():
            y = b[key]
            if isinstance(x, (int, float)) and not isinstance(x, bool) and isinstance(y, (int, float)):
                out[key] = (abs(x - y) / max(abs(x), 1e-300), abs(x - y)) if x != y else (0.0, 0.0)
            elif x != y:
                raise ValueError(f"{key}: {x!r} != {y!r}")
        return out
    lines_a, lines_b = old.read_text().splitlines(), new.read_text().splitlines()
    meta_a = [line for line in lines_a if line.startswith("#")]
    if meta_a != [line for line in lines_b if line.startswith("#")]:
        raise ValueError("metadata lines differ")
    # the column header follows the leading "#" lines; np.loadtxt skips any "#" line among the rows
    head_a, head_b = (next(i for i, line in enumerate(lines) if not line.startswith("#"))
                      for lines in (lines_a, lines_b))
    header = lines_a[head_a]
    if header != lines_b[head_b]:
        raise ValueError("column headers differ")
    a = np.loadtxt(old, delimiter=",", comments="#", skiprows=head_a + 1, ndmin=2)
    b = np.loadtxt(new, delimiter=",", comments="#", skiprows=head_b + 1, ndmin=2)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape}")
    scale = max(np.abs(a[:, 1:]).max(initial=0.0), 1e-300)
    absolute = np.abs(a - b).max(axis=0)
    return {name: (d / scale, d) for name, d in zip(header.split(","), absolute.tolist())}


def compare(old_dir: Path, new_dir: Path, rtol: float) -> bool:
    """Print one line per file of either tree; True when every file agrees to ``rtol`` and in layout."""
    names = sorted({p.relative_to(root).as_posix() for root in (old_dir, new_dir)
                    for p in root.rglob("*") if p.is_file()})
    ok = True
    for name in names:
        old, new = old_dir / name, new_dir / name
        whole = name in DECLARED_MOVES and DECLARED_MOVES[name] is None
        tag = "declared move, " if whole else ""
        if not (old.is_file() and new.is_file()):
            print(f"{name}: {tag}LAYOUT only in {'old' if old.is_file() else 'new'}")
            ok &= whole
            continue
        if old.read_bytes() == new.read_bytes():
            print(f"{name}: identical")
            continue
        try:
            diff = differences(old, new)
        except ValueError as exc:
            print(f"{name}: {tag}LAYOUT {exc}")
            ok &= whole
            continue
        moved = {k: v for k, v in diff.items() if v[1] != 0}  # NaN counts as moved
        worst = float(np.max([rel for rel, _ in moved.values()], initial=0.0))
        declared = moved.keys() if whole else DECLARED_MOVES.get(name, ())
        within = all(rel <= rtol for k, (rel, _) in moved.items() if k not in declared)
        ok &= within
        print(f"{name}: {'declared move, ' if name in DECLARED_MOVES and within else ''}max relative {worst:.2e}  "
              + "  ".join(f"{k} {rel:.1e} ({d:.1e})" for k, (rel, d) in moved.items()))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("old", "new")}
        for side, checkout in (("old", args.old), ("new", args.new)):
            run_all(checkout.resolve(), dirs[side])
        return 0 if compare(dirs["old"], dirs["new"], args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
