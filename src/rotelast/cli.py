"""Command line front end: run each experiment, emit CSV/JSON artifacts.

Subcommands: static, evolve, charge, residual, decompose, equilibria,
identity-check.  Moduli are given either as the c-triple (--c1 --c2 --c3)
or the couplings (--lambda1 --lambda2), never both.  Flags override an
optional key=value config file (--config), where the on/off flags take
``true`` or ``false``; identical configuration and seed produce
bit-identical outputs.  Each ``cmd_*`` returns its record; :func:`main` prints
it as JSON on stdout and writes the same bytes to ``--summary`` for static
and evolve, whose ``-o`` is a profile CSV, and to ``-o`` for the rest.
``residual`` samples the field and reduces the residual one block of
x-planes at a time, so its memory is set by a block, not by ``--h``.  Exit
codes: 0 success, 2 bad usage or configuration (argparse's own errors, a
grid too large to allocate, a node or step count too large for an integer
and a record that holds NaN or an infinity included, with a JSON record on
stderr), 3 solver failure (divergence, instability, a failed integration,
an ill-posed evolve coupling, a profile whose resampling overflows or an
evolve energy that overflows, with a one-line diagnostic JSON record on
stdout).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .fields import random_smooth_field
from .kinematics import (
    Moduli,
    RotorGrid,
    _blocks,
    _centred_axis,
    _lattice_axes,
    check_identity_TT,
    decompose,
    quadratic_invariants,
    save_grid_csv,
)
from .field_equations import _MARGIN, residual_grid
from .radial import (
    DivergenceError,
    InstabilityError,
    _dU0,
    equilibria,
    evolve_dynamic,
    lift_hedgehog,
    load_profile_csv,
    resample_uniform,
    save_profile_csv,
    solve_static,
)
from .topology import total_charge

SCHEMA_VERSION = 1


def _dumps(record: dict, **kw) -> str:
    """The record in the envelope that every record of the command line shares."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **record}, sort_keys=True, **kw)


def _emit(record: dict, path: str | None) -> None:
    text = _dumps(record, indent=2, allow_nan=False)
    if path:
        with open(path, "w", newline="\n") as f:
            f.write(text + "\n")
    print(text)


def _fail_usage(message: str) -> int:
    print(_dumps({"error": "usage", "detail": message}), file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on bad usage, so :func:`main` answers it with the JSON usage record."""

    def __init__(self, **kw):
        # no option prefixes: ``--rmax`` must not stand for ``--rmax-annulus``, nor ``--h`` for ``--help``
        super().__init__(formatter_class=argparse.ArgumentDefaultsHelpFormatter, allow_abbrev=False, **kw)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


class _IllPosedError(RuntimeError):
    """The coupling's ``U'(0) / r^2`` beats the Hardy bound of the radial Laplacian."""


def _fail_runtime(exc: RuntimeError) -> int:
    record = {"error": "solver_failure", "detail": str(exc)}
    if isinstance(exc, DivergenceError):
        record.update(error="divergence", radius=exc.radius)
    elif isinstance(exc, InstabilityError):
        record["error"] = "instability"
    elif isinstance(exc, _IllPosedError):
        record["error"] = "ill_posed"
    print(_dumps(record))
    return 3


def _moduli_from_args(args) -> Moduli:
    have_c = args.c1 is not None or args.c2 is not None or args.c3 is not None
    have_l = args.lambda1 is not None or args.lambda2 is not None
    if have_c == have_l:
        raise ValueError("give exactly one of (--c1 --c2 --c3) or (--lambda1 --lambda2)")
    if have_c:
        if None in (args.c1, args.c2, args.c3):
            raise ValueError("all of --c1 --c2 --c3 are required together")
        return Moduli.from_constants(args.c1, args.c2, args.c3)
    if None in (args.lambda1, args.lambda2):
        raise ValueError("both --lambda1 and --lambda2 are required together")
    return Moduli.from_couplings(args.lambda1, args.lambda2)


def _add_moduli_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c1", type=float, default=None, help="elastic modulus c1 (with --c2 --c3)")
    p.add_argument("--c2", type=float, default=None, help="elastic modulus c2")
    p.add_argument("--c3", type=float, default=None, help="elastic modulus c3")
    p.add_argument("--lambda1", type=float, default=None, help="coupling lambda1 (with --lambda2)")
    p.add_argument("--lambda2", type=float, default=None, help="coupling lambda2")


def _load_config(path: str) -> dict:
    """Read ``key=value`` lines into strings by option name (``-`` read as ``_``)."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def cmd_static(args) -> dict:
    m = _moduli_from_args(args)
    profile = solve_static(m, slope0=args.slope0, r_max=args.rmax, tol=args.tol)
    if args.output:
        save_profile_csv(profile, args.output)
    return {
        "lambda1": m.lambda1,
        "lambda2": m.lambda2,
        "slope0": args.slope0,
        "r_max": args.rmax,
        "tol": args.tol,
        "w_end": float(profile.w[-1]),
        "w_max": float(profile.w.max()),
        "output": args.output,
    }


def cmd_evolve(args) -> dict:
    initial = load_profile_csv(args.from_profile)
    l1, slope = initial.moduli.lambda1, _dU0(initial.moduli)
    if slope > l1 / 4.0:
        # the growing mode would be set by the grid, not by the PDE
        raise _IllPosedError(f"U'(0) = 2 (2 lambda2 - 3 lambda1) = {slope:.6g} exceeds lambda1 / 4 = "
                             f"{l1 / 4.0:.6g}, the Hardy bound of the radial Laplacian")
    uniform = resample_uniform(initial, n=args.n_grid)
    dr = uniform.r[1] - uniform.r[0]
    dt = args.dt if args.dt is not None else 0.5 * dr / np.sqrt(uniform.moduli.lambda1)
    result = evolve_dynamic(uniform, dt=dt, t_end=args.t_end)
    bad = np.flatnonzero(~np.isfinite(result.energy))
    if bad.size:  # the levels stayed finite, but the velocity, r^2 v^2 or the gradient term overflowed
        raise InstabilityError(f"non-finite energy at t = {result.times[bad[0]]:.6g}")
    if args.output:
        save_profile_csv(result.final, args.output)
    e = result.energy
    return {
        "dt": dt,
        "t_end": args.t_end,
        "n_grid": args.n_grid,
        "sup_drift": result.sup_drift,
        "energy_initial": float(e[0]),
        "energy_rel_drift": float(np.abs(e - e[0]).max() / max(result.energy_scale, 1e-300)),
        "output": args.output,
    }


def cmd_charge(args) -> dict:
    profile = load_profile_csv(args.from_profile)
    if args.radius > profile.r[-1]:  # the lifted profile's spline would extrapolate its end cubic
        raise ValueError(f"--radius {args.radius} exceeds the profile's last radius r_max = {profile.r[-1]}")
    field = lift_hedgehog(profile)
    return vars(total_charge(field, ball_radius=args.radius, grid_spacing=args.spacing, force_3d=args.full_3d))


def cmd_residual(args) -> dict:
    h = args.h
    if not h > 0:
        raise ValueError(f"--h must be positive, got {h}")
    if not 0 <= args.rmin <= args.rmax_annulus:
        raise ValueError(f"the annulus needs 0 <= --rmin <= --rmax-annulus, got [{args.rmin}, {args.rmax_annulus}]")
    profile = load_profile_csv(args.from_profile)
    reach = args.rmax_annulus + np.sqrt(2.0) * h  # a mixed second difference steps one cell along two axes
    if reach > profile.r[-1]:
        raise ValueError(f"--rmax-annulus {args.rmax_annulus} + sqrt(2) --h {h} = {reach} exceeds the profile's "
                         f"last radius r_max = {profile.r[-1]}")
    field = lift_hedgehog(profile)
    axis = _centred_axis(args.rmax_annulus + 3 * h, h)  # cell-centered even-count lattice: no node at the origin
    nodes = _lattice_axes([axis[0]] * 3, h, [axis.size] * 3)  # RotorGrid.from_field's coordinates
    n_cells, peaks = 0, []  # exact counts and maxima, as over the whole grid
    for _, _, pts in _blocks(nodes, halo=_MARGIN, min_planes=12):  # x-blocks, two halo planes a side
        rr = np.linalg.norm(pts[(slice(_MARGIN, -_MARGIN),) * 3], axis=-1)  # the residual's nodes
        mask = (rr >= args.rmin) & (rr <= args.rmax_annulus)
        if mask.any():  # the field is sampled only on blocks that hold an annulus node
            _, res = residual_grid(RotorGrid(*field.alpha_beta(pts), spacing=h, origin=pts[0, 0, 0]), profile.moduli)
            n_cells += int(mask.sum())
            peaks.append(np.abs(res[mask]).max())
    if not n_cells:
        raise ValueError(f"no lattice node of --h {h} falls in the annulus [{args.rmin}, {args.rmax_annulus}]")
    return {"h": h, "annulus": [args.rmin, args.rmax_annulus], "max_residual": float(np.max(peaks)),
            "n_cells": n_cells}


def cmd_decompose(args) -> dict:
    vals = [float(v) for v in args.matrix.split(",")]
    if len(vals) != 9 or not np.all(np.isfinite(vals)):
        raise ValueError("--matrix needs 9 finite comma-separated entries (row major)")
    mat = np.array(vals).reshape(3, 3)
    parts = decompose(mat)
    trace_sq, axial_sq = quadratic_invariants(mat)
    return {
        "trace_part": parts.trace_part,
        "antisym_part": parts.antisym_part.tolist(),
        "sym_traceless_part": parts.sym_traceless_part.tolist(),
        "trace_sq_invariant": trace_sq,
        "axial_sq_invariant": axial_sq,
    }


def cmd_equilibria(args) -> dict:
    m = _moduli_from_args(args)
    return {
        "lambda1": m.lambda1,
        "lambda2": m.lambda2,
        "equilibria": [
            {
                "f_star": e.f_star,
                "sinh_f_star": float(np.sinh(e.f_star)),
                "w_star": e.w_star,
                "eigenvalues": [[ev.real, ev.imag] for ev in e.eigenvalues],
            }
            for e in equilibria(m)
        ],
    }


def cmd_identity_check(args) -> dict:
    for option, value in (("--h", args.h), ("--extent", args.extent)):
        if not value > 0:
            raise ValueError(f"{option} must be positive, got {value}")
    field = random_smooth_field(seed=args.seed)
    results = []
    spacings = [args.h, args.h / 2.0] if args.refine else [args.h]
    for h in spacings:
        n = int(np.ceil(2.0 * args.extent / h)) + 1
        grid = RotorGrid.from_field(field, dims=(n, n, n), spacing=h,
                                    origin=-args.extent * np.ones(3))
        results.append({"h": h, "n": n, "max_residual": check_identity_TT(grid)})
        if args.dump_grid and h == spacings[0]:
            save_grid_csv(grid, args.dump_grid)
    record = {"seed": args.seed, "results": results}
    if args.refine:
        record["richardson_ratio"] = results[0]["max_residual"] / results[1]["max_residual"]
    return record


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The command line parser; ``config`` values become the subcommands'
    defaults, so explicit flags still take precedence."""
    parser = _Parser(
        prog="rotelast",
        description="Rotational elasticity experiments: soliton profiles, dynamics, "
                    "field-equation residuals, torsion decomposition, topological charge.",
    )
    parser.add_argument("--version", action="version", version=f"rotelast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", default=None,
                       help="key=value file; explicit flags take precedence")
        # options named in ``required`` may come from the config file, so main()
        # checks them after the merge rather than argparse before it
        p.set_defaults(required=())

    p = sub.add_parser("static", help="solve the static radial profile")
    common(p)
    _add_moduli_args(p)
    p.add_argument("--slope0", type=float, default=1.0, help="leading series amplitude at r=0")
    p.add_argument("--rmax", type=float, default=50.0, help="outer integration radius")
    p.add_argument("--tol", type=float, default=1e-10, help="solver error tolerance")
    p.add_argument("-o", "--output", default=None, help="profile CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("evolve", help="integrate the radial dynamics")
    common(p)
    p.add_argument("--from-profile", help="initial profile CSV (required)")
    p.add_argument("--dt", type=float, default=None, help="time step (default 0.5 dr/sqrt(l1))")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--n-grid", type=int, default=4001, help="uniform radial grid size")
    p.add_argument("-o", "--output", default=None, help="final profile CSV path")
    p.add_argument("--summary", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_evolve, required=("from_profile",))

    p = sub.add_parser("charge", help="topological charge of a lifted profile")
    common(p)
    p.add_argument("--from-profile", help="profile CSV (required)")
    p.add_argument("--radius", type=float, default=40.0, help="integration ball radius")
    p.add_argument("--spacing", type=float, default=0.01, help="3-d quadrature resolution")
    p.add_argument("--full-3d", action="store_true",
                   help="force the 3-d midpoint quadrature instead of the radial closed form")
    p.add_argument("-o", "--output", default=None, help="charge JSON path")
    p.set_defaults(func=cmd_charge, required=("from_profile",))

    p = sub.add_parser("residual", help="field-equation residual of a lifted profile on a grid")
    common(p)
    p.add_argument("--from-profile", help="profile CSV (required)")
    p.add_argument("--h", type=float, default=0.2, help="grid spacing")
    p.add_argument("--rmin", type=float, default=1.0, help="annulus inner radius")
    p.add_argument("--rmax-annulus", type=float, default=5.0, help="annulus outer radius")
    p.add_argument("-o", "--output", default=None, help="residual JSON path")
    p.set_defaults(func=cmd_residual, required=("from_profile",))

    p = sub.add_parser("decompose", help="irreducible parts and invariants of a 3x3 matrix")
    common(p)
    p.add_argument("--matrix", help="9 comma-separated entries, row major (required)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_decompose, required=("matrix",))

    p = sub.add_parser("equilibria", help="fixed points of the autonomous radial system")
    common(p)
    _add_moduli_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("identity-check", help="quadratic-invariant identity residual on a random field")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the random field")
    p.add_argument("--h", type=float, default=0.1, help="grid spacing")
    p.add_argument("--extent", type=float, default=2.0, help="half width of the sample box")
    p.add_argument("--refine", action="store_true", help="also run at h/2 and report the ratio")
    p.add_argument("--dump-grid", default=None, help="write the sampled rotor grid as CSV")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_identity_check)

    for p in sub.choices.values():
        p.set_defaults(**(config or {}))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser without a config file, built once per process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.config:
            # precedence: defaults < config file < flags
            config = _load_config(args.config)
            for key, val in config.items():
                if key not in vars(args) or key in ("command", "config", "func", "required"):
                    raise ValueError(f"unknown config key: {key}")
                # the on/off flags, and only they, parse as booleans
                flag, option = isinstance(getattr(args, key), bool), f"--{key.replace('_', '-')}"
                if flag != (val.lower() in ("true", "false")):
                    raise ValueError(f"config value {val!r} for {option}: "
                                     + ("an on/off flag takes true or false" if flag else "not an on/off flag"))
                if flag:
                    config[key] = val.lower() == "true"
            args = build_parser(config).parse_args(argv)
        # every option, given as a flag or in the config file, passes the same checks
        bad = [f"--{k.replace('_', '-')} is required" for k in args.required if getattr(args, k) is None]
        bad += [f"--{key.replace('_', '-')} must be finite, got {val}" for key, val in vars(args).items()
                if isinstance(val, float) and not np.isfinite(val)]
        if bad:
            raise ValueError("; ".join(bad))
        with np.errstate(all="ignore"):  # stderr holds only the JSON record; every output passes a finiteness check
            record = args.func(args)
        # static and evolve write their profile to -o, so their record goes to --summary
        _emit({"command": args.command, **record}, getattr(args, "summary", args.output))
        return 0
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        return _fail_usage(str(exc))
    except RuntimeError as exc:
        return _fail_runtime(exc)


if __name__ == "__main__":
    sys.exit(main())
