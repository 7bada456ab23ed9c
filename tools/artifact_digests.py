"""Print the sha256 of every command artifact and of selected library results.

Usage, with the checkout to digest first on the path:

    PYTHONPATH=src python3 tools/artifact_digests.py > digests.json

Run it on two checkouts and compare the two files (``cmp`` or ``diff``) to
show that a refactor left the results bit-identical.  Covered:

* every ``-o``, ``--summary`` and ``--dump-grid`` file of all seven
  commands (``charge`` on both the radial closed form and the 3-d quadrature,
  the latter at an odd lattice count of its coarse pass);
* ``residual_grid`` on the two grids of the ``residual_3d`` workload and on
  the criterion-3 grid (h = 0.1, annulus to r = 5);
* ``check_identity_TT`` at h = 0.1 and 0.05 on the box [-1, 1]^3;
* every block of ``random_smooth_field`` at orders 0, 1 and 2;
* ``decompose``, ``quadratic_invariants``, ``potential_density`` and
  ``h_tensors`` on a random batch, ``FieldPoint.constraint_residual``, and
  the grid and profile CSV round trips.

Arrays are digested as ``tobytes()`` together with their shape; floats as
``repr``.  The residual on the criterion-3 grid takes a few seconds and
about 250 MB.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import rotelast as rl
import rotelast.cli


def digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for v in value:
            h.update(digest(v).encode())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def cli_artifacts(tmp: Path) -> dict:
    runs = (
        ("static", ["--lambda1", "1", "--lambda2", "1", "-o", "profile.csv", "--summary", "static.json"]),
        ("evolve", ["--from-profile", "profile.csv", "--n-grid", "801", "--t-end", "2",
                    "-o", "final.csv", "--summary", "evolve.json"]),
        ("charge", ["--from-profile", "profile.csv", "--radius", "6", "--spacing", "0.01",
                    "-o", "charge_radial.json"]),
        ("charge", ["--from-profile", "profile.csv", "--full-3d", "--radius", "3", "--spacing", "0.2",
                    "-o", "charge_3d.json"]),
        ("residual", ["--from-profile", "profile.csv", "--h", "0.2", "-o", "residual.json"]),
        ("decompose", ["--matrix", "1,2,3,4,5,-6,7.5,8,1e-300", "-o", "decompose.json"]),
        ("equilibria", ["--lambda1", "1", "--lambda2", "1.25", "-o", "equilibria.json"]),
        ("identity-check", ["--h", "0.2", "--refine", "--dump-grid", "grid.csv", "-o", "identity.json"]),
    )
    out = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for command, argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = rotelast.cli.main([command, *argv])
            if code != 0:
                raise SystemExit(f"rotelast {command} exited with code {code}")
        for path in sorted(tmp.iterdir()):
            out[f"cli/{path.name}"] = digest(path.read_bytes())
        grid = rl.load_grid_csv("grid.csv")
        out["csv/grid_roundtrip"] = digest([grid.alpha, grid.beta, grid.spacing, grid.origin])
        profile = rl.load_profile_csv("final.csv")
        out["csv/profile_roundtrip"] = digest([profile.r, profile.w, profile.w_t, profile.moduli,
                                               profile.slope0, profile.tol])
    finally:
        os.chdir(cwd)
    return out


def residual_arrays() -> dict:
    moduli = rl.Moduli.from_couplings(1.0, 1.0)
    field = rl.lift_hedgehog(rl.solve_static(moduli, slope0=1.0, r_max=60.0, tol=1e-10))
    out = {}
    # the residual_3d workload's grids (seed-1 shift) and the criterion-3 grid
    shift = np.random.default_rng(1).uniform(-0.25, 0.25, size=3)
    for name, h, r_out, s in (("residual_3d_h0.2", 0.2, 1.5, shift), ("residual_3d_h0.1", 0.1, 1.5, shift),
                              ("criterion3_h0.1", 0.1, 5.0, np.zeros(3))):
        n = int(np.ceil(2 * (r_out + 3 * h) / h))
        n += n % 2
        grid = rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h, origin=(s - (n / 2 - 0.5)) * h)
        out[f"residual_grid/{name}"] = digest(list(rl.residual_grid(grid, moduli)))
        del grid
    return out


def kinematics_values() -> dict:
    out = {}
    field = rl.random_smooth_field(seed=7)
    for h in (0.1, 0.05):
        n = int(np.ceil(2.0 / h)) + 1
        grid = rl.RotorGrid.from_field(field, dims=(n, n, n), spacing=h, origin=-np.ones(3))
        out[f"check_identity_TT/h{h}"] = digest(rl.check_identity_TT(grid))
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.5, 1.5, size=(500, 3))
    for order in (0, 1, 2):
        fp = rl.random_smooth_field(seed=11).field_point(x, 0.0, order=order)
        out[f"random_smooth_field/order{order}"] = digest(list(vars(fp).values()))
        out[f"constraint_residual/order{order}"] = digest(fp.constraint_residual())
    a = rng.normal(size=(400, 3, 3))
    a_t = rng.normal(size=(400, 3))
    moduli = rl.Moduli.from_constants(0.3, 0.7, 1.1)
    out["decompose"] = digest([[d.trace_part, d.antisym_part, d.sym_traceless_part]
                               for d in map(rl.decompose, a[:50])])
    out["quadratic_invariants"] = digest(list(rl.quadratic_invariants(a)) + list(rl.quadratic_invariants(a[0])))
    out["potential_density"] = digest([rl.potential_density(a, moduli), rl.potential_density(a[0], moduli)])
    out["h_tensors"] = digest(list(rl.h_tensors(a, a_t, moduli)))
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = cli_artifacts(Path(tmp))
    out.update(kinematics_values())
    out.update(residual_arrays())
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
