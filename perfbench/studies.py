"""The four study workloads of the benchmark.

Each workload has a ``setup(rng)`` that builds its inputs from the seeded
generator, and a ``study(inputs, tmp)`` that runs one study and returns its
outputs and its checks.  Outputs are a dict of arrays, bytes and scalars;
equal seeds must give bit-identical outputs.  Checks are ``(name, passed)``
pairs.  Library calls go through module attributes (``rl.residual_grid``),
never through names imported here, so the tracer's wrappers see them.

The grids are smaller than those of the acceptance studies, so that one
study takes about a second and a run holds many: the residual annulus is
1 <= r <= 1.5 (criterion 3 uses r <= 5), the identity check samples the
box [-1, 1]^3 (the command's default is [-2, 2]^3) and the charge
quadratures use radii 6 and 8.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import rotelast as rl
import rotelast.cli

# residual_3d: the lambda1 = lambda2 = 1 soliton on two cell-centred grids
RESIDUAL_SPACINGS = (0.2, 0.1)
RESIDUAL_ANNULUS = (1.0, 1.5)
MIN_RESIDUAL_RATIO = 3.0

# charge_3d: (a) one degree-one core, (b) the ordered product of two cores
CORE_A = dict(scale=1.2, ball_radius=6.0, grid_spacing=0.3, tol=1e-6)
CORE_B = dict(scale=0.8, separation=5.0, jitter=0.5, ball_radius=8.0, grid_spacing=0.4, tol=0.01)
RADIAL_REFERENCE_SPACING = 1e-3

# grid_kinematics: identity check at h and h/2, and a sampled product grid
IDENTITY_H = 0.1
IDENTITY_EXTENT = 1.0
MIN_IDENTITY_RATIO = 3.0
PRODUCT_GRID_N = 24
PRODUCT_GRID_HALF_WIDTH = 6.0
U_TOL = 1e-12

# radial_dynamics: static solve, long leapfrog run, equilibria
STATIC_TOL = 1e-10
STATIC_RMAX = 50.0
EVOLVE_T_END = 20.0
MAX_ENERGY_DRIFT = 1e-5
EQUILIBRIA_LAMBDA2 = 1.25  # inside (l1, 1.5 l1): the origin plus a nontrivial pair


def degree_one_core(scale: float):
    """Constant-boundary tanh hedgehog: w runs from pi/2 at 0 to -pi/2, charge -1."""
    dw = -np.pi
    return rl.HedgehogField(
        lambda r: np.pi / 2 + dw * np.tanh(r / scale),
        lambda r: dw / scale / np.cosh(r / scale) ** 2,
        lambda r: -2 * dw / scale**2 * np.tanh(r / scale) / np.cosh(r / scale) ** 2,
    )


def two_core_product(rng):
    """Ordered product of two translated cores at +-5 e_x, offsets jittered by the seed."""
    core = degree_one_core(CORE_B["scale"])
    centres = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]) * CORE_B["separation"]
    centres += rng.uniform(-CORE_B["jitter"], CORE_B["jitter"], size=(2, 3))
    return rl.ProductField([rl.TranslatedField(core, c) for c in centres])


def run_cli(argv) -> int:
    """Run a command in-process; its stdout summary is discarded (``-o`` files hold it)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return rotelast.cli.main([str(a) for a in argv])


def same_grid(a, b) -> bool:
    return (np.array_equal(a.alpha, b.alpha) and np.array_equal(a.beta, b.beta)
            and a.spacing == b.spacing and np.array_equal(a.origin, b.origin))


# ---------------------------------------------------------------------------


def setup_residual_3d(rng):
    moduli = rl.Moduli.from_couplings(1.0, 1.0)
    profile = rl.solve_static(moduli, slope0=1.0, r_max=60.0, tol=STATIC_TOL)
    # sub-cell offset of the cell-centred lattice; |shift| < h/2 keeps the origin off the nodes
    return {"moduli": moduli, "field": rl.lift_hedgehog(profile),
            "shift": rng.uniform(-0.25, 0.25, size=3)}


def study_residual_3d(inp, tmp):
    r_in, r_out = RESIDUAL_ANNULUS
    outputs = {}
    for h in RESIDUAL_SPACINGS:
        n = int(np.ceil(2 * (r_out + 3 * h) / h))
        n += n % 2
        origin = (inp["shift"] - (n / 2 - 0.5)) * h
        grid = rl.RotorGrid.from_field(inp["field"], dims=(n, n, n), spacing=h, origin=origin)
        pts, res = rl.residual_grid(grid, inp["moduli"])
        rr = np.linalg.norm(pts, axis=-1)
        outputs[f"residual_h{h}"] = res
        outputs[f"max_residual_h{h}"] = float(np.abs(res[(rr >= r_in) & (rr <= r_out)]).max())
    coarse, fine = (outputs[f"max_residual_h{h}"] for h in RESIDUAL_SPACINGS)
    outputs["ratio"] = coarse / fine
    checks = [("residual falls by >= 3x from h=0.2 to h=0.1", outputs["ratio"] >= MIN_RESIDUAL_RATIO)]
    return outputs, checks


def setup_charge_3d(rng):
    return {"core": degree_one_core(CORE_A["scale"]), "product": two_core_product(rng)}


def study_charge_3d(inp, tmp):
    a = rl.total_charge(inp["core"], ball_radius=CORE_A["ball_radius"],
                        grid_spacing=CORE_A["grid_spacing"], force_3d=True)
    radial = rl.total_charge(inp["core"], ball_radius=CORE_A["ball_radius"],
                             grid_spacing=RADIAL_REFERENCE_SPACING)
    b = rl.total_charge(inp["product"], ball_radius=CORE_B["ball_radius"],
                        grid_spacing=CORE_B["grid_spacing"])
    outputs = {"charge_core": a.charge, "error_core": a.estimated_error,
               "charge_radial": radial.charge,
               "charge_product": b.charge, "error_product": b.estimated_error}
    checks = [
        ("3-d core charge matches the radial fast path to 1e-6",
         abs(a.charge - radial.charge) <= CORE_A["tol"]),
        ("two-core product charge is -2 to 0.01", abs(b.charge + 2.0) <= CORE_B["tol"]),
    ]
    return outputs, checks


def setup_grid_kinematics(rng):
    return {"field_seed": int(rng.integers(0, 2**31)), "product": two_core_product(rng)}


def study_grid_kinematics(inp, tmp):
    dump, summary, saved = tmp / "identity_grid.csv", tmp / "identity.json", tmp / "product_grid.csv"
    code = run_cli(["identity-check", "--seed", inp["field_seed"], "--h", IDENTITY_H,
                    "--extent", IDENTITY_EXTENT, "--refine", "--dump-grid", dump, "-o", summary])
    report = json.loads(summary.read_text())
    # the command dumps its first (coarse) grid; sample the same grid here to compare
    n = report["results"][0]["n"]
    sampled = rl.RotorGrid.from_field(rl.random_smooth_field(seed=inp["field_seed"]), dims=(n, n, n),
                                      spacing=IDENTITY_H, origin=-IDENTITY_EXTENT * np.ones(3))
    dumped = rl.load_grid_csv(dump)

    n, half = PRODUCT_GRID_N, PRODUCT_GRID_HALF_WIDTH
    h = 2 * half / n
    product = rl.RotorGrid.from_field(inp["product"], dims=(n, n, n), spacing=h,
                                      origin=(0.5 * h - half) * np.ones(3))
    rl.save_grid_csv(product, saved)
    reloaded = rl.load_grid_csv(saved)
    u_err = float(np.abs(reloaded.u_array() - inp["product"].u(reloaded.points())).max())

    outputs = {"identity_summary": summary.read_bytes(), "identity_grid_csv": dump.read_bytes(),
               "product_grid_csv": saved.read_bytes(), "product_alpha": product.alpha,
               "product_beta": product.beta, "identity_ratio": report["richardson_ratio"],
               "u_error": u_err}
    checks = [
        ("identity-check exits 0", code == 0),
        ("identity residual falls by >= 3x from h to h/2", report["richardson_ratio"] >= MIN_IDENTITY_RATIO),
        ("dumped identity grid reloads bit-identical", same_grid(dumped, sampled)),
        ("product grid reloads bit-identical", same_grid(reloaded, product)),
        ("reloaded product grid u matches ProductField.u to 1e-12", u_err <= U_TOL),
    ]
    return outputs, checks


def setup_radial_dynamics(rng):
    return {"slope0": float(rng.uniform(0.95, 1.05))}


def study_radial_dynamics(inp, tmp):
    profile_csv, final_csv = tmp / "soliton.csv", tmp / "final.csv"
    evolve_json, equilibria_json = tmp / "evolve.json", tmp / "equilibria.json"
    slope0 = repr(inp["slope0"])
    codes = [
        run_cli(["static", "--lambda1", 1, "--lambda2", 1, "--slope0", slope0, "--rmax", STATIC_RMAX,
                 "--tol", STATIC_TOL, "-o", profile_csv]),
        run_cli(["evolve", "--from-profile", profile_csv, "--t-end", EVOLVE_T_END,
                 "-o", final_csv, "--summary", evolve_json]),
        run_cli(["equilibria", "--lambda1", 1, "--lambda2", EQUILIBRIA_LAMBDA2, "-o", equilibria_json]),
    ]
    # a profile read back from CSV carries no dense solution, so check a fresh solve
    profile = rl.solve_static(rl.Moduli.from_couplings(1.0, 1.0), slope0=float(slope0),
                              r_max=STATIC_RMAX, tol=STATIC_TOL)
    static_res = rl.static_residual(profile)
    drift = json.loads(evolve_json.read_text())["energy_rel_drift"]
    n_equilibria = len(json.loads(equilibria_json.read_text())["equilibria"])
    outputs = {"profile_csv": profile_csv.read_bytes(), "final_csv": final_csv.read_bytes(),
               "evolve_summary": evolve_json.read_bytes(),
               "equilibria_summary": equilibria_json.read_bytes(),
               "static_residual": static_res, "energy_rel_drift": drift}
    checks = [
        ("static, evolve and equilibria exit 0", codes == [0, 0, 0]),
        ("static_residual <= 10 tol", static_res <= 10 * STATIC_TOL),
        ("leapfrog energy drift <= 1e-5", drift <= MAX_ENERGY_DRIFT),
        ("equilibria: origin plus one nontrivial pair", n_equilibria == 3),
    ]
    return outputs, checks


WORKLOADS = {
    "residual_3d": (setup_residual_3d, study_residual_3d),
    "charge_3d": (setup_charge_3d, study_charge_3d),
    "grid_kinematics": (setup_grid_kinematics, study_grid_kinematics),
    "radial_dynamics": (setup_radial_dynamics, study_radial_dynamics),
}
