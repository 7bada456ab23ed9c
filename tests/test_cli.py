import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import rotelast as rl
import rotelast.cli
from rotelast.cli import main

SRC = str(Path(rotelast.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def make_soliton_csv(tmp_path, capsys, name="soliton.csv", rmax="50"):
    path = tmp_path / name
    code, out, _ = run_cli(
        capsys, "static", "--lambda1", "1", "--lambda2", "1",
        "--slope0", "1", "--rmax", rmax, "-o", str(path),
    )
    assert code == 0
    return path, json.loads(out)


class TestStatic:
    def test_writes_profile_and_summary(self, tmp_path, capsys):
        path, summary = make_soliton_csv(tmp_path, capsys)
        assert summary["schema_version"] == 1
        assert summary["w_end"] == pytest.approx(0.7504, abs=1e-3)
        profile = rl.load_profile_csv(path)
        assert profile.moduli.lambda1 == 1.0
        assert profile.w[0] == 0.0

    def test_c_triple_input(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "static", "--c1", "0.0", "--c2", "1.0", "--c3", "0.75",
            "--rmax", "10", "-o", str(tmp_path / "p.csv"),
        )
        assert code == 0
        assert json.loads(out)["lambda1"] == pytest.approx(1.0)

    def test_determinism_bit_identical(self, tmp_path, capsys):
        p1, _ = make_soliton_csv(tmp_path, capsys, name="a.csv", rmax="20")
        p2, _ = make_soliton_csv(tmp_path, capsys, name="b.csv", rmax="20")
        assert p1.read_bytes() == p2.read_bytes()

    def test_moduli_exclusivity_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "static", "--lambda1", "1", "--c1", "1", "--c2", "0",
            "--c3", "1", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "exactly one" in json.loads(err)["detail"]

    def test_divergence_exit_3(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "static", "--lambda1", "1", "--lambda2", "1",
            "--slope0", "1e9", "--rmax", "10", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 3
        record = json.loads(out)
        assert record["error"] == "divergence"
        assert record["radius"] > 0

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda1 = 1\nlambda2 = 1\nrmax = 30\nslope0 = 1\n")
        out_path = tmp_path / "cfg.csv"
        code, out, _ = run_cli(
            capsys, "static", "--config", str(cfg), "--rmax", "12",
            "-o", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["r_max"] == 12  # explicit flag wins over config
        assert summary["lambda1"] == 1.0

    def test_config_sets_float_option_and_flag(self, tmp_path, capsys):
        # options with a non-None default and store_true flags come from the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\nh = 0.4\nextent = 1.2\nrefine = true\n")
        code, out, _ = run_cli(capsys, "identity-check", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert [r["h"] for r in payload["results"]] == [0.4, 0.2]
        assert "richardson_ratio" in payload

    def test_config_defaults_stay_out_of_the_cached_parser(self, tmp_path, capsys):
        # a process parses every command line with one parser; a config file's defaults go to a parser
        # of their own, so the next command line without --config reads the built-in defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rmax = 12\n")
        argv = ("static", "--lambda1", "1", "--lambda2", "1", "-o", str(tmp_path / "x.csv"))
        code, out, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0 and json.loads(out)["r_max"] == 12
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["r_max"] == 50

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _, err = run_cli(capsys, "static", "--config", str(cfg),
                               "-o", str(tmp_path / "x.csv"))
        assert code == 2


class TestCharge:
    def test_soliton_charge_json(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys)
        out_json = tmp_path / "charge.json"
        code, out, _ = run_cli(
            capsys, "charge", "--from-profile", str(path), "--radius", "40",
            "--spacing", "0.01", "-o", str(out_json),
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        # value pinned by the endpoint formula (1/pi)[w + sin(2w)/2] at w(40)
        assert payload["charge"] == pytest.approx(0.3966, abs=2e-3)
        assert payload["schema_version"] == 1

    def test_full_3d_odd_coarse_cell_count(self, tmp_path, capsys):
        # the h = 0.8 pass spans 2R/h = 15 cells; the lattice must still miss the core
        path, _ = make_soliton_csv(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "charge", "--from-profile", str(path), "--radius", "6",
                               "--spacing", "0.4", "--full-3d")
        assert code == 0
        field = rl.lift_hedgehog(rl.load_profile_csv(path))
        exact = rl.hedgehog_charge_profile(float(field.w(0.0)), float(field.w(6.0)))
        # midpoint error around the singular core is first order, about -0.28 h
        assert 0.0 < exact - json.loads(out)["charge"] < 0.3 * 0.4

    def test_ball_without_a_node_exit_2(self, tmp_path, capsys):
        # the nearest nodes of the h = 0.4 lattice lie at radius sqrt(3) * 0.2; this used to print charge 0.0
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        out_path = tmp_path / "charge.json"
        code, out, err = run_cli(capsys, "charge", "--from-profile", str(path), "--full-3d", "--radius", "0.1",
                                 "--spacing", "0.4", "-o", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert json.loads(err)["detail"] == "no lattice node of spacing 0.4 falls in the ball of radius 0.1"

    def test_malformed_profile_exit_2(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        lines = path.read_text().splitlines(keepends=True)
        assert lines[4] == "r,w\n"
        bad = {
            "velocity header over two-column rows": lines[:4] + ["r,w,w_t\n"] + lines[5:],
            "header without rows": lines[:5],
            "unknown velocity column name": lines[:4] + ["r,w,wt\n"] + lines[5:],
        }
        for name, text in bad.items():
            bad_path = tmp_path / "bad.csv"
            bad_path.write_text("".join(text))
            code, out, err = run_cli(capsys, "charge", "--from-profile", str(bad_path),
                                     "--radius", "5", "--spacing", "0.1")
            assert code == 2, name
            assert out == "", name
            assert json.loads(err)["error"] == "usage", name


class TestEquilibria:
    def test_reference_couplings(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--lambda1", "1", "--lambda2", "1.25")
        assert code == 0
        payload = json.loads(out)
        sinh_values = sorted(e["sinh_f_star"] for e in payload["equilibria"])
        assert sinh_values[0] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)
        assert sinh_values[1] == 0.0
        assert sinh_values[2] == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda1 = 1\nlambda2 = 2\n")
        code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert (payload["lambda1"], payload["lambda2"]) == (1.0, 2.0)
        assert len(payload["equilibria"]) == 1  # cosh f* = 0: only the trivial fixed point
        code, out, _ = run_cli(capsys, "equilibria", "--config", str(cfg), "--lambda2", "1.25")
        assert code == 0
        payload = json.loads(out)
        assert (payload["lambda1"], payload["lambda2"]) == (1.0, 1.25)  # the flag wins
        assert len(payload["equilibria"]) == 3


class TestDecompose:
    def test_invariants_reported(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--matrix", "1,2,3,4,5,6,7,8,9")
        assert code == 0
        payload = json.loads(out)
        assert payload["trace_part"] == 15.0
        mat = np.arange(1.0, 10.0).reshape(3, 3)
        skew = 0.5 * (mat - mat.T)
        assert payload["trace_sq_invariant"] == pytest.approx(np.sum(skew * skew))
        assert payload["axial_sq_invariant"] == pytest.approx(15.0**2 / 3.0)

    def test_bad_matrix_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "decompose", "--matrix", "1,2,3")
        assert code == 2


class TestResidualCommand:
    def test_reports_small_residual_for_soliton(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="20")
        code, out, _ = run_cli(
            capsys, "residual", "--from-profile", str(path), "--h", "0.4",
            "--rmin", "1.5", "--rmax-annulus", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_residual"] < 0.5
        assert payload["n_cells"] > 0

    def test_slab_reduction_matches_whole_grid(self, tmp_path, capsys, monkeypatch):
        self.assert_blocks_match_whole_grid(tmp_path, capsys, monkeypatch, {4 + 4})

    # one plane a residual_grid slab, and slabs of 3 and 4 planes of 32 x 32 (all of 4 by default); the
    # blocks keep 12 planes or more, so each of them crosses the annulus
    @pytest.mark.parametrize("budget, slab_planes", [(1, {1 + 4}), (3500, {3 + 4, 4 + 4})], ids=["plane", "uneven"])
    def test_small_slab_budget_matches_whole_grid(self, tmp_path, capsys, monkeypatch, budget, slab_planes):
        monkeypatch.setattr(rl.kinematics, "_SLAB_POINTS", budget)
        self.assert_blocks_match_whole_grid(tmp_path, capsys, monkeypatch, slab_planes)

    @staticmethod
    def assert_blocks_match_whole_grid(tmp_path, capsys, monkeypatch, slab_planes):
        """``residual``'s count and maximum against one whole-grid residual; ``slab_planes``: the planes,
        halos included, of the residual_grid slabs that the command's blocks read."""
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="20")
        h, rmin, rmax = 0.2, 1.5, 3.0
        sampled, alpha_beta = [], rl.HedgehogField.alpha_beta
        slabs, grid_field_point = set(), rl.field_equations.grid_field_point

        def spy(self, x):
            sampled.append(np.shape(x)[:3])
            return alpha_beta(self, x)

        def slab_spy(grid, **kw):
            slabs.add(grid.dims[0])
            return grid_field_point(grid, **kw)

        monkeypatch.setattr(rl.HedgehogField, "alpha_beta", spy)
        monkeypatch.setattr(rl.field_equations, "grid_field_point", slab_spy)
        code, out, _ = run_cli(
            capsys, "residual", "--from-profile", str(path), "--h", str(h),
            "--rmin", str(rmin), "--rmax-annulus", str(rmax),
        )
        monkeypatch.undo()
        assert code == 0
        # 32^3 interior nodes in x-blocks of 12 planes or more, each sampled with two halo planes a side
        assert len(sampled) >= 2 and sum(nx - 4 for nx, _, _ in sampled) == 32
        assert all(shape[1:] == (36, 36) for shape in sampled)
        assert slabs == slab_planes
        payload = json.loads(out)
        profile = rl.load_profile_csv(path)
        axis = rl.kinematics._centred_axis(rmax + 3 * h, h)
        grid = rl.RotorGrid.from_field(rl.lift_hedgehog(profile), dims=(axis.size,) * 3, spacing=h,
                                       origin=np.full(3, axis[0]))
        pts, res = rl.residual_grid(grid, profile.moduli)
        assert pts.shape[:3] == (32, 32, 32)
        rr = np.linalg.norm(pts, axis=-1)
        mask = (rr >= rmin) & (rr <= rmax)
        assert payload["n_cells"] == int(mask.sum())
        assert payload["max_residual"] == float(np.abs(res[mask]).max())

    def test_memory_is_set_by_the_block(self, tmp_path, capsys):
        # the whole h = 0.1 lattice (106^3 nodes) with its whole-grid residual traced 96 MB
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="20")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "residual", "--from-profile", str(path), "--h", "0.1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["n_cells"] == 519760
        assert peak <= 50e6

    def test_empty_annulus_exit_2(self, tmp_path, capsys):
        self.assert_bad_annulus(tmp_path, capsys, "3", "2")

    def test_negative_rmin_exit_2(self, tmp_path, capsys):
        self.assert_bad_annulus(tmp_path, capsys, "-1", "2")

    @staticmethod
    def assert_bad_annulus(tmp_path, capsys, rmin, rmax):
        # checked before the profile is read: the record names the annulus, not the missing file
        code, out, err = run_cli(capsys, "residual", "--from-profile", str(tmp_path / "missing.csv"),
                                 "--rmin", rmin, "--rmax-annulus", rmax)
        assert code == 2 and out == ""
        assert json.loads(err)["detail"] == (f"the annulus needs 0 <= --rmin <= --rmax-annulus, "
                                             f"got [{float(rmin)}, {float(rmax)}]")

    def test_annulus_between_nodes_exit_2(self, tmp_path, capsys, monkeypatch):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="20")

        def no_field(*args, **kwargs):
            raise AssertionError("the annulus is counted before the field is sampled")

        monkeypatch.setattr(rl.HedgehogField, "alpha_beta", no_field)
        # the nodes nearest the origin of the cell-centred lattice lie at radius sqrt(3) * 0.2
        code, out, err = run_cli(capsys, "residual", "--from-profile", str(path), "--h", "0.4",
                                 "--rmin", "0.1", "--rmax-annulus", "0.3")
        assert code == 2 and out == ""
        assert json.loads(err)["detail"] == "no lattice node of --h 0.4 falls in the annulus [0.1, 0.3]"


class TestProfileDomain:
    """``charge`` and ``residual`` read the lifted profile only up to its last radius r_max."""

    def test_charge_beyond_r_max_exit_2(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="3")
        out_path = tmp_path / "charge.json"
        for mode in ((), ("--full-3d", "--spacing", "0.5")):
            code, out, err = run_cli(capsys, "charge", "--from-profile", str(path), "--radius", "3.5", *mode,
                                     "-o", str(out_path))
            assert code == 2 and out == "" and not out_path.exists()
            assert json.loads(err)["detail"] == "--radius 3.5 exceeds the profile's last radius r_max = 3.0"
            code, out, _ = run_cli(capsys, "charge", "--from-profile", str(path), "--radius", "3", *mode)
            assert code == 0 and json.loads(out)["ball_radius"] == 3.0

    def test_residual_stencil_beyond_r_max_exit_2(self, tmp_path, capsys):
        # annulus nodes to 2.2 and 2.4 at h = 0.5: the stencil reaches 2.907 and 3.107 of r_max = 3
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="3")
        code, out, _ = run_cli(capsys, "residual", "--from-profile", str(path), "--h", "0.5",
                               "--rmin", "1", "--rmax-annulus", "2.2")
        assert code == 0 and json.loads(out)["n_cells"] > 0
        code, out, err = run_cli(capsys, "residual", "--from-profile", str(path), "--h", "0.5",
                                 "--rmin", "1", "--rmax-annulus", "2.4")
        assert code == 2 and out == ""
        assert json.loads(err)["detail"] == (f"--rmax-annulus 2.4 + sqrt(2) --h 0.5 = {2.4 + np.sqrt(2.0) * 0.5} "
                                             "exceeds the profile's last radius r_max = 3.0")


class TestEvolveCommand:
    def test_stationary_soliton(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="30")
        out_csv = tmp_path / "final.csv"
        code, out, _ = run_cli(
            capsys, "evolve", "--from-profile", str(path), "--t-end", "1.0",
            "--n-grid", "1501", "-o", str(out_csv),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sup_drift"] < 5e-3
        assert payload["energy_rel_drift"] < 1e-6
        final = rl.load_profile_csv(out_csv)
        assert final.w_t is not None

    @staticmethod
    def evolve_in_process(path, n_grid, t_end):
        """The run of ``evolve --from-profile path --n-grid n_grid --t-end t_end`` at its default dt."""
        uniform = rl.resample_uniform(rl.load_profile_csv(path), n=n_grid)
        dr = uniform.r[1] - uniform.r[0]
        return rl.evolve_dynamic(uniform, dt=0.5 * dr / np.sqrt(uniform.moduli.lambda1), t_end=t_end)

    @pytest.mark.parametrize("kicked", [False, True])
    def test_sup_drift_is_the_max_over_the_trajectory(self, tmp_path, capsys, kicked):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="20")
        if kicked:
            p = rl.load_profile_csv(path)
            w_t = 0.01 * p.r * np.exp(-(p.r - 2.0) ** 2)
            rl.save_profile_csv(rl.RadialProfile(r=p.r, w=p.w, w_t=w_t, moduli=p.moduli, slope0=p.slope0,
                                                 tol=p.tol), path)
        code, out, _ = run_cli(capsys, "evolve", "--from-profile", str(path), "--n-grid", "801", "--t-end", "2")
        assert code == 0
        ev = self.evolve_in_process(path, 801, 2.0)
        drift = float(np.abs(ev.w - ev.w[0]).max())
        assert drift > 0 and json.loads(out)["sup_drift"] == drift

    def test_memory_holds_the_trajectory_once(self, tmp_path, capsys):
        # the whole-trajectory difference and its absolute value traced 2.02 times the trajectory
        path, _ = make_soliton_csv(tmp_path, capsys)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "evolve", "--from-profile", str(path), "--n-grid", "4001", "--t-end", "2",
                                 "-o", str(tmp_path / "final.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ev = self.evolve_in_process(path, 4001, 2.0)
        assert code == 0 and peak <= 1.25 * (ev.w.nbytes + ev.w_t.nbytes)


class TestIdentityCheckCommand:
    def test_refine_ratio_and_determinism(self, tmp_path, capsys):
        args = ("identity-check", "--seed", "7", "--h", "0.2", "--extent", "1.6",
                "--refine")
        code, out1, _ = run_cli(capsys, *args, "-o", str(tmp_path / "a.json"))
        assert code == 0
        code, out2, _ = run_cli(capsys, *args, "-o", str(tmp_path / "b.json"))
        assert code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        payload = json.loads(out1)
        assert payload["richardson_ratio"] >= 3.0

    def test_grid_dump_roundtrip(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys, "identity-check", "--seed", "3", "--h", "0.4",
            "--extent", "1.2", "--dump-grid", str(grid_path),
        )
        assert code == 0
        grid = rl.load_grid_csv(grid_path)
        assert min(grid.dims) >= 5


class TestBadNumericOptions:
    """Values that used to raise a traceback or run zero steps exit 2 with the usage record."""

    @pytest.mark.parametrize("argv", [
        ("residual", "--h", "0"),
        ("identity-check", "--h", "0"),
        ("identity-check", "--extent", "-1"),
        ("identity-check", "--extent", "0"),
        ("evolve", "--dt", "0"),
        ("evolve", "--n-grid", "1"),
        ("evolve", "--dt", "-0.01"),
        ("evolve", "--t-end", "-1"),
    ], ids=" ".join)
    def test_exit_2(self, tmp_path, capsys, argv):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        out_path = tmp_path / "out.json"
        profile = () if argv[0] == "identity-check" else ("--from-profile", str(path))
        code, out, err = run_cli(capsys, *argv, *profile, "-o", str(out_path))
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "usage"
        if argv[1] == "--extent":  # rejected up front, not by the grid it would size
            assert record["detail"] == f"--extent must be positive, got {float(argv[2])}"
        assert not out_path.exists()

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path):
        # --h 1e-4 sizes a 40001^3 grid of 466 TiB: no machine maps it, so numpy raises MemoryError at once.
        # A real process, so that a traceback would reach its stderr
        out_path = tmp_path / "out.json"
        argv = ["identity-check", "--h", "1e-4", "-o", str(out_path)]
        proc = subprocess.run([sys.executable, "-m", "rotelast.cli", *argv], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 2 and proc.stdout == "" and not out_path.exists()
        record = json.loads(proc.stderr)
        assert record["error"] == "usage" and record["detail"].startswith("Unable to allocate")
        assert "(40001, 40001, 40001)" in record["detail"]

    @pytest.mark.parametrize("argv", [
        ("residual", "--h", "5e-324"),
        ("charge", "--full-3d", "--radius", "6", "--spacing", "5e-324"),
        ("identity-check", "--h", "5e-324"),
        ("identity-check", "--extent", "1e308", "--h", "1e-10"),
        ("evolve", "--dt", "5e-324"),
    ], ids=" ".join)
    def test_count_too_large_for_an_integer_exits_2(self, tmp_path, capsys, argv):
        # the node or step count is infinite, so int() raises OverflowError.  A real process, so that a
        # traceback would reach its stderr
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        profile = () if argv[0] == "identity-check" else ("--from-profile", str(path))
        out_path = tmp_path / "out.json"
        proc = subprocess.run([sys.executable, "-m", "rotelast.cli", *argv, *profile, "-o", str(out_path)],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 2 and proc.stdout == "" and not out_path.exists()
        assert json.loads(proc.stderr) == {"schema_version": 1, "error": "usage",
                                           "detail": "cannot convert float infinity to integer"}


class TestStrictJson:
    """A record that JSON cannot hold, NaN or an infinity, is the usage record, not a file for a lax parser.

    The overflow that makes it warns nothing: stderr holds only the record.
    """

    @pytest.mark.parametrize("argv, bad", [
        (("decompose", "--matrix", "1e308,2,3,4,1e308,6,7,8,1e308"), "inf"),  # the trace overflows
        (("equilibria", "--lambda1", "1e-320", "--lambda2", "1"), "nan"),  # so do the eigenvalues
    ], ids=lambda v: v[0] if isinstance(v, tuple) else v)
    def test_non_finite_record_exits_2(self, tmp_path, capsys, argv, bad):
        out_path = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise
            code, out, err = run_cli(capsys, *argv, "-o", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert json.loads(err) == {"schema_version": 1, "error": "usage",
                                   "detail": f"Out of range float values are not JSON compliant: {bad}"}


class TestNonFiniteOptions:
    """A non-finite number, from a flag or from the config file, exits 2 with the usage record."""

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("command, option, value", [
        ("charge", "spacing", "inf"),
        ("charge", "radius", "inf"),
        ("residual", "rmax-annulus", "inf"),
        ("identity-check", "extent", "inf"),
        ("evolve", "t-end", "inf"),
        ("decompose", "matrix", "1,2,nan,4,5,6,7,8,9"),
    ])
    def test_exit_2(self, tmp_path, capsys, command, option, value, form):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        profile = ("--from-profile", str(path)) if command in ("charge", "residual", "evolve") else ()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        given = ("--config", str(cfg)) if form == "config" else (f"--{option}", value)
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, command, *profile, *given, "-o", str(out_path))
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "usage"
        assert f"--{option}" in record["detail"]
        assert not out_path.exists()


class TestRuntimeFailures:
    """Solver failures exit 3 with a one-line JSON record on stdout, never a traceback."""

    def test_instability_exit_3(self, tmp_path, capsys, monkeypatch):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")

        def unstable(*args, **kwargs):
            raise rl.InstabilityError("non-finite w at t = 0.25")

        monkeypatch.setattr(rotelast.cli, "evolve_dynamic", unstable)
        code, out, _ = run_cli(capsys, "evolve", "--from-profile", str(path), "--n-grid", "101")
        assert code == 3
        assert len(out.splitlines()) == 1
        record = json.loads(out)
        assert record == {"schema_version": 1, "error": "instability",
                          "detail": "non-finite w at t = 0.25"}

    def test_ill_posed_coupling_exit_3(self, tmp_path, capsys):
        # U'(0) = 2 (2 lambda2 - 3 lambda1) above lambda1 / 4 beats the Hardy bound of the radial
        # Laplacian, so the growth rate would be the grid's: evolve refuses before stepping
        ill, fine = tmp_path / "ill.csv", tmp_path / "fine.csv"
        for path, l1, l2 in ((ill, "0.4", "2.3"), (fine, "1", "1.25")):
            code, _, _ = run_cli(capsys, "static", "--lambda1", l1, "--lambda2", l2, "--rmax", "10", "-o", str(path))
            assert code == 0
        code, out, _ = run_cli(capsys, "evolve", "--from-profile", str(ill), "--n-grid", "101",
                               "-o", str(tmp_path / "final.csv"))
        assert code == 3
        assert len(out.splitlines()) == 1
        assert json.loads(out) == {
            "schema_version": 1, "error": "ill_posed",
            "detail": "U'(0) = 2 (2 lambda2 - 3 lambda1) = 6.8 exceeds lambda1 / 4 = 0.1, "
                      "the Hardy bound of the radial Laplacian"}
        assert not (tmp_path / "final.csv").exists()
        # U'(0) = -1 for (1, 1.25)
        code, _, _ = run_cli(capsys, "evolve", "--from-profile", str(fine), "--n-grid", "101", "--t-end", "0.5")
        assert code == 0

    @pytest.mark.parametrize("w_t, ends, r_max, t_end, error, detail", [
        # the levels stay finite, but r^2 w_t^2 overflows the snapshot energy
        (1e305, 0.0, 5.0, "1", "instability", "non-finite energy at t = 0"),
        # a finite column whose spline slopes overflow when evolve resamples it
        (1e307, 0.0, 5.0, "1", "solver_failure", "resampled w_t is not finite: its cubic spline overflowed"),
        # uniform to the ends, so the spline stays finite; the levels stay finite too, but the snapshot
        # velocity (d + k / 2) / dt overflows from t = 9.6 on, after the energy at t = 0
        (1.5e307, 1.5e307, 10.0, "20", "instability", "non-finite energy at t = 0"),
    ], ids=["energy", "resample", "velocity"])
    def test_overflow_exit_3_with_strict_json(self, tmp_path, w_t, ends, r_max, t_end, error, detail):
        r = np.linspace(0.0, r_max, 101)
        column = np.full_like(r, w_t)
        column[[0, -1]] = ends
        path = tmp_path / "huge.csv"
        rl.save_profile_csv(rl.RadialProfile(r=r, w=np.zeros_like(r), w_t=column,
                                             moduli=rl.Moduli.from_couplings(1.0, 1.0), slope0=0.0, tol=1e-10),
                            path)
        # a real process, so that a RuntimeWarning would reach its stderr
        proc = subprocess.run([sys.executable, "-m", "rotelast.cli", "evolve", "--from-profile", str(path),
                               "--n-grid", "101", "--dt", "0.05", "--t-end", t_end, "-o", str(tmp_path / "final.csv")],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        assert proc.returncode == 3
        assert json.loads(proc.stdout, parse_constant=reject) == {"schema_version": 1, "error": error,
                                                                   "detail": detail}
        assert proc.stderr == ""
        assert not (tmp_path / "final.csv").exists()

    def test_static_vanishing_coupling_exit_2(self, tmp_path, capsys):
        # lambda1 R0^2 rounds to 0: a usage record, not a ZeroDivisionError; 1e-310 R0^2 = 1e-322 still integrates
        out_path = tmp_path / "profile.csv"
        code, out, err = run_cli(capsys, "static", "--lambda1", "1e-320", "--lambda2", "1", "-o", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"schema_version": 1, "error": "usage", "detail": "bad solver configuration"}
        code, out, _ = run_cli(capsys, "static", "--lambda1", "1e-310", "--lambda2", "1", "-o", str(out_path))
        assert code == 3 and json.loads(out)["error"] == "solver_failure"

    def test_static_integration_failure_exit_3(self, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("static integration failed: step size too small")

        monkeypatch.setattr(rotelast.cli, "solve_static", failing)
        code, out, _ = run_cli(capsys, "static", "--lambda1", "1", "--lambda2", "1")
        assert code == 3
        assert len(out.splitlines()) == 1
        assert json.loads(out) == {"schema_version": 1, "error": "solver_failure",
                                   "detail": "static integration failed: step size too small"}


class TestRequiredOptionsFromConfig:
    """--from-profile and --matrix may come from --config; a flag still wins."""

    @pytest.fixture()
    def profiles(self, tmp_path, capsys):
        good, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        return good, tmp_path / "missing.csv"

    @pytest.mark.parametrize("command, extra", [
        ("evolve", ("--t-end", "0.5", "--n-grid", "201")),
        ("charge", ("--radius", "5", "--spacing", "0.1")),
        ("residual", ("--h", "0.5", "--rmin", "1", "--rmax-annulus", "2")),
    ])
    def test_from_profile(self, tmp_path, capsys, profiles, command, extra):
        good, missing = profiles
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"from-profile = {good}\n")
        code, out, _ = run_cli(capsys, command, "--config", str(cfg), *extra)
        assert code == 0
        assert json.loads(out)["command"] == command
        # the flag overrides the file: a missing path given on the command line fails
        code, _, err = run_cli(capsys, command, "--config", str(cfg), "--from-profile", str(missing),
                               *extra)
        assert code == 2
        assert "missing.csv" in json.loads(err)["detail"]
        # and a good flag wins over a bad file
        cfg.write_text(f"from-profile = {missing}\n")
        code, _, _ = run_cli(capsys, command, "--config", str(cfg), "--from-profile", str(good), *extra)
        assert code == 0

    def test_matrix(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("matrix = 1,2,3,4,5,6,7,8,9\n")
        code, out, _ = run_cli(capsys, "decompose", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["trace_part"] == 15.0
        code, out, _ = run_cli(capsys, "decompose", "--config", str(cfg), "--matrix", "1,0,0,0,1,0,0,0,2")
        assert code == 0
        assert json.loads(out)["trace_part"] == 4.0

    @pytest.mark.parametrize("argv, flag", [
        (("evolve",), "--from-profile"), (("charge",), "--from-profile"),
        (("residual",), "--from-profile"), (("decompose",), "--matrix"),
    ])
    def test_missing_everywhere_exit_2(self, tmp_path, capsys, argv, flag):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"output = {tmp_path / 'out.json'}\n")
        for extra in ((), ("--config", str(cfg))):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 2
            assert out == ""
            record = json.loads(err)
            assert record["error"] == "usage"
            assert flag in record["detail"]
        assert not (tmp_path / "out.json").exists()


class TestConfigOnOffValues:
    """Only the on/off flags take true or false in a config file, and they take nothing else."""

    @pytest.mark.parametrize("command, line, option", [
        ("identity-check", "refine = no", "--refine"),
        ("charge", "full-3d = 0", "--full-3d"),
        ("evolve", "t-end = false", "--t-end"),
        ("identity-check", "h = true", "--h"),
    ])
    def test_exit_2(self, tmp_path, capsys, command, line, option):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="10")
        profile = () if command == "identity-check" else ("--from-profile", str(path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_path = tmp_path / "out.json"
        code, out, err = run_cli(capsys, command, *profile, "--config", str(cfg), "-o", str(out_path))
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "usage"
        assert option in record["detail"]
        assert not out_path.exists()

    def test_false_turns_a_flag_off(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 0.4\nextent = 1.2\nrefine = False\n")
        code, out, _ = run_cli(capsys, "identity-check", "--config", str(cfg))
        assert code == 0
        assert [r["h"] for r in json.loads(out)["results"]] == [0.4]


class TestArgparseErrors:
    """Errors that argparse itself finds exit 2 with the JSON usage record, and stdout stays empty."""

    @pytest.mark.parametrize("argv, config, words", [
        (("identity-check", "--h", "abc"), None, "invalid float value: 'abc'"),
        (("static", "--bogus"), None, "unrecognized arguments: --bogus"),
        ((), None, "required: command"),
        (("identity-check",), "h = abc", "invalid float value: 'abc'"),
    ], ids=["bad-type", "unknown-flag", "no-subcommand", "bad-config-type"])
    def test_exit_2(self, tmp_path, capsys, argv, config, words):
        extra = ()
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config + "\n")
            extra = ("--config", str(cfg))
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record == {"schema_version": 1, "error": "usage", "detail": record["detail"]}
        assert words in record["detail"]

    @pytest.mark.parametrize("argv", [
        ("residual", "--from-profile", "{csv}", "--h", "0.5", "--rmax", "3"),
        ("static", "--lambda1", "1", "--lambda2", "1", "--rmax", "5", "--sum", "s.json"),
        ("--h", "abc"),
    ], ids=["rmax-for-rmax-annulus", "sum-for-summary", "h-for-help"])
    def test_abbreviated_option_exits_2(self, tmp_path, capsys, argv):
        # the profile exists, so only the option spelling can fail
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="5")
        code, out, err = run_cli(capsys, *(a.format(csv=path) for a in argv))
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record == {"schema_version": 1, "error": "usage", "detail": record["detail"]}

    def test_full_option_names_parse(self, tmp_path, capsys):
        path, _ = make_soliton_csv(tmp_path, capsys, rmax="5")
        summary = tmp_path / "s.json"
        code, _, _ = run_cli(capsys, "static", "--lambda1", "1", "--lambda2", "1", "--rmax", "5",
                             "--summary", str(summary))
        assert code == 0 and json.loads(summary.read_text())["r_max"] == 5.0
        code, out, _ = run_cli(capsys, "residual", "--from-profile", str(path), "--h", "0.5",
                               "--rmin", "1", "--rmax-annulus", "3")
        assert code == 0 and json.loads(out)["annulus"] == [1.0, 3.0]

    @pytest.mark.parametrize("argv, words", [
        (("--version",), f"rotelast {rl.__version__}"),
        (("--help",), "identity-check"),
        (("static", "--help"), "--slope0"),
    ])
    def test_help_and_version_exit_0(self, capsys, argv, words):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert words in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["static", "evolve", "charge", "residual", "decompose",
                                         "equilibria"])
    def test_seed_only_on_identity_check(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --seed 1" in json.loads(err)["detail"]
