import json

import numpy as np
import pytest

import rotelast as rl
from rotelast.cli import main


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


class TestEquilibria:
    def test_reference_couplings(self, capsys):
        code, out, _ = run_cli(capsys, "equilibria", "--lambda1", "1", "--lambda2", "1.25")
        assert code == 0
        payload = json.loads(out)
        sinh_values = sorted(e["sinh_f_star"] for e in payload["equilibria"])
        assert sinh_values[0] == pytest.approx(-2 * np.sqrt(2), abs=1e-9)
        assert sinh_values[1] == 0.0
        assert sinh_values[2] == pytest.approx(2 * np.sqrt(2), abs=1e-9)


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
