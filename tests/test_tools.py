"""tools/compare_artifacts.py on small files, and the source counts of tools/bench_record.py: no command
runs in a subprocess.  The tools and the benchmark read only public rotelast names."""

import argparse
import ast
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import rotelast.cli
from rotelast import field_equations, fields, kinematics, radial, so3, topology

from test_api import ROOT, public_callables


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_artifacts = load_tool("compare_artifacts")
differences, compare = compare_artifacts.differences, compare_artifacts.compare

CSV = "# radial-profile-csv 1\n# slope0 1.0 tol 1e-09\nr,w\n0.0,0.0\n1.0,0.5\n2.0,0.25\n"


def pair(tmp_path, name, old, new):
    """Write ``old`` and ``new`` (text, or an array saved as .npy) under tmp_path/old and tmp_path/new."""
    paths = []
    for side, content in (("old", old), ("new", new)):
        path = tmp_path / side / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, np.ndarray):
            np.save(path, content)
        else:
            path.write_text(content)
        paths.append(path)
    return paths


class TestDifferences:
    def test_json_added_key(self, tmp_path):
        old, new = pair(tmp_path, "a.json", json.dumps({"q": 1.0}), json.dumps({"q": 1.0, "extra": 2}))
        with pytest.raises(ValueError, match="different keys"):
            differences(old, new)

    def test_json_moved_value(self, tmp_path):
        x = 0.4361745
        old, new = pair(tmp_path, "a.json", json.dumps({"r": {"q": x}, "n": 3}),
                        json.dumps({"r": {"q": x * (1 + 1e-9)}, "n": 3}))
        diff = differences(old, new)
        assert diff["r.q"][0] == pytest.approx(1e-9, rel=1e-6)
        assert diff["n"] == (0.0, 0.0)

    def test_csv_metadata_changed(self, tmp_path):
        old, new = pair(tmp_path, "p.csv", CSV, CSV.replace("tol 1e-09", "tol 1e-08"))
        with pytest.raises(ValueError, match="metadata"):
            differences(old, new)

    def test_csv_column_moved(self, tmp_path):
        # relative to max|w| = 0.5, the largest magnitude after the r column
        old, new = pair(tmp_path, "p.csv", CSV, CSV.replace("1.0,0.5", "1.0,0.5000000005"))
        diff = differences(old, new)
        assert diff["w"][0] == pytest.approx(1e-9, rel=1e-6)
        assert diff["r"] == (0.0, 0.0)

    def test_csv_comment_line_among_rows(self, tmp_path):
        # the header stays r,w and the first row is compared, with the "#" line skipped
        text = CSV.replace("1.0,0.5\n", "1.0,0.5\n# note\n")
        old, new = pair(tmp_path, "p.csv", text, text.replace("0.0,0.0", "0.0,0.0000000005"))
        diff = differences(old, new)
        assert diff.keys() == {"r", "w"}
        assert diff["w"][0] == pytest.approx(1e-9, rel=1e-6)

    def test_csv_shape_mismatch(self, tmp_path):
        old, new = pair(tmp_path, "p.csv", CSV, CSV + "3.0,0.125\n")
        with pytest.raises(ValueError, match="shapes"):
            differences(old, new)

    def test_array_moved(self, tmp_path):
        a = np.array([[2.0, -4.0], [1.0, 0.5]])
        b = a.copy()
        b[1, 1] += 4e-9  # relative to max|old| = 4
        old, new = pair(tmp_path, "h.npy", a, b)
        (rel, d), = differences(old, new).values()
        assert rel == pytest.approx(1e-9, rel=1e-6) and d == pytest.approx(4e-9, rel=1e-6)

    def test_array_one_ulp(self, tmp_path):
        a = np.array([1.0, -3.0, 0.25])
        b = a.copy()
        b[0] = np.nextafter(1.0, 2.0)
        old, new = pair(tmp_path, "h.npy", a, b)
        (rel, d), = differences(old, new).values()
        assert d == np.spacing(1.0) and 0 < rel < 1e-15

    @pytest.mark.parametrize("b", [np.zeros((2, 3)), np.zeros((3, 2), dtype=np.float32)])
    def test_array_layout_mismatch(self, tmp_path, b):
        old, new = pair(tmp_path, "h.npy", np.zeros((3, 2)), b)
        with pytest.raises(ValueError, match="arrays"):
            differences(old, new)


class TestCompare:
    def test_identical_and_one_ulp_pass(self, tmp_path, capsys):
        pair(tmp_path, "cli/p.csv", CSV, CSV)
        pair(tmp_path, "library/h.npy", np.array([1.0, 2.0]), np.array([np.nextafter(1.0, 2.0), 2.0]))
        assert compare(tmp_path / "old", tmp_path / "new", 1e-12)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "cli/p.csv: identical"
        assert out[1].startswith("library/h.npy: max relative 1.11e-16")

    def test_move_beyond_rtol_fails(self, tmp_path, capsys):
        pair(tmp_path, "library/h.npy", np.array([1.0, 2.0]), np.array([1.0, 2.0 * (1 + 1e-9)]))
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)
        assert capsys.readouterr().out.startswith("library/h.npy: max relative 1.00e-09")

    def test_declared_move_prints_and_passes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(compare_artifacts, "DECLARED_MOVES", {"cli/c.json": None})
        pair(tmp_path, "cli/c.json", '{"q": 1.0}', '{"q": 2.0}')
        pair(tmp_path, "cli/d.json", '{"q": 1.0}', '{"q": 2.0}')
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)  # d.json is not declared
        assert capsys.readouterr().out.splitlines() == [
            "cli/c.json: declared move, max relative 1.00e+00  q 1.0e+00 (1.0e+00)",
            "cli/d.json: max relative 1.00e+00  q 1.0e+00 (1.0e+00)"]
        (tmp_path / "new" / "cli" / "d.json").write_text('{"q": 1.0}')
        assert compare(tmp_path / "old", tmp_path / "new", 1e-12)

    def test_declared_keys_move_and_no_other(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(compare_artifacts, "DECLARED_MOVES", {"cli/c.json": ("e",)})
        pair(tmp_path, "cli/c.json", '{"e": 1.0, "q": 1.0}', '{"e": 2.0, "q": 1.0}')
        assert compare(tmp_path / "old", tmp_path / "new", 1e-12)
        assert capsys.readouterr().out == "cli/c.json: declared move, max relative 1.00e+00  e 1.0e+00 (1.0e+00)\n"
        (tmp_path / "new" / "cli" / "c.json").write_text('{"e": 2.0, "q": 2.0}')
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)
        assert capsys.readouterr().out.startswith("cli/c.json: max relative")

    def test_declared_layout_move(self, tmp_path, capsys, monkeypatch):
        # a run that now exits 3: its record replaces the summary, and its profile is gone
        monkeypatch.setattr(compare_artifacts, "DECLARED_MOVES", {"cli/e.json": None, "cli/f.csv": None})
        pair(tmp_path, "cli/e.json", '{"drift": 1.0}', '{"error": "ill_posed"}')
        (tmp_path / "old" / "cli" / "f.csv").write_text(CSV)
        assert compare(tmp_path / "old", tmp_path / "new", 1e-12)
        assert capsys.readouterr().out.splitlines() == [
            "cli/e.json: declared move, LAYOUT different keys: ['drift'] only in old, ['error'] only in new",
            "cli/f.csv: declared move, LAYOUT only in old"]
        monkeypatch.setattr(compare_artifacts, "DECLARED_MOVES", {"cli/e.json": ("drift",), "cli/f.csv": ("w",)})
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)

    def test_declared_moves_are_artifacts_of_the_runs(self):
        written = {f"cli/{a}" for _, argv in compare_artifacts.RUNS for a in argv if a.endswith((".csv", ".json"))}
        assert set(compare_artifacts.DECLARED_MOVES) <= written

    def test_nan_counts_as_moved(self, tmp_path):
        pair(tmp_path, "library/h.npy", np.array([1.0, 2.0]), np.array([1.0, np.nan]))
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)

    def test_file_on_one_side(self, tmp_path, capsys):
        pair(tmp_path, "cli/both.json", "{}", "{}")
        (tmp_path / "old" / "cli" / "gone.json").write_text("{}")
        (tmp_path / "new" / "library").mkdir()
        np.save(tmp_path / "new" / "library" / "added.npy", np.ones(2))
        assert not compare(tmp_path / "old", tmp_path / "new", 1e-12)
        assert capsys.readouterr().out.splitlines() == [
            "cli/both.json: identical", "cli/gone.json: LAYOUT only in old", "library/added.npy: LAYOUT only in new"]


def test_runs_cover_every_command():
    parser = rotelast.cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {command for command, _ in compare_artifacts.RUNS} == set(sub.choices)


def test_solver_failure_record_stands_in_for_the_summary(tmp_path, monkeypatch):
    """A run that exits 3 leaves its stdout record under its summary's name; any other failure stops the tool."""
    record = b'{"error": "ill_posed"}\n'
    monkeypatch.setattr(compare_artifacts, "RUNS", (
        ("evolve", ["-o", "final.csv", "--summary", "evolve.json"]), ("charge", ["-o", "charge.json"])))
    codes = {"evolve": 3, "charge": 0}

    def fake_run(args, **kwargs):
        return compare_artifacts.subprocess.CompletedProcess(args, codes.get(args[3], 0), stdout=record)

    monkeypatch.setattr(compare_artifacts.subprocess, "run", fake_run)
    compare_artifacts.run_all(tmp_path / "checkout", tmp_path / "a")
    assert [p.name for p in (tmp_path / "a" / "cli").iterdir()] == ["evolve.json"]
    assert (tmp_path / "a" / "cli" / "evolve.json").read_bytes() == record
    codes["charge"] = 1
    with pytest.raises(SystemExit, match="rotelast charge exited with code 1"):
        compare_artifacts.run_all(tmp_path / "checkout", tmp_path / "b")


def test_bench_record_counts_the_public_names():
    modules = (field_equations, fields, kinematics, radial, so3, topology)
    lists = {module.__name__.removeprefix("rotelast.") + ".py": module.__all__ for module in modules}
    assert load_tool("bench_record").public_names() == {
        "files": {name: len(names) for name, names in lists.items()},
        "total": sum(map(len, lists.values())),
        "distinct": len(set().union(*lists.values())),
    }


def test_bench_record_counts_the_public_options():
    """The ``ast`` count against the signatures of the imported callables."""
    files = {module.__name__.removeprefix("rotelast.") + ".py":
             sum(p.default is not p.empty for _, fn in public_callables(module)
                 for p in inspect.signature(fn).parameters.values())
             for module in (field_equations, fields, kinematics, radial, so3, topology)}
    options = load_tool("bench_record").public_options()
    assert options == {"files": files, "total": sum(files.values())}
    assert files["fields.py"] > 0  # field_point's order, keyword-only, is counted


@pytest.mark.parametrize("path", sorted((ROOT / "tools").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_reads_no_private_name(path):
    """compare_artifacts runs its own code on both checkouts, so a private name that one side lacks breaks the
    comparison: no ``from rotelast... import _x``, and no ``_x`` attribute read but the file's own ``self._x``
    or a dunder."""
    private = lambda name: name.startswith("_") and not name.endswith("__")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rotelast":
            found += [alias.name for alias in node.names if private(alias.name)]
        elif isinstance(node, ast.Attribute) and private(node.attr) and ast.unparse(node.value) != "self":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("getattr", "hasattr", "setattr"):
            found += [a.value for a in node.args[1:2] if isinstance(a, ast.Constant) and private(str(a.value))]
    assert found == []
