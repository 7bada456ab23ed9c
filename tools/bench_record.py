"""Record the benchmark's metrics of this checkout in ``BENCH_<label>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_record.py --label <label>

For every workload that ``BENCHMARK.json`` declares, this runs
``perfbench/run.py`` twice, with ``--trace 0`` (end-to-end metrics) and
``--trace 1`` (per-layer metrics), at the fixed seed ``SEED`` and for the
``run_seconds`` that ``BENCHMARK.json`` declares; at 20 s per run the whole
record takes about four minutes on two cores.  It writes
``BENCH_<label>.json`` at the root of the checkout with the git SHA,
whether ``src/`` differs from it, the digest of ``src/rotelast/*.py``, the
Python, numpy, scipy and orjson versions, ``nproc``, and per workload the checks and
the metrics, and says where it wrote the file.  It compares with no earlier
record: one run per workload cannot tell a change of the code from the run
to run spread of the machine, so judge a change by alternating runs of
``perfbench/run.py`` on the two checkouts.

It also records ``src_lines``, the line count of each ``src/rotelast/*.py``
(as ``wc -l`` counts them) and their total, ``public_names``, the length
of each module's ``__all__``, their total and the number of distinct names
(equal to the total while each module lists only the names it defines),
and ``public_options``, the number of defaulted parameters of each
module's public callables and their total, all read without importing the
package.

Per workload it also derives points per second for every traced callable
that reports a point count (``points_per_s``: points over self seconds).
After the workloads it runs each command of the command line once, in a
fresh process, and records its wall time and peak RSS (``ru_maxrss`` of
that process); ``CLI_RUNS`` lists the settings.  ``residual`` runs at
the criterion-3 settings (h = 0.1, annulus 1 to 5) and again at h = 0.05,
recorded as ``residual --h 0.05``, where holding the whole lattice took
722 MB; ``charge`` runs at the 3-d quadrature of criterion 5 (R = 6,
h = 0.1).  The commands add about 20 s.

Run nothing else on the machine meanwhile: the metrics are wall times.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import importlib.metadata
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# each command once, in order: later ones read the profile that ``static`` writes
CLI_RUNS = (
    ("static", ["--lambda1", "1", "--lambda2", "1", "-o", "profile.csv"]),
    ("evolve", ["--from-profile", "profile.csv", "-o", "final.csv", "--summary", "evolve.json"]),
    ("charge", ["--from-profile", "profile.csv", "--full-3d", "--radius", "6", "--spacing", "0.1"]),
    ("residual", ["--from-profile", "profile.csv", "--h", "0.1", "--rmin", "1", "--rmax-annulus", "5"]),
    ("residual", ["--from-profile", "profile.csv", "--h", "0.05", "--rmin", "1", "--rmax-annulus", "5"]),
    ("decompose", ["--matrix", "1,2,3,4,5,6,7,8,9"]),
    ("equilibria", ["--lambda1", "1", "--lambda2", "1.25"]),
    ("identity-check", ["--refine", "--dump-grid", "grid.csv"]),
)


def run_workload(workload: str, seconds: int, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its full record and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(result)


def run_cli(command: str, argv: list, cwd: str) -> dict:
    """One command in a process of its own: its wall time and its own peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with open(Path(cwd) / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "rotelast.cli", command, *argv], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write((Path(cwd) / "stderr.txt").read_text())
        raise SystemExit(f"rotelast {command} exited with code {proc.returncode}")
    return {"argv": argv, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def record_cli() -> dict:
    """Each run of ``CLI_RUNS`` under its command's name; a repeated command adds its ``--h``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for command, argv in CLI_RUNS:
            key = command if command not in out else f"{command} --h {argv[argv.index('--h') + 1]}"
            print(f"rotelast {key} ...", file=sys.stderr, flush=True)
            out[key] = run_cli(command, argv, tmp)
        return out


def points_per_second(per_layer: dict) -> dict:
    rates = {}
    for metric, points in per_layer.items():
        name = metric.removesuffix(".points")
        if name != metric and per_layer.get(f"{name}.self_s"):
            rates[f"{name}.points_per_s"] = points / per_layer[f"{name}.self_s"]
    return rates


def src_lines() -> dict:
    """Newline count of each ``src/rotelast/*.py`` file, as ``wc -l`` reports it, and the total."""
    files = {p.name: p.read_bytes().count(b"\n") for p in sorted((ROOT / "src" / "rotelast").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def _public_lists() -> dict:
    """The ``__all__`` list of each ``src/rotelast/*.py`` that has one, with the module's ``ast``."""
    lists = {}
    for path in sorted((ROOT / "src" / "rotelast").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
                lists[path.name] = (ast.literal_eval(node.value), tree)
    return lists


def public_options() -> dict:
    """Defaulted parameters of each module's public callables, per ``src/rotelast/*.py`` and in total:
    of every public function that the module defines, and of the ``__init__`` and public methods of
    every public class that it defines, as their ``def`` statements declare them (a dataclass's generated
    ``__init__`` has none)."""
    files = {}
    for name, (names, tree) in _public_lists().items():
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in names]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name in names):
            defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)
                     and (n.name == "__init__" or not n.name.startswith("_"))]
        files[name] = sum(len(d.args.defaults) + sum(v is not None for v in d.args.kw_defaults) for d in defs)
    return {"files": files, "total": sum(files.values())}


def public_names() -> dict:
    """Length of the ``__all__`` list of each ``src/rotelast/*.py`` that has one, their total and the
    number of distinct names, read from the source with ``ast``."""
    lists = {name: names for name, (names, _) in _public_lists().items()}
    return {"files": {name: len(names) for name, names in lists.items()},
            "total": sum(map(len, lists.values())), "distinct": len(set().union(*lists.values()))}


def src_dirty() -> bool | None:
    """Whether ``src/`` differs from the git HEAD; None outside a git checkout."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def record_bench(label: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads, env = {}, None
    for spec in bench["workloads"]:
        name = spec["name"]
        entry = {"attempted": 0, "failed": 0}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"{name} --trace {trace} ...", file=sys.stderr, flush=True)
            record, result = run_workload(name, seconds, trace)
            env = record["environment"]
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            if trace == 0:
                entry["studies"] = len(record["study_s_samples"])
        entry["points_per_s"] = points_per_second(entry["per_layer"])
        workloads[name] = entry
    return {
        "label": label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": env["git_sha"],
        "src_differs_from_git_sha": src_dirty(),
        "source_sha256": env["source_sha256"],
        "src_lines": src_lines(),
        "public_names": public_names(),
        "public_options": public_options(),
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "orjson": importlib.metadata.version("orjson"),  # the CSV writers' formatter
        "nproc": env["nproc"],
        "machine": env["machine"],
        "seed": SEED,
        "seconds_per_run": seconds,
        "units": {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
        "workloads": workloads,
        "cli": record_cli(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args()

    new = record_bench(args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
