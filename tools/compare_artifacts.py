"""Compare the command artifacts of two checkouts number by number.

Usage, from anywhere:

    python3 tools/compare_artifacts.py OLD_CHECKOUT NEW_CHECKOUT

Runs every command in ``RUNS`` once per checkout, each in a fresh process
with that checkout's ``src`` on ``PYTHONPATH`` and in its own scratch
directory, and compares each ``-o``/``--summary``/``--dump-grid`` file of
the two.  A file that is byte-identical prints ``identical``.  Otherwise
every number of a JSON file is compared relative to its old value, and
every column of a CSV file relative to the largest magnitude among the
old file's columns after the first (``max|w|`` for a profile, whose first
column is r).  Each moved key or column prints with its relative and its
absolute difference.  Metadata lines (``#``) and strings must match
exactly.  The exit code is 1 when any file differs by more than ``--rtol``
(default 1e-12) or in its layout, else 0.  A JSON value that is itself a
small difference, such as ``estimated_error`` or ``sup_drift``, moves by
far more than 1e-12 of itself when its operands move in the last bits.

``tools/artifact_digests.py`` proves bit-identity; this script measures
how far a change that is allowed to move the last bits moved them.  The
``evolve`` runs integrate to ``t_end`` 2 (on 801 and 4001 radial nodes)
and to 20, where rounding differences grow through the soliton's
unstable mode (see ROADMAP aim 2); a difference above ``--rtol`` there
is reported, not hidden.
"""

from __future__ import annotations

import argparse
import json
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
    ("decompose", ["--matrix", "1,2,3,4,5,-6,7.5,8,1e-300", "-o", "decompose.json"]),
    ("equilibria", ["--lambda1", "1", "--lambda2", "1.25", "-o", "equilibria.json"]),
    ("identity-check", ["--h", "0.2", "--refine", "--dump-grid", "grid.csv", "-o", "identity.json"]),
)


def run_all(checkout: Path, workdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for command, argv in RUNS:
        proc = subprocess.run([sys.executable, "-m", "rotelast.cli", command, *argv], cwd=workdir, env=env,
                              stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise SystemExit(f"{checkout}: rotelast {command} exited with code {proc.returncode}")


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
    """(relative, absolute) difference per key or column."""
    if old.suffix == ".json":
        a, b = dict(json_leaves(json.loads(old.read_text()))), dict(json_leaves(json.loads(new.read_text())))
        if a.keys() != b.keys():
            raise ValueError("different keys")
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
    header = lines_a[len(meta_a)]
    if header != lines_b[len(meta_a)]:
        raise ValueError("column headers differ")
    a = np.loadtxt(old, delimiter=",", comments="#", skiprows=len(meta_a) + 1, ndmin=2)
    b = np.loadtxt(new, delimiter=",", comments="#", skiprows=len(meta_a) + 1, ndmin=2)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape}")
    scale = max(np.abs(a[:, 1:]).max(initial=0.0), 1e-300)
    absolute = np.abs(a - b).max(axis=0)
    return {name: (d / scale, d) for name, d in zip(header.split(","), absolute.tolist())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    worst_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: Path(tmp) / side for side in ("old", "new")}
        for side, checkout in (("old", args.old), ("new", args.new)):
            dirs[side].mkdir()
            run_all(checkout.resolve(), dirs[side])
        for old in sorted(dirs["old"].iterdir()):
            new = dirs["new"] / old.name
            if old.read_bytes() == new.read_bytes():
                print(f"{old.name}: identical")
                continue
            try:
                diff = differences(old, new)
            except ValueError as exc:
                print(f"{old.name}: LAYOUT {exc}")
                worst_ok = False
                continue
            moved = {k: v for k, v in diff.items() if v[1] > 0}
            worst = max((rel for rel, _ in moved.values()), default=0.0)
            worst_ok &= worst <= args.rtol
            print(f"{old.name}: max relative {worst:.2e}  "
                  + "  ".join(f"{k} {rel:.1e} ({d:.1e})" for k, (rel, d) in moved.items()))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
