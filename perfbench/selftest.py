"""Benchmark self-test: the tracer's wrappers must not change any result.

Runs every workload of ``BENCHMARK.json`` once with ``--trace 1``.  Such a
run does an untraced and a traced half; every study's output digest must
match the first (untraced) study's bit for bit, every study check must
pass, and every callable the tracer is asked to wrap must resolve.  Exits 0
when all workloads pass, 1 otherwise.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 2


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"FAIL {name}: exit code {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        record = json.loads(lines[-2])
        passed = record["failed"] == 0
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name}: {record['attempted']} checks, "
              f"{len(record['study_s_samples'])} untraced and {len(record['traced_study_s_samples'])} "
              f"traced studies, failures {record['failures']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
