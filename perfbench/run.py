"""rotelast benchmark: run one study workload and print its metrics.

Usage, from the root of a checkout (the benchmark imports ``src/rotelast``
from it; nothing needs installing):

    python3 perfbench/run.py --workload residual_3d --seed 1 --seconds 20 --trace 0

The workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
studies are in ``perfbench/studies.py``.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The line before it is the full record
(samples, checks, git SHA, numpy/scipy versions, nproc, thread
environment), also written to ``perfbench/out/``.

This parent process imports only the standard library.  It starts the
workload in a process of its own (``worker.py``), so that peak RSS belongs
to the workload alone, with the BLAS and OpenMP thread counts set to the
number of usable cores.  With ``--trace 0`` it first starts
``SETUP_RUNS - 1`` processes that only set up, and reports the median
set-up time (interpreter start, imports and input generation) of those
and of the workload process, normalised by the workload process's median
reference-kernel time (see ``worker.py``).  The worker rejects an unknown workload and
a checkout without ``src/rotelast``; this process then exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 30
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def start_worker(args, env, extra, timeout):
    """Run worker.py to completion and return its JSON record (its last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra, "--t0", repr(time.monotonic())]
    # on timeout, subprocess.run kills the worker and waits for it before raising
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env = dict(os.environ)
    env.update({var: str(len(os.sched_getaffinity(0))) for var in THREAD_VARS})
    setup_wall_s = []
    if not args.trace:
        setup_wall_s = [start_worker(args, env, ["--setup-only"], SETUP_TIMEOUT_S)["setup_wall_s"]
                        for _ in range(SETUP_RUNS - 1)]
    record = start_worker(args, env, [], timeout=args.seconds + 90)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        declared, values = bench["per_layer"], record["layers"]
    else:
        setup_wall_s.append(record["setup_wall_s"])
        record["setup_wall_s_samples"] = setup_wall_s
        declared = bench["end_to_end"]
        values = {"study_s": record["study_s"],
                  "setup_s": statistics.median(setup_wall_s) * record["speed"],
                  "peak_rss_mb": record["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    record["metrics"] = metrics

    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    text = json.dumps(record)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
