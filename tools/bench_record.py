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
Python, numpy and scipy versions, ``nproc``, and per workload the checks and
the metrics.  It then prints each metric's ratio (this record over the
earlier one) against the newest other ``BENCH_*.json`` by recording time,
and says so when that record was made with another seed or run length.

Run nothing else on the machine meanwhile: the metrics are wall times.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


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
        workloads[name] = entry
    return {
        "label": label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": env["git_sha"],
        "src_differs_from_git_sha": src_dirty(),
        "source_sha256": env["source_sha256"],
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "nproc": env["nproc"],
        "machine": env["machine"],
        "seed": SEED,
        "seconds_per_run": seconds,
        "units": {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]},
        "workloads": workloads,
    }


def newest_other(label: str) -> dict | None:
    others = [json.loads(p.read_text()) for p in ROOT.glob("BENCH_*.json")
              if p.name != f"BENCH_{label}.json"]
    return max(others, key=lambda b: b["recorded_utc"], default=None)


def print_ratios(new: dict, old: dict) -> None:
    print(f"ratios {new['label']} / {old['label']} (below 1 is lower)")
    for key in ("seed", "seconds_per_run"):
        if new[key] != old[key]:
            print(f"  note: {key} {old[key]} -> {new[key]}; the runs differ in more than the code")
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload, {})
        for key in ("end_to_end", "per_layer"):
            for metric, value in entry[key].items():
                prev = before.get(key, {}).get(metric)
                was = "n/a" if prev is None else f"{prev:.4g}"
                ratio = f"{value / prev:.3f}" if prev else "n/a"
                print(f"  {workload:16s} {metric:48s} {was:>12} -> {value:<12.4g} {ratio:>7}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args()

    new = record_bench(args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    old = newest_other(args.label)
    if old is not None:
        print_ratios(new, old)
    return 0


if __name__ == "__main__":
    sys.exit(main())
