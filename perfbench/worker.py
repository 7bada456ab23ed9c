"""One run of one workload, in a process of its own (started by ``run.py``).

The process imports rotelast from the checkout's ``src``, builds the
workload's inputs from the seed (set-up), then runs one study after another
until the time is up: a closed loop.  The first study is a warm-up; every
later study must match its output digest bit for bit.  With ``--trace 1`` the first half of the time runs untraced and the
second half under the tracer, so the traced studies also check that the
wrappers change no result, and the two halves give the tracing overhead.

Study times are normalised to machine speed.  The speed of a core of the
two-vCPU machine this benchmark was written on switches between states
about 1.7x apart, for seconds to minutes at a time, with no steal time
reported: a fixed NumPy loop took 62 ms or 105 ms.  Medians of identical
runs therefore differed by up to 50 %.  So a fixed reference kernel that
does not involve rotelast (:func:`reference_kernel`) is timed after set-up
and after every study, and each study time is reported as
``wall * REFERENCE_NOMINAL_S / reference wall``, where the reference wall
is the mean of the kernel times just before and after the study: the
seconds it would take on a core that runs the reference kernel in
``REFERENCE_NOMINAL_S``.  Raw wall times are kept in the record.

Set-up time is normalised by the median of all the kernel times of the
run (``speed`` in the record), not by one sample.  Set-up is mostly
interpreter start and imports, and dividing each set-up time by the one
kernel time after it added noise: over 40 set-up processes the quartile
spread was 0.11 of the median raw and 0.20 normalised.  Raw set-up times
are steadier within minutes but follow the machine's slow states, which
last minutes: over four sets of ten runs per workload, the medians of
two sets of raw set-up times differed by up to 44 %, and normalised by
the run's median kernel time by up to 15 %.

Prints one JSON line: the samples, the metrics it can measure itself, the
checks and the environment.  ``run.py`` adds the set-up time of the other
set-up processes and prints the benchmark's result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PROCESS_METRICS = ("proc.", "trace.")  # per-layer metrics of the whole process, not of a traced callable
REFERENCE_NOMINAL_S = 0.2  # reference kernel time on an uncontended core of that machine


def reference_kernel() -> float:
    """Time a fixed NumPy workload: element-wise loops, then batched 3x3 products.

    Both work on cache-sized arrays (under 2 MB at once), so that the kernel
    never sets the worker's peak RSS: ``peak_rss_mb`` stays the workload's.
    """
    rng = np.random.default_rng(0)
    small, batch = rng.random(4001), rng.random((5_000, 3, 3))
    t0 = time.perf_counter()
    for _ in range(1000):
        np.sin(small) * np.cos(small) + small * small
    for _ in range(100):
        prod = np.einsum("nij,njk->nik", batch, batch)
        np.sqrt(prod * prod + 1.0)
    return time.perf_counter() - t0


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, bytes):
            h.update(value)
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def add(self, results) -> None:
        for name, passed in results:
            self.attempted += 1
            if not passed:
                self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rotelast").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": git_sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the process was started")
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up, printing its time")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import rotelast

    if Path(rotelast.__file__).resolve().parent != ROOT / "src" / "rotelast":
        print(f"rotelast imported from {rotelast.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import studies
    import tracer as tracing

    if args.workload not in studies.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(studies.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, study = studies.WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_metrics = [m["name"] for m in bench["per_layer"]]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(name.rsplit(".", 1)[0] for name in layer_metrics
                                if not name.startswith(PROCESS_METRICS))
        tracer.phase = "setup"
        with tracer:
            inputs = setup(np.random.default_rng(args.seed))
    else:
        inputs = setup(np.random.default_rng(args.seed))
    setup_wall_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_wall_s": setup_wall_s}))
        return 0

    checks = Checks()
    reference = [reference_kernel()]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        outputs, results = study(inputs, tmp)
        checks.add(results)
        expected = digest(outputs)
        first = {k: v for k, v in outputs.items() if isinstance(v, (int, float))}
        reference.append(reference_kernel())

        def closed_loop(seconds, label):
            """Studies until the time is up; wall, normalised and CPU seconds of each."""
            wall, norm, cpu = [], [], []
            end = time.perf_counter() + seconds
            while not wall or time.perf_counter() < end:
                c0, t0 = time.process_time(), time.perf_counter()
                outputs, results = study(inputs, tmp)
                wall.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - c0)
                reference.append(reference_kernel())
                norm.append(wall[-1] * REFERENCE_NOMINAL_S / statistics.mean(reference[-2:]))
                checks.add(results)
                checks.add([(f"{label} study output matches the first study bit for bit",
                             digest(outputs) == expected)])
            return wall, norm, cpu

        wall, norm, cpu = closed_loop(args.seconds / 2 if tracer is not None else args.seconds, "repeated")
        if tracer is not None:
            tracer.phase = "study"
            traced_from = len(reference) - 1
            with tracer:
                traced_wall, traced_norm, _ = closed_loop(args.seconds / 2, "traced")
            # a callable that no longer resolves would read 0, which looks like a total speed-up
            checks.add((f"traced callable {name} resolves", name not in tracer.missing)
                       for name in tracer.names)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_wall_s": setup_wall_s,
        "reference_s_samples": reference,
        "speed": REFERENCE_NOMINAL_S / statistics.median(reference),
        "study_s": statistics.median(norm),
        "study_s_samples": norm,
        "study_wall_s_samples": wall,
        "cpu_s_samples": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "output_digest": expected,
        "first_study": first,
        "environment": environment(),
    }
    if tracer is not None:
        per_study, once = tracer.totals("study"), tracer.totals("setup")
        # self times are normalised like study times, by the reference times of the traced half
        speed = REFERENCE_NOMINAL_S / statistics.median(reference[traced_from:])
        layers = {}
        for name in layer_metrics:
            if name.startswith(PROCESS_METRICS):
                continue
            layer, stat = name.rsplit(".", 1)
            value = per_study.get(layer, {}).get(stat, 0) / len(traced_wall)
            value += once.get(layer, {}).get(stat, 0)
            layers[name] = value * speed if stat == "self_s" else value
        layers["proc.cpu_s"] = statistics.median(cpu)
        layers["proc.cpu_util"] = sum(cpu) / sum(wall)
        layers["trace.overhead_ratio"] = statistics.median(traced_norm) / statistics.median(norm)
        record["traced_study_s_samples"] = traced_norm
        record["traced_study_wall_s_samples"] = traced_wall
        record["layers"] = layers
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
