"""Benchmark of scc-preserve: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload ft-corpus --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

A run imports the package from ``src/`` of this checkout, builds the
workload's inputs, then repeats passes over the workload's fixed list of
instances until ``--seconds`` is used up (at least one pass).  ``setup_s``
is timed apart, in fresh processes started with ``--setup-only``.  The run prints a
readable report and, as the last line of stdout, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then sets up again and runs one pass with every layer
wrapped (see ``tracer.py``) and reports the per-layer metrics; their counts
repeat exactly for a given seed.  ``--workload all`` runs every workload in
a process of its own and prints one table.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
PKG = "sccpreserve"
SETUP_MIN_REPEATS = 5  # set-up processes until both minimums are met
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 15
CHILD_TIMEOUT_S = 600


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    failed: int
    kept: int
    digest: str


def import_package():
    """Import a fresh copy of the package from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == PKG or n.startswith(PKG + ".")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module(PKG)
    importlib.import_module(PKG + ".cli")
    if Path(api.__file__).resolve().parent != SRC / PKG:
        raise ImportError(f"{PKG} was imported from {api.__file__}, not from {SRC}")
    return api


def run_pass(api, workload, inputs, events: Counter) -> Pass:
    calls = workload.instances(api, inputs)
    latencies, records = [], []
    failed = kept = 0
    start = time.perf_counter()
    for label, call in calls:
        t0 = time.perf_counter()
        try:
            ok, edges, record = call(events)
        except Exception:  # a raising instance counts as failed; keep going
            traceback.print_exc()
            ok, edges, record = False, 0, ["raised", label]
        latencies.append(time.perf_counter() - t0)
        if not ok:
            failed += 1
            print(f"instance failed: {label}", file=sys.stderr)
        kept += edges
        records.append(record)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return Pass(wall, latencies, failed, kept, digest)


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 values beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = (100 * (n - 10)) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def time_setups(args) -> list[float]:
    """Set up in fresh interpreters, each timed from its start to inputs ready.

    A cold process pays for every import, the package's and the standard
    library's, so a heavier import shows in ``setup_s``.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--corpus-seed", str(args.corpus_seed),
            "--size", args.size, "--setup-only"]
    times: list[float] = []
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
    ):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited {proc.returncode}")
        times.append(elapsed)
    return times


def measure(args, workload, workdir):
    """Set up, run passes, return (correct, attempted, failed, metrics, notes)."""
    api = import_package()
    inputs = workload.setup(api, args.seed, args.corpus_seed, workdir)
    setup_times = [] if args.trace else time_setups(args)

    events: Counter = Counter()
    started = time.perf_counter()
    passes = [run_pass(api, workload, inputs, events)]
    if args.trace:
        api = import_package()
        tracer = Tracer()
        tracer.install()
        traced_events: Counter = Counter()
        t0 = time.perf_counter()
        inputs = workload.setup(api, args.seed, args.corpus_seed, workdir)
        passes.append(run_pass(api, workload, inputs, traced_events))
        traced_s = time.perf_counter() - t0
        tracer.stats["fpt.reseeds"] += traced_events["fpt.reseeds"]
        metrics = tracer.metrics(traced_s)
        metrics["trace.overhead_frac"] = (passes[1].wall / passes[0].wall - 1.0, "frac")
    else:
        while (time.perf_counter() - started
               + statistics.median(p.wall for p in passes) <= args.seconds):
            passes.append(run_pass(api, workload, inputs, events))

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    deterministic = len({p.digest for p in passes}) == 1
    notes = [
        f"passes {len(passes)}, {len(passes[0].latencies)} instances each, "
        f"fpt reseeds {events['fpt.reseeds']}",
        f"digest sha256:{passes[0].digest}"
        + ("" if deterministic else "  (MISMATCH between passes)"),
    ]
    if args.trace:
        notes.append(f"traced set-up and pass {traced_s:.3f} s; *_frac times are shares of it")
        notes.append(f"kernel: {tracer.kernel_summary()}")
        return failed == 0 and deterministic, attempted, failed, metrics, notes

    # Medians over passes: the speed of a shared machine can swing by 1.4x
    # for seconds at a time, and the median is the typical repeat.
    per_instance = [statistics.median(lat) for lat in zip(*(p.latencies for p in passes))]
    pct, tail = tail_percentile(per_instance)
    notes.append(f"instance_tail_ms is p{pct} of {len(per_instance)} instances")
    notes.append(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    notes.append(f"setup_s is the median of {len(setup_times)} set-up processes")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "instance_p50_ms": (statistics.median(per_instance) * 1e3, "ms"),
        "instance_tail_ms": (tail * 1e3, "ms"),
        "kept_edges": (passes[0].kept, "count"),
        "verified_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return failed == 0 and deterministic, attempted, failed, metrics, notes


def run_one(args) -> int:
    overrides = sorted(k for k in os.environ if k.startswith("SCC_PRESERVE_"))
    if overrides:
        print(f"error: the benchmark runs under default limits; unset {overrides}",
              file=sys.stderr)
        return 2
    table = workloads.TINY if args.size == "tiny" else workloads.FULL
    workload = table[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_only:
            workload.setup(import_package(), args.seed, args.corpus_seed, workdir)
            print("ready", flush=True)
            return 0
        correct, attempted, failed, metrics, notes = measure(args, workload, workdir)
    except ImportError as exc:
        print(f"error: cannot import {PKG} from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it
    print(f"workload {args.workload}  seed {args.seed}  corpus-seed {args.corpus_seed}  "
          f"trace {args.trace}")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so setup_s and peak_rss_mb are its own."""
    status = 0
    rows = []
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--corpus-seed", str(args.corpus_seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines:
            rows.append((name, json.loads(lines[-1])))
    if rows:
        metric_names = list(rows[0][1]["metrics"])
        print()
        print(f"{'metric':34s}" + "".join(f"{name:>16s}" for name, _ in rows) + "  unit")
        for metric in metric_names:
            cells = "".join(
                f"{result['metrics'][metric]['value']:>16.4f}" for _, result in rows
            )
            print(f"{metric:34s}{cells}  {rows[0][1]['metrics'][metric]['unit']}")
        print(f"{'correct':34s}" + "".join(f"{str(r['correct']):>16s}" for _, r in rows))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: relabels the graphs; 0 keeps them as generated")
    parser.add_argument("--corpus-seed", type=int, default=workloads.CRITERION_1_SEED,
                        help="structure seed; the default is the criterion-1 corpus")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few instances per workload, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
