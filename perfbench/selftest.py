"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks:
  * every workload runs untraced and traced with no failed instance;
  * two traced runs with the same seed, in processes with different hash
    seeds, give identical per-layer counts;
  * the run seed changes the input graphs;
  * in a directory holding only BENCHMARK.json and the benchmark, a run
    exits non-zero without printing a result;
  * the tail percentile is the highest with at least 10 instances beyond it.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 300


def bench(*args, cwd=run.ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, str(Path(cwd) / HERE.name / "run.py"), "--size", "tiny",
            "--seconds", "1", *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=TIMEOUT_S)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def input_graphs(name, seed):
    """Text of every graph a workload's set-up produces for ``seed``."""
    api = run.import_package()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=run.WORK)
    try:
        inputs = workloads.TINY[name]().setup(
            api, seed, workloads.CRITERION_1_SEED, workdir
        )
        return list(_graph_texts(api, inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _graph_texts(api, obj):
    if isinstance(obj, api.DiGraph):
        yield api.serialize(obj)
    elif isinstance(obj, str) and obj.endswith(".graph"):
        yield Path(obj).read_text(encoding="ascii")
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _graph_texts(api, item)


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def check_workload(name):
    plain = bench("--workload", name, "--seed", "1", "--trace", "0")
    res = result_of(plain)
    assert res["correct"] and res["failed"] == 0, res
    first = result_of(bench("--workload", name, "--seed", "1", "--trace", "1", hash_seed="1"))
    second = result_of(bench("--workload", name, "--seed", "1", "--trace", "1", hash_seed="2"))
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second), (counts(first), counts(second))
    assert input_graphs(name, 1) != input_graphs(name, 2), f"{name}: seed changes no input"
    calls = sum(v for k, v in counts(first).items() if k.endswith(".calls"))
    assert calls > 0, f"{name}: traced run counted no calls"
    print(f"ok  {name}: correct, counts repeat ({len(counts(first))} counters), "
          f"seed changes inputs")


def check_bare_directory():
    run.WORK.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "ft-corpus", "--seed", "0", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, "run succeeded without the program"
        assert '"metrics"' not in proc.stdout, "run printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: exits", proc.returncode, "without a result")


def check_tail_percentile():
    for n in (11, 20, 54, 80, 980):
        pct, value = run.tail_percentile([float(i) for i in range(n)])
        assert n - 1 - value >= 10, (n, pct, value)  # values are 0..n-1
        next_rank = -(-(pct + 1) * n // 100)  # nearest rank of the next percentile
        assert n - next_rank < 10, (n, pct)
    print("ok  tail percentile is the highest with at least 10 instances beyond it")


def main() -> int:
    check_tail_percentile()
    for name in workloads.NAMES:
        check_workload(name)
    check_bare_directory()
    with contextlib.suppress(OSError):
        run.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
