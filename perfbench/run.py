"""Benchmark of esrate: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 55 --trace 0

Workloads are ``grid-small`` and ``verify`` (see workloads.py).
The esrate package is imported from ``src/`` of the current directory.
Thread variables are pinned for every child process so that pool workers
times BLAS threads never exceed the CPUs available.  Set-up time is the
median over several fresh interpreters that import esrate and build the
workload's inputs.  The measured run itself happens in one more child
process, so its peak memory covers only the workload and its pool workers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it holds the machine and software
provenance.  Full results, spans included, are written under
``perfbench/.out/``.  Exits non-zero, printing no result, when esrate is
missing or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid-small", "verify")
#: Fresh interpreters timed for setup_s, after one untimed warm-up that
#: fills the bytecode caches.
SETUP_REPEATS = 4
#: Every run, set-up included, ends within this many seconds.
DEADLINE_S = 170.0
MAX_POOL_WORKERS = 2


def pinned_env(root: Path) -> dict:
    cpus = len(os.sched_getaffinity(0))
    workers = min(MAX_POOL_WORKERS, cpus)
    blas = str(max(1, cpus // workers))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        ES_RATE_THREADS=str(workers),
        OPENBLAS_NUM_THREADS=blas,
        OMP_NUM_THREADS=blas,
        MKL_NUM_THREADS=blas,
    )
    return env


def run_child(args: list[str], env: dict, timeout: float) -> int:
    """Run measure.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        env=env, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="esrate benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "esrate" / "__init__.py").is_file():
        print("error: run from the repository root; src/esrate not found", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    env = pinned_env(root)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    setup: list[float] = []

    def time_setup(repeats: int, record: bool = True) -> bool:
        for _ in range(repeats):
            t0 = time.perf_counter()
            code = run_child([*common, "--setup-only"], env, remaining())
            if code != 0:
                print(f"error: set-up exited with {code}", file=sys.stderr)
                return False
            if record:
                setup.append(time.perf_counter() - t0)
        return True

    out_path = HERE / ".out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.unlink(missing_ok=True)
    repeats = 0 if args.trace else 1 if args.tiny else SETUP_REPEATS
    try:
        # Untimed warm-up fills the bytecode caches; the timed set-ups are split
        # before and after the measured run so that they sample two moments of
        # a machine whose speed drifts.
        if repeats and not time_setup(1, record=False):
            return 1
        if not time_setup(repeats - repeats // 2):
            return 1
        code = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out_path)],
            env, remaining(),
        )
        if code == 0 and not time_setup(repeats // 2):
            return 1
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if code != 0:
        print(f"error: measured run exited with {code}", file=sys.stderr)
        return 1

    result = json.loads(out_path.read_text())
    values = result["values"]
    if setup:
        values["setup_s"] = statistics.median(setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for label in result["failed_checks"]:
        print(f"check failed: {label}", file=sys.stderr)
    print(json.dumps({"provenance": result["provenance"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
