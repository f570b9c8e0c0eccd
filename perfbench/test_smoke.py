"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of BENCHMARK.json is emitted with its unit, that
spans nest and have non-negative self times, that a different seed changes
the inputs but not the metric names, and that the benchmark refuses to run
without the esrate sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(workload: str, seed: int, trace: int):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    full = json.loads((HERE / ".out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, provenance, full


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_seeds(workload):
    first, prov1, _ = result_of(workload, 1, 0)
    second, prov2, _ = result_of(workload, 2, 0)
    for result in (first, second):
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units("end_to_end")
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert prov1["inputs_sha256"] != prov2["inputs_sha256"]
    assert set(first["metrics"]) == set(second["metrics"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload):
    result, prov, full = result_of(workload, 1, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units("per_layer")
    assert result["metrics"]["harness.replay_mismatches"]["value"] == 0
    for name, spans in full["spans"].items():
        if name == "replay" and workload == "verify":  # verify runs no experiment
            assert spans == []
            continue
        assert any(s["parent"] is not None for s in spans), f"{name}: no nesting"
        for i, s in enumerate(spans):
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert s["parent"] < i
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        assert all(s["self_s"] >= 0 for s in spans), name
        assert [s["self_s"] for s in spans] == self_times(spans)

    env = prov["thread_env"]
    workers, blas = int(env["ES_RATE_THREADS"]), int(env["OPENBLAS_NUM_THREADS"])
    assert workers * blas <= prov["cpu_affinity"]
    if prov["openblas_runtime"]:
        assert prov["openblas_runtime"]["threads"] == blas
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "scipy",
                "blas_build", "esrate_source_sha256", "seed"):
        assert prov[key] is not None, key


def test_refuses_to_run_without_sources():
    bare = HERE / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(WORKLOADS[0], 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
