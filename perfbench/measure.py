"""One measured run of a workload, in a fresh process started by run.py.

Runs whole passes of the workload back to back until ``--seconds`` are
used, checks every pass's outputs, and writes one JSON document (metrics,
checks, provenance, spans) to ``--out``.  With ``--trace 1`` passes alternate
untraced and traced; afterwards the experiment trials are replayed serially
and fixed-size probes time single layers.  ``--setup-only`` imports esrate,
builds the workload's inputs and exits, which is what run.py times as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import esrate
from esrate import analysis
from esrate.engine import init_default, params_for_rule, run
from esrate.objectives import hessian_family, perturbed_family

import provenance
import workloads
from spans import Tracer, busy_s, by_name, self_times

ROOT = Path.cwd()

#: Lemma-suite rows per probe call at each dimension; d = 1000 uses one full
#: 16384-row chunk, so the probe sees the same temporaries as the workloads.
PROBE_ROWS = {10: 1 << 17, 100: 1 << 15, 1000: 1 << 14}
#: Probe chains run a fixed budget with f_floor low enough never to stop early.
PROBE_CHAINS = {"d10": 10_000, "d30": 10_000, "d1000": 2_000, "perturbed": 5_000}
PROBE_ELEMS = 1 << 20
PROBE_REPEATS = 3


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def run_passes(wl, seconds: float, trace: bool, out_dir: Path, checks) -> tuple[list, dict, float]:
    """Closed loop: one pass at a time until the next one would overrun.

    Also returns the peak memory after the first pass: what one job costs in
    a fresh process.  Later passes only add allocator fragmentation, which
    varies from run to run.
    """
    passes = []
    first_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        tr = Tracer(enabled=trace and len(passes) % 2 == 1)
        t0 = time.perf_counter()
        out = wl.run_pass(tr, out_dir)
        wall = time.perf_counter() - t0
        wl.check(out, checks)
        passes.append({
            "traced": tr.enabled, "wall_s": wall, "phase_s": tr.phase_s,
            "work": out["work"], "spans": tr.spans,
        })
        if len(passes) == 1:
            first_rss_mb = _peak_rss_mb()
        enough = len(passes) >= (2 if trace else 1)
        expected = _median(p["wall_s"] for p in passes)
        if enough and time.perf_counter() - start + expected > seconds:
            return passes, out, first_rss_mb


def phase_rate(passes, work: str, phase: str) -> float:
    """Work units per second of one phase, pooled over passes; 0 if absent.

    Pooled rather than a median of per-pass rates because a phase can be as
    short as a second, where per-pass rates swing by 30% on a shared machine.
    """
    timed = [p for p in passes if work in p["work"] and phase in p["phase_s"]]
    return _ratio(sum(p["work"][work] for p in timed), sum(p["phase_s"][phase] for p in timed))


# -- per-layer metrics ------------------------------------------------------------------

MC_SPANS = (
    "analysis.check_lemma_suite", "analysis.estimate_q_stats",
    "analysis.check_assumption2", "harness.drift_report",
)


def pass_layers(spans: list[dict]) -> dict[str, float]:
    """Layer busy times and counts of one traced pass."""
    groups = by_name(spans)

    def busy(name: str) -> float:
        return busy_s(groups.get(name, []))

    def total(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in groups.get(name, []))

    bounds = [s["end"] - s["start"] for s in groups.get("theory.b_upper", [])]
    lemma = "analysis.check_lemma_suite"
    return {
        "harness.run_experiment.wall_s": busy("harness.run_experiment"),
        "harness.worker_cpu_s": total("harness.run_experiment", "worker_cpu_s"),
        "harness.emit.busy_s": busy("harness.emit_csv") + busy("harness.emit_plot"),
        "harness.invariance_report.busy_s": busy("harness.invariance_report"),
        "harness.drift_report.busy_s": busy("harness.drift_report"),
        "analysis.check_lemma_suite.busy_s": busy(lemma),
        "analysis.estimate_q_stats.busy_s": busy("analysis.estimate_q_stats"),
        "analysis.check_assumption2.busy_s": busy("analysis.check_assumption2"),
        "analysis.z_bytes": sum(total(name, "z_bytes") for name in MC_SPANS),
        "analysis.checks": total(lemma, "checks"),
        "analysis.checks_failed": total(lemma, "checks_failed"),
        "analysis.checks_inconclusive": total(lemma, "checks_inconclusive"),
        "theory.b_upper.calls": len(bounds),
        "theory.b_upper.busy_s": sum(bounds),
        "theory.b_upper.p50_s": _median(bounds),
        "theory.build_constants.busy_s": busy("theory.build_constants"),
    }


def replay_layers(wl, last_out: dict, checks) -> tuple[dict[str, float], list[dict]]:
    """Serial replay of the last pass's experiments through the engine and rates."""
    tr = Tracer(enabled=True)
    start = time.perf_counter()
    mismatches = 0
    for cfg, rows in zip(wl.experiments, last_out.get("rows", [])):
        with tr.span("harness.serial_replay"):
            mismatches += workloads.replay(tr, cfg, rows, checks)
    replay_s = time.perf_counter() - start if wl.experiments else 0.0
    groups = by_name(tr.spans)
    runs = groups.get("engine.run", [])
    inits = groups.get("engine.init_default", [])
    fits = groups.get("rates.estimate_cr", [])
    steps = sum(s["attrs"]["steps"] for s in runs)
    return {
        "engine.run.calls": len(runs),
        "engine.run.steps": steps,
        "engine.run.busy_s": busy_s(runs),
        "engine.run.us_per_step": 1e6 * _ratio(busy_s(runs), steps),
        "engine.run.accept_frac": _ratio(sum(s["attrs"]["accepted"] for s in runs), steps),
        "engine.run.early_stop_frac": _ratio(sum(s["attrs"]["early_stop"] for s in runs), len(runs)),
        "engine.init_default.busy_s": busy_s(inits),
        "rates.estimate_cr.calls": len(fits),
        "rates.estimate_cr.busy_s": busy_s(fits),
        "rates.nan_frac": _ratio(sum(s["attrs"]["nan"] for s in fits), len(fits)),
        "harness.serial_replay_s": replay_s,
        "harness.replay_busy_s": busy_s(runs) + busy_s(inits) + busy_s(fits),
        "harness.replay_mismatches": mismatches,
    }, tr.spans


def _timed(tr: Tracer, name: str, fn, repeats: int, **attrs) -> float:
    """Median wall time of ``repeats`` calls of ``fn``, one span each."""
    times = []
    for _ in range(repeats):
        with tr.span(name, **attrs):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return _median(times)


def probes(seed: int, tiny: bool, checks) -> tuple[dict[str, float], list[dict]]:
    """Fixed-size calls into single layers, identical on every workload."""
    tr = Tracer(enabled=True)
    shrink = 16 if tiny else 1
    repeats = 1 if tiny else PROBE_REPEATS
    rng = np.random.default_rng(workloads.sub_seed(seed, 90))
    out = {}

    chains = {
        "d10": hessian_family("h1", 10, 0),
        "d30": hessian_family("h1", 30, 0),
        "d1000": hessian_family("h1", 1000, 0),
        "perturbed": perturbed_family(30, 2),
    }
    with tr.span("probe.engine"):
        for label, spec in chains.items():
            budget = PROBE_CHAINS[label] // shrink
            params = params_for_rule("const", spec.dim)
            init = init_default(spec, workloads.sub_seed(seed, 91))

            def chain():
                traj = run(spec, params, init, budget, 1e-300, workloads.sub_seed(seed, 92))
                checks.expect(traj.t_final == budget, f"probe chain {label} ran its full budget")

            wall = _timed(tr, "engine.run", chain, repeats, label=label, steps=budget)
            out[f"engine.run.us_per_step.{label}"] = 1e6 * wall / budget

    with tr.span("probe.objectives"):
        for dim in (10, 100, 1000):
            spec = hessian_family("h1", dim, 1)
            xs = rng.standard_normal((PROBE_ELEMS // shrink // dim, dim))
            wall = _timed(tr, "objectives.value_many", lambda: spec.value_many(xs), repeats,
                          dim=dim)
            out[f"objectives.value_many.ns_per_elem.d{dim}"] = 1e9 * wall / xs.size
        spec = perturbed_family(30, 2)
        x = rng.standard_normal(spec.dim)
        calls = 20_000 // shrink

        def many_values():
            for _ in range(calls):
                spec.value(x)

        wall = _timed(tr, "objectives.value", many_values, repeats, calls=calls)
        out["objectives.value.us_per_call.perturbed"] = 1e6 * wall / calls

    with tr.span("probe.analysis"):
        for dim, rows in PROBE_ROWS.items():
            rows = max(1000, rows // shrink)
            spec = hessian_family("h1", dim, 1)
            state = analysis.state_at_sigma_bar(spec, rng.standard_normal(dim), 1.0)
            mc_seed = workloads.sub_seed(seed, 93, dim)
            wall = _timed(
                tr, "analysis.check_lemma_suite",
                lambda: analysis.check_lemma_suite(spec, [state], rows, mc_seed),
                repeats, dim=dim, rows=rows,
            )
            out[f"analysis.rows_per_s.d{dim}"] = rows / wall

    def cli_help():
        proc = subprocess.run(
            [sys.executable, "-m", "esrate.cli", "--help"], capture_output=True, timeout=60,
        )
        checks.expect(proc.returncode == 0, "esrate --help exits 0")

    with tr.span("probe.cli"):
        out["cli.startup_s"] = _timed(tr, "cli.startup", cli_help, repeats)
    return out, tr.spans


# -- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if not Path(esrate.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        parser.exit(2, f"error: esrate imported from {esrate.__file__}, not from ./src\n")
    wl = workloads.build(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0
    if not args.out:
        parser.error("--out is required unless --setup-only")
    out_path = Path(args.out)
    scratch = out_path.parent / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    try:
        passes, last_out, peak_rss_mb = run_passes(
            wl, args.seconds, bool(args.trace), scratch, checks
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    walls = [p["wall_s"] for p in passes]

    if not args.trace:
        values = {
            "wall_s": _median(walls),
            "trials_per_s": phase_rate(passes, "trials", "sim"),
            "peak_rss_mb": peak_rss_mb,
            "checks_passed_frac": (checks.attempted - len(checks.failed)) / checks.attempted,
        }
        spans = {}
    else:
        traced = [p for p in passes if p["traced"]]
        per_pass = [pass_layers(p["spans"]) for p in traced]
        values = {key: _median(layers[key] for layers in per_pass) for key in per_pass[0]}
        replayed, replay_spans = replay_layers(wl, last_out, checks)
        probed, probe_spans = probes(args.seed, args.tiny, checks)
        values.update(replayed)
        values.update(probed)
        workers = int(os.environ.get("ES_RATE_THREADS", "1"))
        values["harness.parallel_eff"] = _ratio(
            values.pop("harness.replay_busy_s"),
            values["harness.run_experiment.wall_s"] * workers,
        )
        values["analysis.mc_rows_per_s"] = phase_rate(passes, "mc_rows", "mc")
        values["theory.bounds_per_s"] = phase_rate(passes, "bounds", "theory")
        values["trace.overhead_frac"] = (
            _median(p["wall_s"] for p in traced)
            / _median(p["wall_s"] for p in passes if not p["traced"]) - 1.0
        )
        spans = {"pass": traced[-1]["spans"], "replay": replay_spans, "probe": probe_spans}
        for group in spans.values():
            for span, own in zip(group, self_times(group)):
                span["self_s"] = own

    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "values": {k: float(v) for k, v in values.items()},
        "failed_checks": checks.failed[:100],
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "phase_s": p["phase_s"],
             "work": p["work"]}
            for p in passes
        ],
        "provenance": provenance.collect(ROOT) | {
            "workload": args.workload,
            "seed": args.seed,
            "tiny": args.tiny,
            "inputs_sha256": workloads.inputs_digest(wl),
        },
        "spans": spans,
    }
    out_path.write_text(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
