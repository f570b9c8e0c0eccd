"""Acceptance suite: one test per exit criterion.

Each test prints a single `[acceptance] criterion N (...): PASS|FAIL` line
(visible with ``pytest tests/test_acceptance.py -v -s``) and then asserts.
Monte Carlo checks use the stated sample sizes and a 3-standard-error slack;
grid criteria run the full stated grids and fall under the stated runtime
budgets.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from esrate import analysis, exact, theory
from esrate.engine import params_for_rule, params_for_target
from esrate.harness import ExperimentConfig, run_experiment
from esrate.objectives import hessian_family, sphere
from esrate.rates import lower_rate_bound
from esrate.verify import SUITES

mpmath.mp.dps = 30


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_sphere_rate():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kinds=("h1",), dims=(10, 30, 100), kappas=(0,), trials=10, base_seed=101
    )
    rows = run_experiment(cfg)
    problems = []
    for row in rows:
        if row.is_aggregate:
            lo, hi = 0.05 / row.d, 0.3 / row.d
            if not lo <= row.cr_hat <= hi:
                problems.append(f"d={row.d} aggregate {row.cr_hat:.3e} outside [{lo:.1e},{hi:.1e}]")
        else:
            if not row.cr_hat <= lower_rate_bound(row.d) + 2 * row.stderr:
                problems.append(f"d={row.d} trial {row.seed} {row.cr_hat:.3e} exceeds 1/d")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        problems.append(f"runtime {elapsed:.0f}s over budget")
    _report(1, "sphere rate ~= 0.1/d", not problems,
            f"elapsed={elapsed:.1f}s " + "; ".join(problems))


def test_criterion_2_trace_scaling():
    start = time.perf_counter()
    main = run_experiment(ExperimentConfig(
        kinds=("h1", "h3"), dims=(10, 30, 100), kappas=(0, 2, 4),
        trials=10, base_seed=202,
    ))
    graded = run_experiment(ExperimentConfig(
        kinds=("h2",), dims=(10, 30, 100), kappas=(0, 2), trials=10, base_seed=203,
    ))
    problems = []
    for row in main:
        if row.is_aggregate and not 0.1 <= row.scaled_rate <= 2.0:
            problems.append(
                f"{row.objective} d={row.d} k={row.kappa} scaled={row.scaled_rate:.3f}"
            )
    for row in main + graded:
        if row.is_aggregate and not row.scaled_rate >= 0.1:
            problems.append(
                f"{row.objective} d={row.d} k={row.kappa} scaled={row.scaled_rate:.3f} < 0.1"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 900:
        problems.append(f"runtime {elapsed:.0f}s over budget")
    _report(2, "trace scaling in [0.1, 2.0]", not problems,
            f"elapsed={elapsed:.1f}s " + "; ".join(problems))


def test_criterion_3_alpha_insensitivity():
    means = {}
    for rule in ("const", "sqrt", "dim"):
        rows = run_experiment(ExperimentConfig(
            kinds=("h1",), dims=(30,), kappas=(2,), alpha_rule=rule,
            trials=10, base_seed=303,
        ))
        means[rule] = next(r.cr_hat for r in rows if r.is_aggregate)
    spread = max(means.values()) / min(means.values())
    _report(3, "alpha-rule insensitivity", spread < 2.0,
            f"spread={spread:.3f} means={ {k: f'{v:.2e}' for k, v in means.items()} }")


def test_criterion_4_invariance_suite():
    suite, _, _ = SUITES["invariance"]
    report = suite(20, 404)
    expected_checks = 3 * 20 * 6
    ok = report["ok"] and report["checks"] == expected_checks
    _report(4, "exact transform/translation invariance", ok,
            f"checks={report['checks']} mismatches={report['mismatches']}")


def test_criterion_5_lemma_suite():
    start = time.perf_counter()
    n = 1_000_000
    sigma_bars = np.geomspace(0.1, 10.0, 5)
    failures = []
    for spec, seed in ((sphere(10), 51), (sphere(100), 52), (hessian_family("h1", 10, 1), 53)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
        m = rng.standard_normal(spec.dim)
        states = [exact.state_at_sigma_bar(spec, m, s) for s in sigma_bars]
        report = analysis.check_lemma_suite(spec, states, n, seed)
        for check in report.failures():
            failures.append(f"{report.spec}:{check.name}@{check.state_id}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s over budget")
    _report(5, "lemma suite at n=1e6", not failures,
            f"elapsed={elapsed:.1f}s " + "; ".join(failures))


def test_criterion_6_theory_constants():
    problems = []
    for q in np.linspace(0.02, 0.48, 24):
        cap = 2.0 * theory.std_normal_quantile(1.0 - q)
        if abs(theory.b_high(q, 0.0) - cap) > 1e-6:
            problems.append(f"b_high({q:.3f})")
        if abs(theory.b_low(q, 0.0) - cap) > 1e-6:
            problems.append(f"b_low({q:.3f})")
    grid = np.linspace(1e-8, 1 - 1e-8, 1001)
    round_trip = np.max(np.abs(theory.std_normal_cdf(theory.std_normal_quantile(grid)) - grid))
    if round_trip > 1e-12:
        problems.append(f"round_trip={round_trip:.2e}")
    extremes = theory.QExtremes(
        v_std_sup=0.0, kappa_inf=2.0, e_q=1000.0, strong_convexity=1.0
    )
    constants = theory.build_constants(
        extremes, params_for_target(math.e, 0.3), 0.25, 0.45
    )
    ratio = constants.w / (extremes.strong_convexity / extremes.e_q)
    if not math.isclose(ratio, 0.00387, abs_tol=1e-4):
        problems.append(f"w ratio {ratio:.6f} != 0.00387+-1e-4")
    if not constants.w > 0:
        problems.append("w <= 0")
    if not constants.s < constants.ell:
        problems.append("s >= ell")
    if not 0.0 < constants.v <= 1.0:
        problems.append(f"v={constants.v}")
    _report(6, "theory constants", not problems,
            f"w_ratio={ratio:.6f} " + "; ".join(problems))


def test_criterion_7_drift_negativity():
    suite, _, _ = SUITES["drift"]
    report = suite(100_000, 707)
    problems = [
        f"{c['state_id']}: {c['name']} {c['verdict']}, {c['lhs']:.2e} against {c['rhs']:.2e}"
        f" + {analysis.SE_SLACK:g} x {c['stderr']:.2e}"
        for c in report["checks"] if c["verdict"] != "pass"
    ]
    for name, entry in report["regimes"].items():
        if entry["regime"] != name:
            problems.append(f"{name}: classified {entry['regime']}")
    detail = " ".join(
        f"{c['state_id']}={c['lhs']:.2e}" for c in report["checks"] if c["name"] == "drift_within_bound"
    )
    _report(7, "three-regime drift negativity", not problems,
            detail + " " + "; ".join(problems))


def test_criterion_8_curvature_variance_checker():
    z = 1.0 / math.sqrt(2 * math.pi)
    rhs_oracle = 0.25 * float(min(mpmath.ncdf(z) - mpmath.mpf(1) / 2, 1 - mpmath.ncdf(3 * z)))
    problems = []
    high = analysis.check_assumption2(sphere(1000), n=100_000, seed=0)
    if not (high.holds and high.exact):
        problems.append("d=1000 should hold")
    if abs(high.v_std_sup - 0.002) > 1e-15:
        problems.append(f"d=1000 v_std {high.v_std_sup}")
    if abs(high.margin - (rhs_oracle - 0.002)) > 1e-12:
        problems.append(f"d=1000 margin {high.margin:.6f} vs oracle {rhs_oracle - 0.002:.6f}")
    low = analysis.check_assumption2(sphere(2), n=100_000, seed=0)
    if low.holds:
        problems.append("d=2 should fail")
    if abs(low.v_std_sup - 1.0) > 1e-15:
        problems.append(f"d=2 v_std {low.v_std_sup}")
    if abs(low.margin - (rhs_oracle - 1.0)) > 1e-12:
        problems.append(f"d=2 margin {low.margin:.6f}")
    _report(8, "curvature-variance checker vs 2/d oracle", not problems, "; ".join(problems))
