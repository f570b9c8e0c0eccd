"""Verification suites behind ``esrate verify``, all in one table, :data:`SUITES`.

Each suite returns a JSON-able report with an ``ok`` verdict.  Loops over
independent streams fan out over :func:`esrate.pool.fan_out` and merge in task
order, so every report is bit-identical for any worker count.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, theory
from .engine import EsState, params_for_rule, params_for_target, rng_stream, run, trial_seed
from .objectives import ALL_TRANSFORMS, ObjectiveSpec, hessian_family, make_composite, sphere
from .pool import fan_out

__all__ = ["SUITES", "invariance_report", "drift_report"]


def _dyadic(x: np.ndarray, bits: int = 26) -> np.ndarray:
    # Exactly representable on the 2^-bits grid, so adding an integer shift
    # and subtracting it back are both exact in binary64.
    return np.round(x * 2.0**bits) / 2.0**bits


def _invariance_checks(
    spec: ObjectiveSpec, spec_idx: int, s: int, steps: int, base_seed: int
) -> list[dict]:
    """The check dicts of one ``(spec, seed)`` pair of :func:`invariance_report`."""
    seed = trial_seed(base_seed, spec_idx, s)
    draw = rng_stream(seed, 9)
    m0 = _dyadic(draw.standard_normal(spec.dim))
    while not np.any(m0):
        m0 = _dyadic(draw.standard_normal(spec.dim))
    shift = draw.integers(-5, 6, size=spec.dim).astype(float)
    params = params_for_rule("const", spec.dim)
    sigma0 = float(np.linalg.norm(spec.gradient(m0))) / spec.trace_hessian
    init = EsState(m=m0, log_sigma=math.log(sigma0))
    ref = run(spec, params, init, steps, f_floor=1e-280, seed=seed)

    def check(case: str, comp: ObjectiveSpec, start: EsState) -> dict:
        traj = run(comp, params, start, steps, f_floor=1e-280, seed=seed)
        ok = (
            np.array_equal(ref.log_dist, traj.log_dist)
            and np.array_equal(ref.log_f, traj.log_f)
            and np.array_equal(ref.log_sigma, traj.log_sigma)
            and np.array_equal(ref.success, traj.success)
            and ref.stop_reason == traj.stop_reason
        )
        return {"spec": spec_idx, "seed": s, "case": case, "ok": ok}

    checks = [
        check(f"transform:{tr.name}", make_composite(spec, tr, np.zeros(spec.dim)), init)
        for tr in ALL_TRANSFORMS
    ]
    shifted = EsState(m=m0 + shift, log_sigma=init.log_sigma)
    checks.append(check("translation", make_composite(spec, ALL_TRANSFORMS[0], shift), shifted))
    checks.append(
        check("translation+transform", make_composite(spec, ALL_TRANSFORMS[2], shift), shifted)
    )
    return checks


def invariance_report(
    specs: list[ObjectiveSpec] | None = None,
    n_seeds: int = 20,
    steps: int = 500,
    base_seed: int = 20240,
) -> dict:
    """Exact-equality battery: transforms and translations must not change runs.

    For each spec and seed, the reference run is compared against runs of
    every transform composite (same optimum) and of a translated composite
    with an integer shift; recorded series must match bit for bit.  Each
    ``(spec, seed)`` pair is one pool task.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if specs is None:
        specs = [sphere(8), hessian_family("h1", 5, 1), hessian_family("h3", 6, 1)]
    tasks = [
        (spec, spec_idx, s, steps, base_seed)
        for spec_idx, spec in enumerate(specs)
        for s in range(n_seeds)
    ]
    checks = [c for per_seed in fan_out(_invariance_checks, tasks) for c in per_seed]
    failed = [c for c in checks if not c["ok"]]
    return {
        "suite": "invariance",
        "checks": len(checks),
        "mismatches": len(failed),
        "ok": not failed,
        "details": failed,
    }


def _lemmas(n: int, seed: int) -> dict:
    spec = sphere(10)
    m = rng_stream(seed, 3).standard_normal(10)
    states = [analysis.state_at_sigma_bar(spec, m, s) for s in np.geomspace(0.1, 10.0, 5)]
    report = analysis.check_lemma_suite(spec, states, n, seed)
    return report.to_json() | {"suite": "lemmas"}


def _assumption2(n: int, seed: int) -> dict:
    # The sphere cases are exact and draw no rows; reject what sampling would.
    if n < 1000:
        raise ValueError(f"need n >= 1000 mutation rows for stable estimates, got {n}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    ok = True
    out = {"suite": "assumption2", "cases": {}}
    for dim, expected in ((1000, True), (2, False)):
        report = analysis.check_assumption2(sphere(dim), n=n, seed=seed)
        oracle = 2.0 / dim < theory.assumption_margin_rhs(2.0)
        case_ok = report.holds == expected == oracle
        ok = ok and case_ok
        out["cases"][f"sphere_d{dim}"] = {
            "holds": report.holds,
            "margin": report.margin,
            "expected": expected,
            "ok": case_ok,
        }
    out["ok"] = ok
    return out


def drift_report(dim: int = 100, n: int = 100_000, seed: int = 77) -> dict:
    """Three-regime potential-drift battery on the sphere.

    Constants are built from the large-dimension surrogate extremes
    (``v_std = 0``, ``kappa = 2``, mean curvature = trace) with success
    target 0.3 inside ``(q_low, q_high) = (0.25, 0.45)``; the drift itself
    is estimated on the actual sphere of the given dimension.  Expected: a
    negative mean change in all regimes with 3-stderr margin, and at most
    ``-w/4`` (plus slack) in the well-adapted regime.
    """
    target_success, q_low, q_high = 0.3, 0.25, 0.45
    spec = sphere(dim)
    params = params_for_target(math.exp(1.0 / dim), target_success)
    extremes = theory.QExtremes(
        v_std_sup=0.0, kappa_inf=2.0, e_q=float(dim), strong_convexity=1.0
    )
    constants = theory.build_constants(extremes, params, q_low, q_high)
    m = rng_stream(seed, 1).standard_normal(dim)
    m *= math.sqrt(dim) / np.linalg.norm(m)
    sbar_by_regime = {
        "small": 0.5 * constants.b_high,
        "reasonable": 0.5 * (constants.b_high + constants.b_low),
        "large": 2.0 * constants.b_low,
    }
    target = theory.p_target(params)
    gain_cap = min(constants.w / 4.0, params.log_ratio)
    regime_bound = {
        "small": gain_cap * (target - q_high),
        "large": gain_cap * (q_low - target),
        "reasonable": -constants.w / 4.0,
    }
    tasks = [
        (spec, analysis.state_at_sigma_bar(spec, m, sbar), params, constants, n, seed + 10 + i)
        for i, sbar in enumerate(sbar_by_regime.values())
    ]
    estimates = fan_out(analysis.estimate_drift, tasks)
    results = {}
    ok = True
    for (name, sbar), est in zip(sbar_by_regime.items(), estimates):
        bound = regime_bound[name]
        entry = {
            "regime": est.regime,
            "planted": name,
            "sigma_bar": sbar,
            "drift": est.value,
            "stderr": est.stderr,
            "negative_with_margin": est.value + 3.0 * est.stderr < 0.0,
            "bound": bound,
            "within_bound": est.value <= bound + 3.0 * est.stderr,
        }
        if est.regime != name:
            entry["regime_mismatch"] = True
            ok = False
        ok = ok and entry["negative_with_margin"] and entry["within_bound"]
        results[name] = entry
    return {
        "suite": "drift",
        "dim": dim,
        "p_target": target_success,
        "constants": constants.as_dict(),
        "regimes": results,
        "ok": ok,
    }


#: Suite name -> (function of ``(n, seed)``, default ``n``, default seed).
SUITES = {
    "invariance": (lambda n, seed: invariance_report(n_seeds=n, base_seed=seed), 20, 20240),
    "lemmas": (_lemmas, 100_000, 0),
    "assumption2": (_assumption2, 100_000, 0),
    "drift": (lambda n, seed: drift_report(n=n, seed=seed), 20_000, 77),
}
