"""Verification suites behind ``esrate verify``, all in one table, :data:`SUITES`.

Each suite returns a JSON-able report with an ``ok`` verdict and the ``n``
and ``seed`` it ran with: for ``lemmas``, ``drift`` and ``assumption2`` an
:class:`esrate.analysis.SuiteReport` of checks plus descriptive keys, for
``invariance``, whose bit-for-bit comparisons have no ``lhs``, ``rhs`` or
standard error, counts.  Suites draw their states from one-element keys
``rng_stream(seed, k)``, which no Monte Carlo row uses, and the drift regimes
are the states of one kernel call.  The invariance chains run through
:func:`esrate.engine.run_all`, which returns results in chain order, so
every report is bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import analysis, exact, theory
from .engine import (
    EsState,
    Trajectory,
    default_sigma0,
    p_target,
    params_for_rule,
    params_for_target,
    rng_stream,
    run_all,
    trial_seed,
)
from .objectives import TRANSFORMS, ObjectiveSpec, hessian_family, is_int, make_composite, sphere

__all__ = ["SUITES", "invariance_report", "drift_report"]


def _dyadic(x: np.ndarray) -> np.ndarray:
    # Exactly representable on the 2^-26 grid, so adding an integer shift
    # and subtracting it back are both exact in binary64.
    return np.round(x * 2.0**26) / 2.0**26


#: What each seed's composites do to its reference run, in chain order.
_CASES = (*(f"transform:{name}" for name in TRANSFORMS), "translation", "translation+transform")


def _invariance_chains(spec: ObjectiveSpec, seed: int, steps: int) -> list[tuple]:
    """The :func:`esrate.engine.run` arguments of one seed: the reference
    run of ``spec``, then one composite per entry of :data:`_CASES`."""
    draw = rng_stream(seed, 9)
    m0 = _dyadic(draw.standard_normal(spec.dim))
    while not np.any(m0):
        m0 = _dyadic(draw.standard_normal(spec.dim))
    shift = draw.integers(-5, 6, size=spec.dim).astype(float)
    params = params_for_rule("const", spec.dim)
    init = EsState(m=m0, log_sigma=math.log(default_sigma0(spec, m0)))
    shifted = EsState(m=m0 + shift, log_sigma=init.log_sigma)
    runs = [(spec, init)]
    runs += [(make_composite(spec, name, np.zeros(spec.dim)), init) for name in TRANSFORMS]
    runs.append((make_composite(spec, "identity", shift), shifted))
    runs.append((make_composite(spec, "cube_shift", shift), shifted))
    return [(comp, params, start, steps, 1e-280, seed) for comp, start in runs]


def _digest(traj: Trajectory) -> bytes:
    """sha256 of a trajectory's step count, stop reason and four recorded series."""
    h = hashlib.sha256(f"{traj.t_final} {traj.stop_reason}".encode())
    for series in (traj.log_dist, traj.log_f, traj.log_sigma, traj.success):
        h.update(series.tobytes())
    return h.digest()


def invariance_report(
    specs: list[ObjectiveSpec] | None = None, *, n_seeds: int, steps: int = 500, base_seed: int
) -> dict:
    """Exact-equality battery: transforms and translations must not change runs.

    For each spec and seed, the reference run is compared against runs of
    every transform composite (same optimum) and of a translated composite
    with an integer shift; recorded series must match bit for bit.  Every
    chain goes to :func:`esrate.engine.run_all`, whose workers return each
    trajectory's :func:`_digest`, and each composite's digest is compared
    with its reference's here.
    """
    if not (is_int(n_seeds) and n_seeds >= 1):
        raise ValueError(f"n_seeds must be a positive integer, got {n_seeds!r}")
    rng_stream(base_seed)  # raises for a bad seed before any pool starts
    if specs is None:
        specs = [sphere(8), hessian_family("h1", 5, 1), hessian_family("h3", 6, 1)]
    runs = [(spec_idx, s) for spec_idx in range(len(specs)) for s in range(n_seeds)]
    chains = [chain for spec_idx, s in runs for chain in
              _invariance_chains(specs[spec_idx], trial_seed(base_seed, spec_idx, s), steps)]
    digests = iter(run_all(chains, _digest))
    checks = []
    for spec_idx, s in runs:
        ref = next(digests)
        checks += [{"spec": spec_idx, "seed": s, "case": case, "ok": next(digests) == ref}
                   for case in _CASES]
    failed = [c for c in checks if not c["ok"]]
    return {
        "suite": "invariance",
        "n": n_seeds,
        "seed": base_seed,
        "checks": len(checks),
        "mismatches": len(failed),
        "ok": not failed,
        "details": failed,
    }


def _lemmas(n: int, seed: int) -> dict:
    spec = sphere(10)
    m = rng_stream(seed, 3).standard_normal(10)
    states = [exact.state_at_sigma_bar(spec, m, s) for s in np.geomspace(0.1, 10.0, 5)]
    report = analysis.check_lemma_suite(spec, states, n, seed)
    return report.to_json() | {"suite": "lemmas"}


def _assumption2(n: int, seed: int) -> dict:
    """Exact checks that ``v_std_sup`` and ``2/d`` lie below ``rhs`` on the sphere
    at d = 1000, where Assumption 2 holds, and above it at d = 2, where it fails."""
    oracle_rhs = theory.assumption_margin_rhs(2.0)  # kappa is 2 on the sphere
    checks = []
    for dim, expected in ((1000, True), (2, False)):
        report = exact.check_assumption2(sphere(dim), n=n, seed=seed)
        side = "below" if expected else "above"
        for name, value, rhs in (("v_std_sup", report.v_std_sup, report.rhs),
                                 ("oracle_2_over_d", 2.0 / dim, oracle_rhs)):
            pair = (value, rhs) if expected else (rhs, value)
            checks.append(analysis.CheckResult.judge(f"{name}_{side}_rhs", f"sphere_d{dim}",
                                                     *pair, 0.0))
    specs = ", ".join(analysis.describe(sphere(dim)) for dim in (1000, 2))
    return analysis.SuiteReport(specs, n, seed, checks).to_json() | {"suite": "assumption2"}


def drift_report(dim: int = 100, *, n: int, seed: int) -> dict:
    """Three-regime potential-drift battery on the sphere.

    Constants are built from the large-dimension surrogate extremes
    (``v_std = 0``, ``kappa = 2``, mean curvature = trace) with success
    target 0.3 inside ``(q_low, q_high) = (0.25, 0.45)``; the drift itself
    is estimated on the actual sphere of the given dimension, at the three
    planted regimes' states in one :func:`esrate.analysis.estimate_drift`
    call.  Per regime it checks ``regime`` (:func:`esrate.exact.regime_of`
    gives the planted one), ``drift_negative`` (the upper limit ``drift +
    SE_SLACK stderr`` is at most 0) and ``drift_within_bound`` (the drift is
    at most the regime's bound, ``-w/4`` in the well-adapted regime).
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
    target = p_target(params)
    gain_cap = min(constants.w / 4.0, params.log_ratio)
    regime_bound = {
        "small": gain_cap * (target - q_high),
        "large": gain_cap * (q_low - target),
        "reasonable": -constants.w / 4.0,
    }
    states = [exact.state_at_sigma_bar(spec, m, sbar) for sbar in sbar_by_regime.values()]
    estimates = analysis.estimate_drift(spec, states, constants, n, seed)
    judge = analysis.CheckResult.judge
    checks, regimes = [], {}
    for (name, sbar), state, est in zip(sbar_by_regime.items(), states, estimates):
        regime = exact.regime_of(spec, state, constants)
        regimes[name] = {"regime": regime, "sigma_bar": sbar}
        checks += [
            judge("regime", name, float(regime != name), 0.0, 0.0),
            judge("drift_negative", name, est.value + analysis.SE_SLACK * est.stderr, 0.0, 0.0),
            judge("drift_within_bound", name, est.value, regime_bound[name], est.stderr),
        ]
    report = analysis.SuiteReport(analysis.describe(spec), n, seed, checks)
    return report.to_json() | {"suite": "drift", "dim": dim, "p_target": target_success,
                               "constants": constants.as_dict(), "regimes": regimes}


#: Suite name -> (function of ``(n, seed)``, default ``n``, default seed).
SUITES = {
    "invariance": (lambda n, seed: invariance_report(n_seeds=n, base_seed=seed), 20, 20240),
    "lemmas": (_lemmas, 100_000, 0),
    "assumption2": (_assumption2, 100_000, 0),
    "drift": (lambda n, seed: drift_report(n=n, seed=seed), 20_000, 77),
}
