import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

import esrate
from esrate import theory
from esrate.engine import EsParams, params_for_rule, params_for_target, p_target
from esrate.objectives import sphere
from esrate.theory import (
    QExtremes,
    _b_high_at,
    _b_low_at,
    assumption_margin_rhs,
    b_high,
    b_low,
    b_upper,
    build_constants,
    feasible_q_pair,
    potential_from_values,
    q_floor,
    q_high_limit,
    q_low_limit,
    std_normal_cdf,
    std_normal_quantile,
)

mpmath.mp.dps = 30

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# -- normal CDF / quantile ------------------------------------------------------


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_against_high_precision_series():
    for x in (-8.5, -3.0, -SQRT_2_OVER_PI, -0.5, 0.3, 1.959964, 4.0, 7.0):
        oracle = float(mpmath.ncdf(x))
        assert std_normal_cdf(x) == pytest.approx(oracle, abs=1e-13)


def test_cdf_near_upper_quartile_point():
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=2e-9)
    assert std_normal_cdf(-SQRT_2_OVER_PI) == pytest.approx(0.212, abs=5e-4)


def test_quantile_median():
    assert std_normal_quantile(0.5) == 0.0


def test_quantile_against_bisection_oracle():
    def oracle(p):
        lo, hi = -10.0, 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if std_normal_cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for p in (0.75, 0.212, 0.99, 0.0001):
        assert std_normal_quantile(p) == pytest.approx(oracle(p), abs=1e-9)


def test_quantile_round_trip():
    grid = np.linspace(1e-8, 1 - 1e-8, 1000)
    back = std_normal_cdf(std_normal_quantile(grid))
    assert np.max(np.abs(back - grid)) <= 1e-12


def test_cdf_keeps_relative_accuracy_in_the_lower_tail():
    # NormalDist().cdf goes through erf: it is about 1e-12 off at x = -4 and 0 below -8.3.
    for x in np.linspace(-37.0, 0.0, 371):
        oracle = float(mpmath.ncdf(x))
        assert std_normal_cdf(x) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_quantile_against_newton_refined_oracle():
    # One Newton step on mpmath.ncdf from the computed quantile lands on the true one to
    # second order; at 400 digits Phi(x) - p keeps its precision even where both lie near 1.
    grid = np.concatenate([np.geomspace(1e-300, 0.49, 60), 1.0 - np.geomspace(1.1e-16, 0.49, 30)])
    with mpmath.workdps(400):
        for p in grid:
            got = std_normal_quantile(p)
            x = mpmath.mpf(got)
            oracle = float(x - (mpmath.ncdf(x) - p) / mpmath.npdf(x))
            assert got == pytest.approx(oracle, rel=1e-14, abs=0.0)
            assert got == pytest.approx(ndtri(p), rel=1e-14, abs=0.0)


def test_quantile_rejects_endpoints():
    for p in (0.0, 1.0, -0.2, 1.3, math.nan):
        with pytest.raises(ValueError):
            std_normal_quantile(p)


# -- threshold functions ---------------------------------------------------------


def test_thresholds_equal_cap_at_zero_variance():
    for q in np.linspace(0.02, 0.48, 24):
        cap = 2.0 * std_normal_quantile(1.0 - q)
        assert abs(b_high(q, 0.0) - cap) <= 1e-6
        assert abs(b_low(q, 0.0) - cap) <= 1e-6


def test_threshold_ordering_on_grid():
    for q in (0.1, 0.25, 0.4):
        for v in (0.001, 0.01, 0.02):
            if v >= min((1 - 2 * q) / 2, q):
                continue
            cap = 2.0 * std_normal_quantile(1.0 - q)
            assert b_high(q, v) <= cap + 1e-12
            assert b_low(q, v) >= cap - 1e-12
            assert b_low(q, v) >= b_high(q, v)


def test_b_high_monotone_in_variance():
    assert b_high(0.25, 0.01) < b_high(0.25, 0.001)


def test_b_high_vanishes_toward_half():
    assert b_high(0.499999, 0.0) < 1e-4


def test_b_low_divergent_variance_unsupported():
    with pytest.raises(ValueError):
        b_low(0.2, 0.2 - 1e-12)


def test_b_high_domain_validation():
    with pytest.raises(ValueError):
        b_high(0.45, 0.06)  # needs v < (1-2q)/2 = 0.05
    with pytest.raises(ValueError):
        b_high(0.6, 0.0)


def test_optimality_certificates():
    rng = np.random.default_rng(31)
    for q, v in ((0.2, 0.005), (0.3, 0.02), (0.45, 0.01)):
        got = b_high(q, v)
        eps0 = math.sqrt(2 * v / (1 - 2 * q))
        eps = np.exp(rng.uniform(math.log(eps0 * (1 + 1e-6)), math.log(1e3), 1000))
        candidates = [_b_high_at(q, v, e) for e in eps]
        assert got + 1e-9 * (1 + got) >= max(candidates)
    for q, v in ((0.25, 0.01), (0.4, 0.05), (0.3, 0.002)):
        got = b_low(q, v)
        eps0 = math.sqrt(v / q)
        eps = rng.uniform(eps0 * (1 + 1e-6), 1 - 1e-9, 1000)
        candidates = [_b_low_at(q, v, e) for e in eps]
        assert got <= min(candidates) + 1e-9 * (1 + got)


def _best_on_sample(fn, lo, hi, rng, n=500):
    """Largest ``fn`` on a uniform sample of ``(lo, hi)`` and on a second,
    finer sample around the best point of the first."""
    xs = rng.uniform(lo, hi, n)
    x = xs[int(np.argmax([fn(x) for x in xs]))]
    step = (hi - lo) / n
    xs = np.concatenate([xs, rng.uniform(max(lo, x - step), min(hi, x + step), n)])
    return max(fn(x) for x in xs)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    q=st.floats(min_value=0.01, max_value=0.49),
    log_frac=st.floats(min_value=-8.0, max_value=-0.05),
    log_up=st.floats(min_value=1e-3, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_thresholds_are_optima_and_crossings_are_sharp(q, log_frac, log_up, seed):
    # v_std spans eight decades below the tighter of the b_high and b_low limits.
    v = min((1.0 - 2.0 * q) / 2.0, q) * 10.0**log_frac
    rng = np.random.default_rng(seed)
    got = b_high(q, v)
    eps0 = math.sqrt(2 * v / (1 - 2 * q))
    best = _best_on_sample(lambda t: _b_high_at(q, v, math.exp(t)), math.log(eps0),
                           math.log(1e4 * max(1.0, eps0)), rng)
    assert got + 1e-9 * got >= best
    got = b_low(q, v)
    best = -_best_on_sample(lambda e: -_b_low_at(q, v, e), math.sqrt(v / q), 1.0, rng)
    assert got - 1e-9 * got <= best

    # Each crossing: the condition holds just below it and fails just above.
    reference = b_low(q, v)
    params = params_for_target(math.exp(log_up), 0.3)
    ratio = math.exp(params.log_ratio)
    for condition, crossing in (
        (lambda x: b_high(x, v) >= reference, lambda: q_floor(reference, v, q)),
        (lambda x: ratio * b_high(x, v) >= reference,
         lambda: q_high_limit(reference, v, params)),
    ):
        try:
            lower = crossing()
        except ValueError:  # no q_floor is certified
            lower = 0.0
        if lower < 1e-9:  # the condition fails on the whole bracket
            assert not condition(1e-9)
            continue
        assume(lower * (1 + 1e-9) < 0.5 - v)
        assert condition(lower * (1 - 1e-9))
        assert not condition(lower * (1 + 1e-9))

    # The q_low limit, at a curvature-variance bound spanning eight decades
    # below its Assumption 2 ceiling: b_low >= kappa sqrt(2/pi) just below it.
    kappa = rng.uniform(1.0, 4.0)
    v = assumption_margin_rhs(kappa) * 10.0 ** rng.uniform(-8.0, 0.0)
    target = kappa * SQRT_2_OVER_PI
    lower = q_low_limit(v, kappa)
    assert b_low(lower * (1 - 1e-9), v) >= target
    assert b_low(lower * (1 + 1e-9), v) < target


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # No scipy at run time: importing scipy.special alone costs about 0.25 s and 25 MB
        # per process, and scipy.optimize pulls in scipy.linalg on top.
        ("esrate.cli", ["scipy", "scipy.*"]),
        # The chain alone needs numpy only; the package imports no submodule for it.
        ("esrate.engine", ["scipy", "scipy.*", "esrate.analysis", "esrate.theory",
                           "esrate.harness"]),
        # Dawson's function and the series of the exact perturbed moments are numpy
        # only: numpy.polynomial alone adds about 2.65 MB to a process.  The exact
        # values need nothing of the Monte Carlo kernel.
        ("esrate.analysis", ["scipy", "scipy.*", "numpy.polynomial", "numpy.polynomial.*"]),
        ("esrate.exact", ["scipy", "scipy.*", "numpy.polynomial", "numpy.polynomial.*",
                          "esrate.analysis"]),
    ],
    ids=["esrate.cli", "esrate.engine", "esrate.analysis", "esrate.exact"],
)
def test_import_leaves_out_scipy_optimize(module, unloaded):
    code = (f"import fnmatch, sys, {module}; "
            f"print([m for m in sorted(sys.modules) if any(fnmatch.fnmatchcase(m, p) "
            f"for p in {unloaded!r})])")
    src = os.path.dirname(os.path.dirname(esrate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# -- feasibility intervals -------------------------------------------------------


def _b_low_oracle(q, v, n=400_001):
    eps = np.linspace(math.sqrt(v / q) + 1e-9, 1 - 1e-9, n)
    arg = 1.0 - (q - v / eps**2)
    ok = (arg > 0) & (arg < 1)
    return float(np.min(2.0 * ndtri(arg[ok]) / (1.0 - eps[ok])))


def _b_high_oracle(q, v, n=400_001):
    eps = np.geomspace(math.sqrt(2 * v / (1 - 2 * q)) + 1e-12, 1e4, n)
    arg = 1.0 - (q + v / eps**2)
    ok = (arg > 0) & (arg < 1)
    return float(np.max(2.0 * ndtri(arg[ok]) / (1.0 + eps[ok])))


def test_feasible_q_interval_zero_variance():
    lower = q_low_limit(0.0, 2.0)
    assert lower == pytest.approx(std_normal_cdf(-SQRT_2_OVER_PI), abs=1e-6)


def test_feasible_q_interval_small_variance_matches_grid_oracle():
    # Note: markedly higher than the zero-variance limit already at v=0.002.
    target = 2.0 * SQRT_2_OVER_PI
    a, b = 0.01, 0.499
    for _ in range(40):
        mid = 0.5 * (a + b)
        if _b_low_oracle(mid, 0.002) >= target:
            a = mid
        else:
            b = mid
    lower = q_low_limit(0.002, 2.0)
    assert lower == pytest.approx(0.5 * (a + b), abs=1e-4)
    assert 0.30 < lower < 0.31


def test_feasible_q_interval_huge_kappa_degenerates():
    # At large kappa no q satisfies the crossing condition, so the lower
    # limit falls back to v_std_sup; only v_std_sup = 0 keeps the margin
    # precondition satisfiable there (its ceiling vanishes with kappa).
    lower = q_low_limit(0.0, 20.0)
    assert lower == 0.0


def test_feasible_q_interval_rejects_large_variance():
    with pytest.raises(ValueError):
        q_low_limit(0.2, 2.0)


def test_feasible_q_high_interval_zero_variance_closed_form():
    params = EsParams(math.e, math.e**-0.25)
    lower = q_high_limit(b_low(0.25, 0.0), 0.0, params)
    expected = std_normal_cdf(
        (params.alpha_down / params.alpha_up) * std_normal_quantile(0.25)
    )
    assert lower == pytest.approx(expected, abs=1e-9)
    assert lower == pytest.approx(0.4234, abs=1e-4)


def test_feasible_q_high_interval_grows_with_ratio():
    # A larger up/down ratio moves the crossing toward 1/2 (every small q
    # qualifies, so the supremum of qualifying q grows).
    small = q_high_limit(b_low(0.25, 0.0), 0.0, EsParams(math.exp(0.011), math.exp(-0.01)))
    large = q_high_limit(b_low(0.25, 0.0), 0.0, EsParams(math.exp(2.0), math.exp(-2.0)))
    assert small < large < 0.5
    assert small == pytest.approx(0.25, abs=0.01)


def test_q_floor_zero_variance_equals_q_low():
    assert q_floor(b_low(0.25, 0.0), 0.0, 0.25) == pytest.approx(0.25, abs=1e-9)


def test_limits_reject_an_underflowing_normal_tail():
    # b_low(0.2, v) is about 1.8e4 here, so Phi(-b_low/2) underflows to 0:
    # no q_floor is certified, while every q_high qualifies.
    v = 0.2 * (1 - 1e-3)
    with pytest.raises(ValueError, match="collapsed"):
        q_floor(b_low(0.2, v), v, 0.2)
    assert q_high_limit(b_low(0.2, v), v, params_for_target(math.e, 0.3)) == 0.0


def test_q_high_limit_when_every_q_high_qualifies():
    # The crossing lies below 1e-9, so the whole admissible range qualifies.
    params = params_for_target(math.exp(1e-4), 0.3)
    q = q_high_limit(b_low(1e-10, 0.0), 0.0, params)
    assert 0.0 <= q < 1e-9
    assert math.exp(params.log_ratio) * b_high(max(q, 0.01), 0.0) < b_low(1e-10, 0.0)


def test_q_floor_with_variance_matches_grid_oracle():
    reference = _b_low_oracle(0.3, 0.01)
    a, b = 1e-6, 0.3
    for _ in range(40):
        mid = 0.5 * (a + b)
        if _b_high_oracle(mid, 0.01) >= reference:
            a = mid
        else:
            b = mid
    got = q_floor(b_low(0.3, 0.01), 0.01, 0.3)
    assert got == pytest.approx(0.5 * (a + b), rel=1e-2)
    assert 0.0 < got < 0.3


def test_success_sandwich_ends_invert_the_thresholds():
    # Phi(-_b_high_at (1 + eps)/2) - v/eps^2 = q, and Phi(-_b_low_at (1 - eps)/2) + v/eps^2 = q.
    for q in (0.05, 0.2, 0.3, 0.45):
        for v in (0.0, 1e-4, 1e-3, 0.01):
            for eps in (0.1, 0.3, 0.5, 0.9):
                low_at, high_at = _b_high_at(q, v, eps), _b_low_at(q, v, eps)
                if math.isfinite(low_at):
                    assert abs(theory._success_sandwich(low_at, v, eps)[0] - q) <= 1e-12
                if math.isfinite(high_at):
                    assert abs(theory._success_sandwich(high_at, v, eps)[1] - q) <= 1e-12


# -- constants -------------------------------------------------------------------


def _surrogate(dim: float) -> QExtremes:
    return QExtremes(v_std_sup=0.0, kappa_inf=2.0, e_q=float(dim), strong_convexity=1.0)


def test_build_constants_worked_example():
    params = params_for_target(math.e, 0.3)
    constants = build_constants(_surrogate(1000), params, 0.25, 0.45)
    oracle = float(
        mpmath.mpf(1)
        * mpmath.sqrt(2)
        * mpmath.erfinv(2 * mpmath.mpf("0.55") - 1)
        * (mpmath.sqrt(2 / mpmath.pi) - mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf("0.75") - 1))
        * mpmath.mpf("0.25")
    )
    assert constants.w / (1.0 / 1000.0) == pytest.approx(oracle, abs=1e-6)
    assert constants.w > 0
    assert constants.s < constants.ell
    assert 0.0 < constants.v <= 1.0
    assert constants.b_upper > 0


def test_build_constants_v_clamps_to_one():
    params = params_for_target(math.exp(1e-9), 0.3)
    constants = build_constants(_surrogate(10), params, 0.25, 0.45)
    assert constants.v == 1.0


def test_build_constants_names_violations():
    params = params_for_target(math.e, 0.3)
    with pytest.raises(ValueError, match="feasible interval"):
        build_constants(_surrogate(100), params, 0.05, 0.45)
    with pytest.raises(ValueError, match="p_target"):
        build_constants(_surrogate(100), params, 0.35, 0.48)
    # Above p_target, but below the q_high limit for q_low = 0.25 (about 0.4358).
    with pytest.raises(ValueError, match="q_high=0.35 outside feasible interval"):
        build_constants(_surrogate(100), params, 0.25, 0.35)
    with pytest.raises(ValueError, match="q_high=0.5 outside feasible interval"):
        build_constants(_surrogate(100), params, 0.25, 0.5)
    # Below 1/2, but outside the domain 0.5 - v_std_sup of b_high.
    noisy = QExtremes(v_std_sup=2.0 / 3000, kappa_inf=2.0, e_q=3000.0, strong_convexity=1.0)
    with pytest.raises(ValueError, match="q_high=0.4995 outside feasible interval"):
        build_constants(noisy, params, 0.29, 0.4995)
    one_fifth = EsParams(math.e, math.e**-0.25)
    with pytest.raises(ValueError, match="p_target"):
        build_constants(_surrogate(100), one_fifth, 0.25, 0.45)


@pytest.mark.parametrize(
    "extremes",
    [
        _surrogate(100),
        QExtremes(v_std_sup=2.0 / 3000, kappa_inf=2.0, e_q=3000.0, strong_convexity=1.0),
    ],
)
def test_build_constants_admits_exactly_the_pairs_b_upper_scores(extremes):
    """Every pair :func:`b_upper` traces is admissible, ``build_constants``
    returns its traced objective bit for bit, and the best of them is the bound."""
    params = params_for_target(math.e, 0.3)
    trace = []
    bound = b_upper(extremes, params, trace=trace)
    for q_low, q_high, objective in trace:
        assert build_constants(extremes, params, q_low, q_high).b_upper == objective
    assert max(objective for _, _, objective in trace) == bound


def test_build_constants_computes_b_low_once(monkeypatch):
    calls = []
    monkeypatch.setattr(theory, "b_low", lambda *args: calls.append(args) or b_low(*args))
    noisy = QExtremes(v_std_sup=2.0 / 3000, kappa_inf=2.0, e_q=3000.0, strong_convexity=1.0)
    build_constants(noisy, params_for_target(math.e, 0.3), 0.29, 0.45)
    assert calls == [(0.29, 2.0 / 3000)]


def test_feasible_q_pair_straddles_target():
    params = params_for_target(math.e, 0.3)
    q_low, q_high = feasible_q_pair(_surrogate(100), params)
    assert q_low < 0.3 < q_high < 0.5
    build_constants(_surrogate(100), params, q_low, q_high)


# -- potential --------------------------------------------------------------------


@pytest.fixture(scope="module")
def constants100():
    return build_constants(_surrogate(100), params_for_target(math.exp(0.01), 0.3), 0.25, 0.45)


def test_potential_dead_band_equals_log_f(constants100):
    c = constants100
    f = 3.7
    sigma = 0.5 * (c.s + c.ell) * math.sqrt(c.strong_convexity * f) / c.e_q
    assert float(potential_from_values(f, math.log(sigma), c)) == math.log(f)


def test_potential_dominates_log_f(constants100):
    rng = np.random.default_rng(17)
    spec = sphere(100)
    for _ in range(100):
        f = spec.value(rng.standard_normal(100) * 10.0 ** rng.uniform(-3, 3))
        assert float(potential_from_values(f, rng.uniform(-30, 30), constants100)) >= math.log(f)


def test_potential_small_sigma_penalty_exact(constants100):
    c = constants100
    f = 0.9
    sigma = 1e-20
    expected = math.log(f) + c.v * math.log(
        c.s * math.sqrt(c.strong_convexity * f) / (sigma * c.e_q)
    )
    got = float(potential_from_values(f, math.log(sigma), c))
    assert got == pytest.approx(expected, rel=1e-10)


def test_potential_pathwise_bounds(constants100):
    # One-step potential change against its guaranteed envelope, pathwise.
    c = constants100
    spec = sphere(100)
    params = EsParams(c.alpha_up, c.alpha_down)
    log_ratio = params.log_ratio
    rng = np.random.default_rng(23)
    total = 0
    for sbar in (0.05, 0.3, 1.0, 2.0, 10.0):
        m = rng.standard_normal(100)
        f_m = spec.value(m)
        gnorm = float(np.linalg.norm(spec.gradient(m)))
        sigma = sbar * gnorm / spec.trace_hessian
        zs = rng.standard_normal((20_000, 100))
        fx = spec.value_many(m + sigma * zs)
        succ = fx <= f_m
        f_next = np.where(succ, fx, f_m)
        ls_next = math.log(sigma) + np.where(
            succ, math.log(c.alpha_up), math.log(c.alpha_down)
        )
        v0 = float(potential_from_values(f_m, math.log(sigma), c))
        dv = potential_from_values(f_next, ls_next, c) - v0
        dlogf = np.log(f_next / f_m)
        upper = (1.0 - c.v / 2.0) * dlogf + c.v * log_ratio
        lower = (1.0 + c.v) * dlogf - 2.0 * c.v * log_ratio
        assert np.all(dv <= upper + 1e-9)
        assert np.all(dv > lower - 1e-9)
        total += len(zs)
    assert total == 100_000


# -- rate bound --------------------------------------------------------------------


def test_b_upper_positive_and_below_dimension_bound():
    dim = 10_000
    extremes = QExtremes(
        v_std_sup=2.0 / dim, kappa_inf=2.0, e_q=float(dim), strong_convexity=1.0
    )
    params = params_for_target(math.exp(1.0 / dim), 0.3)
    bound = b_upper(extremes, params)
    assert 0.0 < bound <= 1.0 / dim


def test_b_upper_scaling_band_across_dimensions():
    ratios = []
    for dim in (3000, 10_000, 30_000):
        extremes = QExtremes(
            v_std_sup=2.0 / dim, kappa_inf=2.0, e_q=float(dim), strong_convexity=1.0
        )
        params = params_for_target(math.exp(1.0 / dim), 0.35)
        bound = b_upper(extremes, params)
        scale = min(1.0 / dim, params.log_ratio)
        assert bound <= 1.0 / dim
        ratios.append(bound / scale)
    assert all(1e-5 < r < 1e-2 for r in ratios)
    assert max(ratios) / min(ratios) < 10.0


def test_b_upper_unsupported_for_one_fifth_rule():
    extremes = _surrogate(1000)
    with pytest.raises(ValueError, match="feasible interval"):
        b_upper(extremes, EsParams(math.e, math.e**-0.25))


def test_b_upper_beats_fixed_pairs():
    extremes = _surrogate(500)
    params = params_for_target(math.exp(0.002), 0.3)
    best = b_upper(extremes, params)
    for q_low, q_high in ((0.25, 0.45), (0.28, 0.4), (0.22, 0.47)):
        fixed = build_constants(extremes, params, q_low, q_high).b_upper
        assert best >= fixed - 1e-12


def _scan_best(extremes, params, coarse=16, rounds=8, window=9):
    """Best ``build_constants`` bound on a coarse grid of ``(q_low, q_high)``,
    then on ``window x window`` grids spanning one coarser cell either side of
    the best point so far, each round four times finer than the last."""
    target = p_target(params)
    lower = q_low_limit(extremes.v_std_sup, extremes.kappa_inf)
    cap = 0.5 - extremes.v_std_sup - 1e-9

    def best_on(q_lows, q_highs):
        best = (-math.inf, None, None)
        for q_low in q_lows:
            for q_high in q_highs:
                try:
                    value = build_constants(extremes, params, float(q_low), float(q_high)).b_upper
                except ValueError:  # an inadmissible pair
                    continue
                best = max(best, (value, q_low, q_high), key=lambda t: t[0])
        return best

    step_l, step_h = (target - lower) / coarse, (cap - target) / coarse
    best = best_on(lower + step_l * np.arange(1, coarse), target + step_h * np.arange(1, coarse))
    offsets = np.linspace(-1.0, 1.0, window)
    for _ in range(rounds):
        _, q_low, q_high = best
        best = max(best, best_on(q_low + step_l * offsets, q_high + step_h * offsets),
                   key=lambda t: t[0])
        step_l, step_h = step_l * 2 / (window - 1), step_h * 2 / (window - 1)
    return best[0]


@pytest.mark.parametrize("dim", [3000, 10_000])
@pytest.mark.parametrize("target", [0.3, 0.45])
@pytest.mark.parametrize("noisy", [False, True])
def test_b_upper_reaches_the_scan_maximum(dim, target, noisy):
    """A coordinate search stalls on the kink of ``min(p - q_low, q_high - p)``;
    the bound must reach the best pair of a zooming ``build_constants`` scan."""
    extremes = QExtremes(v_std_sup=2.0 / dim if noisy else 0.0, kappa_inf=2.0,
                         e_q=float(dim), strong_convexity=1.0)
    params = params_for_target(math.exp(1.0 / dim), target)
    best = _scan_best(extremes, params)
    assert b_upper(extremes, params) >= best * (1 - 1e-6)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    log_dim=st.floats(min_value=2.0, max_value=5.0),
    v_frac=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.99)),
    kappa=st.floats(min_value=1.5, max_value=3.0),
    target_frac=st.floats(min_value=0.01, max_value=0.99),
    s=st.floats(min_value=0.1, max_value=10.0),
)
def test_b_upper_dominates_admissible_pairs(log_dim, v_frac, kappa, target_frac, s):
    dim = 10.0**log_dim
    v = v_frac * assumption_margin_rhs(kappa)
    extremes = QExtremes(v_std_sup=v, kappa_inf=kappa, e_q=dim, strong_convexity=1.0)
    lower, cap = q_low_limit(v, kappa), 0.5 - v - 1e-9
    target = lower + target_frac * (cap - lower)
    params = params_for_target(math.exp(s / dim), target)
    assume(lower < p_target(params) < cap)
    bound = b_upper(extremes, params)
    # log_ratio = s / (dim (1 - p)) keeps the bound below s / (2 dim), and
    # w/4 keeps it below 1/dim; at alpha_up = e^(1/dim) both read 1/dim.
    assert 0.0 < bound <= min(s, 1.0) / dim
    pairs = [feasible_q_pair(extremes, params)]
    pairs += [(lower + (target - lower) * i / 10, target + (cap - target) * j / 10)
              for i in range(1, 10) for j in range(1, 10)]
    for q_low, q_high in pairs:
        try:
            fixed = build_constants(extremes, params, q_low, q_high).b_upper
        except ValueError:  # an inadmissible scan point
            continue
        assert fixed <= bound * (1 + 1e-9)


def _large_d_limit(p):
    """``lim b_upper d`` at v = 0, kappa_inf = 2, L = 1, e_q = d and alpha_up = e^(1/d),
    transcribed from ``theory``'s docstrings and maximised by scipy.

    The bound is ``min(w/4, log_ratio) min(p - q_low, q_high - p) / 2`` with ``w = (L/e_q)
    (b_high/2) (sqrt(2/pi) - b_low/kappa_inf) q_floor``.  At v = 0, ``b_high(q) = b_low(q)
    = beta(q) = 2 quantile(1 - q)`` and ``q_floor = q_low``; ``log_ratio d = 1/(1 - p)``.
    ``q_low`` runs from where ``w`` is 0 to ``p``, and ``q_high`` from ``p`` to 1/2.
    """
    def beta(q):
        return 2.0 * ndtri(1.0 - q)

    def bound(q_low, q_high):
        w = (beta(q_high) / 2.0) * (SQRT_2_OVER_PI - beta(q_low) / 2.0) * q_low
        return 0.5 * min(w / 4.0, 1.0 / (1.0 - p)) * min(p - q_low, q_high - p)

    def best(fn, lo, hi):
        return -minimize_scalar(lambda x: -fn(x), bounds=(lo, hi), method="bounded",
                                options={"xatol": 1e-13}).fun

    lower = std_normal_cdf(-SQRT_2_OVER_PI)
    return best(lambda q_low: best(lambda q_high: bound(q_low, q_high), p, 0.5), lower, p)


def _large_d_bound(p, dim=1e6):
    extremes = QExtremes(v_std_sup=0.0, kappa_inf=2.0, e_q=dim, strong_convexity=1.0)
    return b_upper(extremes, params_for_target(math.exp(1.0 / dim), p)) * dim


@pytest.mark.parametrize("p, value", [(0.30, 8.393620e-5), (0.35, 1.315467e-4),
                                      (0.45, 5.104189e-5)])
def test_b_upper_large_d_constant_is_the_two_dimensional_limit(p, value):
    assert _large_d_bound(p) == pytest.approx(_large_d_limit(p), rel=1e-6)
    assert _large_d_limit(p) == pytest.approx(value, rel=1e-6)


def test_large_d_limit_check_sees_a_doubled_decrease(monkeypatch):
    def doubled(extremes, params, q_low, q_high, bh, bl, qf):
        w, _ = decrease_and_bound(extremes, params, q_low, q_high, bh, bl, qf)
        target = p_target(params)
        return w, 0.5 * min(w / 2.0, params.log_ratio) * min(target - q_low, q_high - target)

    decrease_and_bound = theory._decrease_and_bound
    monkeypatch.setattr(theory, "_decrease_and_bound", doubled)
    assert _large_d_bound(0.3) != pytest.approx(_large_d_limit(0.3), rel=1e-6)


def test_b_upper_trace_does_not_fork_under_a_rounding_change_of_phi(monkeypatch):
    """The golden fixture's bounds search (``esrate bounds --dim 3000 --v-std 0.0006667
    --p-target 0.3 --sup``) stops before rounding noise decides its comparisons."""
    extremes = QExtremes(v_std_sup=0.0006667, kappa_inf=2.0, e_q=3000.0, strong_convexity=1.0)
    params = params_for_target(params_for_rule("const", 3000, 1.0).alpha_up, 0.3)

    def trace():
        rows = []
        b_upper(extremes, params, trace=rows)
        return np.array(rows)[:, :2]

    before = trace()
    cdf = theory._cdf
    monkeypatch.setattr(theory, "_cdf", lambda x: cdf(x) * (1.0 + 2.0**-52))
    after = trace()
    assert after.shape == before.shape
    assert np.all(np.abs(after - before) <= 1e-12 * np.abs(before))
