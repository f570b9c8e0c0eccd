import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import esrate
from esrate.engine import EsParams, EsState, params_for_rule, params_for_target, p_target
from esrate.objectives import sphere
from esrate.theory import (
    QExtremes,
    _b_low_value,
    assumption_margin_rhs,
    b_high,
    b_high_at,
    b_low,
    b_low_at,
    b_upper,
    build_constants,
    feasible_q_pair,
    potential_from_values,
    potential_value,
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


def test_quantile_rejects_endpoints():
    for p in (0.0, 1.0, -0.2, 1.3):
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
        candidates = [b_high_at(q, v, e) for e in eps]
        assert got + 1e-9 * (1 + got) >= max(candidates)
    for q, v in ((0.25, 0.01), (0.4, 0.05), (0.3, 0.002)):
        got = b_low(q, v)
        eps0 = math.sqrt(v / q)
        eps = rng.uniform(eps0 * (1 + 1e-6), 1 - 1e-9, 1000)
        candidates = [b_low_at(q, v, e) for e in eps]
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
    best = _best_on_sample(lambda t: b_high_at(q, v, math.exp(t)), math.log(eps0),
                           math.log(1e4 * max(1.0, eps0)), rng)
    assert got + 1e-9 * got >= best
    got = b_low(q, v)
    best = -_best_on_sample(lambda e: -b_low_at(q, v, e), math.sqrt(v / q), 1.0, rng)
    assert got - 1e-9 * got <= best

    # Each crossing: the condition holds just below it and fails just above.
    reference = b_low(q, v)
    params = params_for_target(math.exp(log_up), 0.3)
    ratio = math.exp(params.log_ratio)
    for condition, crossing in (
        (lambda x: b_high(x, v) >= reference, lambda: q_floor(q, v)),
        (lambda x: ratio * b_high(x, v) >= reference, lambda: q_high_limit(q, v, params)),
    ):
        try:
            lower = crossing()
        except ValueError:  # the condition fails on the whole bracket
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
    assert _b_low_value(lower * (1 - 1e-9), v) >= target
    assert _b_low_value(lower * (1 + 1e-9), v) < target


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # scipy.optimize pulls in scipy.linalg: about 0.3 s and 23 MB per process.
        ("esrate.cli", ["scipy.optimize", "scipy.linalg"]),
        # The chain alone needs numpy only; the package imports no submodule for it.
        ("esrate.engine", ["scipy", "scipy.*", "esrate.analysis", "esrate.theory",
                           "esrate.harness"]),
    ],
    ids=["esrate.cli", "esrate.engine"],
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
    lower = q_high_limit(0.25, 0.0, params)
    expected = std_normal_cdf(
        (params.alpha_down / params.alpha_up) * std_normal_quantile(0.25)
    )
    assert lower == pytest.approx(expected, abs=1e-9)
    assert lower == pytest.approx(0.4234, abs=1e-4)


def test_feasible_q_high_interval_grows_with_ratio():
    # A larger up/down ratio moves the crossing toward 1/2 (every small q
    # qualifies, so the supremum of qualifying q grows).
    small = q_high_limit(0.25, 0.0, EsParams(math.exp(0.011), math.exp(-0.01)))
    large = q_high_limit(0.25, 0.0, EsParams(math.exp(2.0), math.exp(-2.0)))
    assert small < large < 0.5
    assert small == pytest.approx(0.25, abs=0.01)


def test_q_floor_zero_variance_equals_q_low():
    assert q_floor(0.25, 0.0) == pytest.approx(0.25, abs=1e-9)


def test_limits_reject_an_underflowing_normal_tail():
    # b_low(0.2, v) is about 1.8e4 here, so Phi(-b_low/2) underflows to 0.
    v = 0.2 * (1 - 1e-3)
    with pytest.raises(ValueError, match="collapsed"):
        q_floor(0.2, v)
    with pytest.raises(ValueError, match="no q_high qualifies"):
        q_high_limit(0.2, v, params_for_target(math.e, 0.3))


def test_q_floor_with_variance_matches_grid_oracle():
    reference = _b_low_oracle(0.3, 0.01)
    a, b = 1e-6, 0.3
    for _ in range(40):
        mid = 0.5 * (a + b)
        if _b_high_oracle(mid, 0.01) >= reference:
            a = mid
        else:
            b = mid
    got = q_floor(0.3, 0.01)
    assert got == pytest.approx(0.5 * (a + b), rel=1e-2)
    assert 0.0 < got < 0.3


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
    "extremes,admitted,rejected",
    [
        (_surrogate(100), 42, 91),
        (QExtremes(v_std_sup=2.0 / 3000, kappa_inf=2.0, e_q=3000.0, strong_convexity=1.0), 65, 68),
    ],
)
def test_build_constants_admits_exactly_the_pairs_b_upper_scores(extremes, admitted, rejected):
    """``build_constants`` raises on a traced grid pair iff :func:`b_upper` scored
    it ``-inf``, and otherwise returns the traced objective as its bound."""
    params = params_for_target(math.e, 0.3)
    trace = []
    b_upper(extremes, params, trace=trace)
    counts = [0, 0]
    for q_low, q_high, objective in trace[::31]:
        if objective == -math.inf:
            with pytest.raises(ValueError):
                build_constants(extremes, params, q_low, q_high)
        else:
            assert build_constants(extremes, params, q_low, q_high).b_upper == objective
        counts[objective == -math.inf] += 1
    assert counts == [admitted, rejected]


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
        m = rng.standard_normal(100) * 10.0 ** rng.uniform(-3, 3)
        state = EsState(m, rng.uniform(-30, 30))
        f = spec.value(m)
        assert potential_value(state, spec, constants100) >= math.log(f)


def test_potential_small_sigma_penalty_exact(constants100):
    c = constants100
    f = 0.9
    sigma = 1e-20
    expected = math.log(f) + c.v * math.log(
        c.s * math.sqrt(c.strong_convexity * f) / (sigma * c.e_q)
    )
    got = float(potential_from_values(f, math.log(sigma), c))
    assert got == pytest.approx(expected, rel=1e-10)


def test_potential_rejects_optimum(constants100):
    with pytest.raises(ValueError):
        potential_value(EsState(np.zeros(100), 0.0), sphere(100), constants100)


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
