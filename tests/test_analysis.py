import math
import resource
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esrate import analysis, theory
from esrate.analysis import (
    _Chunk,
    _Moments,
    check_assumption2,
    check_lemma_suite,
    estimate_drift,
    estimate_log_progress,
    estimate_q_stats,
    estimate_success_prob,
    q_extremes,
    quadratic_q_exact,
    quadratic_v_std,
    regime_of,
    sigma_bar,
    state_at_sigma_bar,
)
from esrate.engine import EsState, params_for_target, rng_stream
from esrate.objectives import (
    hessian_family,
    make_composite,
    perturbed_family,
    quadratic_diag,
    sphere,
)

RNG = np.random.default_rng(8)


def _state(m, sigma):
    return EsState(np.asarray(m, dtype=float), math.log(sigma))


def sample_Q(spec, state, z):
    """The kernel's remainder ``Q`` on a one-row batch."""
    zs = np.asarray(z, dtype=float)[None, :]
    return float(_Chunk(spec, state, zs, np.empty_like(zs), np.empty_like(zs)).q[0])


# -- the kernel's remainder on one-row batches -----------------------------------


def test_sample_q_quadratic_matches_algebraic_expansion():
    # expanding 0.5 (m + s z)' H (m + s z) by hand leaves exactly z' H z
    spec = hessian_family("h2", 5, 1)
    for _ in range(50):
        m = RNG.standard_normal(5) * 2.0
        z = RNG.standard_normal(5)
        sigma = 10.0 ** RNG.uniform(-3, 1)
        got = sample_Q(spec, _state(m, sigma), z)
        expected = float(np.dot(spec.diag * z, z))
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_sample_q_sphere_is_squared_norm():
    z = np.array([2.0, 0.0, 0.0])
    assert sample_Q(sphere(3), _state([1.0, 1.0, 1.0], 0.5), z) == pytest.approx(4.0)


def test_sample_q_zero_mutation():
    assert sample_Q(sphere(3), _state([1.0, 0.0, 0.0], 0.5), np.zeros(3)) == 0.0


def test_sample_q_tiny_sigma_uses_closed_form():
    spec = hessian_family("h1", 4, 1)
    z = RNG.standard_normal(4)
    got = sample_Q(spec, _state([5.0, 1.0, 1.0, 1.0], 1e-12), z)
    # the closed form as the kernel evaluates it: a row reduction over the batch
    zs = z[None, :]
    assert got == float(np.einsum("ij,ij->i", zs * spec.diag, zs)[0])


def test_sample_q_tiny_sigma_rejected_for_perturbed():
    spec = perturbed_family(4, 0)
    with pytest.raises(ValueError):
        sample_Q(spec, _state([1.0, 1.0, 1.0, 1.0], 1e-12), RNG.standard_normal(4))


def test_sample_q_composite_rejected():
    comp = make_composite(sphere(2), "identity", np.zeros(2))
    with pytest.raises(ValueError):
        sample_Q(comp, _state([1.0, 0.0], 1.0), np.ones(2))


@pytest.mark.parametrize(
    "spec", [sphere(6), hessian_family("h3", 6, 2), perturbed_family(6, 1)],
    ids=["sphere", "h3", "perturbed"],
)
def test_sample_q_pathwise_bounds(spec):
    lmod, umod = spec.strong_convexity, spec.smoothness
    state = _state(RNG.standard_normal(6), 0.7)
    for _ in range(200):
        z = RNG.standard_normal(6)
        q = sample_Q(spec, state, z)
        zz = float(np.dot(z, z))
        assert lmod * zz - 1e-9 * (1 + zz) <= q <= umod * zz + 1e-9 * (1 + zz)


def test_sample_q_state_independent_for_quadratics():
    spec = hessian_family("h1", 5, 2)
    z = RNG.standard_normal(5)
    reference = sample_Q(spec, _state(RNG.standard_normal(5), 1.0), z)
    for _ in range(100):
        m = RNG.standard_normal(5) * 10.0 ** RNG.uniform(-2, 2)
        sigma = 10.0 ** RNG.uniform(-2, 2)
        got = sample_Q(spec, _state(m, sigma), z)
        assert got == pytest.approx(reference, rel=1e-9)


# -- moment estimators -------------------------------------------------------------


def test_q_stats_identity_hessian():
    # chi-square moments: mean d, variance 2d
    spec = sphere(10)
    stats = estimate_q_stats(spec, _state(np.ones(10), 0.5), 200_000, seed=5)
    assert stats.mean_q == pytest.approx(10.0, abs=3 * stats.se_mean)
    assert stats.var_q == pytest.approx(20.0, abs=3 * stats.se_var)
    assert stats.v_std == pytest.approx(0.2, rel=0.05)
    assert stats.half_mean_q == pytest.approx(stats.mean_q / 2, rel=0.02)
    assert stats.kappa == pytest.approx(2.0, rel=0.02)


def test_q_stats_match_exact_law():
    spec = hessian_family("h1", 3, 1)
    stats = estimate_q_stats(spec, _state([1.0, 1.0, 1.0], 0.3), 1_000_000, seed=6)
    mean, var = quadratic_q_exact(spec)
    assert mean == 21.0
    assert stats.mean_q == pytest.approx(mean, abs=3 * stats.se_mean)
    assert stats.var_q == pytest.approx(var, abs=3 * stats.se_var)


def test_q_stats_requires_minimum_samples():
    with pytest.raises(ValueError):
        estimate_q_stats(sphere(3), _state(np.ones(3), 1.0), 100, seed=0)


def test_quadratic_q_exact_values():
    assert quadratic_q_exact(hessian_family("h1", 3, 1)) == (21.0, 402.0)
    assert quadratic_q_exact(sphere(7)) == (7.0, 14.0)
    assert quadratic_q_exact(quadratic_diag([3.5])) == (3.5, 24.5)
    with pytest.raises(ValueError):
        quadratic_q_exact(perturbed_family(3, 0))


def test_stderr_shrinks_like_root_n():
    spec = sphere(8)
    state = _state(np.ones(8), 0.4)
    small = estimate_q_stats(spec, state, 4_000, seed=9)
    large = estimate_q_stats(spec, state, 400_000, seed=10)
    ratio = small.se_mean / large.se_mean
    assert 5.0 < ratio < 20.0  # n ratio 100 -> expect ~10


# -- success probability -------------------------------------------------------------


def test_success_prob_small_sigma_limit():
    spec = sphere(20)
    m = RNG.standard_normal(20)
    state = _state(m, 1e-8 * float(np.linalg.norm(m)))
    est = estimate_success_prob(spec, state, 40_000, seed=3)
    assert est.value == pytest.approx(0.5, abs=3 * est.stderr + 0.01)


def test_success_prob_large_sigma_limit():
    spec = sphere(20)
    m = RNG.standard_normal(20)
    state = _state(m, 1e3 * float(np.linalg.norm(m)))
    est = estimate_success_prob(spec, state, 40_000, seed=4)
    assert est.value <= 3 * est.stderr + 1e-4


def test_success_prob_quarter_at_reference_step():
    spec = sphere(100)
    state = state_at_sigma_bar(spec, np.ones(100), 2.0 * theory.std_normal_quantile(0.75))
    est = estimate_success_prob(spec, state, 100_000, seed=5)
    assert est.value == pytest.approx(0.25, abs=3 * est.stderr + 0.005)


def test_success_prob_monotone_in_sigma():
    spec = sphere(30)
    m = RNG.standard_normal(30)
    gnorm = float(np.linalg.norm(spec.gradient(m)))
    estimates = []
    for i, sbar in enumerate(np.geomspace(0.05, 20.0, 10)):
        state = _state(m, sbar * gnorm / 30.0)
        estimates.append(estimate_success_prob(spec, state, 30_000, seed=50 + i))
    for a, b in zip(estimates, estimates[1:]):
        assert b.value <= a.value + 3 * (a.stderr + b.stderr)


# -- log progress ---------------------------------------------------------------------


def test_log_progress_vanishes_for_tiny_steps():
    spec = sphere(10)
    m = np.ones(10)
    state = state_at_sigma_bar(spec, m, 1e-4)
    est = estimate_log_progress(spec, state, 20_000, seed=6)
    assert est.value <= 0.0
    assert abs(est.value) < 1e-4


def test_log_progress_below_expected_progress_bound():
    # log x <= x - 1 transfers the relative-progress bound to the log version
    spec = sphere(10)
    state = state_at_sigma_bar(spec, np.full(10, 1.2), 1.0)
    n, seed = 200_000, 7
    est = estimate_log_progress(spec, state, n, seed)
    stats = estimate_q_stats(spec, state, n, seed)
    prob = estimate_success_prob(spec, state, n, seed)
    m = np.full(10, 1.2)
    gnorm = float(np.linalg.norm(spec.gradient(m)))
    f_m = spec.value(m)
    sigma = state.sigma
    rhs = (sigma * gnorm / f_m) * (
        sigma * stats.half_mean_q / (2 * gnorm) - 1 / math.sqrt(2 * math.pi)
    ) * prob.value
    slack = 3 * (est.stderr + prob.stderr + stats.se_mean * sigma**2 / f_m)
    assert est.value <= rhs + slack


def test_log_progress_exp_moment_bound_d10():
    spec = sphere(10)
    state = state_at_sigma_bar(spec, np.full(10, 0.9), 1.5)
    n = 200_000
    rngs = np.random.default_rng(np.random.SeedSequence(entropy=12, spawn_key=(0,)))
    m = np.full(10, 0.9)
    f_m = spec.value(m)
    fx = spec.value_many(m + state.sigma * rngs.standard_normal((n, 10)))
    succ = fx <= f_m
    moment = np.where(succ, f_m / np.maximum(fx, 1e-300), 1.0)
    se = moment.std(ddof=1) / math.sqrt(n)
    assert moment.mean() <= (1 + 1 / 7) + 3 * se


# -- lemma suite -------------------------------------------------------------------------


def test_lemma_suite_passes_on_quadratics():
    for spec in (sphere(10), hessian_family("h1", 10, 1)):
        m = np.random.default_rng(3).standard_normal(10)
        states = [state_at_sigma_bar(spec, m, s) for s in np.geomspace(0.1, 10, 3)]
        report = check_lemma_suite(spec, states, 40_000, seed=13)
        assert report.ok, report.failures()
        data = report.to_json()
        assert data["ok"] is True
        assert {c["verdict"] for c in data["checks"]} <= {"pass", "inconclusive"}


def test_lemma_suite_small_dimension_moment_inconclusive():
    spec = sphere(3)
    states = [state_at_sigma_bar(spec, np.ones(3), 1.0)]
    report = check_lemma_suite(spec, states, 2_000, seed=1)
    moment = [c for c in report.checks if c.name == "log_progress_moment"]
    assert moment[0].verdict == "inconclusive"


# -- curvature-variance condition ----------------------------------------------------------


def test_assumption2_sphere_high_dimension_holds():
    report = check_assumption2(sphere(1000), n=100_000, seed=0)
    assert report.exact
    assert report.holds
    assert report.v_std_sup == pytest.approx(2.0 / 1000, rel=1e-15)
    oracle = theory.assumption_margin_rhs(2.0) - 2.0 / 1000
    assert report.margin == pytest.approx(oracle, abs=1e-15)


def test_assumption2_sphere_low_dimension_fails():
    report = check_assumption2(sphere(2), n=100_000, seed=0)
    assert report.exact
    assert not report.holds
    assert report.v_std_sup == pytest.approx(1.0, rel=1e-15)
    assert report.margin == pytest.approx(theory.assumption_margin_rhs(2.0) - 1.0, abs=1e-15)


@pytest.mark.parametrize("n, seed, message", [(5, 0, "need n >= 1000"),
                                               (1000, -1, "seed must be")])
def test_assumption2_exact_path_checks_n_and_seed(n, seed, message):
    # The sphere draws no rows, but takes only what the sampled path would.
    for spec in (sphere(1000), perturbed_family(4, 0)):
        with pytest.raises(ValueError, match=message):
            check_assumption2(spec, n=n, seed=seed)


def test_assumption2_sampled_path_for_perturbed():
    spec = perturbed_family(24, 0)
    report = check_assumption2(spec, n=20_000, seed=4)
    assert not report.exact
    assert report.kappa_consistent
    assert report.holds == (report.margin > 0)
    assert len(report.states) == 32
    assert report.kappa_inf == pytest.approx(2.0, rel=0.1)


def test_quadratic_v_std_closed_form():
    assert quadratic_v_std(sphere(50)) == pytest.approx(2.0 / 50, rel=1e-15)


# -- extremes and drift -----------------------------------------------------------------------


def test_q_extremes_exact_for_quadratics():
    spec = hessian_family("h3", 20, 2)
    ex = q_extremes(spec, n=100_000, seed=0)
    mean, var = quadratic_q_exact(spec)
    assert ex.e_q == mean
    assert ex.v_std_sup == var / mean**2
    assert ex.kappa_inf == 2.0
    assert ex.strong_convexity == 1.0


def test_q_extremes_share_assumption2_scan():
    spec = perturbed_family(12, 1)
    ex = q_extremes(spec, n=2_000, seed=2)
    report = check_assumption2(spec, n=2_000, seed=2)
    assert ex.v_std_sup == report.v_std_sup == max(s["v_std"] for s in report.states)
    assert ex.kappa_inf == report.kappa_inf == min(s["kappa"] for s in report.states)


def test_state_grid_spans_distances():
    # 8 distances from 1e-3 to 1e3 times sqrt(d), 2 directions and 2 step sizes each.
    report = check_assumption2(perturbed_family(6, 0), n=1000, seed=1)
    norms = np.array([s["m_norm"] for s in report.states])
    expected = np.repeat(np.geomspace(1e-3, 1e3, 8), 4) * math.sqrt(6)
    np.testing.assert_allclose(norms, expected, rtol=1e-9)
    assert len({s["log_sigma"] for s in report.states}) == 32


@pytest.fixture(scope="module")
def drift_setup():
    dim = 50
    spec = sphere(dim)
    params = params_for_target(math.exp(1.0 / dim), 0.3)
    extremes = theory.QExtremes(0.0, 2.0, float(dim), 1.0)
    constants = theory.build_constants(extremes, params, 0.25, 0.45)
    return spec, params, constants


def test_regime_classification(drift_setup):
    spec, params, constants = drift_setup
    m = np.full(50, 1.0)
    small = state_at_sigma_bar(spec, m, 0.25 * constants.b_high)
    mid = state_at_sigma_bar(spec, m, 0.5 * (constants.b_high + constants.b_low))
    large = state_at_sigma_bar(spec, m, 3.0 * constants.b_low)
    assert regime_of(spec, small, params, constants) == "small"
    assert regime_of(spec, mid, params, constants) == "reasonable"
    assert regime_of(spec, large, params, constants) == "large"


def test_drift_negative_in_reasonable_regime(drift_setup):
    spec, params, constants = drift_setup
    state = state_at_sigma_bar(spec, np.full(50, 1.0), 0.5 * (constants.b_high + constants.b_low))
    est = estimate_drift(spec, state, params, constants, 20_000, seed=21)
    assert est.regime == "reasonable"
    assert est.value + 3 * est.stderr < 0
    assert est.value <= -constants.w / 4 + 3 * est.stderr


def test_sigma_bar_round_trip():
    spec = sphere(12)
    state = state_at_sigma_bar(spec, np.ones(12), 2.5)
    assert sigma_bar(spec, state) == pytest.approx(2.5, rel=1e-12)


# -- the streaming kernel -------------------------------------------------------------------


def _all_estimates(elems):
    """Every float and verdict the five estimators give with ``ELEMS = elems``."""
    h1 = hessian_family("h1", 10, 1)
    m = np.random.default_rng(21).standard_normal(10)
    states = [state_at_sigma_bar(h1, m, s) for s in (0.3, 3.0)]
    pert = perturbed_family(10, 1)
    sph = sphere(50)
    params = params_for_target(math.exp(1.0 / 50), 0.3)
    constants = theory.build_constants(theory.QExtremes(0.0, 2.0, 50.0, 1.0), params, 0.25, 0.45)
    drift_state = state_at_sigma_bar(sph, np.full(50, 1.0), 0.5 * (constants.b_high + constants.b_low))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "ELEMS", elems)
        values = list(vars(estimate_q_stats(pert, _state(m, 0.2), 2_000, seed=1)).values())
        for est in (
            estimate_success_prob(h1, states[0], 2_000, seed=2),
            estimate_log_progress(h1, states[1], 2_000, seed=3),
            estimate_drift(sph, drift_state, params, constants, 2_000, seed=5),
        ):
            values += [est.value, est.stderr]
        report = check_lemma_suite(h1, states, 2_000, seed=4)
    values += [x for c in report.checks for x in (c.lhs, c.rhs, c.stderr)]
    return values, [c.verdict for c in report.checks]


@pytest.fixture(scope="module")
def one_chunk():
    return _all_estimates(2_000 * 50)  # all 2000 rows in one chunk at d <= 50


@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(elems=st.integers(min_value=1, max_value=120_000))
@example(elems=1_000)  # 100 rows per chunk at d = 10, 20 at d = 50: >= 20 chunks each
@example(elems=2_000 * 50)
def test_results_independent_of_chunk_size(one_chunk, elems):
    values, verdicts = _all_estimates(elems)
    ref_values, ref_verdicts = one_chunk
    assert verdicts == ref_verdicts
    for got, ref in zip(values, ref_values):
        assert math.isnan(ref) and math.isnan(got) or math.isclose(got, ref, rel_tol=1e-12)


def test_se_var_matches_two_pass_long_double_reference():
    spec = sphere(1000)
    state = state_at_sigma_bar(spec, np.random.default_rng(11).standard_normal(1000), 1.0)
    n, seed = 20_000, 4
    stats = estimate_q_stats(spec, state, n, seed)
    # the same rows, drawn block by block and evaluated in the kernel's chunks
    block, rows = analysis.SUB_ELEMS // spec.dim, analysis.ELEMS // spec.dim
    chunks = []
    for b, start in enumerate(range(0, n, block)):
        rng, size = rng_stream(seed, b), min(block, n - start)
        chunks += [rng.standard_normal((min(rows, size - s), spec.dim)) for s in range(0, size, rows)]
    assert len(chunks) > 1 + n // block  # several blocks, several chunks in each
    q = np.concatenate([
        _Chunk(spec, state, zs, np.empty_like(zs), np.empty_like(zs)).q for zs in chunks
    ]).astype(np.longdouble)
    dev = q - q.mean()
    m2, m4 = (dev**2).mean(), (dev**4).mean()
    assert stats.var_q == pytest.approx(float(m2 * n / (n - 1)), rel=1e-12)
    assert stats.se_var == pytest.approx(float(np.sqrt((m4 - m2**2) / (n - 1))), rel=1e-12)


def test_expected_progress_stderr_is_per_row_delta_method():
    spec = hessian_family("h1", 10, 1)
    m = np.random.default_rng(3).standard_normal(10)
    state = state_at_sigma_bar(spec, m, 1.0)
    n, seed = 2_000, 13
    report = check_lemma_suite(spec, [state], n, seed)
    check = next(c for c in report.checks if c.name == "expected_progress_bound")

    sigma, f_m, grad = state.sigma, spec.value(m), spec.gradient(m)
    # state 0's rows: blocks of SUB_ELEMS // d rows, block b from stream (seed, 0, b)
    block = analysis.SUB_ELEMS // 10
    zs = np.concatenate([rng_stream(seed, 0, b).standard_normal((min(block, n - start), 10))
                         for b, start in enumerate(range(0, n, block))])
    fx = spec.value_many(m + sigma * zs)
    succ = fx <= f_m
    rel = np.where(succ, fx / f_m - 1.0, 0.0)
    q_against = (2.0 / sigma**2) * (fx - f_m - sigma * (zs @ grad)) * (zs @ grad <= 0.0)
    gnorm = float(np.linalg.norm(grad))
    a, b, c = sigma * gnorm / f_m, sigma / (2.0 * gnorm), 1.0 / math.sqrt(2.0 * math.pi)
    # rel - a (b half - c) p, linearised at the sample means, row by row
    per_row = rel - a * b * succ.mean() * q_against - a * (b * q_against.mean() - c) * succ
    expected = per_row.std(ddof=1) / math.sqrt(n)
    assert check.stderr > 0.0
    assert check.stderr == pytest.approx(expected, rel=1e-9)


def test_state_helpers_survive_an_overflowing_squared_gradient_norm():
    # The squared norm of a gradient of ~1e200 entries overflows; the norm does not.
    spec = hessian_family("h1", 3, 200)
    m = np.array([0.5, 1.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = state_at_sigma_bar(spec, m, 1.0)
        round_trip = sigma_bar(spec, state)
    assert state.sigma == pytest.approx(math.hypot(1e200, 2e200) / spec.trace_hessian,
                                        rel=1e-15)
    assert round_trip == pytest.approx(1.0, rel=1e-15)


def test_merged_blocks_equal_one_pass_over_their_concatenation():
    rng = np.random.default_rng(17)
    blocks = []
    for rows in (1, 2, 7, 500, 64):
        x = rng.standard_normal(rows)
        blocks.append(np.array([x + 5.0, 1e3 * (x**2 + rng.standard_normal(rows)) + 40.0,
                                1e-2 * (x - rng.standard_normal(rows)) - 0.3]))
    merged = reduce(_Moments.merge, [_Moments(b) for b in blocks])
    whole = _Moments(np.concatenate(blocks, axis=1))
    assert merged.n == whole.n == 574
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(merged.comoment, whole.comoment, rtol=1e-12, atol=0.0)


def test_kernel_reuses_its_work_arrays(monkeypatch):
    # Fresh chunk-sized temporaries cost about 97k minor page faults here.
    monkeypatch.setenv("ES_RATE_THREADS", "1")
    spec = sphere(1000)
    state = state_at_sigma_bar(spec, np.random.default_rng(1).standard_normal(1000), 1.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_q_stats(spec, state, 20_000, seed=3)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 78_000 // 4


def _no_pool(fn, tasks):
    raise AssertionError("a pool started on bad input")


_SAMPLERS = {
    "q_stats": estimate_q_stats,
    "success_prob": estimate_success_prob,
    "log_progress": estimate_log_progress,
    "lemma_suite": lambda spec, state, n, seed: check_lemma_suite(spec, [state], n, seed),
}


@pytest.mark.parametrize("sampler", _SAMPLERS.values(), ids=_SAMPLERS.keys())
@pytest.mark.parametrize("spec, m, n, seed, message", [
    (make_composite(sphere(3), "identity", np.zeros(3)), np.ones(3), 1000, 0, "non-composite"),
    (sphere(3), np.ones(3), 999, 0, "need n >= 1000"),
    (sphere(3), np.ones(3), 1000, -1, "seed must be"),
    (sphere(3), np.zeros(3), 1000, 0, "off-optimum"),
], ids=["composite", "small_n", "negative_seed", "at_optimum"])
def test_bad_input_fails_before_any_pool_starts(monkeypatch, sampler, spec, m, n, seed, message):
    monkeypatch.setattr(analysis, "fan_out", _no_pool)
    with pytest.raises(ValueError, match=message):
        sampler(spec, _state(m, 1.0), n, seed)


@pytest.mark.parametrize("spec, tight", [
    (sphere(6), {"curvature_mean_lower", "curvature_mean_upper"}),
    (quadratic_diag([2.0] * 6), {"curvature_mean_lower", "curvature_mean_upper"}),
    (hessian_family("h1", 6, 1), set()),
    (perturbed_family(6, 0), set()),
], ids=["sphere", "flat", "h1", "perturbed"])
def test_tight_checks_are_the_mean_bounds_of_a_flat_hessian(spec, tight):
    states = [_state(np.ones(6), 0.5), _state(np.arange(1.0, 7.0), 2.0)]
    report = check_lemma_suite(spec, states, 1000, seed=1)
    assert {(c.name, c.state_id) for c in report.checks if c.tight} == {
        (name, sid) for name in tight for sid in ("0", "1")}
    by_design = 2 * len(tight) * theory.std_normal_cdf(-3.0)
    assert report.to_json()["expected_failures"] == pytest.approx(by_design, rel=1e-15)
