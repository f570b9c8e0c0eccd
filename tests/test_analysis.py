import math
import os
import re
import resource
import tracemalloc
import warnings
from dataclasses import astuple, replace
from functools import partial, reduce

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from esrate import analysis, exact, pool, theory
from esrate.analysis import (
    _chunks,
    _Moments,
    check_lemma_suite,
    estimate_drift,
    estimate_log_progress,
    estimate_q_stats,
    estimate_success_prob,
)
from esrate.engine import (EsParams, EsState, init_default, params_for_rule, params_for_target,
                           rng_stream, run)
from esrate.exact import (
    check_assumption2,
    q_extremes,
    quadratic_q_exact,
    regime_of,
    sigma_bar,
    state_at_sigma_bar,
)
from esrate.objectives import (
    PERTURB_AMP,
    PERTURB_FREQ,
    ObjectiveSpec,
    hessian_family,
    make_composite,
    perturbed_family,
    quadratic_diag,
    sphere,
)
from esrate.rates import lower_rate_bound
from esrate.verify import drift_report, invariance_report

RNG = np.random.default_rng(8)


def _state(m, sigma):
    return EsState(np.asarray(m, dtype=float), math.log(sigma))


def _reduce(levels, m, zs):
    """The reduced rows ``(u, r)`` of the full rows ``zs`` at the point ``m``.

    Per level, ``u_j`` is the component of ``z`` along ``m`` there, which is the
    gradient's direction, and ``r_j`` the squared norm of the rest.
    """
    u = zs[:, levels.first]
    r = np.empty((len(zs), len(levels.multi)))
    for i, (j, group) in enumerate(zip(levels.multi, levels.groups)):
        e = m[group] / np.linalg.norm(m[group])
        u[:, j] = zs[:, group] @ e
        r[:, i] = np.sum((zs[:, group] - u[:, j, None] * e) ** 2, axis=1)
    return u, r


def _rebuild(levels, m, u, r, rng):
    """Full rows whose reduced rows at the point ``m`` are ``(u, r)``.

    Per level, ``u_j`` along ``m`` there plus a random vector orthogonal to it
    of norm ``sqrt(r_j)``.
    """
    zs = np.empty((len(u), len(m)))
    zs[:, levels.first] = u
    for i, (j, group) in enumerate(zip(levels.multi, levels.groups)):
        e = m[group] / np.linalg.norm(m[group])
        v = rng.standard_normal((len(u), len(group)))
        v -= (v @ e)[:, None] * e
        v *= np.sqrt(r[:, i] / np.sum(v**2, axis=1))[:, None]
        zs[:, group] = u[:, j, None] * e + v
    return zs


def _kernel_q(spec, state, zs):
    """The kernel's remainders ``Q`` of the full rows ``zs``, reduced at the state."""
    levels = analysis._Levels(spec)
    u, r = _reduce(levels, state.m, zs)
    (chunk,) = _chunks(levels, [analysis._At(spec, levels, state)], u, r, np.empty_like(u))
    return chunk.q


def sample_Q(spec, state, z):
    """The kernel's remainder ``Q`` on a one-row batch ``z``."""
    return float(_kernel_q(spec, state, np.asarray(z, dtype=float)[None, :])[0])


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
    m = np.array([5.0, 1.0, 1.0, 1.0])
    got = sample_Q(spec, _state(m, 1e-12), z)
    # Q of the reduced row as the kernel evaluates it: the quadratic formula's
    # row reduction on u, doubled, plus the chi-square part
    levels = analysis._Levels(spec)
    u, r = _reduce(levels, m, z[None, :])
    assert got == float((np.vecdot(levels.h * u, u) + r @ levels.h_multi)[0])


def _mp_remainder(spec, state, z):
    """``Q`` of the row ``z`` at the state by its definition, in mpmath at enough digits
    that ``f(m + sigma z) - f(m)`` keeps about 30 of them at any ``sigma``."""
    with mpmath.workdps(40 + 2 * max(0, -int(math.log10(state.sigma)))):
        sigma = mpmath.mpf(state.sigma)
        m, z = ([mpmath.mpf(float(v)) for v in vec] for vec in (state.m, z))
        coef = mpmath.mpf(PERTURB_AMP) / PERTURB_FREQ**2

        def f(x):
            return sum(h * xi**2 / 2 + coef * (1 - mpmath.cos(PERTURB_FREQ * xi))
                       for h, xi in zip(spec.diag, x))

        grad_z = sum((h * mi + mpmath.mpf(PERTURB_AMP) / PERTURB_FREQ
                      * mpmath.sin(PERTURB_FREQ * mi)) * zi for h, mi, zi in zip(spec.diag, m, z))
        step = f([mi + sigma * zi for mi, zi in zip(m, z)]) - f(m) - sigma * grad_z
        return float(2 * step / sigma**2)


@pytest.mark.parametrize("sigma", [1e-300, 1e-170, 1e-12, 1e-8, 1e-4, 1.0, 30.0, 1e10], ids=str)
def test_perturbed_kernel_q_matches_mpmath(sigma):
    # Q in closed form at every step size, from steps whose square underflows to steps
    # far past ||m||; 1e-8 bounds the rounding of sin x - x near x = 2e-8.
    spec = perturbed_family(6, 1)
    rng = np.random.default_rng(31)
    m, zs = 2.0 * rng.standard_normal(6), rng.standard_normal((10, 6))
    state = _state(m, sigma)
    for z, q in zip(zs, _kernel_q(spec, state, zs)):
        want = _mp_remainder(spec, state, z)
        assert abs(q - want) <= 1e-8 * abs(want), (q, want)


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


#: A state whose steps at sigma = 1e-17 and 1e-170 change f by far less than an ulp of f(m).
_TINY_STEP_M = np.array([0.3, -1.2, 2.0, 0.7])
_TINY_STEPS = pytest.mark.parametrize("spec, sigma", [
    (spec, sigma) for spec in (sphere(4), perturbed_family(4, 0)) for sigma in (1e-17, 1e-170)
], ids=[f"{kind}-{sigma:g}" for kind in ("sphere", "perturbed") for sigma in (1e-17, 1e-170)])


@_TINY_STEPS
def test_success_is_the_sign_of_the_exact_change_at_tiny_steps(spec, sigma):
    # f(m) + sigma change rounds to f(m) on every row; the sign of change does not,
    # and its success rate tends to 1/2 as sigma -> 0.
    est = estimate_success_prob(spec, _state(_TINY_STEP_M, sigma), 20_000, seed=3)
    assert est.stderr > 0.0
    assert abs(est.value - 0.5) <= 4.0 * est.stderr


@_TINY_STEPS
def test_relative_progress_does_not_cancel_at_tiny_steps(spec, sigma):
    # f(x) / f(m) - 1 rounds to 0 here, sigma change / f(m) does not.  As sigma -> 0, the
    # mean relative progress and log gain on success both tend to
    # -sigma ||grad f(m)|| / (f(m) sqrt(2 pi)); the sample's relative stderr is about 1%.
    state = _state(_TINY_STEP_M, sigma)
    limit = -sigma * spec.gradient_norm(state.m) / (spec.value(state.m) * math.sqrt(2 * math.pi))
    report = check_lemma_suite(spec, [state], 20_000, seed=3)
    assert report.ok, report.failures()
    progress = next(c for c in report.checks if c.name == "expected_progress_bound")
    gain = estimate_log_progress(spec, state, 20_000, seed=3)
    for value in (progress.lhs, gain.value):
        assert value == pytest.approx(limit, rel=0.05)


@pytest.mark.parametrize("spec", [sphere(4), perturbed_family(4, 0)], ids=["sphere", "perturbed"])
def test_progress_stderrs_do_not_underflow_at_tiny_steps(spec):
    # At sigma = 1e-170 a progress column's squares are below the smallest double;
    # in units of sigma's power of two they are not, and its relative stderr is that at 1e-17.
    def relative_stderrs(sigma):
        state = _state(_TINY_STEP_M, sigma)
        progress = next(c for c in check_lemma_suite(spec, [state], 20_000, seed=3).checks
                        if c.name == "expected_progress_bound")
        gain = estimate_log_progress(spec, state, 20_000, seed=3)
        assert progress.stderr > 0.0 and gain.stderr > 0.0
        return progress.stderr / abs(progress.lhs), gain.stderr / abs(gain.value)

    for tiny, small in zip(relative_stderrs(1e-170), relative_stderrs(1e-17)):
        assert tiny == pytest.approx(small, rel=1e-9)


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


def test_assumption2_closed_form_path_for_perturbed():
    spec = perturbed_family(24, 0)
    report = check_assumption2(spec, n=20_000, seed=4)
    assert not report.exact
    assert report.kappa_consistent
    assert report.holds == (report.margin > 0)
    assert len(report.states) == 32
    assert report.kappa_inf == pytest.approx(2.0, rel=0.1)
    assert report.kappa_consistent == all(s["kappa"] >= 1.0 for s in report.states)


def _random_perturbed_states(spec, count, rng):
    """``count`` states at distances 1e-2 to 1e2 and steps 1e-3 to 10 times ``||m|| / sqrt(d)``."""
    states = []
    for _ in range(count):
        m = rng.standard_normal(spec.dim) * 10.0 ** rng.uniform(-2.0, 2.0)
        sigma = np.linalg.norm(m) / math.sqrt(spec.dim) * 10.0 ** rng.uniform(-3.0, 1.0)
        states.append(_state(m, sigma))
    return states


@pytest.mark.parametrize("spec", [perturbed_family(10, 0), perturbed_family(30, 2)],
                         ids=["d10", "d30"])
def test_perturbed_closed_forms_match_monte_carlo(spec):
    # 20 random states and the state with every m_i = pi/3, each against its own stream.
    rng = np.random.default_rng(spec.dim)
    states = [*_random_perturbed_states(spec, 20, rng),
              _state(np.full(spec.dim, math.pi / 3), 0.538)]
    for seed, state in enumerate(states):
        mean, var, half = (float(np.sum(x)) for x in exact._perturbed_moments(spec, state))
        mc = estimate_q_stats(spec, state, 20_000, seed)
        assert abs(mean - mc.mean_q) <= 4.0 * mc.se_mean
        assert abs(var - mc.var_q) <= 4.0 * mc.se_var
        assert abs(half - mc.half_mean_q) <= 4.0 * mc.se_half


def _perturbed_coordinate_oracle(h, c, s, b):
    """``E[q]``, ``Var[q]`` and ``E[q; <z, b> <= 0]`` of one coordinate's remainder by
    ``mpmath.quad``, where the coordinate is ``z = b T + sqrt(1 - b^2) W``."""
    mp = mpmath.mp
    h, c, s, b = (mpmath.mpf(float(x)) for x in (h, c, s, b))
    amp = 2 * mpmath.mpf(PERTURB_AMP) / s**2

    def q(z):
        return h * z**2 + amp * (mp.cos(c) - mp.cos(c + s * z) - s * z * mp.sin(c))

    def expect(f):
        # |z| > 8 holds less than 1e-12 of any moment here
        return mp.quad(lambda z: f(z) * mp.npdf(z), mp.linspace(-8, 8, 8 + int(s)),
                       method="gauss-legendre")

    mean = expect(q)
    against = mp.sqrt(1 - b * b)
    return (mean, expect(lambda z: q(z) ** 2) - mean**2,
            expect(lambda z: q(z) * mp.ncdf(-b * z / against)))


@pytest.mark.parametrize("i, s", enumerate([1e-6, 1e-3, 0.1, 0.9, 1.1, 7.0, 100.0]))
def test_perturbed_closed_forms_match_quadrature(i, s):
    # Coordinate i % 3 of a 3-d state at omega * sigma = s: the series branches
    # (s < 1), the closed ones and both branches of Dawson's function.
    spec = ObjectiveSpec("quadratic_perturbed", 3, diag=np.array([0.7, 1.3, 4.0]))
    m = np.array([0.4, -1.1, 2.3])
    state = _state(m, s / PERTURB_FREQ)
    b = spec.gradient(m) / spec.gradient_norm(m)
    k = i % 3
    got = [x[k] for x in exact._perturbed_moments(spec, state)]
    with mpmath.workdps(30):
        want = _perturbed_coordinate_oracle(spec.diag[k], PERTURB_FREQ * m[k], s, b[k])
        for g, w in zip(got, want):
            assert abs((g - w) / w) < 1e-10, (g, w)


def test_dawson_matches_scipy():
    x = np.concatenate([np.linspace(-50.0, 50.0, 20_001), np.geomspace(1e-300, 50.0, 2_000)])
    x = np.concatenate([x, -x])
    dawson, gap = exact._dawson(x)
    ref = dawsn(x)
    assert np.all(np.abs(dawson - ref) <= 1e-12 * np.abs(ref))
    near = np.abs(x) < 0.5  # where x - F(x) is summed from its series
    assert np.allclose(gap[~near], x[~near] - ref[~near], rtol=1e-12, atol=0.0)


def test_quadratic_v_std_closed_form():
    assert q_extremes(sphere(50), n=1000, seed=0).v_std_sup == pytest.approx(2.0 / 50, rel=1e-15)


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


def test_analysis_re_exports_check_assumption2():
    # The benchmark's workloads still call it through esrate.analysis.
    assert analysis.check_assumption2 is exact.check_assumption2


def test_state_grid_spans_distances():
    # 8 distances from 1e-3 to 1e3 times sqrt(d), 2 directions and 2 step sizes each.
    report = check_assumption2(perturbed_family(6, 0), n=1000, seed=1)
    norms = np.array([s["m_norm"] for s in report.states])
    expected = np.repeat(np.geomspace(1e-3, 1e3, 8), 4) * math.sqrt(6)
    np.testing.assert_allclose(norms, expected, rtol=1e-9)
    assert len({s["log_sigma"] for s in report.states}) == 32


def _drift_constants():
    """The constants of the drift battery's surrogate at d = 50."""
    params = params_for_target(math.exp(1.0 / 50), 0.3)
    extremes = theory.QExtremes(0.0, 2.0, 50.0, 1.0)
    return theory.build_constants(extremes, params, 0.25, 0.45)


@pytest.fixture(scope="module")
def drift_setup():
    return sphere(50), _drift_constants()


def test_regime_classification(drift_setup):
    spec, constants = drift_setup
    m = np.full(50, 1.0)
    small = state_at_sigma_bar(spec, m, 0.25 * constants.b_high)
    mid = state_at_sigma_bar(spec, m, 0.5 * (constants.b_high + constants.b_low))
    large = state_at_sigma_bar(spec, m, 3.0 * constants.b_low)
    assert regime_of(spec, small, constants) == "small"
    assert regime_of(spec, mid, constants) == "reasonable"
    assert regime_of(spec, large, constants) == "large"


def test_drift_negative_in_reasonable_regime(drift_setup):
    spec, constants = drift_setup
    state = state_at_sigma_bar(spec, np.full(50, 1.0), 0.5 * (constants.b_high + constants.b_low))
    [est] = estimate_drift(spec, [state], constants, 20_000, seed=21)
    assert regime_of(spec, state, constants) == "reasonable"
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
    constants = _drift_constants()
    drift_state = state_at_sigma_bar(sph, np.full(50, 1.0), 0.5 * (constants.b_high + constants.b_low))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "ELEMS", elems)
        values = list(vars(estimate_q_stats(pert, _state(m, 0.2), 2_000, seed=1)).values())
        for est in (
            estimate_success_prob(h1, states[0], 2_000, seed=2),
            estimate_log_progress(h1, states[1], 2_000, seed=3),
            *estimate_drift(sph, [drift_state], constants, 2_000, seed=5),
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
@example(elems=100)  # 10 rows a chunk at d = 10, 33 at w = 3 (h1), 50 at w = 2 (sphere): >= 40 chunks
@example(elems=2_000 * 50)
def test_results_independent_of_chunk_size(one_chunk, elems):
    values, verdicts = _all_estimates(elems)
    ref_values, ref_verdicts = one_chunk
    assert verdicts == ref_verdicts
    for got, ref in zip(values, ref_values):
        assert math.isnan(ref) and math.isnan(got) or math.isclose(got, ref, rel_tol=1e-12)


def test_quadratic_q_is_z_hz_once_per_chunk_and_shared_by_every_state():
    spec = hessian_family("h2", 50, 2)
    m = RNG.standard_normal(50)
    states = [state_at_sigma_bar(spec, m * scale, s)
              for scale, s in ((1.0, 0.3), (1e-3, 3.0), (1e3, 1.0))]
    rows, seed = 1_000, 9
    seen = []

    def columns(chunk):
        seen.append(chunk.q)
        return [chunk.q]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "ELEMS", 300 * 50)  # chunks of 300, 300, 300 and 100 rows
        analysis._sample(spec, columns, states, rows, seed)
    rng = rng_stream(seed, 0, 0)
    for i, start in enumerate(range(0, rows, 300)):
        zs = rng.standard_normal((min(300, rows - start), 50))
        first, *others = seen[3 * i: 3 * i + 3]
        assert np.array_equal(first, np.vecdot(spec.diag * zs, zs))
        assert all(np.array_equal(q, first) for q in others)
    assert len(seen) == 12


_CANDIDATE_SPECS = {
    "sphere": sphere,
    "flat": lambda dim: quadratic_diag([2.0] * dim),
    **{family: lambda dim, family=family: hessian_family(family, dim, 2)
       for family in ("h1", "h2", "h3")},
    "perturbed": lambda dim: perturbed_family(dim, 2),
    "perturbed_flat": lambda dim: perturbed_family(dim, 0),  # equal entries, never merged
}


@pytest.mark.parametrize("family, dim", [
    *((family, dim) for family in ("h1", "h2", "h3", "sphere", "perturbed", "perturbed_flat")
      for dim in (10, 100, 1000)),
    ("flat", 6),
], ids=str)
def test_quadratic_candidate_values_match_direct_evaluation(family, dim):
    # Each state reads the same reduced rows in its own basis: a full row rebuilt
    # from them at that state gives the chunk's candidate values.  On h2 and
    # perturbed every level is one coordinate, so the rebuilt row is u itself.
    # No candidate is formed: f(m) + step is the expansion in Q on an accepted
    # row, and f(m) on a rejected one, whose step is 0.
    spec = _CANDIDATE_SPECS[family](dim)
    levels = analysis._Levels(spec)
    rng = np.random.default_rng(dim)
    trace = float(np.sum(spec.diag))
    states = [_state(m, s * spec.gradient_norm(m) / trace)
              for m, s in ((rng.standard_normal(dim), s) for s in (0.1, 1.0, 10.0))]
    u = rng.standard_normal((2_000, len(levels.h)))
    r = 2.0 * rng.standard_gamma(levels.half_dof, size=(2_000, len(levels.multi)))
    ats = [analysis._At(spec, levels, state) for state in states]
    for state, chunk in zip(states, _chunks(levels, ats, u, r, np.empty_like(u))):
        zs = _rebuild(levels, state.m, u, r, rng)
        direct = spec.value_many(state.m + state.sigma * zs)
        assert np.array_equal(chunk.success, direct <= spec.value(state.m))
        assert np.allclose((chunk.f_m + chunk.step)[chunk.success], direct[chunk.success],
                           rtol=1e-13, atol=0.0)
        assert np.all(chunk.step[~chunk.success] == 0.0)


@pytest.mark.parametrize("spec", [hessian_family("h1", 50, 2), sphere(50)], ids=["h1", "sphere"])
def test_reduced_rows_have_the_law_of_full_rows(spec):
    # Every lemma-suite column mean of the kernel agrees with a Monte Carlo over
    # full d-wide rows, drawn here, within 4 combined standard errors.  The
    # kernel's relative progress is in units of 2^e (analysis._unit).
    n, trace = 200_000, float(np.sum(spec.diag))
    rng = np.random.default_rng(23)
    states = [state_at_sigma_bar(spec, rng.standard_normal(50), s) for s in (0.3, 1.0, 3.0)]
    kernel = analysis._sample(spec, analysis._lemma_columns, states, n, seed=8)
    for state, moments in zip(states, kernel):
        f_m, grad = spec.value(state.m), spec.gradient(state.m)
        e = analysis._unit(state.sigma)
        parts = []
        for _ in range(10):
            zs = rng.standard_normal((n // 10, 50))
            fx = spec.value_many(state.m + state.sigma * zs)
            q, succ = np.vecdot(spec.diag * zs, zs), fx <= f_m
            parts.append(np.array([q, q * (zs @ grad <= 0.0), (q - trace) ** 2,
                                   np.ldexp(np.where(succ, fx / f_m - 1.0, 0.0), -e),
                                   np.where(succ, f_m / np.maximum(fx, 1e-300), 1.0), succ]))
        ref = np.concatenate(parts, axis=1)
        ref_se = ref.std(axis=1, ddof=1) / math.sqrt(n)
        se = np.sqrt(np.diag(moments.comoment) / ((moments.n - 1) * moments.n))
        assert moments.n == n
        assert np.all(np.abs(moments.mean - ref.mean(axis=1)) <= 4.0 * np.hypot(se, ref_se))


def test_reduced_rows_survive_gradient_entries_near_1e200():
    # gamma of the level of the two 1e200 entries is 1e200 * ||m||, never a squared norm.
    spec = hessian_family("h1", 3, 200)
    state = state_at_sigma_bar(spec, np.array([0.5, 1.0, -2.0]), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = [estimate_success_prob(spec, state, 2_000, seed=1),
                     estimate_log_progress(spec, state, 2_000, seed=1)]
    assert all(math.isfinite(x) for est in estimates for x in (est.value, est.stderr))
    assert 0.0 < estimates[0].value < 1.0 and estimates[1].value < 0.0


@pytest.mark.parametrize("log_sigma", [math.log(1e200), 700.0], ids=["1e200", "700"])
def test_estimators_at_a_huge_step_raise_no_float_warning(log_sigma):
    # sigma^2 Q / 2 passes the float range on every row, and no row is accepted. A
    # rejected row's step is 0, and a standard error whose weights overflow is NaN,
    # so the one check that reads them is inconclusive.
    spec = sphere(4)
    state = EsState(np.array([0.3, -1.2, 2.0, 0.7]), log_sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_lemma_suite(spec, [state], 20_000, seed=3)
        estimates = [estimate_success_prob(spec, state, 20_000, seed=3),
                     estimate_log_progress(spec, state, 20_000, seed=3),
                     *estimate_drift(spec, [state], _drift_constants(), 20_000, seed=3)]
        stats = estimate_q_stats(spec, state, 20_000, seed=3)
    assert {c.name for c in report.checks if c.verdict == "inconclusive"} == {
        "expected_progress_bound"}
    assert estimates[0] == analysis.EstimateWithError(0.0, 0.0)
    assert estimates[1] == analysis.EstimateWithError(0.0, 0.0)
    assert all(math.isfinite(x) for x in (estimates[2].value, estimates[2].stderr))
    assert abs(stats.mean_q - quadratic_q_exact(spec)[0]) <= 4.0 * stats.se_mean


def test_moments_of_q_past_the_float_range_fail_at_the_boundary():
    # E[Q^2] ~ 1e400: every estimator of Q's moments raises before drawing a row.
    spec = hessian_family("h1", 3, 200)
    state = state_at_sigma_bar(spec, np.array([0.5, 1.0, -2.0]), 1.0)
    calls = [lambda: estimate_q_stats(spec, state, 2_000, seed=1),
             lambda: check_lemma_suite(spec, [state], 2_000, seed=1),
             lambda: check_assumption2(spec, n=2_000, seed=1),
             lambda: q_extremes(spec, n=2_000, seed=1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match="second moment of Q"):
                call()


def test_a_fourth_moment_of_q_past_the_float_range_fails_before_any_row_is_drawn(monkeypatch):
    # The variance's standard error sums Q^4 ~ 1e(4 kappa) over the n = 2000 rows, past the
    # float range from about kappa = 77, though E[Q^2] stays within it up to kappa = 150.
    def calls(kappa):
        spec = hessian_family("h1", 3, kappa)
        state = state_at_sigma_bar(spec, np.array([0.5, 1.0, -2.0]), 1.0)
        return [lambda: estimate_q_stats(spec, state, 2_000, seed=1),
                lambda: check_lemma_suite(spec, [state], 2_000, seed=1)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls(60):
            call()
        _no_rows(monkeypatch)
        for kappa in (80, 100, 150):
            for call in calls(kappa):
                with pytest.raises(ValueError, match="fourth moment of Q"):
                    call()


def test_se_var_matches_two_pass_long_double_reference():
    spec = sphere(1000)
    state = state_at_sigma_bar(spec, np.random.default_rng(11).standard_normal(1000), 1.0)
    n, seed = 20_000, 4
    stats = estimate_q_stats(spec, state, n, seed)
    # the same reduced rows, drawn from the call's one stream in the kernel's chunks
    levels = analysis._Levels(spec)
    rows = analysis.ELEMS // levels.width
    at = analysis._At(spec, levels, state)
    normals, chi_squares = rng_stream(seed, 0, 0), rng_stream(seed, 1, 0)
    q = []
    for start in range(0, n, rows):
        k = min(rows, n - start)
        u = normals.standard_normal((k, len(levels.h)))
        r = 2.0 * chi_squares.standard_gamma(levels.half_dof, size=(k, len(levels.multi)))
        q.append(next(_chunks(levels, [at], u, r, np.empty_like(u))).q)
    assert len(q) > 1  # several chunks
    q = np.concatenate(q).astype(np.longdouble)
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
    # The call's reduced rows: h1 has a level of one coordinate (h = 1) and one of
    # nine (h = 10), so a row is their two normals, from stream (seed, 0, 0), and the
    # chi-square with 8 degrees of freedom of the nine, from stream (seed, 1, 0).
    u = rng_stream(seed, 0, 0).standard_normal((n, 2))
    r = 2.0 * rng_stream(seed, 1, 0).standard_gamma(4.0, size=n)
    zg = u[:, 0] * grad[0] + u[:, 1] * np.linalg.norm(grad[1:])
    q = u[:, 0] ** 2 + 10.0 * (u[:, 1] ** 2 + r)
    fx = f_m + sigma * (zg + 0.5 * sigma * q)
    succ = fx <= f_m
    rel = np.where(succ, fx / f_m - 1.0, 0.0)
    q_against = q * (zg <= 0.0)
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


def test_kernel_reuses_its_work_arrays():
    # Fresh chunk-sized temporaries cost about 97k minor page faults here.
    spec = sphere(1000)
    state = state_at_sigma_bar(spec, np.random.default_rng(1).standard_normal(1000), 1.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_q_stats(spec, state, 20_000, seed=3)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 78_000 // 4


class _SpyGenerator:
    """A generator that passes every ``standard_normal`` and ``standard_gamma`` draw to ``seen``."""

    def __init__(self, rng, seen):
        self.rng, self.seen = rng, seen

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        self.seen(out)
        return out

    def standard_gamma(self, *args, **kwargs):
        out = self.rng.standard_gamma(*args, **kwargs)
        self.seen(out)
        return out


def _no_rows(monkeypatch):
    """Make the test fail if the kernel draws a row."""
    def drawn(out):
        raise AssertionError("a row was drawn on bad input")

    monkeypatch.setattr(analysis, "rng_stream", lambda *key: _SpyGenerator(rng_stream(*key), drawn))


_SAMPLERS = {
    "q_stats": estimate_q_stats,
    "success_prob": estimate_success_prob,
    "log_progress": estimate_log_progress,
    "lemma_suite": lambda spec, state, n, seed: check_lemma_suite(spec, [state], n, seed),
    "drift": lambda spec, state, n, seed: estimate_drift(spec, [state], _drift_constants(),
                                                         n, seed),
}


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


# -- one row stream per call, shared by its states ------------------------------------


def _suite_states(spec):
    m = np.random.default_rng(5).standard_normal(spec.dim)
    return [_state(m, 0.05), _state(m, 0.5), _state(2.0 * m, 2.0), _state(-m, 0.3)]


@pytest.mark.parametrize("spec", [hessian_family("h1", 8, 1), perturbed_family(8, 1)],
                         ids=["h1", "perturbed"])
def test_each_state_of_a_suite_gets_the_checks_of_a_suite_at_it_alone(spec):
    states = _suite_states(spec)
    joint = check_lemma_suite(spec, states, 3_000, seed=9).checks
    alone = [c for st in states for c in check_lemma_suite(spec, [st], 3_000, seed=9).checks]
    # repr spells every float exactly, NaN included.
    assert [repr(astuple(replace(c, state_id=""))) for c in joint] == [
        repr(astuple(replace(c, state_id=""))) for c in alone]
    per_state = len(joint) // len(states)
    assert [c.state_id for c in joint] == [str(i) for i in range(4) for _ in range(per_state)]


@pytest.mark.parametrize("spec", [hessian_family("h1", 8, 1), perturbed_family(8, 1)],
                         ids=["h1", "perturbed"])
def test_each_state_of_a_drift_call_gets_the_estimate_of_a_call_at_it_alone(spec):
    constants = _drift_constants()
    states = _suite_states(spec)
    joint = estimate_drift(spec, states, constants, 3_000, seed=9)
    alone = [est for st in states
             for est in estimate_drift(spec, [st], constants, 3_000, seed=9)]
    assert repr(joint) == repr(alone)


def test_drift_regimes_on_a_non_quadratic_spec_are_the_exact_regimes():
    spec = perturbed_family(8, 1)
    constants = _drift_constants()
    m = np.random.default_rng(6).standard_normal(8)
    # sigma_bar from far below b_high to far above b_low: all three regimes
    states = [_state(m, s * spec.gradient_norm(m) / float(np.sum(spec.diag)))
              for s in (0.01, 0.5 * (constants.b_high + constants.b_low), 100.0)]
    regimes = [regime_of(spec, st, constants) for st in states]
    assert regimes == ["small", "reasonable", "large"]


@pytest.mark.parametrize("sigma", [0.01, 0.3, 3.0])
def test_sigma_bar_on_perturbed_uses_the_exact_mean_of_q(sigma):
    spec, n = perturbed_family(8, 1), 20_000
    state = _state(np.random.default_rng(12).standard_normal(8), sigma)
    mean_q = float(np.sum(exact._perturbed_moments(spec, state)[0]))
    assert sigma_bar(spec, state) == state.sigma * mean_q / spec.gradient_norm(state.m)
    stats = estimate_q_stats(spec, state, n, seed=8)
    assert abs(mean_q - stats.mean_q) <= 4.0 * stats.se_mean


def test_sigma_bar_on_perturbed_survives_a_step_whose_square_underflows():
    # (omega sigma)^2 is 0.0 here; E[Q] is then its limit sum(h_i + a cos(omega m_i)).
    spec, m = perturbed_family(8, 1), np.linspace(-1.0, 1.0, 8)
    state = _state(m, 1e-170)
    mean_q = float(np.sum(spec.diag + PERTURB_AMP * np.cos(PERTURB_FREQ * m)))
    assert sigma_bar(spec, state) == pytest.approx(state.sigma * mean_q / spec.gradient_norm(m),
                                                   rel=1e-15)


def test_sigma_bar_near_the_optimum_reads_the_gradient_norm_past_its_square():
    # ||m||^2 underflows to 0 here, while ||m|| = sqrt(3) 1e-170 is a normal float.
    m = np.full(3, 1e-170)
    state = _state(m, 1e-170)
    assert sigma_bar(sphere(3), state) == state.sigma * 3.0 / math.hypot(*m)


@pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e-162], ids=str)
def test_norms_whose_square_is_subnormal_keep_every_digit(scale):
    # ||m||^2 lies below sys.float_info.min here, a subnormal that has lost digits.
    m = np.full(3, scale)
    norm = math.hypot(*m)
    assert sphere(3).gradient_norm(m) == pytest.approx(norm, rel=1e-15)
    assert sigma_bar(sphere(3), EsState(m, 0.0)) == pytest.approx(3.0 / norm, rel=1e-15)
    # A steep quadratic keeps f(m) above 0, which run needs at the start point.
    traj = run(quadratic_diag([1e20] * 3), EsParams(math.e, math.e**-0.25), EsState(m, 0.0), 1)
    assert traj.log_dist[0] == pytest.approx(math.log(norm), rel=1e-15)


def test_exact_q_on_perturbed_at_a_step_whose_square_underflows_is_its_limit():
    # As sigma -> 0, E[Q], Var[Q] and the half mean tend to (sum k, 2 sum k^2, sum k / 2)
    # with k = h + a cos(omega m); the half mean's odd part, of order omega sigma, vanishes.
    spec, m = perturbed_family(4, 0), np.array([0.3, -1.2, 2.0, 0.7])
    k = spec.diag + PERTURB_AMP * np.cos(PERTURB_FREQ * m)
    got = exact._exact_q(spec, _state(m, 1e-170))
    want = (float(np.sum(k)), float(2.0 * np.sum(k * k)), float(0.5 * np.sum(k)))
    assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("sigma", [1e-12, 1e-170], ids=str)
def test_q_stats_on_perturbed_at_tiny_steps_match_the_exact_moments(sigma):
    spec, m = perturbed_family(4, 0), np.array([0.3, -1.2, 2.0, 0.7])
    state = _state(m, sigma)
    mean, var, half = exact._exact_q(spec, state)
    stats = estimate_q_stats(spec, state, 20_000, seed=3)
    assert abs(stats.mean_q - mean) <= 4.0 * stats.se_mean
    assert abs(stats.var_q - var) <= 4.0 * stats.se_var
    assert abs(stats.half_mean_q - half) <= 4.0 * stats.se_half


#: Bad input that every sampler of ``_SAMPLERS`` rejects: ``(spec, m, n, seed, words)``.
_BAD_SAMPLES = {
    "composite": (make_composite(sphere(3), "identity", np.zeros(3)), np.ones(3), 1000, 0,
                  "non-composite"),
    "small_n": (sphere(3), np.ones(3), 999, 0, "need n >= 1000"),
    "negative_seed": (sphere(3), np.ones(3), 1000, -1, "seed must be"),
    "at_optimum": (sphere(3), np.zeros(3), 1000, 0, "state 0 must be off the optimum"),
}


def _hostile_calls():
    """Calls on bad input, by name, with the words their ``ValueError`` must contain."""
    constants = _drift_constants()
    params = EsParams(constants.alpha_up, constants.alpha_down)
    at_optimum = _state(np.zeros(3), 1.0)
    # f(m) is inf at the far point and underflows to 0 at the near one, off the optimum.
    far, near = _state(np.full(3, 1e200), 1.0), _state(np.full(3, 1e-170), 1e-170)

    def off(where, f_m):
        return (f"{where} must be off the optimum and within the float range: "
                f"f(m) = {f_m} is 0 or not finite")

    samples = {f"{name}_{case}": (partial(sampler, spec, _state(m, 1.0), n, seed), words)
               for name, sampler in _SAMPLERS.items()
               for case, (spec, m, n, seed, words) in _BAD_SAMPLES.items()}
    return samples | {
        "lemma_suite_empty_states": (lambda: check_lemma_suite(sphere(5), [], 1000, 0),
                                     "at least one state"),
        "success_prob_f_overflows": (lambda: estimate_success_prob(sphere(3), far, 1000, 0),
                                     off("state 0", "inf")),
        "lemma_suite_f_overflows": (lambda: check_lemma_suite(
            sphere(3), [_state(np.ones(3), 1.0), far], 1000, 0), off("state 1", "inf")),
        "run_start_f_overflows": (lambda: run(sphere(3), params, far, 10),
                                  off("the start point", "inf")),
        "regime_f_overflows": (lambda: regime_of(sphere(3), far, constants),
                               off("the state", "inf")),
        "log_progress_f_underflows": (lambda: estimate_log_progress(sphere(3), near, 1000, 0),
                                      off("state 0", "0.0")),
        "drift_f_underflows": (lambda: estimate_drift(sphere(3), [near], constants,
                                                      1000, 0), off("state 0", "0.0")),
        "lemma_suite_f_underflows": (lambda: check_lemma_suite(sphere(3), [near], 1000, 0),
                                     off("state 0", "0.0")),
        "lemma_suite_perturbed_f_zero": (lambda: check_lemma_suite(
            perturbed_family(3, 0), [near], 1000, 0), off("state 0", "0.0")),
        "run_start_f_underflows": (lambda: run(sphere(3), params, near, 10),
                                   off("the start point", "0.0")),
        "regime_f_underflows": (lambda: regime_of(sphere(3), near, constants),
                                off("the state", "0.0")),
        "q_stats_nan_m": (lambda: estimate_q_stats(
            sphere(3), _state([math.nan, 1.0, 1.0], 1.0), 1000, 0), "state 0: m must be finite"),
        "success_prob_sigma_overflows": (lambda: estimate_success_prob(
            sphere(3), EsState(np.ones(3), 800.0), 1000, 0), "log_sigma = 800.0"),
        "lemma_suite_sigma_zero": (lambda: check_lemma_suite(
            perturbed_family(3, 0), [_state(np.ones(3), 1.0), EsState(np.ones(3), -800.0)],
            1000, 0), "state 1: log_sigma = -800.0"),
        "log_progress_sigma_subnormal": (lambda: estimate_log_progress(
            sphere(4), _state([0.3, -1.2, 2.0, 0.7], 5e-324), 20_000, 3),
            "log_sigma = -744.4400719213812 is outside (log(sys.float_info.min) = -708.396419"),
        "sigma_bar_at_optimum": (lambda: sigma_bar(sphere(3), at_optimum), "off the optimum"),
        "regime_at_optimum": (lambda: regime_of(sphere(3), at_optimum, constants),
                              "off the optimum"),
        "state_at_sigma_bar_at_optimum": (lambda: state_at_sigma_bar(sphere(3), np.zeros(3), 1.0),
                                          "off the optimum"),
        "state_at_sigma_bar_negative_target": (
            lambda: state_at_sigma_bar(sphere(3), np.ones(3), -1.0), "target_sigma_bar"),
        "hessian_family_fractional_dim": (lambda: hessian_family("h1", 1.5, 0),
                                          "dim must be a positive integer, got 1.5"),
        "sphere_fractional_dim": (lambda: sphere(2.5), "dim must be a positive integer"),
        "perturbed_fractional_dim": (lambda: perturbed_family(2.5, 0),
                                     "dim must be a positive integer"),
        "q_stats_float_n": (lambda: estimate_q_stats(sphere(3), _state(np.ones(3), 1.0), 1500.5, 0),
                            "need n >= 1000 mutation rows, an integer, for stable estimates, "
                            "got 1500.5"),
        "lemma_suite_float_n": (lambda: check_lemma_suite(
            sphere(4), [_state(np.ones(4), 1.0)], 1500.5, 0), "an integer, for stable estimates, got 1500.5"),
        "drift_report_float_n": (lambda: drift_report(n=1500.5, seed=0), "an integer, for stable "
                                 "estimates, got 1500.5"),
        "assumption2_float_n": (lambda: check_assumption2(sphere(3), n=1500.5, seed=0),
                                "an integer, for stable estimates, got 1500.5"),
        "invariance_float_n_seeds": (lambda: invariance_report(n_seeds=1.5, base_seed=0),
                                     "n_seeds must be a positive integer, got 1.5"),
        "invariance_float_base_seed": (lambda: invariance_report(n_seeds=1, base_seed=1.5),
                                       "seed must be a non-negative integer, got 1.5"),
        "success_prob_float_seed": (lambda: estimate_success_prob(
            sphere(3), _state(np.ones(3), 1.0), 1000, 2.0), "seed must be a non-negative integer, got 2.0"),
        "run_float_seed": (lambda: run(sphere(3), params, _state(np.ones(3), 1.0), 50, seed=3.0),
                           "seed must be a non-negative integer, got 3.0"),
        "init_default_float_seed": (lambda: init_default(sphere(3), 1.5),
                                    "seed must be a non-negative integer, got 1.5"),
        "run_float_budget": (lambda: run(sphere(3), params, _state(np.ones(3), 1.0), 50.0),
                             "budget must be a positive integer, got 50.0"),
        "value_scalar_point": (lambda: sphere(3).value(3.0), "point has dim 0, spec has dim 3"),
        "gradient_norm_scalar_point": (lambda: sphere(3).gradient_norm(3.0),
                                       "point has dim 0, spec has dim 3"),
        "value_2d_point": (lambda: sphere(3).value(np.ones((2, 3))),
                           "point has dim 3, spec has dim 3: shape (2, 3), expected (dim,)"),
        "gradient_norm_2d_point": (lambda: sphere(3).gradient_norm(np.ones((2, 3))),
                                   "shape (2, 3), expected (dim,)"),
        "value_many_1d_points": (lambda: sphere(3).value_many(np.ones(3)),
                                 "point has dim 3, spec has dim 3: shape (3,), expected (n, dim)"),
        "params_for_rule_fractional_dim": (lambda: params_for_rule("sqrt", 2.5),
                                           "dim must be a positive integer, got 2.5"),
        "params_for_rule_bool_dim": (lambda: params_for_rule("const", True),
                                     "dim must be a positive integer, got True"),
        "lower_rate_bound_fractional_dim": (lambda: lower_rate_bound(2.5),
                                            "dim must be a positive integer, got 2.5"),
        "to_csv_float_thin": (lambda: run(sphere(3), params, _state(np.ones(3), 1.0), 5).to_csv(
            os.devnull, thin=1.5), "thin must be a positive integer, got 1.5"),
        "to_csv_str_thin": (lambda: run(sphere(3), params, _state(np.ones(3), 1.0), 5).to_csv(
            os.devnull, thin="2"), "thin must be a positive integer, got '2'"),
        "quadratic_diag_inf_entry": (lambda: quadratic_diag([math.inf, 1.0]),
                                     "Hessian diagonal entries must be finite and positive"),
    }


@pytest.mark.parametrize("name", list(_hostile_calls()))
def test_hostile_input_raises_a_value_error_naming_it(monkeypatch, name):
    call, words = _hostile_calls()[name]
    _no_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(words)):
            call()


def test_state_helpers_reject_a_composite():
    constants = _drift_constants()
    spec = make_composite(sphere(3), "identity", np.zeros(3))
    state = _state(np.ones(3), 1.0)
    with pytest.raises(ValueError, match="non-composite"):
        sigma_bar(spec, state)
    with pytest.raises(ValueError, match="non-composite"):
        regime_of(spec, state, constants)


def test_no_kernel_row_repeats_a_draw_from_a_one_element_key(monkeypatch):
    # Acceptance criterion 5 draws a state from rng_stream(seed, 5); a call whose
    # rows came from a one-element key would start with such a state as a row.
    spec, n, seed = hessian_family("h2", 100, 1), 20_000, 5  # one coordinate a level: w = d
    assert analysis._Levels(spec).width == spec.dim
    state_draws = np.array([rng_stream(seed, k).standard_normal(100) for k in range(6)])
    drawn, repeats = [], []

    def seen(out):
        drawn.append(out.size)
        rows = out.reshape(-1, 100)
        repeats.append(int(np.sum(np.all(rows[:, None, :] == state_draws, axis=2))))

    monkeypatch.setattr(analysis, "rng_stream", lambda *key: _SpyGenerator(rng_stream(*key), seen))
    estimate_q_stats(spec, _state(state_draws[0], 1.0), n, seed)
    assert sum(drawn) == n * spec.dim
    assert sum(repeats) == 0


def test_a_suite_draws_its_rows_once_for_all_states(monkeypatch):
    drawn = []
    monkeypatch.setattr(analysis, "rng_stream", lambda *key: _SpyGenerator(
        rng_stream(*key), lambda out: drawn.append(out.size)))
    for spec, n, width in (
        (hessian_family("h2", 1000, 1), 5_000, 1000),  # one normal per coordinate
        (perturbed_family(300, 0), 15_000, 300),  # equal entries, one level per coordinate
        (hessian_family("h1", 4, 1), 20_000, 3),  # two normals and a chi-square a row
    ):
        drawn.clear()
        assert analysis._Levels(spec).width == width
        report = check_lemma_suite(spec, _suite_states(spec)[:3], n, seed=2)
        assert len(report.checks) == 3 * 12
        assert sum(drawn) == n * width


def test_a_call_past_2_21_draws_reads_one_stream_and_starts_no_pool(monkeypatch):
    # Whatever its size and the worker count, a call draws its rows from the keys
    # (seed, 0, 0) and (seed, 1, 0) only, in the calling process.
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("ES_RATE_THREADS", "2")

    def no_pool(*args, **kwargs):
        raise AssertionError("a Monte Carlo call started a process pool")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    keys, drawn = [], []

    def streams(*key):
        keys.append(key)
        return _SpyGenerator(rng_stream(*key), lambda out: drawn.append(out.size))

    monkeypatch.setattr(analysis, "rng_stream", streams)
    monkeypatch.setattr(exact, "rng_stream", streams)  # the seed check's stream
    spec, seed = hessian_family("h2", 1000, 1), 3  # w = d
    n = 2**21 // spec.dim + 100
    assert n * analysis._Levels(spec).width > 2**21
    report = check_lemma_suite(spec, _suite_states(spec)[:3], n, seed)
    assert len(report.checks) == 3 * 12
    assert sum(drawn) == n * spec.dim
    assert keys == [(seed,), (seed, 0, 0), (seed, 1, 0)]  # the first checks the seed


def _h1_suite(n, seed):
    spec = hessian_family("h1", 10, 1)
    m = rng_stream(seed, 3).standard_normal(10)
    return check_lemma_suite(spec, [state_at_sigma_bar(spec, m, s)
                                    for s in np.geomspace(0.1, 10.0, 5)], n, seed)


_INLINE_CALLS = {
    "h1_suite": lambda: _h1_suite(50_000, seed=1),
    "assumption2": lambda: check_assumption2(perturbed_family(30, 2), n=5_000, seed=1),
    "q_stats_d1000": lambda: estimate_q_stats(
        sphere(1000), _state(np.random.default_rng(1).standard_normal(1000), 1.0), 20_000, seed=3),
}


@pytest.mark.parametrize("call", list(_INLINE_CALLS))
def test_an_inline_call_keeps_its_memory_small(call):
    # A call allocates its chunk's work arrays and per-state columns in the
    # calling process.
    tracemalloc.start()
    try:
        _INLINE_CALLS[call]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak
