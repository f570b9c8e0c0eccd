import math

import numpy as np
import pytest

from esrate.engine import EsState, Trajectory, init_default, params_for_rule, run
from esrate.objectives import hessian_family, make_composite, perturbed_family, sphere
from esrate.rates import (
    estimate_cr,
    lower_rate_bound,
    ols_slope,
    scaled_rate,
)


def synthetic(t_final, slope, intercept=3.0, noise=None, seed=0):
    t = np.arange(t_final + 1, dtype=float)
    log_dist = intercept + slope * t
    if noise is not None:
        log_dist = log_dist + np.random.default_rng(seed).normal(0, noise, t_final + 1)
    return Trajectory(
        log_dist=log_dist,
        log_f=2.0 * log_dist,
        log_sigma=np.zeros(t_final + 1),
        success=np.zeros(t_final, dtype=bool),
        stop_reason="budget",
        final_state=EsState(np.ones(2), 0.0),
    )


def test_exact_line_recovered():
    est = estimate_cr(synthetic(1000, -0.01))
    assert est.cr_hat == pytest.approx(0.01, abs=1e-14)
    assert est.stderr == pytest.approx(0.0, abs=1e-14)
    assert est.window == (901, 1000)


def test_window_follows_truncated_run():
    est = estimate_cr(synthetic(500, -0.02))
    assert est.window == (451, 500)


def test_window_too_short_rejected():
    with pytest.raises(ValueError):
        estimate_cr(synthetic(50, -0.02))
    with pytest.raises(ValueError):
        estimate_cr(synthetic(1000, -0.01), window_frac=2.0)


def test_ols_translation_and_scale_covariance():
    rng = np.random.default_rng(5)
    x = np.arange(200.0)
    y = 1.0 - 0.03 * x + rng.normal(0, 0.1, 200)
    slope, _ = ols_slope(x, y)
    shifted, _ = ols_slope(x, y + 11.5)
    assert shifted == pytest.approx(slope, rel=1e-12)
    scaled, _ = ols_slope(4.0 * x, y)
    assert scaled == pytest.approx(slope / 4.0, rel=1e-12)


def test_rate_invariant_under_monotone_transform():
    spec = hessian_family("h1", 6, 1)
    params = params_for_rule("const", 6)
    init = init_default(spec, 4)
    base = run(spec, params, init, 3000, seed=4)
    comp = make_composite(spec, "exp_minus_one", np.zeros(6))
    wrapped = run(comp, params, init, 3000, seed=4)
    assert estimate_cr(base).cr_hat == estimate_cr(wrapped).cr_hat


def test_log_value_series_measures_same_rate():
    spec = sphere(30)
    params = params_for_rule("const", 30)
    traj = run(spec, params, init_default(spec, 12), 40_000, seed=12)
    dist_rate = estimate_cr(traj, series="log_dist").cr_hat
    value_rate = estimate_cr(traj, series="log_f_half").cr_hat
    assert value_rate == pytest.approx(dist_rate, rel=0.2)


def test_lower_rate_bound_values():
    assert lower_rate_bound(10) == 0.1
    assert lower_rate_bound(100) == 0.01
    with pytest.raises(ValueError):
        lower_rate_bound(0)


def test_scaled_rate_uses_trace():
    est = estimate_cr(synthetic(1000, -0.01))
    assert scaled_rate(est, sphere(10)) == pytest.approx(0.1)
    assert scaled_rate(est, hessian_family("h1", 3, 1)) == pytest.approx(0.21)


def test_scaled_rate_uses_dim_times_smoothness_off_quadratics():
    est = estimate_cr(synthetic(1000, -0.01))
    spec = perturbed_family(4, 0)
    assert scaled_rate(est, spec) == est.cr_hat * 4 * spec.smoothness / spec.strong_convexity
    assert scaled_rate(est, spec) == pytest.approx(0.01 * 4 * 1.5 / 0.5)


def test_nonfinite_window_rejected():
    traj = synthetic(1000, -0.01)
    bad = traj.log_dist.copy()
    bad[950] = -np.inf
    broken = Trajectory(
        log_dist=bad, log_f=traj.log_f, log_sigma=traj.log_sigma,
        success=traj.success, stop_reason="budget", final_state=traj.final_state,
    )
    with pytest.raises(ValueError):
        estimate_cr(broken)
