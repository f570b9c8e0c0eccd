import dataclasses
import math
import os
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from esrate import engine, objectives, pool
from esrate.engine import (
    ALPHA_RULES,
    EsParams,
    EsState,
    Trajectory,
    default_sigma0,
    init_default,
    p_target,
    params_for_rule,
    params_for_target,
    run,
    run_many,
)
from esrate.objectives import (
    TRANSFORMS,
    hessian_family,
    make_composite,
    perturbed_family,
    sphere,
)
from esrate.verify import invariance_report


def test_p_target_one_fifth():
    assert p_target(EsParams(math.e, math.e**-0.25)) == pytest.approx(0.2, abs=1e-15)


def test_p_target_symmetric_factors():
    assert p_target(EsParams(2.0, 0.5)) == pytest.approx(0.5, abs=1e-15)


def test_p_target_asymmetric():
    assert p_target(EsParams(math.exp(0.3), math.exp(-0.1))) == pytest.approx(0.25, abs=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        EsParams(0.9, 0.5)
    with pytest.raises(ValueError):
        EsParams(2.0, 1.5)


def test_params_for_rule():
    assert params_for_rule("const", 100).alpha_up == pytest.approx(math.e)
    assert params_for_rule("sqrt", 100).alpha_up == pytest.approx(math.exp(0.1))
    assert params_for_rule("dim", 100).alpha_up == pytest.approx(math.exp(0.01))
    with pytest.raises(ValueError):
        params_for_rule("bogus", 10)


def test_params_for_target_hits_probability():
    params = params_for_target(math.exp(0.01), 0.3)
    assert p_target(params) == pytest.approx(0.3, abs=1e-12)


def test_run_rejects_bad_start_shape():
    params = EsParams(2.0, 0.5)
    with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
        run(sphere(2), params, EsState(np.ones(3), 0.0), budget=10)
    with pytest.raises(ValueError, match=r"shape \(2, 2\), expected \(2,\)"):
        run(sphere(2), params, EsState(np.ones((2, 2)), 0.0), budget=10)


def test_step_tie_accepts():
    # sigma = 1e-300 vanishes against m = 1: the candidate equals the incumbent bit for bit.
    params = EsParams(math.e, math.e**-0.25)
    traj = run(sphere(2), params, EsState(np.ones(2), math.log(1e-300)), budget=1)
    assert traj.success[0]
    assert traj.log_f[1] == traj.log_f[0]
    assert traj.log_sigma[1] == traj.log_sigma[0] + math.log(params.alpha_up)


def test_run_rejects_zero_budget():
    init = EsState(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        run(sphere(2), EsParams(2.0, 0.5), init, budget=0)


@pytest.mark.parametrize("budget", [50.0, True, "50"])
def test_run_rejects_a_budget_that_is_not_an_integer(budget):
    init = EsState(np.ones(2), 0.0)
    with pytest.raises(ValueError, match=f"budget must be a positive integer, got {budget!r}"):
        run(sphere(2), EsParams(2.0, 0.5), init, budget=budget)


@pytest.mark.parametrize("f_floor", [math.inf, math.nan, 0.0, -1.0])
def test_run_rejects_a_non_finite_or_non_positive_f_floor(f_floor):
    init = EsState(np.ones(2), 0.0)
    with pytest.raises(ValueError, match="f_floor must be finite and positive"):
        run(sphere(2), EsParams(2.0, 0.5), init, budget=10, f_floor=f_floor)


def test_run_rejects_optimum_start():
    init = EsState(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        run(sphere(2), EsParams(2.0, 0.5), init, budget=10)


def test_run_single_step():
    init = EsState(np.ones(2), 0.0)
    traj = run(sphere(2), EsParams(2.0, 0.5), init, budget=1, seed=5)
    assert traj.t_final == 1
    assert len(traj.log_dist) == 2
    assert len(traj.success) == 1


def test_run_deterministic():
    spec = hessian_family("h1", 4, 1)
    params = params_for_rule("const", 4)
    init = init_default(spec, 11)
    a = run(spec, params, init, 1500, seed=11)
    b = run(spec, params, init, 1500, seed=11)
    assert np.array_equal(a.log_dist, b.log_dist)
    assert np.array_equal(a.log_f, b.log_f)
    assert np.array_equal(a.log_sigma, b.log_sigma)
    assert np.array_equal(a.success, b.success)
    c = run(spec, params, init, 1500, seed=12)
    assert not np.array_equal(a.log_dist, c.log_dist)


@pytest.mark.parametrize("seed", range(10))
def test_sphere_reaches_value_floor(seed):
    spec = sphere(10)
    init = init_default(spec, seed)
    traj = run(spec, params_for_rule("const", 10), init, 20_000, seed=seed)
    assert traj.stop_reason == "f_floor"
    assert traj.t_final < 20_000


def test_trajectory_invariants():
    spec = hessian_family("h2", 6, 1)
    params = params_for_rule("const", 6)
    traj = run(spec, params, init_default(spec, 3), 2000, seed=3)
    la_up = math.log(params.alpha_up)
    la_dn = math.log(params.alpha_down)
    log_f = traj.log_f
    assert np.all(np.diff(log_f) <= 0)  # elitism
    for t in range(traj.t_final):
        # each recorded step moves log_sigma by exactly one factor, up to the
        # single rounding of the running sum
        delta = traj.log_sigma[t + 1] - traj.log_sigma[t]
        if traj.success[t]:
            assert delta == pytest.approx(la_up, abs=1e-12)
            assert log_f[t + 1] <= log_f[t]
        else:
            assert delta == pytest.approx(la_dn, abs=1e-12)
            assert log_f[t + 1] == log_f[t]
            assert traj.log_dist[t + 1] == traj.log_dist[t]
        if log_f[t + 1] < log_f[t]:
            assert traj.success[t]
    # multiplicative updates accumulate no drift over the whole run
    ups = int(traj.success.sum())
    downs = traj.t_final - ups
    reconstructed = traj.log_sigma[0] + ups * la_up + downs * la_dn
    assert traj.log_sigma[traj.t_final] == pytest.approx(reconstructed, abs=1e-9)


def test_transform_invariance_quick():
    report = invariance_report(n_seeds=3, steps=300, base_seed=5)
    assert report["ok"], report["details"]


def test_translation_equivariance_states():
    # Dyadic start and integer shift make the coordinate changes exact.
    spec = sphere(6)
    params = params_for_rule("const", 6)
    rng = np.random.default_rng(21)
    m0 = np.round(rng.standard_normal(6) * 2**26) / 2**26
    shift = rng.integers(-4, 5, size=6).astype(float)
    init = EsState(m0, math.log(0.5))
    base = run(spec, params, init, 400, seed=9)
    comp = make_composite(spec, "cube_shift", shift)
    moved = run(comp, params, EsState(m0 + shift, math.log(0.5)), 400, seed=9)
    assert np.array_equal(base.log_dist, moved.log_dist)
    assert np.array_equal(base.log_f, moved.log_f)
    assert np.array_equal(base.success, moved.success)
    np.testing.assert_array_equal(base.final_state.m + shift, moved.final_state.m)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["h1", "h2", "h3", "perturbed"]),
    dim=st.integers(min_value=1, max_value=12),
    transform=st.sampled_from(list(TRANSFORMS)),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_runs_invariant_under_transforms_and_integer_shifts(kind, dim, transform, data, seed):
    spec = _family(kind, dim, 1)
    shift = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim)), float)
    # Dyadic with 26 fraction bits: adding and removing the shift is exact.
    m0 = np.array(data.draw(st.lists(st.integers(-2**28, 2**28), min_size=dim, max_size=dim)))
    m0 = m0 / 2.0**26
    if not np.any(m0):
        m0[0] = 1.0
    log_sigma = data.draw(st.floats(-6.0, 2.0))
    params = params_for_rule("const", dim)
    base = run(spec, params, EsState(m0, log_sigma), 400, seed=seed)
    comp = make_composite(spec, transform, shift)
    moved = run(comp, params, EsState(m0 + shift, log_sigma), 400, seed=seed)
    _assert_same(moved, dataclasses.replace(
        base, final_state=EsState(base.final_state.m + shift, base.final_state.log_sigma)
    ))


def test_composites_never_evaluate_their_transform(monkeypatch):
    # The engine steps a composite's base, so a transform that cannot be
    # evaluated changes neither the start nor the run.
    def broken(y):
        raise AssertionError("a transform was evaluated")

    monkeypatch.setitem(objectives.TRANSFORMS, "cube_shift", broken)
    base = hessian_family("h2", 5, 1)
    shift = np.arange(5.0) - 2.0
    init = init_default(base, 3)
    moved = init_default(make_composite(base, "cube_shift", shift), 3)
    np.testing.assert_array_equal(moved.m, init.m + shift)
    assert moved.log_sigma == init.log_sigma
    comp = make_composite(base, "cube_shift", np.zeros(5))
    params = params_for_rule("const", 5)
    _assert_same(run(comp, params, init_default(comp, 3), 800, seed=3),
                 run(base, params, init, 800, seed=3))


def test_default_sigma0_sphere():
    assert default_sigma0(sphere(2), np.array([3.0, 4.0])) == pytest.approx(2.5)


def test_default_sigma0_weighted():
    # gradient (1,10,10) at ones; norm sqrt(201); trace 21
    spec = hessian_family("h1", 3, 1)
    expected = math.sqrt(201.0) / 21.0
    assert default_sigma0(spec, np.ones(3)) == pytest.approx(expected, rel=1e-15)


def test_default_sigma0_perturbed_fallback():
    spec = perturbed_family(4, 1)
    m0 = np.ones(4)
    expected = float(np.linalg.norm(spec.gradient(m0))) / (4 * spec.smoothness)
    assert default_sigma0(spec, m0) == pytest.approx(expected, rel=1e-15)


def test_default_sigma0_survives_an_overflowing_squared_norm():
    # The squared norm of a gradient of ~1e154 entries overflows; the norm does not.
    spec = hessian_family("h1", 3, 200)
    m0 = np.array([0.5, 1.0, -2.0])
    expected = math.hypot(1e200, 2e200) / spec.trace_hessian
    assert default_sigma0(spec, m0) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError, match="gradient norm inf over"):
        default_sigma0(hessian_family("h1", 3, 308), np.array([1.0, 2.0, 2.0]))
    with pytest.raises(ValueError, match="over curvature mass inf"):
        default_sigma0(hessian_family("h1", 3, 308), np.full(3, 0.5))


def test_init_default_reproducible_and_off_optimum():
    spec = sphere(5)
    a = init_default(spec, 42)
    b = init_default(spec, 42)
    np.testing.assert_array_equal(a.m, b.m)
    assert a.log_sigma == b.log_sigma
    assert np.any(a.m)


def test_trajectory_csv_round_trip(tmp_path):
    spec = sphere(3)
    traj = run(spec, params_for_rule("const", 3), init_default(spec, 1), 50, seed=1)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,log_dist,log_f,log_sigma,success"
    assert len(lines) == traj.t_final + 2
    first = lines[1].split(",")
    assert float(first[1]) == traj.log_dist[0]
    assert lines[-1].endswith(",")  # final state row has no success flag


def test_trajectory_csv_thinning(tmp_path):
    spec = sphere(3)
    traj = run(spec, params_for_rule("const", 3), init_default(spec, 2), 100, seed=2)
    path = tmp_path / "thin.csv"
    traj.to_csv(path, thin=10)
    lines = path.read_text().splitlines()
    assert lines[0] == "# thin=10"
    data = [l for l in lines[2:]]
    assert len(data) == len(range(0, traj.t_final + 1, 10)) + (
        0 if traj.t_final % 10 == 0 else 1
    )


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_run_rejects_non_finite_start():
    for spec in (sphere(4), perturbed_family(4, 0)):
        with pytest.raises(ValueError, match="not finite"):
            run(spec, EsParams(2.0, 0.5), EsState(np.full(4, 1e200), 0.0), budget=50)


def test_run_survives_squared_norm_underflow():
    # At f_floor = 5e-324 the chain runs until f is exactly 0, past the point
    # where ||y||^2 underflows while y is still nonzero.
    spec = sphere(1)
    traj = run(spec, params_for_rule("const", 1), init_default(spec, 0), 20000, 5e-324, 0)
    assert traj.stop_reason == "f_floor" and traj.log_f[-1] == -math.inf
    assert np.all(np.isfinite(traj.log_dist))
    assert traj.log_dist[-1] == math.log(abs(traj.final_state.m[0]))


def test_run_survives_squared_norm_overflow():
    # f = 1.5e20 is finite, while ||y||^2 = 3e320 overflows: log_dist is log ||y|| throughout.
    m = np.full(3, 1e160)
    traj = run(objectives.quadratic_diag([1e-300] * 3), params_for_rule("const", 3),
               EsState(m, 0.0), 20)
    assert np.all(traj.log_dist == math.log(math.hypot(*m)))


def test_run_rejects_step_size_overflow():
    # alpha_up = e^709: the first success past log_sigma = 0.78 leaves the float range.
    spec = hessian_family("h1", 1, 0)
    params = params_for_rule("const", 1, 709.0)
    with pytest.raises(ValueError, match=r"at step 26: log_sigma=709\.91"):
        run(spec, params, init_default(spec, 1), 50, seed=1)


def test_run_draws_no_more_rows_than_steps():
    # A block of normal draws holds at most SPEC_ELEMS elements, one row at
    # d = 10^4; a block of 1024 rows would take 82 MB, held twice across a refill.
    dim = 10_000
    spec = hessian_family("h1", dim, 0)
    init = init_default(spec, 0)
    for budget in (10, 2000):
        tracemalloc.start()
        try:
            traj = run(spec, params_for_rule("const", dim), init, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.t_final == budget
        assert peak < 5e6, (budget, peak)


def test_params_for_rule_rejects_bad_input():
    with pytest.raises(ValueError, match="exceeds the float range"):
        params_for_rule("const", 3, 1000.0)
    for rule in ("sqrt", "dim"):
        with pytest.raises(ValueError, match="dim must be"):
            params_for_rule(rule, 0)


@pytest.mark.parametrize("call, match", [
    (lambda: params_for_rule("const", 5, 1e-300), r"c = 1e-300 makes alpha_up round to 1\.0"),
    (lambda: params_for_rule("dim", 5, 1e-320), r"c = 1e-320 makes alpha_up round to 1\.0"),
    (lambda: params_for_rule("const", 5, 2e-16), r"c = 2e-16 makes alpha_down round to 1\.0"),
    (lambda: params_for_target(math.e, 1e-300), r"target = 1e-300 makes alpha_down round to 1\.0"),
    (lambda: params_for_target(math.e, 0.999999999),
     r"target = 0\.999999999 makes alpha_down round to 0\.0"),
    (lambda: params_for_target(0.5, 0.999999999), r"alpha_up must exceed 1, got 0\.5"),
], ids=["c-const", "c-dim", "c-down", "target-low", "target-high", "alpha_up"])
def test_a_step_size_factor_that_rounds_names_its_input(call, match):
    # exp(c) or alpha_up ** -(target / (1 - target)) rounds to a factor EsParams rejects:
    # the error names the input that made it, not only the factor.
    with pytest.raises(ValueError, match=match):
        call()


# -- bit-identity against a one-step-at-a-time loop --------------------------------------


#: Rows of a chain's block of normal draws at d = 10.
_BLOCK_D10 = engine.SPEC_ELEMS // 10


def _reference_run(spec, params, init, budget, f_floor=1e-100, seed=0):
    """The per-step loop :func:`run` replaced, kept as the oracle.

    ``base.value`` is the arithmetic of the loop's scalar evaluator,
    ``0.5 * float(np.dot(diag * x, x))`` for diagonal quadratics.
    """
    base, shift = spec.canonical()
    y = np.asarray(init.m, dtype=float) - shift
    value = base.value
    f_m = value(y)
    log_sigma = float(init.log_sigma)
    la_up = math.log(params.alpha_up)
    la_dn = math.log(params.alpha_down)

    log_dist = np.empty(budget + 1)
    log_f = np.empty(budget + 1)
    log_sig = np.empty(budget + 1)
    success = np.zeros(budget, dtype=bool)
    log_dist[0] = 0.5 * math.log(float(np.dot(y, y)))
    log_f[0] = math.log(f_m)
    log_sig[0] = log_sigma

    rng = engine.rng_stream(seed)
    stop_reason = "budget"
    t = 0
    while t < budget:
        x = y + math.exp(log_sigma) * rng.standard_normal(base.dim)
        f_x = value(x)
        if f_x <= f_m:
            y = x
            f_m = f_x
            log_sigma += la_up
            success[t] = True
        else:
            log_sigma += la_dn
        t += 1
        log_dist[t] = 0.5 * math.log(float(np.dot(y, y)))
        log_f[t] = math.log(f_m) if f_m > 0 else -math.inf
        log_sig[t] = log_sigma
        if f_m < f_floor:
            stop_reason = "f_floor"
            break

    return Trajectory(
        log_dist=log_dist[: t + 1],
        log_f=log_f[: t + 1],
        log_sigma=log_sig[: t + 1],
        success=success[:t],
        stop_reason=stop_reason,
        final_state=EsState(y + shift, log_sigma),
    )


def _assert_same(got, ref):
    for name in ("log_dist", "log_f", "log_sigma", "success"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.t_final, got.stop_reason) == (ref.t_final, ref.stop_reason)
    assert np.array_equal(got.final_state.m, ref.final_state.m)
    assert got.final_state.log_sigma == ref.final_state.log_sigma


def _check_against_reference(spec, params, init, budget, f_floor=1e-100, seed=0):
    got = run(spec, params, init, budget, f_floor, seed)
    _assert_same(got, _reference_run(spec, params, init, budget, f_floor, seed))
    return got


def _family(kind, dim, kappa):
    return perturbed_family(dim, kappa) if kind == "perturbed" else hessian_family(kind, dim, kappa)


@pytest.mark.parametrize("rule", ALPHA_RULES)
@pytest.mark.parametrize("dim", [1, 2, 10, 30])
@pytest.mark.parametrize("kind", ["h1", "h2", "h3", "perturbed"])
def test_run_matches_per_step_loop(kind, dim, rule):
    # f_floor 1e-30: the d <= 2 chains stop on it, the others use the budget
    spec = _family(kind, dim, 1)
    _check_against_reference(spec, params_for_rule(rule, dim), init_default(spec, dim), 800,
                             1e-30, seed=100 + dim)


def test_run_matches_per_step_loop_on_f_floor_stop():
    spec = sphere(3)
    traj = _check_against_reference(spec, params_for_rule("const", 3), init_default(spec, 1),
                                    5000, 1e-12, seed=1)
    assert traj.stop_reason == "f_floor" and traj.t_final < 5000


def test_run_matches_per_step_loop_across_z_blocks():
    spec = hessian_family("h2", 10, 2)
    budget = 3 * _BLOCK_D10 + 379
    traj = _check_against_reference(spec, params_for_rule("const", 10), init_default(spec, 1),
                                    budget, 1e-300, seed=1)
    assert traj.stop_reason == "budget" and traj.t_final == budget


def test_run_matches_per_step_loop_in_narrow_batches():
    # SPEC_ELEMS cuts batches to 5 rows at d = 1500
    dim = 1500
    spec = hessian_family("h2", dim, 2)
    _check_against_reference(spec, params_for_rule("sqrt", dim), init_default(spec, 2), 300,
                             seed=2)


def test_run_matches_per_step_loop_on_composite():
    base = perturbed_family(5, 1)
    shift = np.array([0.5, -2.0, 3.0, 0.0, 1.25])
    spec = make_composite(base, "exp_minus_one", shift)
    init = init_default(spec, 4)
    _check_against_reference(spec, params_for_rule("sqrt", 5), init, 1500, seed=4)


def test_run_matches_per_step_loop_from_below_floor():
    init = EsState(np.array([1e-60, 0.0]), 0.0)
    traj = _check_against_reference(sphere(2), params_for_rule("const", 2), init, 100, seed=3)
    assert (traj.t_final, traj.stop_reason) == (1, "f_floor")


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(["h1", "h2", "h3", "perturbed"]),
    dim=st.integers(min_value=1, max_value=12),
    rule=st.sampled_from(ALPHA_RULES),
    budget=st.integers(min_value=1, max_value=2 * _BLOCK_D10 + 100),
    f_floor=st.sampled_from([1e-300, 1e-30, 1e-6]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(kind="h2", dim=3, rule="const", budget=2 * _BLOCK_D10 + 100, f_floor=1e-300, seed=0)
def test_results_independent_of_block_size(kind, dim, rule, budget, f_floor, seed):
    spec = _family(kind, dim, 2)
    params = params_for_rule(rule, dim)
    init = init_default(spec, seed)
    ref = _reference_run(spec, params, init, budget, f_floor, seed)
    # (SPEC_ROWS, SPEC_ELEMS): row caps alone, then element caps of 1 and 2 rows
    for rows, elems in ((1, 2**62), (2, 2**62), (3, 2**62), (8, 2**62), (1024, 2**62),
                        (8, 1), (8, 3 * dim - 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "SPEC_ROWS", rows)
            mp.setattr(engine, "SPEC_ELEMS", elems)
            _assert_same(run(spec, params, init, budget, f_floor, seed), ref)


# -- lockstep groups ------------------------------------------------------------------------


def _run_group(chains):
    """Every ``(i, trajectory)`` of :func:`run_many`, checking between yields
    that no floating-point error state leaks to the caller."""
    out = {}
    errstate = np.geterr()
    for i, traj in run_many(chains):
        assert np.geterr() == errstate and i not in out
        out[i] = traj
    assert sorted(out) == list(range(len(chains)))
    return out


def _check_group_against_reference(chains):
    got = _run_group(chains)
    for i, chain in enumerate(chains):
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's scalar inf
            ref = _reference_run(*chain)
        _assert_same(got[i], ref)
    return got


def test_run_many_matches_per_step_loop_in_a_mixed_group():
    dim = 6
    chains = []
    for i, (fam, kappa) in enumerate(product(("h1", "h2", "h3"), (0, 2, 6))):
        spec = hessian_family(fam, dim, kappa)
        params = params_for_rule(ALPHA_RULES[i % 3], dim)
        # Unequal budgets, the longest past two refills of a chain's block of
        # normals, and floors that stop some chains early: the group's edge is ragged.
        budget = (60, 900, 2 * (engine.SPEC_ELEMS // dim) + 37)[i % 3]
        f_floor = (1e-6, 1e-30, 1e-300)[i // 3]
        chains.append((spec, params, init_default(spec, i), budget, f_floor, i))
    params = params_for_rule("const", dim)
    # A composite, stepped in canonical coordinates.
    comp = make_composite(hessian_family("h2", dim, 2), "exp_minus_one", np.arange(dim) - 2.5)
    chains.append((comp, params, init_default(comp, 40), 1500, 1e-20, 40))
    # A start below the floor takes one step.
    chains.append((sphere(dim), params, EsState(np.full(dim, 1e-60), 0.0), 100, 1e-100, 41))
    # Candidates of norm ~1e160 overflow to inf and reject, until sigma falls.
    chains.append((hessian_family("h1", dim, 6), params,
                   EsState(np.full(dim, 1e140), math.log(1e160)), 400, 1e-100, 42))
    # Perturbed chains and a perturbed composite share the group: only f differs.
    for i, kappa in enumerate((0, 2, 6), start=43):
        spec = perturbed_family(dim, kappa)
        chains.append((spec, params_for_rule("sqrt", dim), init_default(spec, i),
                       300 + 400 * (i - 43), 1e-12, i))
    comp = make_composite(perturbed_family(dim, 1), "cube_shift", np.ones(dim))
    chains.append((comp, params, init_default(comp, 46), 700, 1e-12, 46))
    got = _check_group_against_reference(chains)
    assert {t.stop_reason for t in got.values()} == {"budget", "f_floor"}
    assert max(t.t_final for t in got.values()) > 2 * (engine.SPEC_ELEMS // dim)
    assert got[10].t_final == 1 and got[10].stop_reason == "f_floor"
    assert not got[11].success[:100].any() and got[11].success.any()


def test_run_many_matches_per_step_loop_on_perturbed_groups():
    dim = 9
    chains = []
    for i, kappa in enumerate((0, 2, 6, 2)):
        spec = perturbed_family(dim, kappa)
        chains.append((spec, params_for_rule("sqrt", dim), init_default(spec, i),
                       700 + 300 * i, 1e-12, 50 + i))
    comp = make_composite(perturbed_family(dim, 1), "cube_shift", np.ones(dim))
    chains.append((comp, params_for_rule("sqrt", dim), init_default(comp, 9), 1200, 1e-12, 9))
    _check_group_against_reference(chains)


def test_run_many_rejects_mixed_groups():
    params = params_for_rule("const", 3)
    chains = [(spec, params, init_default(spec, 0), 10) for spec in (sphere(3), sphere(4))]
    with pytest.raises(ValueError, match="plain specs of one dim"):
        next(run_many(chains))


def test_run_many_memory_stays_bounded():
    # Twelve chains at d = 30 as run_experiment groups them.  Each keeps its
    # acceptances only while it steps; three full float records per live
    # chain would add about 11.5 MB.
    dim = 30
    params = params_for_rule("const", dim)
    chains = []
    for i, (fam, kappa, _) in enumerate(product(("h1", "h2", "h3"), (0, 2), range(2))):
        spec = hessian_family(fam, dim, kappa)
        chains.append((spec, params, init_default(spec, i), 40_000, 5e-324, i))
    steps = 0
    tracemalloc.start()
    try:
        for _, traj in run_many(chains):
            steps += traj.t_final
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert steps == 12 * 40_000
    assert peak < 8e6


# -- run_all -------------------------------------------------------------------------------


def _record(traj):
    """Every series and the final state of a trajectory, compared bit for bit."""
    return (*(getattr(traj, name).tobytes() for name in ("log_dist", "log_f", "log_sigma",
                                                         "success")),
            traj.stop_reason, traj.final_state.m.tobytes(), traj.final_state.log_sigma)


def _pid(traj):
    return os.getpid()


def _chains(draws):
    """``run`` arguments of ``(kind, dim, kappa, transform, budget, f_floor, seed)`` draws;
    a transform makes a composite with its optimum off the origin."""
    chains = []
    for kind, dim, kappa, transform, budget, f_floor, seed in draws:
        spec = _family(kind, dim, kappa)
        if transform is not None:
            spec = make_composite(spec, transform, np.arange(dim) - 1.5)
        chains.append((spec, params_for_rule("const", dim), init_default(spec, seed), budget,
                       f_floor, seed))
    return chains


# Each example runs its chains four times; shrinking would rerun them for no simpler case.
@settings(max_examples=6, deadline=None, database=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(st.lists(st.tuples(st.sampled_from(["h1", "h2", "h3", "perturbed"]),
                          st.integers(min_value=1, max_value=12),
                          st.integers(min_value=0, max_value=4),
                          st.sampled_from([None, *TRANSFORMS]),
                          st.integers(min_value=1, max_value=400),
                          st.sampled_from([1e-300, 1e-12, 1e-4]),
                          st.integers(min_value=0, max_value=2**32 - 1)),
                min_size=1, max_size=12))
@example([("h1", 5, 0, None, 300, 1e-12, 1), ("perturbed", 5, 2, "cube_shift", 200, 1e-300, 2),
          ("h3", 2, 1, "affine", 400, 1e-4, 3), ("h1", 5, 3, "exp_minus_one", 100, 1e-12, 4),
          ("perturbed", 5, 0, None, 250, 1e-12, 5), ("h2", 2, 4, None, 1, 1e-300, 6)])
def test_run_all_returns_each_reduced_run_in_chain_order(draws):
    chains = _chains(draws)
    expected = [_record(run(*chain)) for chain in chains]
    for threads, spec_elems in (("1", engine.SPEC_ELEMS), ("2", engine.SPEC_ELEMS), ("2", 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool, "_usable_cpus", lambda: 2)
            mp.setenv("ES_RATE_THREADS", threads)
            mp.setattr(engine, "SPEC_ELEMS", spec_elems)  # 1: every task one chain
            assert engine.run_all(chains, _record) == expected


def test_run_all_reduces_in_the_workers(monkeypatch):
    # Two tasks on two workers: each trajectory is reduced where it ran, so
    # no trajectory crosses the process boundary.
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    monkeypatch.setenv("ES_RATE_THREADS", "2")
    chains = _chains([("h1", 3, 0, None, 50, 1e-100, 0), ("perturbed", 3, 0, None, 50, 1e-100, 1)])
    assert len(engine.lockstep_plan(chains)) == 2
    assert os.getpid() not in engine.run_all(chains, _pid)


def test_lockstep_plan_groups_by_dim_largest_budget_first(monkeypatch):
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
    # The composite of h3 and the perturbed chain join the sphere's group: only dim counts.
    chains = _chains([("h1", 3, 0, None, 10, 1e-100, 0),
                      ("h3", 3, 2, "exp_minus_one", 10, 1e-100, 1),
                      ("perturbed", 3, 0, None, 50, 1e-100, 2),
                      ("h1", 4, 0, None, 5, 1e-100, 3)])
    monkeypatch.setenv("ES_RATE_THREADS", "1")
    assert engine.lockstep_plan(chains) == [[0, 1, 2], [3]]
    monkeypatch.setenv("ES_RATE_THREADS", "2")  # a worker's share of three is two chains
    assert engine.lockstep_plan(chains) == [[2], [0, 1], [3]]
    monkeypatch.setattr(engine, "SPEC_ELEMS", 1)
    assert engine.lockstep_plan(chains[:2]) == [[0], [1]]
