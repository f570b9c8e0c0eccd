import multiprocessing
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from esrate import analysis, exact, harness, pool, verify
from esrate.objectives import hessian_family, perturbed_family, sphere


@pytest.fixture
def threads(monkeypatch):
    """Set ``ES_RATE_THREADS`` and let up to 3 workers start on any machine."""
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)

    def set_to(value: str) -> None:
        monkeypatch.setenv("ES_RATE_THREADS", value)

    return set_to


def test_worker_count_default_is_usable_cpus_up_to_eight(monkeypatch):
    monkeypatch.delenv("ES_RATE_THREADS", raising=False)
    for cpus, expected in ((1, 1), (3, 3), (64, 8)):
        monkeypatch.setattr(pool, "_usable_cpus", lambda: cpus)
        assert pool.worker_count() == expected
    monkeypatch.setenv("ES_RATE_THREADS", "")
    assert pool.worker_count() == 8


@pytest.mark.parametrize("value, expected", [("1", 1), ("2", 2), (" 3 ", 3), ("4096", 3)])
def test_worker_count_reads_env_capped_at_usable_cpus(threads, value, expected):
    threads(value)
    assert pool.worker_count() == expected


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", "2x"])
def test_worker_count_rejects_bad_env(threads, value):
    threads(value)
    with pytest.raises(ValueError, match="ES_RATE_THREADS must be a positive integer"):
        pool.worker_count()


def _square(x):
    return x * x


def _pid():
    return os.getpid()


def _pids_of_nested_fan_out(_):
    return os.getpid(), pool.fan_out(_pid, [(), (), ()])


def test_fan_out_forks_where_the_platform_can(threads, monkeypatch):
    """Python 3.14 makes forkserver the POSIX default, whose workers import
    numpy again; ``fan_out`` asks for fork wherever it exists."""
    threads("2")
    contexts = []

    class Recorder:
        def __init__(self, max_workers, mp_context=None):
            contexts.append(mp_context)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", Recorder)
    assert pool.fan_out(_square, [(2,), (3,)]) == [4, 9]
    forks = "fork" in multiprocessing.get_all_start_methods()
    expected = "fork" if forks else multiprocessing.get_start_method()
    assert contexts[0].get_start_method() == expected


def test_fan_out_keeps_task_order(threads):
    tasks = [(x,) for x in range(7)]
    for value in ("1", "2", "3"):
        threads(value)
        assert pool.fan_out(_square, tasks) == [x * x for x in range(7)]
    assert pool.fan_out(_square, []) == []


def test_fan_out_runs_inline_for_one_worker_or_one_task(threads):
    threads("1")
    assert pool.fan_out(_pid, [(), ()]) == [os.getpid()] * 2
    assert pool.processes(2) == 1
    threads("2")
    assert pool.fan_out(_pid, [()]) == [os.getpid()]
    assert [pool.processes(tasks) for tasks in (0, 1, 2, 5)] == [1, 1, 2, 2]


def test_fan_out_inside_a_worker_runs_inline(threads):
    threads("2")
    outer = pool.fan_out(_pids_of_nested_fan_out, [(0,), (1,)])
    for worker, inner in outer:
        assert worker != os.getpid()
        assert inner == [worker] * 3


def _lemma_states(spec, seed):
    m = np.random.default_rng(seed).standard_normal(spec.dim)
    return [exact.state_at_sigma_bar(spec, m, s) for s in (0.3, 1.0, 3.0)]


def _verification_results(seed: int) -> str:
    spec = hessian_family("h1", 5, 1)
    cfg = harness.ExperimentConfig(
        kinds=("h1", "h3"), dims=(3,), kappas=(0, 1), trials=2, base_seed=seed, budget=300,
    )
    results = [
        verify.invariance_report([sphere(3), spec], n_seeds=2, steps=100, base_seed=seed),
        harness.run_experiment(cfg),
    ]
    # repr spells every float exactly, NaN included.
    return repr(results)


# No shrinking: a smaller seed is no simpler, and each step starts three pools.
@settings(max_examples=3, deadline=None, database=None, derandomize=True,
          phases=[Phase.generate])
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_results_independent_of_worker_count(seed):
    reports = {}
    with mock.patch.object(pool, "_usable_cpus", lambda: 3):
        for workers in ("1", "2", "3"):
            with mock.patch.dict(os.environ, {"ES_RATE_THREADS": workers}):
                reports[workers] = _verification_results(seed)
    assert reports["2"] == reports["1"]
    assert reports["3"] == reports["1"]


def test_monte_carlo_and_exact_calls_start_no_pool(threads, monkeypatch):
    # With 3 workers allowed, a call that started a pool would fail here.
    threads("3")

    def no_pool(*args, **kwargs):
        raise AssertionError("a Monte Carlo or exact call started a process pool")

    monkeypatch.setattr(pool, "ProcessPoolExecutor", no_pool)
    spec, pert, seed = hessian_family("h1", 5, 1), perturbed_family(4, 1), 3
    assert len(analysis.check_lemma_suite(spec, _lemma_states(spec, seed), 1000, seed).checks) == 36
    assert len(exact.check_assumption2(pert, n=1000, seed=seed).states) == 32
    assert exact.q_extremes(pert, n=1000, seed=seed).e_q > 0.0
    assert len(verify.drift_report(dim=10, n=1000, seed=seed)["checks"]) == 9
