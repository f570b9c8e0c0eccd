import dataclasses
import json

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from esrate import analysis, engine, exact, pool, verify
from esrate.analysis import SE_SLACK, CheckResult
from esrate.cli import cli_main
from esrate.objectives import hessian_family, perturbed_family
from esrate.theory import std_normal_cdf
from esrate.verify import SUITES, drift_report, invariance_report


def test_invariance_report_small():
    report = invariance_report(n_seeds=2, steps=150, base_seed=3)
    assert report["ok"]
    assert report["mismatches"] == 0
    assert report["checks"] == 3 * 2 * 6


def test_invariance_report_catches_an_inexact_translation(monkeypatch):
    """Without the dyadic start, adding the shift and subtracting it back rounds,
    so exactly the translated runs must stop matching their reference."""
    monkeypatch.setattr(verify, "_dyadic", lambda x: x)
    report = invariance_report(n_seeds=3, steps=100, base_seed=5)
    assert report["checks"] == 3 * 3 * 6
    assert not report["ok"]
    assert [(c["spec"], c["seed"], c["case"]) for c in report["details"]] == [
        (spec, seed, case) for spec in range(3) for seed in range(3)
        for case in ("translation", "translation+transform")
    ]


# Each example runs six reports; shrinking would rerun them for no simpler case.
@settings(max_examples=5, deadline=None, database=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    dims=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
    n_seeds=st.integers(min_value=1, max_value=9),
    steps=st.integers(min_value=1, max_value=200),
    base_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(dims=[3, 40, 9], n_seeds=7, steps=150, base_seed=5)
def test_invariance_report_independent_of_lockstep_grouping(dims, n_seeds, steps, base_seed):
    kinds = ("h1", "h3", "perturbed")
    specs = [perturbed_family(d, 1) if kinds[i % 3] == "perturbed"
             else hessian_family(kinds[i % 3], d, 1) for i, d in enumerate(dims)]
    reports = {}
    for name, threads, spec_elems in (("one worker", "1", engine.SPEC_ELEMS),
                                      ("two workers", "2", engine.SPEC_ELEMS),
                                      ("one seed per group", "2", 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pool, "_usable_cpus", lambda: 2)
            mp.setenv("ES_RATE_THREADS", threads)
            mp.setattr(engine, "SPEC_ELEMS", spec_elems)
            exact = invariance_report(specs, n_seeds=n_seeds, steps=steps, base_seed=base_seed)
            # An inexact start makes translated runs mismatch, so that the
            # details' order is checked too.
            mp.setattr(verify, "_dyadic", lambda x: x)
            reports[name] = (exact, invariance_report(specs, n_seeds=n_seeds, steps=steps,
                                                      base_seed=base_seed))
    assert reports["one worker"][0]["ok"]
    assert reports["two workers"] == reports["one worker"]
    assert reports["one seed per group"] == reports["one worker"]


def test_drift_report_small():
    report = drift_report(dim=40, n=10_000, seed=5)
    assert report["ok"], report
    assert list(report["regimes"]) == ["small", "reasonable", "large"]
    assert [entry["regime"] for entry in report["regimes"].values()] == list(report["regimes"])
    drift = [c for c in report["checks"] if c["name"] == "drift_within_bound"]
    assert [c["state_id"] for c in drift] == list(report["regimes"])
    assert all(c["lhs"] < 0 for c in drift)


@pytest.mark.parametrize("name", ["lemmas", "drift", "assumption2"])
def test_stderr_checked_suites_report_one_shape(name):
    suite, _, seed = SUITES[name]
    report = suite(1000, seed)
    fields = [f.name for f in dataclasses.fields(CheckResult)]
    assert report["checks"] and all(list(c) == fields for c in report["checks"])
    # every verdict is the one rule's
    assert all(CheckResult(**c) == CheckResult.judge(**{k: v for k, v in c.items() if k != "verdict"})
               for c in report["checks"])
    assert report["ok"] == all(c["verdict"] != "fail" for c in report["checks"])
    tight = sum(c["tight"] for c in report["checks"])
    assert report["expected_failures"] == tight * std_normal_cdf(-SE_SLACK)


def test_drift_suite_fails_on_a_positive_drift_and_a_misclassified_regime(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "estimate_drift", lambda spec, states, *args: [
        analysis.EstimateWithError(1e-3, 1e-5) for _ in states])
    monkeypatch.setattr(exact, "regime_of", lambda *args: "large")
    report = drift_report(n=1000, seed=77)
    assert {(c["name"], c["state_id"]): c["verdict"] for c in report["checks"]} == {
        (name, regime): "pass" if name == "regime" and regime == "large" else "fail"
        for regime in ("small", "reasonable", "large")
        for name in ("regime", "drift_negative", "drift_within_bound")}
    assert report["ok"] is False
    assert cli_main(["verify", "--suite", "drift", "--n", "1000"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False


@pytest.mark.parametrize("name,n", [("invariance", 1), ("lemmas", 1000),
                                    ("assumption2", 1000), ("drift", 1000)])
def test_suite_entry_matches_cli_output(name, n, capsys):
    suite, _, seed = SUITES[name]
    report = suite(n, seed)
    assert (report["n"], report["seed"]) == (n, seed)
    expected = json.dumps(report, indent=2, default=float) + "\n"
    assert cli_main(["verify", "--suite", name, "--n", str(n)]) == 0
    assert capsys.readouterr().out == expected


def test_invariance_report_depends_on_the_seed(capsys):
    """Every check passes at both seeds, so only the seed key tells the reports apart."""
    outputs = []
    for seed in ("0", "13"):
        assert cli_main(["verify", "--suite", "invariance", "--n", "2", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    assert [json.loads(out)["seed"] for out in outputs] == [0, 13]

