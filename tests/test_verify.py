import json

import pytest

from esrate.cli import cli_main
from esrate.verify import SUITES, drift_report, invariance_report


def test_invariance_report_small():
    report = invariance_report(n_seeds=2, steps=150, base_seed=3)
    assert report["ok"]
    assert report["mismatches"] == 0
    assert report["checks"] == 3 * 2 * 6


def test_drift_report_small():
    report = drift_report(dim=40, n=10_000, seed=5)
    assert report["ok"], report
    assert set(report["regimes"]) == {"small", "reasonable", "large"}
    for entry in report["regimes"].values():
        assert entry["drift"] < 0


@pytest.mark.parametrize("name,n", [("invariance", 1), ("lemmas", 1000),
                                    ("assumption2", 1000), ("drift", 1000)])
def test_suite_entry_matches_cli_output(name, n, capsys):
    suite, _, seed = SUITES[name]
    expected = json.dumps(suite(n, seed), indent=2, default=float) + "\n"
    assert cli_main(["verify", "--suite", name, "--n", str(n)]) == 0
    assert capsys.readouterr().out == expected
