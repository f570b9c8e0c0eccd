"""Committed golden outputs: small verify suites, Assumption 2 scans, a lemma suite on
``perturbed``, an experiment and a bounds search with its trace."""

import importlib.util
import json
import math
from pathlib import Path

_PATH = Path(__file__).with_name("golden") / "regen.py"
_SPEC = importlib.util.spec_from_file_location("golden_regen", _PATH)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


def _first_difference(want, got, key: str = ""):
    """Path and values of the first place where two decoded JSON values differ, or None.

    Floats compare exactly; NaN equals NaN.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        for k in sorted(set(want) | set(got), key=str):
            if k not in want or k not in got:
                return f"{key}.{k}", want.get(k, "<missing>"), got.get(k, "<missing>")
            diff = _first_difference(want[k], got[k], f"{key}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list) and isinstance(got, list):
        for i, (w, g) in enumerate(zip(want, got)):
            diff = _first_difference(w, g, f"{key}[{i}]")
            if diff:
                return diff
        if len(want) != len(got):
            return f"{key} length", len(want), len(got)
        return None
    if type(want) is not type(got):
        return key, want, got
    if want != got and not (isinstance(want, float) and math.isnan(want) and math.isnan(got)):
        return key, want, got
    return None


def test_first_difference_names_the_key():
    assert _first_difference({"a": [1.0, math.nan]}, {"a": [1.0, math.nan]}) is None
    assert _first_difference({"a": [1.0, 2.0]}, {"a": [1.0, 2.5]}) == (".a[1]", 2.0, 2.5)
    assert _first_difference({"a": 1}, {"a": 1.0}) == (".a", 1, 1.0)
    assert _first_difference({"a": 1}, {"b": 1}) == (".a", 1, "<missing>")
    assert _first_difference([1], [1, 2]) == (" length", 1, 2)


def test_outputs_match_the_committed_fixture():
    fixture = json.loads(regen.FIXTURE.read_text())
    diff = _first_difference(fixture["outputs"], regen.outputs())
    if diff:
        key, want, got = diff
        message = f"golden output {key} moved: fixture {want!r}, now {got!r}"
        if fixture["versions"] != regen.versions():
            message += (f"; the fixture was made with {fixture['versions']}, "
                        f"this run uses {regen.versions()}")
        raise AssertionError(message)


def test_float_changes_counts_moved_floats_and_names_the_largest():
    old = {"a": [1.0, math.nan, 4], "b": 2.0}
    new = {"a": [1.5, math.nan, 5], "b": 2.0, "c": 1.0}
    assert regen.float_changes(old, new) == \
        "1 of 3 floats moved, largest relative change 0.5 at .a[0]; 1 added, 0 removed"
    assert regen.float_changes(old, old) == "0 of 3 floats moved"
    rows = ["q,objective", "0.25,1e-10", "0.5,2e-10"]
    assert regen.float_changes(rows, [rows[0], rows[1], "0.5,3e-10"]) == \
        "1 of 4 floats moved, largest relative change 0.5 at [2][1]"


def test_other_changes_counts_changed_verdicts_and_booleans():
    old = {"ok": True, "n": 3, "checks": [{"verdict": "pass", "lhs": 1.0}], "trace": ["q,f", "0.5,1"]}
    new = {"ok": False, "n": 3, "checks": [{"verdict": "fail", "lhs": 2.0}], "trace": ["q,f", "0.5,2"]}
    assert regen.other_changes(old, new) == "2 of 4 other leaves changed"
    assert regen.other_changes(old, old) == "0 of 4 other leaves changed"
    assert regen.other_changes({"n": 1}, {"n": True}) == "1 of 1 other leaves changed"
    assert regen.other_changes({"a": "x"}, {"b": "x", "c": None}) == \
        "0 of 0 other leaves changed; 2 added, 1 removed"
