import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esrate.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    aggregate_cell,
    emit_csv,
    emit_plot,
    read_csv,
    run_experiment,
)

SMALL = ExperimentConfig(
    kinds=("h1", "h3"), dims=(5,), kappas=(0, 1), trials=3, base_seed=77, budget=600,
)


@pytest.fixture(scope="module")
def small_rows():
    return run_experiment(SMALL)


def test_config_json_round_trip():
    cfg = ExperimentConfig.from_json(SMALL.to_json())
    assert cfg == SMALL


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kinds=(), dims=(5,), kappas=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(kinds=("h1",), dims=(5,), kappas=(0,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(kinds=("h9",), dims=(5,), kappas=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"kinds": ["h1"], "dims": [5], "kappas": [0], "bogus": 1})


def test_grid_counts(small_rows):
    trials = [r for r in small_rows if not r.is_aggregate]
    aggs = [r for r in small_rows if r.is_aggregate]
    assert len(trials) == 4 * 3
    assert len(aggs) == 4


def test_row_order_is_grid_then_seed(small_rows):
    cells = [(r.objective, r.kappa) for r in small_rows if r.is_aggregate]
    assert cells == [("h1", 0), ("h1", 1), ("h3", 0), ("h3", 1)]
    seeds = [r.seed for r in small_rows if not r.is_aggregate][:3]
    assert seeds == ["0", "1", "2"]


def test_deterministic_rows(small_rows):
    again = run_experiment(SMALL)
    for a, b in zip(small_rows, again):
        assert (a.objective, a.d, a.kappa, a.seed) == (b.objective, b.d, b.kappa, b.seed)
        assert a.cr_hat == b.cr_hat
        assert a.stderr == b.stderr
        assert a.scaled_rate == b.scaled_rate
        assert a.stop_reason == b.stop_reason


def test_worker_count_does_not_change_results(small_rows, monkeypatch):
    monkeypatch.setenv("ES_RATE_THREADS", "1")
    serial = run_experiment(SMALL)
    for a, b in zip(small_rows, serial):
        assert a.cr_hat == b.cr_hat and a.seed == b.seed


def test_aggregates_match_recomputation(small_rows):
    trials = [r for r in small_rows if not r.is_aggregate]
    for agg in (r for r in small_rows if r.is_aggregate):
        cell = [
            t for t in trials
            if (t.objective, t.d, t.kappa) == (agg.objective, agg.d, agg.kappa)
        ]
        values = np.array([t.cr_hat for t in cell])
        assert agg.cr_hat == pytest.approx(values.mean(), abs=1e-12)
        assert agg.stderr == pytest.approx(values.std(ddof=1) / math.sqrt(len(cell)), abs=1e-12)
        recomputed = aggregate_cell(cell)
        assert recomputed.cr_hat == agg.cr_hat


def test_csv_round_trip(tmp_path, small_rows):
    path = tmp_path / "rows.csv"
    emit_csv(small_rows, path)
    back = read_csv(path)
    assert back == small_rows


_ROWS = st.builds(
    ResultRow,
    objective=st.sampled_from(["h1", "h2", "h3", "perturbed"]),
    d=st.integers(min_value=1, max_value=10**6),
    kappa=st.integers(min_value=0, max_value=308),
    alpha_rule=st.sampled_from(["const", "sqrt", "dim"]),
    seed=st.sampled_from(["agg"]) | st.integers(min_value=0, max_value=10**4).map(str),
    cr_hat=st.floats(),
    stderr=st.floats(),
    scaled_rate=st.floats(),
    stop_reason=st.sampled_from(["budget", "f_floor", ""]),
    wall_ms=st.integers(min_value=0, max_value=10**9),
)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(rows=st.lists(_ROWS, max_size=8))
def test_csv_round_trip_of_any_rows(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        emit_csv(rows, path)
        back = read_csv(path)
    # repr spells every float exactly, so NaN rates and signed zeros compare too.
    assert repr(back) == repr(rows)
    assert [r.is_aggregate for r in back] == [r.is_aggregate for r in rows]


def test_csv_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_bytes() == (",".join(CSV_HEADER) + "\r\n").encode()


def test_csv_stable_bytes(tmp_path, small_rows):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(small_rows, a)
    emit_csv(small_rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_plot_deterministic_and_annotated(tmp_path, small_rows):
    p1, p2 = tmp_path / "one.svg", tmp_path / "two.svg"
    emit_plot(small_rows, p1, y_field="scaled_rate")
    emit_plot(small_rows, p2, y_field="scaled_rate")
    assert p1.read_bytes() == p2.read_bytes()
    svg = p1.read_text()
    assert svg.startswith("<svg")
    assert "floor 0.1" in svg
    assert svg.count("<circle") > 4  # markers plus legend dots
    plain = tmp_path / "cr.svg"
    emit_plot(small_rows, plain, y_field="cr_hat")
    assert "floor 0.1" not in plain.read_text()


def test_plot_single_dimension_has_no_lines(tmp_path, small_rows):
    path = tmp_path / "pts.svg"
    emit_plot(small_rows, path)
    assert "<polyline" not in path.read_text()  # single d value per series


def test_plot_lines_appear_with_two_dimensions(tmp_path):
    rows = [
        ResultRow("h1", d, 0, "const", "agg", 0.1 / d, 0.0, 0.1, "", 1)
        for d in (10, 100)
    ]
    path = tmp_path / "line.svg"
    emit_plot(rows, path)
    assert "<polyline" in path.read_text()


def test_plot_requires_data(tmp_path):
    with pytest.raises(ValueError):
        emit_plot([], tmp_path / "x.svg")


def test_budget_rule():
    cfg = ExperimentConfig(kinds=("h1",), dims=(10,), kappas=(0,))
    assert cfg.budget_for(10) == 20_000
    assert SMALL.budget_for(5) == 600
