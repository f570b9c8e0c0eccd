import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import esrate
from esrate import harness, pool, verify
from esrate.cli import cli_main
from esrate.engine import lockstep_plan


def test_run_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--objective", "h1", "--dim", "3", "--kappa", "1",
            "--seed", "7", "--budget", "400"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "stop=" in capsys.readouterr().out


def test_run_without_budget_uses_the_experiment_default(tmp_path, capsys):
    # h1 at kappa 3 converges far too slowly to reach f_floor in this budget.
    out = tmp_path / "t.csv"
    assert cli_main(["run", "--objective", "h1", "--dim", "2", "--kappa", "3",
                     "--out", str(out)]) == 0
    budget = harness.ExperimentConfig(kinds=("h1",), dims=(2,), kappas=(3,)).budget_for(2)
    assert f"T={budget} stop=budget" in capsys.readouterr().out


def test_run_rejects_thin_before_simulating(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the chain ran before --thin was checked")

    monkeypatch.setattr("esrate.cli.run", no_run)
    out = tmp_path / "t.csv"
    assert cli_main(["run", "--objective", "h1", "--dim", "3", "--thin", "0",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: thin must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("kappa, code", [(154, 0), (200, 0), (308, 1)])
def test_run_at_huge_kappa_starts_or_fails_cleanly(kappa, code, tmp_path, capsys):
    # From kappa 154 on the squared gradient norm overflows; at 308 (d = 3,
    # seed 0) the gradient itself does.
    out = tmp_path / "t.csv"
    assert cli_main(["run", "--objective", "h1", "--dim", "3", "--kappa", str(kappa),
                     "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and out.exists()
    else:
        assert err.startswith("error: no default step size: gradient norm inf")
        assert err.count("\n") == 1


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["run", "--objective", "h1", "--dim", "3", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert cli_main(["frobnicate"]) == 1


def test_bad_value_exits_one(capsys):
    assert cli_main(["run", "--objective", "h9", "--dim", "3"]) == 1


def test_bounds_reports_constants(capsys):
    code = cli_main([
        "bounds", "--dim", "1000", "--L", "1", "--U", "1", "--v-std", "0",
        "--kappa-inf", "2", "--p-target", "0.3", "--q-low", "0.25",
        "--q-high", "0.45",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["w_over_l_ratio"] == pytest.approx(0.00387, abs=1e-4)
    assert data["s"] < data["ell"]
    assert 0 < data["v"] <= 1
    assert data["p_target"] == pytest.approx(0.3, abs=1e-12)


def test_bounds_infeasible_exits_one(capsys):
    code = cli_main([
        "bounds", "--dim", "100", "--v-std", "0.02", "--kappa-inf", "2",
        "--p-target", "0.3", "--q-low", "0.25", "--q-high", "0.45",
    ])
    assert code == 1
    assert "feasible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--e-q", "0", "e_q"),
        ("--L", "nan", "strong_convexity"),
        ("--v-std", "-0.1", "v_std_sup"),
        ("--kappa-inf", "0.5", "kappa_inf"),
    ],
)
def test_bounds_rejects_bad_extremes(flag, value, field, capsys):
    code = cli_main([
        "bounds", "--dim", "1000", "--p-target", "0.45", "--alpha-rule", "dim",
        "--q-low", "0.44", "--q-high", "0.47", flag, value,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1


@pytest.mark.parametrize("extremes", [["--L", "1000", "--U", "1000", "--e-q", "1"],
                                      ["--L", "1", "--U", "2", "--e-q", "2001"]])
def test_bounds_rejects_mean_curvature_outside_its_range(extremes, capsys):
    # Q lies between L||z||^2 and U||z||^2, so e_q must lie in [d L, d U].
    code = cli_main(["bounds", "--dim", "1000", *extremes, "--sup", "--p-target", "0.3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: e_q=") and err.count("\n") == 1


@pytest.mark.parametrize("flags,message", [
    (["--dim", "0"], "--dim must be >= 1, got 0"),
    (["--dim", "-3", "--e-q", "1"], "--dim must be >= 1, got -3"),
    (["--dim", "1000", "--U", "-1"], "--U must be finite and > 0, got -1.0"),
    (["--dim", "1000", "--U", "nan"], "--U must be finite and > 0, got nan"),
    (["--dim", "1000", "--U", "inf", "--e-q", "100"], "--U must be finite and > 0, got inf"),
    (["--dim", "100", "--L", "2", "--U", "1"], "--L must not exceed --U, got --L 2.0 and --U 1.0"),
    (["--dim", "10", "--L", "3", "--e-q", "20"], "--L must not exceed --U, got --L 3.0 and --U 1.0"),
], ids=["dim-0", "dim-negative", "U-negative", "U-nan", "U-inf", "L-above-U", "L-above-U-e-q"])
def test_bounds_rejects_bad_dim_and_smoothness_by_flag(flags, message, capsys):
    # e_q defaults to dim * U; the error names the flag at fault, not e_q
    code = cli_main(["bounds", *flags, "--sup", "--p-target", "0.3"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("c", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", [
    ["bounds", "--dim", "100", "--sup"],
    ["bounds", "--dim", "100", "--sup", "--alpha-rule", "dim"],
    ["run", "--objective", "h1", "--dim", "3", "--budget", "10"],
], ids=["bounds", "bounds-dim-rule", "run"])
def test_c_must_be_finite_and_positive(command, c, tmp_path, capsys):
    # the error names c, not the alpha_up <= 1 or NaN alpha_down it would give
    out = tmp_path / "t.csv"
    extra = ["--out", str(out)] if command[0] == "run" else []
    assert cli_main([*command, *extra, "--c", c]) == 1
    assert capsys.readouterr().err == f"error: c must be finite and > 0, got {float(c)!r}\n"
    assert not out.exists()


def test_bounds_sup_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = cli_main([
        "bounds", "--dim", "3000", "--v-std", "0", "--kappa-inf", "2",
        "--alpha-rule", "dim", "--p-target", "0.3",
        "--q-low", "0.25", "--q-high", "0.45",
        "--sup", "--trace-out", str(trace),
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["b_upper_sup"] > 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "q_low,q_high,objective"
    assert max(float(line.split(",")[2]) for line in lines[1:]) == data["b_upper_sup"]


def test_bounds_sup_needs_no_fixed_pair(capsys):
    # The fixed pair 0.25/0.45 is infeasible here, but the supremum needs none.
    base = ["bounds", "--dim", "3000", "--v-std", "0.0006", "--alpha-rule", "dim",
            "--p-target", "0.3"]
    assert cli_main([*base, "--sup"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["b_upper_sup"] > 0
    assert set(data) == {"b_upper_sup", "p_target"}
    assert cli_main([*base, "--q-low", "0.25", "--q-high", "0.45", "--sup"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: q_low=0.25 outside feasible") and err.count("\n") == 1


@pytest.mark.parametrize("pair", [[], ["--q-low", "0.25"], ["--q-high", "0.45"]])
def test_bounds_without_sup_needs_the_pair(pair, capsys):
    code = cli_main(["bounds", "--dim", "1000", "--p-target", "0.3", *pair])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: give --q-low and --q-high together") and err.count("\n") == 1


def test_bounds_trace_out_needs_sup(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code = cli_main([
        "bounds", "--dim", "3000", "--alpha-rule", "dim", "--p-target", "0.3",
        "--q-low", "0.25", "--q-high", "0.45", "--trace-out", str(trace),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: --trace-out needs --sup\n"
    assert not trace.exists()


def test_experiment_end_to_end(tmp_path, capsys):
    cfg = {
        "kinds": ["h1"], "dims": [4], "kappas": [0], "trials": 2,
        "base_seed": 5, "budget": 400,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "scaled_rate.svg").exists()
    assert (out / "cr_hat.svg").exists()
    rows = harness.read_csv(out / "results.csv")
    assert sum(1 for r in rows if r.is_aggregate) == 1
    assert sum(1 for r in rows if not r.is_aggregate) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert harness.ExperimentConfig.from_json(manifest["config"]) == \
        harness.ExperimentConfig.from_json(cfg)
    groups = len(lockstep_plan(harness.experiment_chains(harness.ExperimentConfig.from_json(cfg))))
    assert manifest["lockstep_groups"] == groups
    assert manifest["worker_count"] == min(pool.worker_count(), groups)
    assert manifest["skipped_plots"] == []
    assert sorted(manifest["wall_s"]) == ["simulate", "write"]
    assert all(t >= 0 for t in manifest["wall_s"].values())


# Budget 5 is too short to fit a rate; f_floor 1e300 stops every chain at its start.
@pytest.mark.parametrize("extra", [{"budget": 5}, {"f_floor": 1e300}], ids=["budget", "f_floor"])
def test_experiment_without_rates_skips_the_plots(extra, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kinds": ["h1"], "dims": [5], "kappas": [0], "trials": 2,
                                    **extra}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "cr_hat.svg").write_text("<svg>an earlier run's plot</svg>\n")
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.csv"]
    assert all(math.isnan(r.cr_hat) for r in harness.read_csv(out / "results.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped_plots"] == ["scaled_rate.svg", "cr_hat.svg"]
    assert "skipped scaled_rate.svg: no aggregate row has a finite positive scaled_rate" \
        in captured.out.splitlines()
    assert "skipped cr_hat.svg: no aggregate row has a finite positive cr_hat" \
        in captured.out.splitlines()


@pytest.mark.parametrize("trials, groups", [(1, 1), (2, 2)])
def test_manifest_counts_the_processes_that_ran(trials, groups, tmp_path, monkeypatch):
    # One lockstep group runs inline; two split over two workers.
    monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)
    monkeypatch.setenv("ES_RATE_THREADS", "2")
    cfg_path = tmp_path / "cfg.json"
    cfg = {"kinds": ["h1"], "dims": [4], "kappas": [0], "trials": trials, "budget": 300}
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    chains = harness.experiment_chains(harness.ExperimentConfig.from_json(cfg))
    assert manifest["lockstep_groups"] == len(lockstep_plan(chains)) == groups
    assert manifest["worker_count"] == groups


def test_experiment_reruns_identically(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"kinds": ["h3"], "dims": [4], "kappas": [1], "trials": 2,
         "base_seed": 9, "budget": 300}
    ))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out1)])
    cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out2)])
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "scaled_rate.svg").read_bytes() == (out2 / "scaled_rate.svg").read_bytes()


def test_missing_config_exits_one():
    assert cli_main(["experiment", "--config", "/nonexistent.json", "--out-dir", "/tmp/x"]) == 1


def test_config_without_required_keys_exits_one(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": [3], "kappas": [0]}))
    src = os.path.dirname(os.path.dirname(esrate.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "esrate", "experiment", "--config", str(cfg_path),
         "--out-dir", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1
    assert "error: missing config keys: ['kinds']" in out.stderr.splitlines()
    assert "Traceback" not in out.stderr


def test_verify_invariance_passes(capsys):
    assert cli_main(["verify", "--suite", "invariance", "--n", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] and data["mismatches"] == 0


def test_verify_assumption2_passes(capsys):
    assert cli_main(["verify", "--suite", "assumption2", "--n", "2000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"]
    assert [(c["state_id"], c["name"], c["verdict"]) for c in data["checks"]] == [
        (f"sphere_d{dim}", f"{name}_{side}_rhs", "pass")
        for dim, side in ((1000, "below"), (2, "above")) for name in ("v_std_sup", "oracle_2_over_d")]


def test_verify_lemmas_small(capsys):
    assert cli_main(["verify", "--suite", "lemmas", "--n", "5000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"]


def test_verify_drift_small(capsys):
    assert cli_main(["verify", "--suite", "drift", "--n", "5000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"]


def test_verify_seed_zero_is_not_the_default(capsys):
    outputs = []
    for seed in ("0", "77"):
        assert cli_main(["verify", "--suite", "drift", "--n", "1000", "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_verify_failure_maps_to_exit_two(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.SUITES, "invariance",
        (lambda n, seed: {"suite": "invariance", "ok": False, "mismatches": 1}, 20, 20240),
    )
    assert cli_main(["verify", "--suite", "invariance"]) == 2


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0


@pytest.mark.parametrize("module", ["esrate.cli", "esrate"])
def test_module_entry_points_run_without_warnings(module):
    src = os.path.dirname(os.path.dirname(esrate.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.startswith("usage: esrate")


@pytest.mark.parametrize("module", [m.name for m in pkgutil.iter_modules(esrate.__path__)])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"esrate.{module}")
    assert [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)] == []


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "lemmas", "--n", "1000"],
        ["verify", "--suite", "drift", "--n", "1000"],
        ["verify", "--suite", "invariance", "--n", "1"],
        ["experiment", "--config", "{config}", "--out-dir", "{out}"],
        ["run", "--objective", "h1", "--dim", "4", "--budget", "10", "--out", "{out}"],
        ["bounds", "--dim", "1000", "--p-target", "0.3", "--q-low", "0.25", "--q-high", "0.45"],
    ],
    ids=["lemmas", "drift", "invariance", "experiment", "run", "bounds"],
)
def test_bad_thread_count_exits_one(args, value, tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"kinds": ["h1"], "dims": [4], "kappas": [0], "trials": 2}))
    args = [a.format(config=cfg_path, out=tmp_path / "out") for a in args]
    monkeypatch.setenv("ES_RATE_THREADS", value)
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ES_RATE_THREADS must be a positive integer")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "suite,n,seed,message",
    [
        pytest.param("lemmas", "1", None, "", id="lemmas-1"),
        pytest.param("lemmas", "-5", None, "", id="lemmas--5"),
        pytest.param("lemmas", "2", None, "", id="lemmas-2"),
        pytest.param("drift", "0", None, "", id="drift-0"),
        pytest.param("invariance", "-3", None, "", id="invariance--3"),
        pytest.param("assumption2", "-3", None, "need n >= 1000", id="assumption2--3"),
        pytest.param("assumption2", "999", None, "need n >= 1000", id="assumption2-999"),
        pytest.param("invariance", "1", "-1", "seed must be", id="invariance-seed-1"),
        pytest.param("lemmas", "1000", "-1", "seed must be", id="lemmas-seed-1"),
        pytest.param("assumption2", "1000", "-1", "seed must be", id="assumption2-seed-1"),
        pytest.param("drift", "1000", "-1", "seed must be", id="drift-seed-1"),
    ],
)
def test_verify_rejects_bad_sample_count(suite, n, seed, message, capsys):
    seed_args = [] if seed is None else ["--seed", seed]
    assert cli_main(["verify", "--suite", suite, "--n", n, *seed_args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"kinds": "h1"}, "kinds must be"),
        ({"dims": [10.5]}, "dims must be"),
        ({"kappas": [400]}, "kappa must be"),
        ({"kappas": [0.5]}, "kappa must be"),
        ({"trials": 1.5}, "trials must be"),
        ({"f_floor": "1e-9"}, "f_floor must be"),
        ({"f_floor": math.inf}, "f_floor must be"),
        ({"c": "2"}, "c must be"),
        ({"c": True}, "c must be"),
        ({"c": math.nan}, "c must be"),
        ({"c": 1000}, "alpha_up = exp(1000) exceeds"),
        ({"window_frac": None}, "window_frac must be"),
        ({"base_seed": 1.5}, "base_seed must be"),
        ({"base_seed": -1}, "base_seed must be"),
        ({"kinds": [["h1"]]}, "unknown objective kind"),
        ({"c": -1}, "c must be finite and > 0, got -1"),
        ({"c": 0}, "c must be finite and > 0, got 0"),
    ],
)
def test_experiment_rejects_bad_config(bad, message, tmp_path, capsys):
    cfg = {"kinds": ["h1"], "dims": [4], "kappas": [0], "trials": 1, "budget": 50, **bad}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("text", ["null", "5", "[1, 2]", '"h1"'])
def test_experiment_rejects_non_object_config(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config must be a JSON object") and err.count("\n") == 1
    assert not (out / "results.csv").exists()


def test_run_rejects_kappa_beyond_float_range(tmp_path, capsys):
    args = ["run", "--objective", "h1", "--dim", "3", "--kappa", "400",
            "--out", str(tmp_path / "t.csv")]
    assert cli_main(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_rejects_a_non_finite_f_floor(tmp_path, capsys):
    out = tmp_path / "t.csv"
    args = ["run", "--objective", "h1", "--dim", "5", "--f-floor", "inf", "--out", str(out)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: f_floor must be finite and positive, got inf")
    assert not out.exists()


def test_run_rejects_step_size_overflow(tmp_path, capsys):
    args = ["run", "--objective", "h1", "--dim", "1", "--c", "709", "--budget", "50",
            "--seed", "1", "--out", str(tmp_path / "t.csv")]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step size overflows at step 26") and err.count("\n") == 1
