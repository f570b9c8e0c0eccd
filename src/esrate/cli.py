"""Command-line surface: run, experiment, bounds, verify.

Exit codes: 0 success, 1 configuration/usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import harness, pool, rates, theory
from .engine import (ALPHA_RULES, init_default, lockstep_plan, p_target, params_for_rule,
                     params_for_target, run)
from .verify import SUITES

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esrate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="simulate one trajectory and write it as CSV")
    p_run.add_argument("--objective", required=True, choices=tuple(harness.OBJECTIVE_KINDS))
    p_run.add_argument("--dim", type=int, required=True)
    p_run.add_argument("--kappa", type=int, default=0)
    p_run.add_argument("--alpha-rule", choices=ALPHA_RULES, default="const")
    p_run.add_argument("--c", type=float, default=1.0)
    p_run.add_argument("--budget", type=int, default=None)
    p_run.add_argument("--f-floor", type=float, default=1e-100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="trajectory.csv")
    p_run.add_argument("--thin", type=int, default=1)

    p_exp = sub.add_parser("experiment", help="run a config grid; emit CSV and plots")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out-dir", required=True)

    p_bounds = sub.add_parser("bounds", help="print the theory constants as JSON")
    p_bounds.add_argument("--dim", type=int, required=True)
    p_bounds.add_argument("--L", type=float, default=1.0)
    p_bounds.add_argument("--U", type=float, default=1.0)
    p_bounds.add_argument("--v-std", type=float, default=0.0)
    p_bounds.add_argument("--kappa-inf", type=float, default=2.0)
    p_bounds.add_argument("--e-q", type=float, default=None,
                          help="mean-curvature supremum in [dim*L, dim*U]; defaults to dim*U")
    p_bounds.add_argument("--alpha-rule", choices=ALPHA_RULES, default="const")
    p_bounds.add_argument("--c", type=float, default=1.0)
    p_bounds.add_argument("--p-target", type=float, default=None,
                          help="pick alpha_down to hit this success probability")
    p_bounds.add_argument("--q-low", type=float, default=None,
                          help="fixed pair for the constants; needed unless --sup")
    p_bounds.add_argument("--q-high", type=float, default=None)
    p_bounds.add_argument("--sup", action="store_true",
                          help="maximise the rate bound over (q_low, q_high)")
    p_bounds.add_argument("--trace-out", default=None,
                          help="CSV path for the (q_low, q_high) points the search "
                               "evaluated (with --sup)")

    p_verify = sub.add_parser("verify", help="run a verification suite; exit 2 on failure")
    p_verify.add_argument("--suite", required=True, choices=tuple(SUITES))
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    return parser


def _cmd_run(args) -> int:
    if args.thin < 1:  # fail before simulating the whole budget
        raise ValueError("thin must be >= 1")
    spec = harness.objective_for(args.objective, args.dim, args.kappa)
    params = params_for_rule(args.alpha_rule, args.dim, args.c)
    budget = args.budget if args.budget is not None else harness.default_budget(args.dim)
    init = init_default(spec, args.seed)
    traj = run(spec, params, init, budget, args.f_floor, args.seed)
    traj.to_csv(args.out, thin=args.thin)
    try:
        est = rates.estimate_cr(traj)
        rate_txt = f"cr_hat={est.cr_hat:.6g} stderr={est.stderr:.3g}"
    except ValueError as exc:
        rate_txt = f"rate unavailable ({exc})"
    print(
        f"wrote {args.out}: T={traj.t_final} stop={traj.stop_reason} {rate_txt}"
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg = harness.ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    rows = harness.run_experiment(cfg)
    simulated = time.perf_counter()
    harness.emit_csv(rows, out_dir / "results.csv")
    n_agg = sum(1 for r in rows if r.is_aggregate)
    print(f"wrote {out_dir}/results.csv ({len(rows) - n_agg} trials, {n_agg} cells)")
    skipped = []
    for field in ("scaled_rate", "cr_hat"):
        path = out_dir / f"{field}.svg"
        try:
            harness.emit_plot(rows, path, y_field=field)
        except ValueError as exc:  # no aggregate row with a finite positive value
            path.unlink(missing_ok=True)  # an earlier run's plot would not match results.csv
            skipped.append(path.name)
            print(f"skipped {path.name}: {exc}")
    wall_s = {"simulate": simulated - start, "write": time.perf_counter() - simulated}
    groups = len(lockstep_plan(harness.experiment_chains(cfg)))
    manifest = {"config": cfg.to_json(), "worker_count": pool.processes(groups),
                "lockstep_groups": groups, "skipped_plots": skipped, "wall_s": wall_s}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    # e_q defaults to dim * U, so a bad --dim or --U must not surface as a bad e_q.
    if args.dim < 1:
        raise ValueError(f"--dim must be >= 1, got {args.dim}")
    if not (math.isfinite(args.U) and args.U > 0):
        raise ValueError(f"--U must be finite and > 0, got {args.U!r}")
    if args.trace_out and not args.sup:
        raise ValueError("--trace-out needs --sup")
    pair = (args.q_low, args.q_high)
    if pair.count(None) == 1 or (not args.sup and None in pair):
        raise ValueError("give --q-low and --q-high together; only --sup runs without them")
    e_q = args.e_q if args.e_q is not None else args.dim * args.U
    extremes = theory.QExtremes(
        v_std_sup=args.v_std, kappa_inf=args.kappa_inf, e_q=e_q,
        strong_convexity=args.L,
    )
    if args.L > args.U:  # the range of e_q below would be empty
        raise ValueError(f"--L must not exceed --U, got --L {args.L!r} and --U {args.U!r}")
    # Q lies between L||z||^2 and U||z||^2 on every path, so E[Q] in [d L, d U].
    if not args.dim * args.L <= e_q <= args.dim * args.U:
        raise ValueError(f"e_q={e_q:g} must lie in [dim*L, dim*U] = "
                         f"[{args.dim * args.L:g}, {args.dim * args.U:g}]")
    params = params_for_rule(args.alpha_rule, args.dim, args.c)
    if args.p_target is not None:
        params = params_for_target(params.alpha_up, args.p_target)
    out = {}
    if args.q_low is not None:
        constants = theory.build_constants(extremes, params, args.q_low, args.q_high)
        out = constants.as_dict()
        out["w_over_l_ratio"] = constants.w / (args.L / e_q)
    out["p_target"] = p_target(params)
    if args.sup:
        trace = [] if args.trace_out else None
        out["b_upper_sup"] = theory.b_upper(extremes, params, trace=trace)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                fh.write("q_low,q_high,objective\n")
                for ql, qh, obj in trace:
                    fh.write(f"{ql!r},{qh!r},{obj!r}\n")
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    suite, n, seed = SUITES[args.suite]
    report = suite(n if args.n is None else args.n, seed if args.seed is None else args.seed)
    print(json.dumps(report, indent=2, default=float))
    return 0 if report["ok"] else 2


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        pool.worker_count()  # a bad ES_RATE_THREADS fails here, whatever the command
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_verify(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
