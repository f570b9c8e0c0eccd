"""Experiment orchestration: config, grid runner, CSV/SVG emission.

A configuration describes a grid of objectives (families x dims x condition
exponents), the step-size rule, and the trial count.  Each (cell, trial)
pair owns an independent RNG stream keyed by ``(base_seed, cell_index,
trial_index)``, so results are bit-stable regardless of execution order or
worker count.

:func:`run_experiment` hands every trial's chain
(:func:`experiment_chains`) to :func:`esrate.engine.run_all`, which steps
them in lockstep groups over one process pool (sized by
``ES_RATE_THREADS``; 1 runs them in process) and fits each trajectory in its
worker; the rows come back in grid-then-seed order.
The verification suites live in :mod:`esrate.verify`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from itertools import product

import numpy as np

from . import rates
from .engine import ALPHA_RULES, Trajectory, init_default, params_for_rule, run_all, trial_seed
from .objectives import ObjectiveSpec, check_kappa, hessian_family, is_int, perturbed_family

# Kept for perfbench/workloads.py, which changes only with the benchmark.
from .verify import drift_report, invariance_report  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "CSV_HEADER",
    "objective_for",
    "experiment_chains",
    "run_experiment",
    "emit_csv",
    "read_csv",
    "emit_plot",
]

#: Objective kind -> builder of its spec from ``(dim, kappa)``.
OBJECTIVE_KINDS = {
    "h1": partial(hessian_family, "h1"),
    "h2": partial(hessian_family, "h2"),
    "h3": partial(hessian_family, "h3"),
    "perturbed": perturbed_family,
}


def _is_real(value) -> bool:
    """An int or float that is finite as a float; bools excluded."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def default_budget(dim: int) -> int:
    """Steps of a run when no budget is given."""
    return 10000 + 1000 * dim


def objective_for(kind: str, dim: int, kappa: int) -> ObjectiveSpec:
    if kind not in OBJECTIVE_KINDS:
        raise ValueError(f"unknown objective kind {kind!r}")
    return OBJECTIVE_KINDS[kind](dim, kappa)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition plus run parameters; mirrors the JSON schema 1:1."""

    kinds: tuple[str, ...]
    dims: tuple[int, ...]
    kappas: tuple[int, ...]
    alpha_rule: str = "const"
    c: float = 1.0
    trials: int = 10
    base_seed: int = 0
    budget: int | None = None  # None -> default_budget(d)
    f_floor: float = 1e-100
    window_frac: float = 0.1

    def __post_init__(self) -> None:
        if not (self.kinds and self.dims and self.kappas):
            raise ValueError("objective grid must be nonempty")
        for kind in self.kinds:
            if not isinstance(kind, str) or kind not in OBJECTIVE_KINDS:
                raise ValueError(f"unknown objective kind {kind!r}")
        if not all(is_int(dim) and dim >= 1 for dim in self.dims):
            raise ValueError(f"dims must be positive integers, got {list(self.dims)}")
        for kappa in self.kappas:
            check_kappa(kappa)
        if self.alpha_rule not in ALPHA_RULES:
            raise ValueError(f"unknown alpha rule {self.alpha_rule!r}")
        if not (is_int(self.trials) and self.trials >= 1):
            raise ValueError("trials must be a positive integer")
        if not (is_int(self.base_seed) and self.base_seed >= 0):
            raise ValueError("base_seed must be a non-negative integer")
        for name in ("c", "f_floor", "window_frac"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if not 0.0 < self.window_frac < 1.0:
            raise ValueError("window_frac must lie in (0, 1)")
        if not self.f_floor > 0:
            raise ValueError("f_floor must be positive")
        if self.budget is not None and not (is_int(self.budget) and self.budget >= 1):
            raise ValueError("budget must be a positive integer")
        for dim in self.dims:
            params_for_rule(self.alpha_rule, dim, self.c)  # validates

    def budget_for(self, dim: int) -> int:
        return self.budget if self.budget is not None else default_budget(dim)

    def cells(self) -> list[tuple[int, str, int, int]]:
        return [
            (i, kind, dim, kappa)
            for i, (kind, dim, kappa) in enumerate(
                product(self.kinds, self.dims, self.kappas)
            )
        ]

    def to_json(self) -> dict:
        out = asdict(self)
        out["kinds"] = list(self.kinds)
        out["dims"] = list(self.dims)
        out["kappas"] = list(self.kappas)
        return out

    @staticmethod
    def from_json(obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"config must be a JSON object, got {type(obj).__name__}")
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(ExperimentConfig) if f.default is MISSING} - set(obj)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        obj = dict(obj)
        for key in ("kinds", "dims", "kappas"):
            if key in obj:
                if not isinstance(obj[key], list):
                    raise ValueError(f"{key} must be a list, got {obj[key]!r}")
                obj[key] = tuple(obj[key])
        return ExperimentConfig(**obj)


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: a single trial, or a cell aggregate (seed == 'agg').

    Every field is a function of the config, so ``results.csv`` is too.
    """

    objective: str
    d: int
    kappa: int
    alpha_rule: str
    seed: str
    cr_hat: float
    stderr: float
    scaled_rate: float
    stop_reason: str

    @property
    def is_aggregate(self) -> bool:
        return self.seed == "agg"


def aggregate_cell(trial_rows: list[ResultRow]) -> ResultRow:
    """Mean rate and trial-scatter stderr (NaN below two finite rates) of one cell's trials."""
    first = trial_rows[0]
    values = np.array([r.cr_hat for r in trial_rows])
    scaled = np.array([r.scaled_rate for r in trial_rows])
    good = np.isfinite(values)
    if np.any(good):
        mean = float(values[good].mean())
        k = int(good.sum())
        stderr = float(values[good].std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
        scaled_mean = float(scaled[good].mean())
    else:
        mean = stderr = scaled_mean = math.nan
    return ResultRow(
        objective=first.objective, d=first.d, kappa=first.kappa,
        alpha_rule=first.alpha_rule, seed="agg", cr_hat=mean, stderr=stderr,
        scaled_rate=scaled_mean, stop_reason="",
    )


def experiment_chains(cfg: ExperimentConfig) -> list[tuple]:
    """The :func:`esrate.engine.run` arguments of every trial, in grid-then-seed order.

    Trial ``t`` of cell ``i`` starts at :func:`esrate.engine.init_default`
    and draws from the stream of ``trial_seed(base_seed, i, t)``.
    """
    chains = []
    for cell_index, kind, dim, kappa in cfg.cells():
        spec = objective_for(kind, dim, kappa)
        params = params_for_rule(cfg.alpha_rule, dim, cfg.c)
        for trial in range(cfg.trials):
            seed = trial_seed(cfg.base_seed, cell_index, trial)
            chains.append((spec, params, init_default(spec, seed), cfg.budget_for(dim),
                           cfg.f_floor, seed))
    return chains


def _fit(window_frac: float, traj: Trajectory) -> tuple[rates.RateEstimate | None, str]:
    """A trajectory's rate estimate (None where it has none) and stop reason."""
    try:
        return rates.estimate_cr(traj, window_frac), traj.stop_reason
    except ValueError:
        return None, traj.stop_reason


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the full grid; per-trial rows in grid-then-seed order, plus one
    aggregate row after each cell.  Deterministic given ``base_seed``,
    independent of the worker count and of the grouping.

    :func:`esrate.engine.run_all` runs the chains of :func:`experiment_chains`
    and fits each one in its worker.
    """
    chains = experiment_chains(cfg)
    fits = run_all(chains, partial(_fit, cfg.window_frac))
    rows: list[ResultRow] = []
    for cell_index, kind, dim, kappa in cfg.cells():
        cell_rows = []
        for trial in range(cfg.trials):
            job = cell_index * cfg.trials + trial
            est, stop_reason = fits[job]
            fit = ((est.cr_hat, est.stderr, rates.scaled_rate(est, chains[job][0]))
                   if est is not None else (math.nan, math.nan, math.nan))
            cell_rows.append(ResultRow(kind, dim, kappa, cfg.alpha_rule, str(trial), *fit,
                                       stop_reason))
        rows.extend(cell_rows)
        rows.append(aggregate_cell(cell_rows))
    return rows


# -- CSV ------------------------------------------------------------------------


_FIELDS = fields(ResultRow)
CSV_HEADER = [f.name for f in _FIELDS]
_PARSE = {"str": str, "int": int, "float": float}  # annotation -> parser


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write rows under the fixed header; floats keep full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                repr(float(getattr(r, f.name))) if f.type == "float" else getattr(r, f.name)
                for f in _FIELDS
            ])


def read_csv(path) -> list[ResultRow]:
    with open(path, newline="") as fh:
        return [
            ResultRow(**{f.name: _PARSE[f.type](rec[f.name]) for f in _FIELDS})
            for rec in csv.DictReader(fh)
        ]


# -- SVG plot ---------------------------------------------------------------------


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]
_WIDTH, _HEIGHT = 640, 480
_MARGIN = {"left": 70, "right": 160, "top": 30, "bottom": 50}


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def emit_plot(rows: list[ResultRow], path, y_field: str = "scaled_rate") -> None:
    """Standalone SVG: rate (or scaled rate) against dimension, log-log.

    Uses aggregate rows only; one series per (objective, kappa).  A dashed
    reference line marks 0.1 when plotting the scaled rate.  Output bytes
    are a pure function of the rows.
    """
    if y_field not in ("scaled_rate", "cr_hat"):
        raise ValueError("y_field must be 'scaled_rate' or 'cr_hat'")
    agg = [r for r in rows if r.is_aggregate]
    series: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for r in agg:
        y = getattr(r, y_field)
        if math.isfinite(y) and y > 0:
            series.setdefault((r.objective, r.kappa), []).append((r.d, y))
    if not series:
        raise ValueError(f"no aggregate row has a finite positive {y_field}")
    xs = [d for pts in series.values() for d, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if y_field == "scaled_rate":
        ys = ys + [0.1]
    x_lo, x_hi = min(xs) / 1.5, max(xs) * 1.5
    y_lo, y_hi = min(ys) / 2.0, max(ys) * 2.0

    px_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    px_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def sx(x: float) -> float:
        frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        return _MARGIN["left"] + frac * px_w

    def sy(y: float) -> float:
        frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MARGIN["top"] + (1.0 - frac) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_MARGIN["left"]}" y="{_MARGIN["top"]}" width="{px_w}" '
        f'height="{px_h}" fill="none" stroke="#333"/>',
    ]
    for tick in _log_ticks(x_lo, x_hi):
        if x_lo <= tick <= x_hi:
            x = sx(tick)
            parts.append(
                f'<line x1="{x:.2f}" y1="{_MARGIN["top"]}" x2="{x:.2f}" '
                f'y2="{_MARGIN["top"] + px_h}" stroke="#ddd"/>'
            )
            parts.append(
                f'<text x="{x:.2f}" y="{_MARGIN["top"] + px_h + 18}" '
                f'text-anchor="middle" font-size="12">{tick:g}</text>'
            )
    for tick in _log_ticks(y_lo, y_hi):
        if y_lo <= tick <= y_hi:
            y = sy(tick)
            parts.append(
                f'<line x1="{_MARGIN["left"]}" y1="{y:.2f}" '
                f'x2="{_MARGIN["left"] + px_w}" y2="{y:.2f}" stroke="#ddd"/>'
            )
            parts.append(
                f'<text x="{_MARGIN["left"] - 6}" y="{y + 4:.2f}" '
                f'text-anchor="end" font-size="12">{tick:g}</text>'
            )
    if y_field == "scaled_rate" and y_lo <= 0.1 <= y_hi:
        y = sy(0.1)
        parts.append(
            f'<line x1="{_MARGIN["left"]}" y1="{y:.2f}" x2="{_MARGIN["left"] + px_w}" '
            f'y2="{y:.2f}" stroke="#888" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{_MARGIN["left"] + px_w - 4}" y="{y - 5:.2f}" '
            f'text-anchor="end" font-size="11" fill="#888">floor 0.1</text>'
        )
    if y_field == "cr_hat":
        label = "rate (nats/iter)"
    elif any(kind == "perturbed" for kind, _ in series):  # see rates.scaled_rate
        label = "scaled rate (trace/L; perturbed: d&#183;U/L)"
    else:
        label = "scaled rate (trace/L)"
    parts.append(
        f'<text x="{_MARGIN["left"] + px_w / 2:.2f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-size="13">dimension d</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN["top"] + px_h / 2:.2f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 18 {_MARGIN["top"] + px_h / 2:.2f})">{label}</text>'
    )
    for i, key in enumerate(sorted(series)):
        pts = sorted(series[key])
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(d):.2f},{sy(yv):.2f}" for d, yv in pts)
        if len(pts) >= 2:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for d, yv in pts:
            parts.append(
                f'<circle cx="{sx(d):.2f}" cy="{sy(yv):.2f}" r="3.5" fill="{color}"/>'
            )
        ly = _MARGIN["top"] + 14 + 18 * i
        lx = _MARGIN["left"] + px_w + 14
        parts.append(f'<circle cx="{lx}" cy="{ly - 4}" r="3.5" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 9}" y="{ly}" font-size="12">{key[0]} &#954;={key[1]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
