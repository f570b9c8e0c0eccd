"""Convergence-rate estimation from recorded trajectories.

The estimated rate is minus the least-squares slope of the log-distance
series over the final window of a run (by default the last tenth of the
iterations, ``t in [floor(0.9 T) + 1, T]``).  If a run stopped early on the
value floor, the window re-anchors to the truncated final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Trajectory
from .objectives import ObjectiveSpec

__all__ = [
    "RateEstimate",
    "estimate_cr",
    "lower_rate_bound",
    "scaled_rate",
]


@dataclass(frozen=True)
class RateEstimate:
    """Estimated decay rate of the log distance, in nats per iteration."""

    cr_hat: float
    stderr: float
    window: tuple[int, int]


def ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ``y`` on ``x`` and its standard error.

    The error comes from the residual variance; an exact line returns 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two points for a slope")
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y)) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    resid = y - (intercept + slope * x)
    if n > 2:
        resid_var = float(np.dot(resid, resid)) / (n - 2)
    else:
        resid_var = 0.0
    return slope, math.sqrt(resid_var / sxx)


def _window(t_final: int, window_frac: float) -> tuple[int, int]:
    if not 0.0 < window_frac < 1.0:
        raise ValueError("window_frac must lie in (0, 1)")
    start = int(math.floor((1.0 - window_frac) * t_final)) + 1
    return start, t_final


def _series(traj: Trajectory, series: str) -> np.ndarray:
    if series == "log_dist":
        return traj.log_dist
    if series == "log_f_half":
        return 0.5 * traj.log_f
    raise ValueError(f"unknown series {series!r}")


def estimate_cr(traj: Trajectory, window_frac: float = 0.1, series: str = "log_dist") -> RateEstimate:
    """Rate estimate for one trajectory (minus the windowed OLS slope).

    ``series='log_f_half'`` regresses half the log objective value instead,
    which estimates the same rate on quadratics.
    """
    start, end = _window(traj.t_final, window_frac)
    if end - start + 1 < 10:
        raise ValueError(
            f"window [{start}, {end}] has fewer than 10 points; run longer"
        )
    y = _series(traj, series)[start : end + 1]
    if not np.all(np.isfinite(y)):
        raise ValueError("trajectory reached the optimum inside the window")
    slope, stderr = ols_slope(np.arange(start, end + 1), y)
    return RateEstimate(cr_hat=-slope, stderr=stderr, window=(start, end))


def lower_rate_bound(dim: int) -> float:
    """Maximal admissible rate, ``1/d`` nats per iteration."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 1.0 / dim


def scaled_rate(est: RateEstimate, spec: ObjectiveSpec) -> float:
    """Rate scaled by ``trace(H)/L`` on diagonal quadratics, by ``d*U/L`` otherwise."""
    if spec.is_quadratic:
        return est.cr_hat * spec.trace_hessian / spec.strong_convexity
    return est.cr_hat * spec.dim * spec.smoothness / spec.strong_convexity
