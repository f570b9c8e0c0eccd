"""Numeric machinery behind the convergence-rate bound.

This module turns the probabilistic bound constants into evaluable numbers:

* high-accuracy standard-normal CDF and quantile;
* the step-size threshold functions ``b_high`` / ``b_low`` (each an inner
  optimisation over a slack parameter ``eps``);
* the feasibility intervals for the success-probability constants
  ``q_low`` / ``q_high`` and the floor probability ``q_floor``;
* the potential function, which augments ``log f(m)`` with penalties for a
  step size that is too small or too large relative to ``sqrt(L f(m))``;
* the per-iteration rate bound obtained by maximising over admissible
  ``(q_low, q_high)`` pairs.

All functions here are pure and deterministic; ``TheoryConstants`` is
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .engine import EsParams, EsState, p_target
from .objectives import ObjectiveSpec

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "b_high",
    "b_low",
    "b_high_at",
    "b_low_at",
    "assumption_margin_rhs",
    "feasible_q_interval",
    "feasible_q_high_interval",
    "q_floor",
    "QExtremes",
    "TheoryConstants",
    "build_constants",
    "feasible_q_pair",
    "potential_value",
    "potential_from_values",
    "b_upper",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: b_low values beyond this are reported as divergent.
_B_LOW_CAP = 1e6
#: Points per axis of the (q_low, q_high) scan in :func:`b_upper`.
_GRID = 64


def std_normal_cdf(x):
    """Standard normal CDF, absolute error well below 1e-12.

    Accepts scalars or arrays; scalars return floats.
    """
    out = ndtr(x)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1); rejects endpoints."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = ndtri(arr)
    return float(out) if np.isscalar(p) or np.ndim(p) == 0 else out


# -- step-size threshold functions -------------------------------------------


def b_high_at(q: float, v_std: float, eps: float) -> float:
    """Candidate value ``2 * quantile(1 - (q + v_std/eps^2)) / (1 + eps)``."""
    arg = 1.0 - (q + v_std / eps**2)
    if not 0.0 < arg < 1.0:
        return -math.inf
    return 2.0 * float(ndtri(arg)) / (1.0 + eps)


def b_low_at(q: float, v_std: float, eps: float) -> float:
    """Candidate value ``2 * quantile(1 - (q - v_std/eps^2)) / (1 - eps)``."""
    arg = 1.0 - (q - v_std / eps**2)
    if not 0.0 < arg < 1.0 or not eps < 1.0:
        return math.inf
    return 2.0 * float(ndtri(arg)) / (1.0 - eps)


def _golden_max(fn, lo: float, hi: float, iters: int = 64):
    """``(x, fn(x))`` at the maximum of a unimodal ``fn`` (golden section)."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def _crossing(fn, lo: float, hi: float) -> float | None:
    """Sign change of a decreasing ``fn`` on ``[lo, hi]``, to a few ulps.

    Brent's method (Brent 1973, ch. 4): secant and inverse quadratic steps
    inside the bracket ``[b, c]``, and a bisection whenever they shrink it
    too slowly.  Returns the bracket end where ``fn >= 0``; ``hi`` if
    ``fn(hi) >= 0``; ``None`` if ``fn(lo) < 0``.
    """
    a, fa = lo, fn(lo)
    if fa < 0:
        return None
    b, fb = hi, fn(hi)
    if fb >= 0:
        return hi
    c, fc = a, fa
    d = e = b - a  # the last step and the one before it
    while True:
        if (fb >= 0) == (fc >= 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * math.ulp(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0:
            return b if fb >= 0 else c
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b and c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = fn(b)


def b_high(q: float, v_std: float) -> float:
    """Largest normalized step size certified to keep success probability > q.

    Maximises :func:`b_high_at` over its open ``eps`` domain, in ``log(eps)``;
    the candidates are unimodal there.  At ``v_std == 0`` the supremum is
    the cap ``2 * quantile(1 - q)``, returned exactly.  Bounded above by
    that cap for every ``v_std``.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")
    if v_std < 0.0:
        raise ValueError("v_std must be nonnegative")
    if v_std == 0.0:
        return 2.0 * float(ndtri(1.0 - q))
    if not v_std < (1.0 - 2.0 * q) / 2.0:
        raise ValueError(
            f"eps domain admits no positive value: need v_std < (1-2q)/2 "
            f"(v_std={v_std}, q={q})"
        )
    eps0 = math.sqrt(2.0 * v_std / (1.0 - 2.0 * q))
    # Domain is open; inset the left endpoint.
    lo = math.log(eps0 * (1.0 + 1e-9))
    hi = math.log(max(1e3, 1e3 * eps0))
    return _golden_max(lambda t: b_high_at(q, v_std, math.exp(t)), lo, hi)[1]


def _b_low_value(q: float, v_std: float) -> float:
    if v_std == 0.0:
        return 2.0 * float(ndtri(1.0 - q))
    lo = math.sqrt(v_std / q) * (1.0 + 1e-9)
    hi = 1.0 - 1e-12
    if lo >= hi:
        return math.inf
    return -_golden_max(lambda e: -b_low_at(q, v_std, e), lo, hi)[1]


def b_low(q: float, v_std: float) -> float:
    """Smallest normalized step size certified to keep success probability < q.

    Minimises :func:`b_low_at` over ``eps`` in ``(sqrt(v_std/q), 1)``.
    Requires ``v_std < q < 1/2``; values beyond 1e6 (the ``v_std -> q``
    divergence) are reported as unsupported.  Bounded below by
    ``2 * quantile(1 - q)``.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")
    if v_std < 0.0:
        raise ValueError("v_std must be nonnegative")
    if v_std > 0.0 and not v_std < q:
        raise ValueError(f"need v_std < q (v_std={v_std}, q={q})")
    val = _b_low_value(q, v_std)
    if val > _B_LOW_CAP:
        raise ValueError(f"b_low exceeds {_B_LOW_CAP:g}; treated as divergent")
    return val


# -- feasibility intervals ----------------------------------------------------


def assumption_margin_rhs(kappa_inf: float) -> float:
    """Admissible ceiling for the relative curvature variance.

    ``min(Phi(z) - 1/2, 1 - Phi(3z)) / 4`` with ``z = kappa_inf/(2 sqrt(2 pi))``;
    the upper tail is evaluated as ``Phi(-3z)`` to avoid rounding it to zero.
    """
    z = kappa_inf / (2.0 * math.sqrt(2.0 * math.pi))
    return 0.25 * min(float(ndtr(z)) - 0.5, float(ndtr(-3.0 * z)))


def feasible_q_interval(v_std_sup: float, kappa_inf: float) -> tuple[float, float]:
    """Open interval of admissible ``q_low`` values, ``(lower, 1/2)``.

    ``lower`` is the larger of ``v_std_sup`` and the crossing point where
    ``b_low(q, v_std_sup)`` falls to ``kappa_inf * sqrt(2/pi)`` (``b_low`` is
    decreasing in ``q``).
    """
    if kappa_inf < 1.0:
        raise ValueError("kappa_inf must be >= 1")
    if not v_std_sup < assumption_margin_rhs(kappa_inf):
        raise ValueError(
            "curvature-variance condition violated: "
            f"v_std_sup={v_std_sup} >= {assumption_margin_rhs(kappa_inf):.6g}"
        )
    target = kappa_inf * _SQRT_2_OVER_PI
    lo = max(v_std_sup * (1.0 + 1e-9) + 1e-12, 1e-9)
    crossing = _crossing(lambda q: _b_low_value(q, v_std_sup) - target, lo, 0.5 - 1e-12)
    return (v_std_sup if crossing is None else crossing), 0.5


def feasible_q_high_interval(
    q_low: float, v_std_sup: float, params: EsParams
) -> tuple[float, float]:
    """Open interval of admissible ``q_high`` values for a given ``q_low``.

    The lower limit is the crossing point of
    ``(alpha_up/alpha_down) * b_high(q, v) = b_low(q_low, v)`` (the left
    side decreases in ``q``).  At ``v_std_sup == 0`` it equals
    ``Phi((alpha_down/alpha_up) * quantile(q_low))``.
    """
    ratio = math.exp(params.log_ratio)
    reference = b_low(q_low, v_std_sup)
    lower = _crossing(
        lambda q: ratio * b_high(q, v_std_sup) - reference, 1e-9, 0.5 - v_std_sup - 1e-12
    )
    if lower is None:
        raise ValueError("no q_high qualifies for this q_low")
    return lower, 0.5


def q_floor(q_low: float, v_std_sup: float) -> float:
    """Smallest success probability certified throughout the non-large regime.

    The infimum of ``{q : b_high(q, v) < b_low(q_low, v)}``; equals ``q_low``
    at ``v_std_sup == 0`` and stays positive.
    """
    reference = b_low(q_low, v_std_sup)
    hi = min(q_low, 0.5 - v_std_sup) - 1e-12
    lower = _crossing(lambda q: b_high(q, v_std_sup) - reference, 1e-9, hi)
    if lower is None:
        raise ValueError("q_floor collapsed to zero; inputs violate feasibility")
    return lower


# -- constants ----------------------------------------------------------------


@dataclass(frozen=True)
class QExtremes:
    """State-space extremes of the curvature statistics of an objective.

    ``v_std_sup``: supremum of relative curvature variance; ``kappa_inf``:
    infimum of the curvature half-split ratio (>= 1); ``e_q``: supremum of
    the mean curvature along the mutation (equals the Hessian trace for
    diagonal quadratics); ``strong_convexity``: the modulus L.
    """

    v_std_sup: float
    kappa_inf: float
    e_q: float
    strong_convexity: float

    def __post_init__(self) -> None:
        for name, ok, need in (
            ("strong_convexity", self.strong_convexity > 0, "> 0"),
            ("e_q", self.e_q > 0, "> 0"),
            ("v_std_sup", self.v_std_sup >= 0, ">= 0"),
            ("kappa_inf", self.kappa_inf >= 1, ">= 1"),
        ):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and {need}, got {value!r}")


@dataclass(frozen=True)
class TheoryConstants:
    """All derived constants of the rate bound for one parameterisation.

    ``s < ell`` bracket the well-adapted step-size band (in units of
    ``sqrt(L f(m)) / e_q``), ``w`` is the guaranteed per-step expected
    decrease in the well-adapted regime, ``v`` the penalty weight of the
    potential function, and ``b_upper`` the resulting rate bound at the
    fixed ``(q_low, q_high)`` pair.
    """

    q_low: float
    q_high: float
    b_high: float
    b_low: float
    kappa_inf: float
    e_q: float
    q_floor: float
    s: float
    ell: float
    w: float
    v: float
    b_upper: float
    strong_convexity: float
    alpha_up: float
    alpha_down: float

    def as_dict(self) -> dict:
        return {k: float(val) for k, val in asdict(self).items()}


def _decrease_and_bound(extremes, params, q_low, q_high, bh, bl, qf):
    """``(w, bound)``: the well-adapted expected decrease and the rate bound."""
    w = (
        (extremes.strong_convexity / extremes.e_q)
        * (bh / 2.0)
        * (_SQRT_2_OVER_PI - bl / extremes.kappa_inf)
        * qf
    )
    target = p_target(params)
    return w, 0.5 * min(w / 4.0, params.log_ratio) * min(target - q_low, q_high - target)


def build_constants(
    extremes: QExtremes, params: EsParams, q_low: float, q_high: float
) -> TheoryConstants:
    """Assemble the full constant set for a fixed ``(q_low, q_high)`` pair.

    Validates every feasibility requirement and raises ``ValueError`` naming
    the violated inequality.  Guarantees ``s < ell``, ``w > 0`` and
    ``v in (0, 1]`` on success.  ``s < ell`` holds iff ``q_high`` lies
    above the lower limit of :func:`feasible_q_high_interval`.
    """
    v_std = extremes.v_std_sup
    target = p_target(params)
    iq_lower, _ = feasible_q_interval(v_std, extremes.kappa_inf)
    if not iq_lower < q_low < 0.5:
        raise ValueError(
            f"q_low={q_low} outside feasible interval ({iq_lower:.6g}, 0.5)"
        )
    if not q_low < target < q_high:
        raise ValueError(
            f"q_low < p_target < q_high violated: "
            f"({q_low}, {target:.6g}, {q_high})"
        )
    if not q_high < 0.5 - v_std:  # the domain of b_high
        raise ValueError(
            f"q_high={q_high} outside feasible interval: need q_high < {0.5 - v_std:.6g}"
        )
    bh = b_high(q_high, v_std)
    bl = b_low(q_low, v_std)
    s = math.sqrt(2.0) * params.alpha_up * bh
    ell = math.sqrt(2.0) * params.alpha_down * bl
    if not s < ell:
        raise ValueError(
            f"q_high={q_high} outside feasible interval for q_low={q_low}: "
            f"s < ell violated (s={s:.6g}, ell={ell:.6g})"
        )
    qf = q_floor(q_low, v_std)
    w, bound = _decrease_and_bound(extremes, params, q_low, q_high, bh, bl, qf)
    if not w > 0:
        raise ValueError(f"w must be positive, got {w:.6g}")
    v = min(w / (4.0 * params.log_ratio), 1.0)
    return TheoryConstants(
        q_low=q_low,
        q_high=q_high,
        b_high=bh,
        b_low=bl,
        kappa_inf=extremes.kappa_inf,
        e_q=extremes.e_q,
        q_floor=qf,
        s=s,
        ell=ell,
        w=w,
        v=v,
        b_upper=bound,
        strong_convexity=extremes.strong_convexity,
        alpha_up=params.alpha_up,
        alpha_down=params.alpha_down,
    )


def _target_bracket(extremes: QExtremes, params: EsParams) -> tuple[float, float, float]:
    """``(lower, p_target, cap)``: the feasible ``q_low`` interval is
    ``(lower, 1/2)`` and contains ``p_target``; ``q_high`` stays below ``cap``,
    inside the domain of :func:`b_high`.  Raises ``ValueError`` otherwise."""
    target = p_target(params)
    iq_lower, _ = feasible_q_interval(extremes.v_std_sup, extremes.kappa_inf)
    if not iq_lower < target < 0.5:
        raise ValueError(
            f"p_target={target:.6g} is not inside the feasible interval "
            f"({iq_lower:.6g}, 0.5)"
        )
    cap = 0.5 - extremes.v_std_sup - 1e-9
    if cap <= target:
        raise ValueError("no admissible q_high above p_target")
    return iq_lower, target, cap


def feasible_q_pair(extremes: QExtremes, params: EsParams) -> tuple[float, float]:
    """A default admissible ``(q_low, q_high)`` pair straddling ``p_target``."""
    iq_lower, target, cap = _target_bracket(extremes, params)
    q_low = 0.5 * (iq_lower + target)
    iqh_lower, _ = feasible_q_high_interval(q_low, extremes.v_std_sup, params)
    floor = max(iqh_lower, target)
    if not floor < cap:
        raise ValueError("no admissible q_high above p_target")
    q_high = 0.5 * (floor + cap)
    return q_low, q_high


# -- potential function --------------------------------------------------------


def potential_from_values(f_values, log_sigmas, constants: TheoryConstants):
    """Potential evaluated from objective values and log step sizes.

    ``log f + v*max(log(s sqrt(L f)/(sigma e_q)), 0)
    + v*max(log(sigma e_q/(ell sqrt(L f))), 0)``; vectorised.
    """
    log_f = np.log(f_values)
    log_sig = np.asarray(log_sigmas, dtype=float)
    half = 0.5 * (math.log(constants.strong_convexity) + log_f)
    small = math.log(constants.s) + half - log_sig - math.log(constants.e_q)
    large = log_sig + math.log(constants.e_q) - math.log(constants.ell) - half
    out = log_f + constants.v * (np.maximum(small, 0.0) + np.maximum(large, 0.0))
    return out


def potential_value(state: EsState, spec: ObjectiveSpec, constants: TheoryConstants) -> float:
    """Potential of one chain state; always >= log f(m)."""
    f_m = spec.canonical_value(state.m)
    if not f_m > 0:
        raise ValueError("potential requires a state away from the optimum")
    return float(potential_from_values(f_m, state.log_sigma, constants))


# -- rate bound ----------------------------------------------------------------


def b_upper(extremes: QExtremes, params: EsParams, trace: list | None = None) -> float:
    """Per-iteration convergence-rate bound, maximised over admissible pairs.

    Runs a ``_GRID x _GRID`` scan of ``(q_low, q_high)`` followed by local
    golden-section refinement in each coordinate.  Raises ``ValueError``
    when ``p_target`` falls outside the feasible interval (the bound is
    then unsupported at these parameters).  If ``trace`` is a list, one
    ``(q_low, q_high, objective)`` triple per scanned grid point is
    appended.
    """
    v_std = extremes.v_std_sup
    iq_lower, target, qh_cap = _target_bracket(extremes, params)
    pad = 1e-6 * (target - iq_lower)
    q_lows = np.linspace(iq_lower + pad, target - pad, _GRID)
    hpad = 1e-6 * (qh_cap - target)
    q_highs = np.linspace(target + hpad, qh_cap - hpad, _GRID)
    bh_vals = np.array([b_high(q, v_std) for q in q_highs])
    ratio = math.exp(params.log_ratio)

    low_cache: dict[float, tuple[float, float]] = {}

    def low_side(ql: float) -> tuple[float, float]:
        if ql not in low_cache:
            bl = _b_low_value(ql, v_std)
            qf = q_floor(ql, v_std) if bl <= _B_LOW_CAP else math.nan
            low_cache[ql] = (bl, qf)
        return low_cache[ql]

    def objective(ql: float, qh: float, bh: float) -> float:
        bl, qf = low_side(ql)
        # (ql, qh) is admissible iff qh lies above the interval crossing,
        # i.e. ratio * b_high(qh) < b_low(ql).
        if bl > _B_LOW_CAP or ratio * bh >= bl:
            return -math.inf
        w, bound = _decrease_and_bound(extremes, params, ql, qh, bh, bl, qf)
        return bound if w > 0 else -math.inf

    best = (-math.inf, None, None)
    for ql in q_lows:
        ql = float(ql)
        if low_side(ql)[0] > _B_LOW_CAP:
            continue
        for qh, bh in zip(q_highs, bh_vals):
            obj = objective(ql, qh, bh)
            if trace is not None:
                trace.append((ql, float(qh), float(obj)))
            if obj > best[0]:
                best = (obj, ql, float(qh))

    value, ql, qh = best
    if value <= 0 or ql is None:
        raise ValueError("no admissible (q_low, q_high) pair found on the grid")

    def eval_pair(a, b):
        try:
            return objective(a, b, b_high(b, v_std))
        except ValueError:
            return -math.inf

    for _ in range(2):  # coordinate-wise refinement
        lo = max(iq_lower + pad, ql - (target - iq_lower) / _GRID)
        hi = min(target - pad, ql + (target - iq_lower) / _GRID)
        ql, val_l = _golden_max(lambda a: eval_pair(a, qh), lo, hi, iters=40)
        lo = max(target + hpad, qh - (qh_cap - target) / _GRID)
        hi = min(qh_cap - hpad, qh + (qh_cap - target) / _GRID)
        qh, val_h = _golden_max(lambda b: eval_pair(ql, b), lo, hi, iters=40)
        value = max(value, val_l, val_h)
    return float(value)
