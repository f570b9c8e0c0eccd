"""Numeric machinery behind the convergence-rate bound.

This module turns the probabilistic bound constants into evaluable numbers:

* high-accuracy standard-normal CDF and quantile;
* the step-size threshold functions ``b_high`` / ``b_low`` (each an inner
  optimisation over a slack parameter ``eps``);
* the success sandwich ``Phi(-sigma_bar (1 -+ eps)/2) +- v/eps^2`` of a step of
  normalised size ``sigma_bar`` (:func:`_success_sandwich`, read by the lemma suite too);
* the lower feasibility limits of ``q_low``, ``q_high`` and ``q_floor``, each an
  end of the sandwich optimised over ``eps`` (one search), given ``b_low(q_low, v)``;
* the potential function, which augments ``log f(m)`` with penalties for a
  step size that is too small or too large relative to ``sqrt(L f(m))``;
* the per-iteration rate bound, maximised over admissible ``(q_low, q_high)``
  pairs by one golden-section search over ``q_low``, with the best
  ``q_high`` for each ``q_low`` in closed form.

All functions here are pure and deterministic; ``TheoryConstants`` is
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from statistics import NormalDist

import numpy as np

from .engine import EsParams, p_target

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "b_high",
    "b_low",
    "assumption_margin_rhs",
    "q_low_limit",
    "q_high_limit",
    "q_floor",
    "QExtremes",
    "TheoryConstants",
    "build_constants",
    "feasible_q_pair",
    "potential_from_values",
    "b_upper",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: b_low values beyond this are reported as divergent.
_B_LOW_CAP = 1e6
#: Golden-section searches stop once their bracket is this narrow relative to
#: its ends, about sqrt(machine epsilon): past it, the values near a smooth
#: maximum differ by rounding noise, which would decide the comparisons ...
_GOLDEN_TOL = 1e-8
#: ... and once the values across the bracket agree to this relative spread.
_GOLDEN_FLAT = 1e-13
#: The standard normal quantile: Wichura's AS 241 (Applied Statistics 37(3), 1988).
_quantile = NormalDist().inv_cdf


def _cdf(x: float) -> float:
    """The standard normal CDF, via ``erfc`` (``NormalDist().cdf`` is 0 below x = -8.3)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_cdf(x):
    """Standard normal CDF, relative error below 1e-12 from x = -37.5 up (subnormal below).

    Accepts scalars or arrays; scalars return floats.
    """
    return _cdf(x) if np.ndim(x) == 0 else np.vectorize(_cdf, otypes=[float])(x)

def std_normal_quantile(p):
    """Inverse standard normal CDF of a scalar or array; rejects p outside (0, 1) and NaN."""
    arr = np.asarray(p, dtype=float)
    if not np.all((0.0 < arr) & (arr < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return _quantile(float(arr)) if arr.ndim == 0 else np.vectorize(_quantile, otypes=[float])(arr)


# -- step-size threshold functions -------------------------------------------


def _b_high_at(q: float, v_std: float, eps: float) -> float:
    """Candidate value ``2 * quantile(1 - (q + v_std/eps^2)) / (1 + eps)``."""
    arg = 1.0 - (q + v_std / eps**2)
    if not 0.0 < arg < 1.0:
        return -math.inf
    return 2.0 * _quantile(arg) / (1.0 + eps)


def _b_low_at(q: float, v_std: float, eps: float) -> float:
    """Candidate value ``2 * quantile(1 - (q - v_std/eps^2)) / (1 - eps)``."""
    arg = 1.0 - (q - v_std / eps**2)
    if not 0.0 < arg < 1.0 or not eps < 1.0:
        return math.inf
    return 2.0 * _quantile(arg) / (1.0 - eps)


def _golden_max(fn, lo: float, hi: float):
    """``(x, fn(x))`` at the maximum of a unimodal ``fn``.

    Golden-section steps shrink the bracket ``[a, b]`` for at most 64 steps,
    and stop once it has closed in on the maximum: ``b - a <= _GOLDEN_TOL
    (|a| + |b|)``, and the values at ``a``, ``b`` and the two inner points
    agree within ``_GOLDEN_FLAT`` relative.  On a smooth maximum the second
    test already holds when the first does; on a kink it does not, and the
    steps go on, since the values there still decide the comparisons.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    fa = fb = -math.inf  # not evaluated: the ends count once they move onto inner points
    for _ in range(64):
        top = max(fc, fd)
        if (b - a <= _GOLDEN_TOL * (abs(a) + abs(b))
                and top - min(fa, fb) <= _GOLDEN_FLAT * abs(top)):
            break
        if fc >= fd:
            b, fb, d, fd = d, fd, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, fa, c, fc = c, fc, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def b_high(q: float, v_std: float) -> float:
    """Largest normalized step size certified to keep success probability > q.

    Maximises :func:`_b_high_at` over its open ``eps`` domain, in ``log(eps)``;
    the candidates are unimodal there.  At ``v_std == 0`` the supremum is
    the cap ``2 * quantile(1 - q)``, returned exactly.  Bounded above by
    that cap for every ``v_std``.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")
    if v_std < 0.0:
        raise ValueError("v_std must be nonnegative")
    if v_std == 0.0:
        return 2.0 * _quantile(1.0 - q)
    if not v_std < (1.0 - 2.0 * q) / 2.0:
        raise ValueError(
            f"eps domain admits no positive value: need v_std < (1-2q)/2 "
            f"(v_std={v_std}, q={q})"
        )
    eps0 = math.sqrt(2.0 * v_std / (1.0 - 2.0 * q))
    # Domain is open; inset the left endpoint.
    lo = math.log(eps0 * (1.0 + 1e-9))
    hi = math.log(max(1e3, 1e3 * eps0))
    return _golden_max(lambda t: _b_high_at(q, v_std, math.exp(t)), lo, hi)[1]


def b_low(q: float, v_std: float) -> float:
    """Smallest normalized step size certified to keep success probability < q.

    Minimises :func:`_b_low_at` over ``eps`` in ``(sqrt(v_std/q), 1)``.
    Requires ``v_std < q < 1/2``; values beyond 1e6 (the ``v_std -> q``
    divergence) are reported as unsupported.  Bounded below by
    ``2 * quantile(1 - q)``.
    """
    if not 0.0 < q < 0.5:
        raise ValueError("q must lie in (0, 1/2)")
    if v_std < 0.0:
        raise ValueError("v_std must be nonnegative")
    if v_std == 0.0:
        return 2.0 * _quantile(1.0 - q)
    if not v_std < q:
        raise ValueError(f"need v_std < q (v_std={v_std}, q={q})")
    lo = math.sqrt(v_std / q) * (1.0 + 1e-9)
    hi = 1.0 - 1e-12
    val = math.inf if lo >= hi else -_golden_max(lambda e: -_b_low_at(q, v_std, e), lo, hi)[1]
    if val > _B_LOW_CAP:
        raise ValueError(f"b_low exceeds {_B_LOW_CAP:g}; treated as divergent")
    return val


# -- feasibility limits -------------------------------------------------------


def assumption_margin_rhs(kappa_inf: float) -> float:
    """Admissible ceiling for the relative curvature variance.

    ``min(Phi(z) - 1/2, 1 - Phi(3z)) / 4`` with ``z = kappa_inf/(2 sqrt(2 pi))``;
    the upper tail is evaluated as ``Phi(-3z)`` to avoid rounding it to zero.
    """
    z = kappa_inf / (2.0 * math.sqrt(2.0 * math.pi))
    return 0.25 * min(_cdf(z) - 0.5, _cdf(-3.0 * z))


def _success_sandwich(sigma_bar: float, v_std: float, eps: float) -> tuple[float, float]:
    """``(low, high) = Phi(-sigma_bar (1 +- eps)/2) -+ v_std/eps^2``: the success lemma."""
    slack = v_std / eps**2
    return (_cdf(-0.5 * sigma_bar * (1.0 + eps)) - slack,
            _cdf(-0.5 * sigma_bar * (1.0 - eps)) + slack)


def _b_low_limit(reference: float, v_std_sup: float) -> float:
    """Supremum of ``{q : b_low(q, v) > reference}``: the infimum over ``eps`` in
    ``(0, 1)`` of ``H``, the upper end of :func:`_success_sandwich` at ``reference``.

    ``H`` has one stationary point, and ``inf H = Phi(-reference/2)`` at ``v == 0``.
    """
    if v_std_sup == 0.0:
        return _cdf(-0.5 * reference)
    # In log(eps): H(sqrt(v)) > 1 > 1/2 + v = H(1), so the minimum lies in (sqrt(v), 1).
    return -_golden_max(lambda t: -_success_sandwich(reference, v_std_sup, math.exp(t))[1],
                        0.5 * math.log(v_std_sup), 0.0)[1]


def q_low_limit(v_std_sup: float, kappa_inf: float) -> float:
    """Lower limit of the admissible ``q_low`` interval ``(lower, 1/2)``.

    ``b_low(q, v) >= K = kappa_inf sqrt(2/pi)`` iff ``q <= inf H``, with ``H``
    as in :func:`_b_low_limit`.  The limit is ``inf H`` capped at
    ``1/2 - 1e-12``, or ``v_std_sup`` when ``inf H`` lies below
    ``max(v (1 + 1e-9) + 1e-12, 1e-9)``.
    """
    if kappa_inf < 1.0:
        raise ValueError("kappa_inf must be >= 1")
    rhs = assumption_margin_rhs(kappa_inf)
    if not v_std_sup < rhs:
        raise ValueError("curvature-variance condition violated: "
                         f"v_std_sup={v_std_sup} >= {rhs:.6g}")
    lower = _b_low_limit(kappa_inf * _SQRT_2_OVER_PI, v_std_sup)
    if lower < max(v_std_sup * (1.0 + 1e-9) + 1e-12, 1e-9):
        return v_std_sup
    return min(lower, 0.5 - 1e-12)


def _b_high_limit(sigma_bar: float, v_std_sup: float, cap: float) -> float:
    """Infimum of ``{q : b_high(q, v) < sigma_bar}``, capped at ``min(cap,
    1/2 - v) - 1e-12``.  Below 1e-9 the infimum is returned as a value in
    ``[0, 1e-9)``: then every ``q`` from 1e-9 on qualifies.

    The test holds iff ``q > G(eps)`` for all ``eps > 0``, ``G`` the lower end
    of :func:`_success_sandwich`; so the infimum is ``sup G``, which is
    ``Phi(-c)``, ``c = sigma_bar/2``, at ``v == 0`` and less otherwise.
    """
    c = 0.5 * sigma_bar
    sup = _cdf(-c)
    if v_std_sup > 0.0 and sup >= 1e-9:  # else Phi(-c), maybe underflowed, is too low
        # In log(eps).  G > 0 needs eps > sqrt(v/Phi(-c)).  G' has the sign of
        # log(2v/eps^3) + c^2 (1 + eps)^2/2 + const, which falls up to eps_m,
        # where c^2 eps (1 + eps) = 3, and rises after: the interior maximum
        # of G lies left of eps_m, and right of it G < max(G(eps_m), 0).
        lo = 0.5 * math.log(v_std_sup / sup)
        hi = math.log((math.sqrt(1.0 + 12.0 / c**2) - 1.0) / 2.0)
        sup = -math.inf if lo >= hi else _golden_max(
            lambda t: _success_sandwich(sigma_bar, v_std_sup, math.exp(t))[0], lo, hi)[1]
    return min(max(sup, 0.0), min(cap, 0.5 - v_std_sup) - 1e-12)


def q_high_limit(b_low_value: float, v_std_sup: float, params: EsParams) -> float:
    """Lower limit of the admissible ``q_high`` interval ``(lower, 1/2)``.

    The crossing of ``(alpha_up/alpha_down) b_high(q, v) = b_low_value = b_low(q_low, v)``;
    ``Phi((alpha_down/alpha_up) quantile(q_low))`` at ``v_std_sup == 0``.
    """
    return _b_high_limit(b_low_value / math.exp(params.log_ratio), v_std_sup, 0.5)


def q_floor(b_low_value: float, v_std_sup: float, q_low: float) -> float:
    """Smallest success probability certified throughout the non-large regime.

    The infimum of ``{q : b_high(q, v) < b_low_value}``, ``b_low_value = b_low(q_low,
    v)``, below ``q_low``; equals ``q_low`` at ``v == 0``.  ``ValueError`` below 1e-9.
    """
    floor = _b_high_limit(b_low_value, v_std_sup, q_low)
    if not floor >= 1e-9:
        raise ValueError("q_floor collapsed to zero; inputs violate feasibility")
    return floor


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
    w = ((extremes.strong_convexity / extremes.e_q) * (bh / 2.0)
         * (_SQRT_2_OVER_PI - bl / extremes.kappa_inf) * qf)
    target = p_target(params)
    return w, 0.5 * min(w / 4.0, params.log_ratio) * min(target - q_low, q_high - target)


def build_constants(
    extremes: QExtremes, params: EsParams, q_low: float, q_high: float
) -> TheoryConstants:
    """Assemble the full constant set for a fixed ``(q_low, q_high)`` pair.

    Validates every feasibility requirement and raises ``ValueError`` naming
    the violated inequality.  Guarantees ``s < ell``, ``w > 0`` and
    ``v in (0, 1]`` on success.  ``s < ell`` holds iff ``q_high`` lies
    above :func:`q_high_limit`.
    """
    v_std = extremes.v_std_sup
    target = p_target(params)
    iq_lower = q_low_limit(v_std, extremes.kappa_inf)
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
    qf = q_floor(bl, v_std, q_low)
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
    iq_lower = q_low_limit(extremes.v_std_sup, extremes.kappa_inf)
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
    floor = max(q_high_limit(b_low(q_low, extremes.v_std_sup), extremes.v_std_sup, params), target)
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
    return log_f + constants.v * (np.maximum(small, 0.0) + np.maximum(large, 0.0))


# -- rate bound ----------------------------------------------------------------


def b_upper(extremes: QExtremes, params: EsParams, trace: list | None = None) -> float:
    """Per-iteration convergence-rate bound, maximised over admissible pairs.

    The bound is ``min(w/4, log_ratio) min(p - q_low, q_high - p) / 2``
    with ``w = a(q_low) b_high(q_high)``.  For each ``q_low`` the best
    ``q_high`` is ``max(edge+, min(max(q*, q_c), 2p - q_low, cap))``: ``q*``
    maximises ``b_high(q) (q - p)``, ``w/4`` falls to ``log_ratio`` at
    ``q_c``, ``2p - q_low`` is the kink of the second ``min``, and ``edge+``
    lies just above :func:`q_high_limit`.  One golden-section search over
    ``q_low`` then runs from :func:`q_low_limit` to ``p``, or to where no
    ``q_high`` below ``cap`` is admissible if that comes first.

    Raises ``ValueError`` when ``p_target`` falls outside the feasible
    interval (the bound is then unsupported at these parameters).  If
    ``trace`` is a list, one ``(q_low, q_high, objective)`` triple per
    evaluated ``q_low`` is appended.
    """
    v_std = extremes.v_std_sup
    iq_lower, target, cap = _target_bracket(extremes, params)
    hi = min(target, _b_low_limit(math.exp(params.log_ratio) * b_high(cap, v_std), v_std))
    if not iq_lower < hi:
        raise ValueError("no admissible (q_low, q_high) pair: "
                         f"q_low would lie in ({iq_lower:.6g}, {hi:.6g})")
    q_star = _golden_max(lambda q: b_high(q, v_std) * (q - target), target, cap)[0]
    scale = extremes.strong_convexity / extremes.e_q

    def objective(ql: float) -> float:
        bl = b_low(ql, v_std)
        qf = q_floor(bl, v_std, ql)
        a = scale * (_SQRT_2_OVER_PI - bl / extremes.kappa_inf) * qf / 2.0
        q_c = _b_high_limit(4.0 * params.log_ratio / a, v_std, cap)
        edge = q_high_limit(bl, v_std, params)
        qh = max(edge * (1.0 + 1e-12), min(max(q_star, q_c), 2.0 * target - ql, cap))
        bound = _decrease_and_bound(extremes, params, ql, qh, b_high(qh, v_std), bl, qf)[1]
        if trace is not None:
            trace.append((ql, qh, bound))
        return bound

    value = _golden_max(objective, iq_lower, hi)[1]
    if not value > 0:
        raise ValueError("no admissible (q_low, q_high) pair found")
    return float(value)
