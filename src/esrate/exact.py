"""Exact values that draw no rows: the moments of ``Q``, ``sigma_bar``, the regime, Assumption 2.

Contract: every function here is pure and draws no mutation row, so none
has a standard error.  On a diagonal quadratic the moments of ``Q`` are
the same at every state; on ``perturbed`` they are sums of ``d``
elementary closed forms (:func:`_perturbed_moments`), Dawson's function
included.  Only numpy's core is used: no scipy and no ``numpy.polynomial``.
:func:`check_assumption2` and :func:`q_extremes` read one scan
(:func:`_scan`), whose only random numbers are the directions of
:func:`_state_grid`, from the one-element key ``rng_stream(seed, 7)``.  The
input checks that the Monte Carlo estimators of :mod:`esrate.analysis`
share live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import EsState, default_sigma0, rng_stream
from .objectives import PERTURB_AMP, PERTURB_FREQ, ObjectiveSpec, _positive_value, is_int
from .theory import QExtremes, TheoryConstants, assumption_margin_rhs

__all__ = ["quadratic_q_exact", "sigma_bar", "state_at_sigma_bar", "regime_of", "q_extremes",
           "Assumption2Report", "check_assumption2"]

#: Rybicki's sum for Dawson's function: step ``h`` and the odd offsets
#: ``k``, ``|k| <= 27``, whose weights ``exp(-(eps - k h)^2)``, ``|eps| <= h``,
#: reach below 1e-18; the sum's own error is about ``exp(-(pi / 2h)^2)``, 7e-18.
_DAWSON_H = 0.25
_DAWSON_K = np.arange(-27, 28, 2)

#: Taylor coefficients of ``(x - F(x)) / x^3`` in ``x^2`` for Dawson's ``F``,
#: ``(-1)^(k+1) 2^k / (2k+1)!!`` for ``k = 14 .. 1`` (highest first), used
#: below ``|x| = 0.5``.
_DAWSON_GAP = np.array([(-1) ** (k + 1) * 2.0**k / math.prod(range(1, 2 * k + 2, 2))
                        for k in range(14, 0, -1)])

#: Taylor coefficients of ``E[(sin(sz) - sz)^2] / t^3`` in ``t = s^2``,
#: ``(-1)^(k+1) 2^(k-1) / k! - 2 (-1/2)^(k-1) / (k-1)!`` for ``k = 26 .. 3``
#: (highest first), used below ``t = 1``, where the closed form cancels.
_SIN_GAP_VAR = np.array([(-1) ** (k + 1) * 2.0 ** (k - 1) / math.factorial(k)
                         - 2.0 * (-0.5) ** (k - 1) / math.factorial(k - 1)
                         for k in range(26, 2, -1)])


def _require_plain(spec: ObjectiveSpec) -> None:
    if spec.kind == "composite":
        raise ValueError("curvature estimators operate on non-composite specs")


def _check_q_range(spec: ObjectiveSpec, n: int = 0) -> None:
    """Reject a spec whose ``E[Q^2]``, at most ``U^2 d (d + 2)`` since
    ``Q <= U ||z||^2``, may be past the float range; given the ``n`` rows an
    estimator draws, also one whose sum of ``Q^4`` over them, at most
    ``n U^4 d (d + 2) (d + 4) (d + 6)`` in expectation, may be: the
    standard error of the variance sums it (``analysis._q_columns``)."""
    u, d = spec.smoothness, spec.dim
    if not math.isfinite(u * u * d * (d + 2)):
        raise ValueError(f"the second moment of Q, up to U^2 d (d + 2) with U = {u:g} "
                         f"and d = {d}, is past the float range")
    if not math.isfinite(n * u * u * u * u * d * (d + 2) * (d + 4) * (d + 6)):
        raise ValueError(f"the fourth moment of Q summed over n = {n} rows, up to "
                         f"n U^4 d (d + 2) (d + 4) (d + 6) with U = {u:g} and d = {d}, "
                         "is past the float range")


def _check_sample(n: int, seed: int) -> None:
    """Reject a sample size or seed that ``analysis._sample`` cannot draw."""
    if not (is_int(n) and n >= 1000):
        raise ValueError(f"need n >= 1000 mutation rows, an integer, for stable estimates, got {n!r}")
    rng_stream(seed)  # raises for a seed that is not a non-negative integer


# -- moments of Q ----------------------------------------------------------------


def _dawson(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dawson's function ``F(x) = exp(-x^2) int_0^x exp(t^2) dt`` and ``x - F(x)``.

    Both to about 1e-14 relative, elementwise: by their Taylor series below
    ``|x| = 0.5``, otherwise by Rybicki's sum
    ``F(x) = pi^(-1/2) sum_(n odd) exp(-(x - n h)^2) / n`` over the odd ``n``
    nearest ``x / h`` (Rybicki, Computers in Physics 3(2), 1989).
    """
    even = 2.0 * np.round(x / (2.0 * _DAWSON_H))
    eps = x - even * _DAWSON_H
    weights = np.exp(-np.square(eps[:, None] - _DAWSON_K * _DAWSON_H))
    far = np.add.reduce(weights / (even[:, None] + _DAWSON_K), axis=1) / math.sqrt(math.pi)
    near = np.abs(x) < 0.5
    x_near = np.where(near, x, 0.0)
    gap = x_near**3 * np.polyval(_DAWSON_GAP, x_near * x_near)
    return np.where(near, x - gap, far), np.where(near, gap, x - far)


def _one_minus_exp_over(x: float) -> float:
    """``(1 - exp(-x)) / x`` for ``x >= 0``, 1 at 0."""
    return -math.expm1(-x) / x if x > 0.0 else 1.0


def _perturbed_moments(spec: ObjectiveSpec, state: EsState,
                       mean_only: bool = False) -> tuple[np.ndarray, ...]:
    """Exact per-coordinate terms of ``E[Q]``, ``Var[Q]`` and ``E[Q; <z, grad f(m)> <= 0]``,
    or of ``E[Q]`` alone if ``mean_only``.

    ``Q = sum_i q_i(z_i)`` is separable on a ``quadratic_perturbed`` spec.
    With ``c = omega m_i``, ``s = omega sigma``, ``t = s^2``, ``a`` the
    amplitude, ``omega`` the frequency and ``A = 2a / t``,

        q_i = h_i z^2 + A (cos c (1 - cos sz) + sin c (sin sz - sz)),

    whose even and odd parts in ``z`` are uncorrelated.  With
    ``g = exp(-t/2)``: ``E cos sz = g``, ``E z^2 cos sz = (1 - t) g``,
    ``Var cos sz = (1 - g^2)^2 / 2`` and
    ``E (sin sz - sz)^2 = (1 - g^4) / 2 - 2 t g + t``, which cancels for
    small ``t`` and is then summed from its series.  The half mean takes
    ``b = grad f(m) / ||grad f(m)||``: the even parts contribute half their
    means, and ``E[sin sz; <z, b> <= 0] = -exp(-t (1 - b_i^2) / 2)
    F(s b_i / sqrt 2) / sqrt(pi)`` with Dawson's ``F``, so the odd part
    contributes ``A sin c (x - exp(-t (1 - b_i^2) / 2) F(x)) / sqrt(pi)``
    at ``x = s b_i / sqrt 2``.  Every ``1 - g^k`` is an ``expm1``, and the
    odd part is divided by ``s`` twice, not by ``t``, so where ``t``
    underflows it is 0, its limit as ``s -> 0``.
    """
    a, h = PERTURB_AMP, spec.diag
    s = PERTURB_FREQ * state.sigma
    t = s * s
    cos = np.cos(PERTURB_FREQ * state.m)
    e1 = 0.5 * _one_minus_exp_over(0.5 * t)  # (1 - g) / t
    mean = h + 2.0 * a * e1 * cos
    if mean_only:
        return (mean,)
    sin = np.sin(PERTURB_FREQ * state.m)
    g = math.exp(-0.5 * t)
    e2 = _one_minus_exp_over(t)  # (1 - g^2) / t
    if t < 1.0:  # p = E (sin sz - sz)^2 / t^2
        p = t * float(np.polyval(_SIN_GAP_VAR, t))
    else:
        p = (_one_minus_exp_over(2.0 * t) - 2.0 * g + 1.0) / t
    var = (2.0 * h * h + 4.0 * a * g * h * cos + 2.0 * (a * e2 * cos) ** 2
           + 4.0 * a * a * p * sin * sin)
    b = spec.gradient(state.m) / spec.gradient_norm(state.m)
    dawson, gap = _dawson(s * b / math.sqrt(2.0))
    odd = 2.0 * a * sin * ((gap - np.expm1(-0.5 * t * (1.0 - b * b)) * dawson) / s / s)
    return mean, var, 0.5 * h + a * e1 * cos + odd / math.sqrt(math.pi)


def _exact_q(spec: ObjectiveSpec, state: EsState | None,
             mean_only: bool = False) -> tuple[float, ...]:
    """Exact ``(E[Q], Var[Q], E[Q; <z, grad f(m)> <= 0])`` at a state, or ``(E[Q],)``
    if ``mean_only``.

    On a diagonal quadratic they are ``Tr(H)``, ``2 Tr(H^2)`` and ``Tr(H) / 2``
    at every state, so ``state`` may be ``None``; on ``perturbed`` they are
    the sums of :func:`_perturbed_moments`.  A composite raises
    ``ValueError``.  ``mean_only`` computes nothing else, since ``2 Tr(H^2)``
    can overflow where ``Tr(H)`` does not.
    """
    _require_plain(spec)
    if not spec.is_quadratic:
        return tuple(float(np.sum(x)) for x in _perturbed_moments(spec, state, mean_only))
    mean, diag = spec.trace_hessian, spec.diag
    return (mean,) if mean_only else (mean, float(2.0 * np.dot(diag, diag)), 0.5 * mean)


def quadratic_q_exact(spec: ObjectiveSpec) -> tuple[float, float]:
    """Exact mean and variance of the remainder for a diagonal quadratic.

    ``mean = trace(H)``, ``var = 2 * trace(H^2)``.
    """
    if not spec.is_quadratic:
        raise ValueError("exact remainder moments exist for quadratic_diag only")
    return _exact_q(spec, None)[:2]


# -- state helpers -------------------------------------------------------------


def _gradient_norm(spec: ObjectiveSpec, m: np.ndarray) -> float:
    """``||grad f(m)||``; ``ValueError`` where it is 0 (at the optimum) or NaN."""
    gnorm = spec.gradient_norm(m)
    if not gnorm > 0.0:
        raise ValueError(f"m must be finite and off the optimum, got ||grad f(m)|| = {gnorm!r}")
    return gnorm


def sigma_bar(spec: ObjectiveSpec, state: EsState) -> float:
    """Normalized step size ``sigma * E[Q] / ||grad f(m)||``, with the exact
    ``E[Q]`` at the state (:func:`_exact_q`): the trace on a diagonal
    quadratic.  A composite raises ``ValueError``.
    """
    [mean_q] = _exact_q(spec, state, mean_only=True)
    return state.sigma * mean_q / _gradient_norm(spec, state.m)


def state_at_sigma_bar(spec: ObjectiveSpec, m, target_sigma_bar: float) -> EsState:
    """State at point ``m`` whose normalized step size equals the target.

    Needs a diagonal quadratic, whose ``E[Q]`` is the exact trace.
    """
    if not target_sigma_bar > 0.0:
        raise ValueError(f"target_sigma_bar must be positive, got {target_sigma_bar!r}")
    m = np.asarray(m, dtype=float)
    sigma = target_sigma_bar * _gradient_norm(spec, m) / spec.trace_hessian
    return EsState(m=m, log_sigma=math.log(sigma))


def regime_of(spec: ObjectiveSpec, state: EsState, constants: TheoryConstants) -> str:
    """Which step-size regime a state falls in: small, reasonable, or large.

    Thresholds: ``sigma < s sqrt(L f(m)) / (alpha_up e_q)`` is small;
    ``sigma > ell ||grad f(m)|| / (sqrt(2) alpha_down E[Q])`` is large, with
    the exact ``E[Q]`` at the state (:func:`_exact_q`).  A composite, or a
    state whose ``f(m)`` is not in ``(0, inf)``, raises ``ValueError``.
    """
    [mean_q] = _exact_q(spec, state, mean_only=True)
    gnorm = _gradient_norm(spec, state.m)
    f_m = _positive_value(spec, state.m, "the state")
    small_cap = constants.s * math.sqrt(constants.strong_convexity * f_m) / (
        constants.alpha_up * constants.e_q
    )
    large_cap = constants.ell * gnorm / (math.sqrt(2.0) * constants.alpha_down * mean_q)
    sigma = state.sigma
    if sigma < small_cap:
        return "small"
    if sigma > large_cap:
        return "large"
    return "reasonable"


# -- state-space extremes --------------------------------------------------------


def _state_grid(spec: ObjectiveSpec, seed: int) -> list[EsState]:
    """The 32 scanned states: 8 distances ``1e-3 .. 1e3`` times ``sqrt(d)``
    from the optimum, 2 random directions each, at 0.1 and 1 times the
    default step size.

    Coarse coverage for the state-space extremes of non-quadratic specs;
    the suprema/infima derived from it are approximations and the scanned
    states are reported for audit.
    """
    rng = rng_stream(seed, 7)
    states = []
    for dist in np.geomspace(1e-3, 1e3, 8) * math.sqrt(spec.dim):
        for _ in range(2):
            direction = rng.standard_normal(spec.dim)
            direction /= np.linalg.norm(direction)
            m = dist * direction
            base_sigma = default_sigma0(spec, m)
            for scale in (0.1, 1.0):
                states.append(EsState(m=m, log_sigma=math.log(base_sigma * scale)))
    return states


def _scan(spec: ObjectiveSpec, n: int,
          seed: int) -> tuple[list[EsState], list[tuple[float, float, float]]]:
    """The scanned states and ``(v_std, kappa, E[Q])`` at each, from :func:`_exact_q`.

    Diagonal quadratics scan no states and give one triple, since their
    moments are the same at every state; ``perturbed`` gives one triple at
    each state of :func:`_state_grid`.  No rows are drawn, but ``n`` and
    ``seed`` are checked as the estimators check them.
    """
    _require_plain(spec)
    _check_sample(n, seed)
    _check_q_range(spec)
    states = [] if spec.is_quadratic else _state_grid(spec, seed)
    moments = [_exact_q(spec, state) for state in states or [None]]
    return states, [(var / mean**2, mean / half, mean) for mean, var, half in moments]


def q_extremes(spec: ObjectiveSpec, *, n: int, seed: int) -> QExtremes:
    """State-space extremes of the curvature statistics, as in :func:`check_assumption2`.

    Exact and state-independent for diagonal quadratics.  For other kinds
    each state's statistics are exact, but the extremes are taken over the
    32 states of a fixed scan (an approximation).
    """
    v_std, kappa, e_q = zip(*_scan(spec, n, seed)[1])
    return QExtremes(v_std_sup=max(v_std), kappa_inf=min(kappa), e_q=max(e_q),
                     strong_convexity=spec.strong_convexity)


# -- curvature-variance condition ----------------------------------------------


@dataclass(frozen=True)
class Assumption2Report:
    holds: bool
    margin: float
    v_std_sup: float
    kappa_inf: float
    rhs: float
    exact: bool
    kappa_consistent: bool
    states: list[dict] = field(default_factory=list)


def check_assumption2(spec: ObjectiveSpec, *, n: int, seed: int) -> Assumption2Report:
    """Check the curvature-variance smallness condition for a spec.

    Compares the state-space supremum of ``v_std`` against
    ``min(Phi(k/(2 sqrt(2 pi))) - 1/2, 1 - Phi(3k/(2 sqrt(2 pi)))) / 4``
    evaluated at ``kappa_inf``.  Diagonal quadratics use the exact closed
    forms (``v_std = 2 tr(H^2)/tr(H)^2``, ``kappa = 2``).  ``perturbed``
    evaluates the same statistics in closed form at each of the 32 states of
    a fixed scan, which are included in the report for audit; its extremes
    are those over the scan, so it is not ``exact``, and ``kappa_consistent``
    says whether every scanned ``kappa`` is at least 1.  Every kind rejects
    ``n < 1000`` and a negative ``seed``, as the estimators do, though no
    rows are drawn; ``seed`` chooses the scan's directions.
    """
    states, stats = _scan(spec, n, seed)
    v_std, kappa, _ = zip(*stats)
    v_sup, kappa_inf = max(v_std), min(kappa)
    rhs = assumption_margin_rhs(kappa_inf)
    return Assumption2Report(
        holds=v_sup < rhs,
        margin=rhs - v_sup,
        v_std_sup=v_sup,
        kappa_inf=kappa_inf,
        rhs=rhs,
        exact=spec.is_quadratic,
        kappa_consistent=all(k >= 1.0 for k in kappa),
        states=[{"m_norm": float(np.linalg.norm(st.m)), "log_sigma": st.log_sigma,
                 "v_std": v, "kappa": k} for st, v, k in zip(states, v_std, kappa)],
    )
