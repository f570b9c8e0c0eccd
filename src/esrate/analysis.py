"""Monte Carlo estimators for the per-state quantities the theory bounds.

The central quantity is the scaled second-order remainder of the objective
along a mutation direction,

    Q(z) = (2/sigma^2) * (f(m + sigma z) - f(m) - <grad f(m), sigma z>),

which for a diagonal quadratic equals ``z'Hz = sum(h_i z_i^2)`` at every
state.  Estimators below compute its moments, the success probability and
the log-progress of one step, and verify the lemma-level inequalities with a
three-standard-error slack.

Every estimator runs on one kernel.  A call draws one stream of ``n``
mutation rows, shared by every state it evaluates (common random numbers:
the states of :func:`check_lemma_suite` and :func:`estimate_drift`, or the
one state of a single estimate).  A row is ``w`` draws: one standard
normal per level of coordinates and one chi-square per level of two or
more, which carry the whole law of ``Q`` and ``<z, grad f(m)>`` at every
state (:class:`_Levels`).  So ``w`` is 2 on the sphere, 3 on ``h1`` and
``h3`` with ``kappa > 0``, and ``d`` on ``h2`` and ``perturbed``, whose
levels are single coordinates.  A call draws its normals from
``rng_stream(seed, 0, 0)`` and its chi-squares from ``rng_stream(seed, 1,
0)``, in the calling process, in chunks of ``max(1, ELEMS // w)`` rows,
into work arrays allocated once per call.  It computes each state's
constants (``f(m)`` and the gradient's part per level) once, evaluates
each chunk at every state in turn, and merges each state's per-row columns
into its own accumulator of the count, the mean vector and the centred
co-moment matrix.  Each value and its standard error are read from the
merged accumulator: a mean with ``sqrt(s^2 / n)`` (``s^2`` with ``n - 1``
degrees of freedom), a smooth function of several means by the delta
method.

Every chunk is evaluated in closed form, and no candidate ``m + sigma z``
is formed.  The quadratic part of ``Q`` of each row is computed once per
chunk and shared by every state; on ``perturbed`` each state adds the
cosine term's part, a sum of sines of ``omega sigma z_i`` accurate at every
``sigma`` (:meth:`_At.cosine_q`).  Each state then takes one product for
``<z, grad f(m)>`` and the exact change ``f(m + sigma z) - f(m) = sigma
(<z, grad f(m)> + sigma Q / 2)``, whose sign is the step's success.

Exact values draw no rows and live in :mod:`esrate.exact`: its ``_exact_q``
gives the moments of ``Q`` at a state of every plain spec, which the lemma
suite's success sandwich and :func:`check_assumption2` (over a fixed scan of
32 states on ``perturbed``) read here, as ``sigma_bar`` and ``regime_of`` do there.

Determinism contract: estimators are pure given ``(inputs, seed)``.
Mutation rows come only from the two-element keys ``(0, 0)`` (normals) and
``(1, 0)`` (chi-squares) of the call's seed; the one-element keys
``rng_stream(seed, k)`` are left to the draws of the states themselves
(the scan of :func:`check_assumption2` takes key 7), so no state coincides
with a row of its own call.  ``ELEMS`` is not part of it: the draws of each
key do not depend on how the rows split into chunks, so the chunk size
changes results only through floating-point rounding.  A state's results
do not depend on the other states of its call: they equal those of a call
at that state alone.  No call starts a process pool, so results do not
depend on ``ES_RATE_THREADS``.  Input is checked before any row is drawn: a
state needs a finite ``m`` with ``0 < f(m) < inf`` and ``log(sigma)`` in
``(log(sys.float_info.min), 708)``, about ``(-708.396, 708)``, where
``sigma`` is a normal float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .engine import EsState, rng_stream
from .exact import _check_q_range, _check_sample, _exact_q, _extremes, _require_plain
from .objectives import PERTURB_AMP, PERTURB_FREQ, ObjectiveSpec, _positive_value, _values
from .theory import (TheoryConstants, _success_sandwich, assumption_margin_rhs,
                     potential_from_values, std_normal_cdf)

# Kept for perfbench/workloads.py and perfbench/measure.py, which change only with the benchmark.
from .exact import quadratic_q_exact, state_at_sigma_bar  # noqa: F401

__all__ = [
    "ELEMS",
    "EstimateWithError",
    "QStats",
    "estimate_q_stats",
    "estimate_success_prob",
    "estimate_log_progress",
    "SE_SLACK",
    "CheckResult",
    "SuiteReport",
    "describe",
    "check_lemma_suite",
    "Assumption2Report",
    "check_assumption2",
    "estimate_drift",
]

#: Draws per chunk: a chunk holds ``max(1, ELEMS // w)`` rows of ``w`` draws,
#: so each of a call's work arrays stays within 128 KB, and each state's
#: per-row columns within a few times that, whatever the dimension.
ELEMS = 2**14

#: Standard errors of slack in the one verdict rule, :meth:`CheckResult.judge`.
SE_SLACK = 3.0

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error."""

    value: float
    stderr: float


@dataclass(frozen=True)
class QStats:
    """Sample moments of the curvature remainder at one state.

    ``v_std = var_q / mean_q**2``; ``half_mean_q`` is the mean of ``Q``
    restricted to mutations pointing against the gradient
    (``<z, grad f>/||grad f|| <= 0``) and ``kappa = mean_q / half_mean_q``.
    """

    mean_q: float
    var_q: float
    v_std: float
    half_mean_q: float
    kappa: float
    se_mean: float
    se_var: float
    se_half: float


# -- the Monte Carlo kernel ------------------------------------------------------


class _Moments:
    """Count, mean vector and centred co-moment matrix of per-row columns.

    Built from a ``(k, rows)`` block of column values.  Blocks merge by the
    pairwise update of Chan, Golub & LeVeque, "Updating formulae and a
    pairwise algorithm for computing sample variances" (1979), so no raw
    power sums are kept.
    """

    def __init__(self, cols: np.ndarray) -> None:
        self.n = cols.shape[1]
        self.mean = cols.mean(axis=1)
        dev = cols - self.mean[:, None]
        self.comoment = dev @ dev.T

    def merge(self, other: "_Moments") -> "_Moments":
        """Fold ``other``'s rows into these moments, as if they followed them; returns ``self``."""
        total = self.n + other.n
        delta = other.mean - self.mean
        self.comoment += other.comoment + np.outer(delta, delta) * (self.n * other.n / total)
        self.mean += delta * (other.n / total)
        self.n = total
        return self

    def var(self, i: int) -> float:
        """Sample variance of column ``i``."""
        return float(self.comoment[i, i]) / (self.n - 1)

    def se(self, *weights: float) -> float:
        """Standard error of ``sum(weights[i] * mean[i])``; omitted weights are 0.

        With the gradient of a smooth function of the means as weights, this
        is the delta-method standard error of that function.  NaN where a
        weight is not finite.
        """
        w = np.zeros(len(self.mean))
        w[: len(weights)] = weights
        if not np.all(np.isfinite(w)):
            return math.nan
        return math.sqrt(max(float(w @ self.comoment @ w), 0.0) / ((self.n - 1) * self.n))


class _Levels:
    """The rows of the Monte Carlo kernel on a plain spec.

    A level ``j`` is a set ``G_j`` of ``n_j`` coordinates that share one
    diagonal value ``h_j``, ordered by their first coordinate: on a diagonal
    quadratic every coordinate of that value, on ``perturbed`` one
    coordinate (the cosine term has no rotation symmetry, so equal entries
    must not merge).  A standard-normal row ``z`` enters ``z'Hz`` and
    ``<z, grad f(m)>`` only through two numbers per level: ``u_j``, its
    component along the gradient's part on ``G_j``, and ``r_j``, the squared
    norm of the rest of ``z`` on ``G_j``.  So

        z'Hz = sum_j h_j (u_j^2 + r_j),    <z, grad f(m)> = sum_j gamma_j u_j,

    with ``gamma_j = h_j ||m_{G_j}||``, or the signed gradient entry on a
    one-coordinate level, which has no ``r_j``.  Whatever the state, the
    ``u_j`` are independent standard normals and the ``r_j`` independent
    chi-squares with ``n_j - 1`` degrees of freedom, so one row of ``width``
    draws serves every state, exactly in law.  A composite raises ``ValueError``.
    """

    def __init__(self, spec: ObjectiveSpec) -> None:
        _require_plain(spec)
        key = spec.diag if spec.is_quadratic else np.arange(spec.dim)
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(first)
        self.first, counts = first[order], counts[order]
        self.h = spec.diag[self.first]
        self.multi = np.flatnonzero(counts > 1)
        self.h_multi = self.h[self.multi]
        self.half_dof = 0.5 * (counts[self.multi] - 1)
        self.groups = [np.flatnonzero(key == key[self.first[j]]) for j in self.multi]
        self.width = len(self.h) + len(self.multi)

    def gamma(self, spec: ObjectiveSpec, m: np.ndarray) -> np.ndarray:
        """``gamma_j`` of every level at the point ``m``."""
        gamma = spec.gradient(m)[self.first]
        for j, group in zip(self.multi, self.groups):
            gamma[j] = self.h[j] * math.hypot(*m[group])  # no squared norm to overflow
        return gamma

    def q(self, u: np.ndarray, r: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """``z'Hz`` of each row ``(u, r)``, which is ``Q`` on a diagonal quadratic.

        ``sum_j h_j u_j^2`` is the one quadratic formula on ``u`` (doubling its
        ``0.5 u'Hu`` is exact), so where every level is one coordinate, and
        ``r`` has no columns, it is that of the full row ``z = u`` bit for bit.
        """
        return 2.0 * _values(self.h, u, scratch) + r @ self.h_multi


class _At:
    """A state's constants, computed once per call.

    ``f_m`` is ``f(m)`` and ``g`` the vector ``gamma`` whose product with a
    row is ``<z, grad f(m)>`` (:meth:`_Levels.gamma`).  On ``perturbed``,
    ``cos`` and ``sin`` weigh the terms of :meth:`cosine_q`.
    """

    def __init__(self, spec: ObjectiveSpec, levels: _Levels, state: EsState) -> None:
        self.spec, self.state = spec, state
        self.f_m = spec.value(state.m)
        self.g = levels.gamma(spec, state.m)
        if not spec.is_quadratic:
            c = PERTURB_FREQ * state.m
            self.cos, self.sin = 4.0 * PERTURB_AMP * np.cos(c), 2.0 * PERTURB_AMP * np.sin(c)

    def cosine_q(self, zs: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The cosine term's part of ``Q`` of each row on ``perturbed``.

        With ``x = s z``, ``s = omega sigma`` and ``c = omega m``, it is
        ``2a sum_i (2 cos c_i (sin(x_i / 2) / s)^2 + sin c_i (sin x_i - x_i) / s^2)``,
        the split of :func:`esrate.exact._perturbed_moments`.  Dividing by ``s`` before
        squaring keeps the even terms finite where ``s^2`` underflows; the
        odd sum is 0 there, since ``sin x`` rounds to ``x`` below ``|x| =
        2e-8``.  ``scratch`` is a work array of the shape of ``zs``.
        """
        s = PERTURB_FREQ * self.state.sigma
        half = np.sin(np.multiply(0.5 * s, zs, out=scratch), out=scratch)
        even = np.square(np.divide(half, s, out=half), out=half) @ self.cos
        x = np.multiply(s, zs, out=scratch)
        return even + (np.sin(x) - x) @ self.sin / s / s


class _Chunk:
    """A chunk of rows ``zs`` (:class:`_Levels`) at one state, with their remainders ``q``.

    ``zg`` is ``<z, grad f(m)>`` of each row, and ``success`` is ``change <=
    0`` with ``change = zg + sigma Q / 2``.  On an accepted row ``step = sigma
    change`` is ``f(m + sigma z) - f(m)`` exactly, so the relative progress
    ``step / f(m)`` and ``success`` read no rounding of ``f(m)``, however
    small ``sigma`` is.  A rejected row's ``step`` is 0, the change of the
    chain's ``f``, so it cannot overflow at a large ``sigma``.
    """

    def __init__(self, at: _At, zs: np.ndarray, q: np.ndarray) -> None:
        self.spec, self.state, self.f_m, self.q = at.spec, at.state, at.f_m, q
        self.zg = zs @ at.g
        sigma = at.state.sigma
        change = self.zg + 0.5 * sigma * q
        self.success = change <= 0.0
        self.step = np.multiply(sigma, np.minimum(change, 0.0, out=change), out=change)


def _unit(sigma: float) -> int:
    """``sigma``'s binary exponent ``e`` below 1, else 0.  The columns that scale with a
    small ``sigma`` (relative progress, log gain) accumulate in units of ``2^e``, so their
    squares do not underflow; a power of two scales sums, products and roots exactly."""
    return min(math.frexp(sigma)[1], 0)


def _chunks(levels: _Levels, ats: list[_At], zs: np.ndarray, r: np.ndarray,
            scratch: np.ndarray):
    """A :class:`_Chunk` of the rows ``(zs, r)`` at each state's constants ``ats`` in turn.

    ``Q`` is in closed form: its quadratic part (:meth:`_Levels.q`), the same
    at every state, once per chunk, plus on ``perturbed`` each state's cosine
    term (:meth:`_At.cosine_q`).  ``scratch`` is a work array shaped as ``zs``.
    """
    q = levels.q(zs, r, scratch)
    if ats[0].spec.is_quadratic:
        return (_Chunk(at, zs, q) for at in ats)
    return (_Chunk(at, zs, q + at.cosine_q(zs, scratch)) for at in ats)


def _sample(spec: ObjectiveSpec, columns, states: list[EsState], n: int,
            seed: int) -> list[_Moments]:
    """Merged moments of ``columns(chunk)`` at each state over one stream of ``n`` rows.

    ``columns`` maps a :class:`_Chunk` to a list of per-row arrays.  This is
    the only loop that draws mutation rows (:class:`_Levels`): their normals
    from ``rng_stream(seed, 0, 0)`` and their chi-squares, each ``2
    standard_gamma((n_j - 1) / 2)``, from ``rng_stream(seed, 1, 0)``, in
    chunks of ``max(1, ELEMS // w)`` rows into work arrays allocated once per
    call.  Each chunk is evaluated at every state in turn (:func:`_chunks`),
    from state constants computed once per call (:class:`_At`), so a row is
    drawn once however many states read it.  Input is checked before any row
    is drawn; a bad state's ``ValueError`` names its index.  Returns one
    :class:`_Moments` per state.
    """
    _require_plain(spec)
    _check_sample(n, seed)
    if not states:
        raise ValueError("need at least one state")
    low = math.log(sys.float_info.min)  # a subnormal sigma loses the digits of sigma * change
    for i, state in enumerate(states):
        if not np.all(np.isfinite(state.m)):
            raise ValueError(f"state {i}: m must be finite")
        _positive_value(spec, state.m, f"state {i}")
        if not low < state.log_sigma < 708.0:  # and omega sigma is a finite float
            raise ValueError(f"state {i}: log_sigma = {state.log_sigma!r} is outside "
                             f"(log(sys.float_info.min) = {low:.6f}, 708), where "
                             "sigma = exp(log_sigma) is a normal positive float")
    levels = _Levels(spec)
    ats = [_At(spec, levels, state) for state in states]
    normals, chi_squares = rng_stream(seed, 0, 0), rng_stream(seed, 1, 0)
    chunk = min(max(1, ELEMS // levels.width), n)
    zs, scratch = np.empty((2, chunk, len(levels.h)))
    r = np.empty((chunk, len(levels.multi)))
    moments = None
    for start in range(0, n, chunk):
        k = min(chunk, n - start)
        normals.standard_normal(out=zs[:k])
        np.multiply(2.0, chi_squares.standard_gamma(levels.half_dof, out=r[:k]), out=r[:k])
        new = [_Moments(np.array(columns(c), dtype=float))
               for c in _chunks(levels, ats, zs[:k], r[:k], scratch[:k])]
        moments = new if moments is None else [m.merge(c) for m, c in zip(moments, new)]
    return moments


def _q_columns(chunk: _Chunk) -> list[np.ndarray]:
    """``Q``, ``Q`` on rows against the gradient, and ``(Q - c)^2``.

    ``c`` is the trace of the quadratic part, which is ``E[Q]`` for diagonal
    quadratics and close to it otherwise, so the delta-method error of the
    variance cancels no digits.
    """
    q = chunk.q
    return [q, q * (chunk.zg <= 0.0), (q - float(np.sum(chunk.spec.diag))) ** 2]


def _q_stats(spec: ObjectiveSpec, moments: _Moments) -> QStats:
    """Read :class:`QStats` from moments whose leading columns are :func:`_q_columns`."""
    mean, half = float(moments.mean[0]), float(moments.mean[1])
    var = moments.var(0)
    # var = E[(Q - c)^2] - (E[Q] - c)^2, so its gradient in the means is (-2 (E[Q] - c), 0, 1).
    shift = 2.0 * (mean - float(np.sum(spec.diag)))
    return QStats(mean, var, var / mean**2, half, mean / half,  # in field order
                  moments.se(1.0), moments.se(-shift, 0.0, 1.0), moments.se(0.0, 1.0))


def _first_mean(moments: _Moments) -> EstimateWithError:
    return EstimateWithError(value=float(moments.mean[0]), stderr=moments.se(1.0))


# -- estimators -------------------------------------------------------------------


def estimate_q_stats(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> QStats:
    """Sample moments of the remainder over ``n`` standard-normal mutations."""
    _check_q_range(spec, n)
    return _q_stats(spec, _sample(spec, _q_columns, [state], n, seed)[0])


def estimate_success_prob(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> EstimateWithError:
    """Fraction of mutations whose candidate is no worse, with its stderr."""
    return _first_mean(_sample(spec, _success, [state], n, seed)[0])


def _success(chunk: _Chunk) -> list[np.ndarray]:
    return [chunk.success]


def _log_gain(chunk: _Chunk) -> list[np.ndarray]:
    # log1p of the relative progress does not cancel at small sigma; far below f(m), log(f(x)/f(m))
    ratio = np.maximum(chunk.f_m + chunk.step, 1e-300) / chunk.f_m
    gain = np.where(ratio > 0.5, np.log1p(np.maximum(chunk.step / chunk.f_m, -0.5)), np.log(ratio))
    return [np.ldexp(np.where(chunk.success, gain, 0.0), -_unit(chunk.state.sigma))]


def estimate_log_progress(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> EstimateWithError:
    """Mean one-step decrease of ``log f`` (zero on rejected steps); nonpositive."""
    est, e = _first_mean(_sample(spec, _log_gain, [state], n, seed)[0]), _unit(state.sigma)
    return EstimateWithError(math.ldexp(est.value, e), math.ldexp(est.stderr, e))


# -- lemma suite ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: passes iff ``lhs <= rhs + SE_SLACK * stderr``.

    Inconclusive where a number is not finite.  An exact comparison has
    ``stderr = 0``.  ``tight`` marks an inequality that holds with equality
    at the state, so its one-sided test fails with probability
    ``Phi(-SE_SLACK)``, about 0.135%, by design.
    """

    name: str
    state_id: str
    lhs: float
    rhs: float
    stderr: float
    verdict: str
    tight: bool = False

    @staticmethod
    def judge(
        name: str, state_id: str, lhs: float, rhs: float, stderr: float, tight: bool = False
    ) -> "CheckResult":
        if not (math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(stderr)):
            verdict = "inconclusive"
        else:
            verdict = "pass" if lhs <= rhs + SE_SLACK * stderr else "fail"
        return CheckResult(name, state_id, lhs, rhs, stderr, verdict, tight)


@dataclass(frozen=True)
class SuiteReport:
    """The checks of one suite run: the lemmas, the drift regimes or Assumption 2."""

    spec: str
    n: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.verdict == "fail"]

    def to_json(self) -> dict:
        """The report, with ``expected_failures``: the failures expected with
        no defect, ``Phi(-SE_SLACK)`` per tight check."""
        return {
            "spec": self.spec,
            "n": self.n,
            "seed": self.seed,
            "ok": self.ok,
            "expected_failures": sum(c.tight for c in self.checks) * std_normal_cdf(-SE_SLACK),
            "checks": [asdict(c) for c in self.checks],
        }


def _lemma_columns(chunk: _Chunk) -> list[np.ndarray]:
    """:func:`_q_columns`, then relative progress (in units of ``2^e``, :func:`_unit`),
    the ``f(m)/f(x)`` moment and success."""
    succ = chunk.success
    rel = np.ldexp(np.where(succ, chunk.step / chunk.f_m, 0.0), -_unit(chunk.state.sigma))
    mom = np.where(succ, chunk.f_m / np.maximum(chunk.f_m + chunk.step, 1e-300), 1.0)
    return _q_columns(chunk) + [rel, mom, succ]


def check_lemma_suite(
    spec: ObjectiveSpec,
    states: list[EsState],
    n: int,
    seed: int,
) -> SuiteReport:
    """Monte Carlo verification of the one-step inequalities at each state.

    Per state: curvature-moment bounds (mean within ``[dL, dU]``, variance at
    most ``4 d U^2``, half-split deviation at most ``sqrt(2/d) (U/L)`` of the
    mean), the expected-progress upper bound, the log-progress moment bound
    ``(U/L)(1 + 1/(d-3))``, and the success-probability sandwich at the
    slack values 0.1, 0.3 and 0.5, each judged by :meth:`CheckResult.judge`.
    The moment bound at ``d <= 3``, where it has none, and checks whose
    error estimate is unusable are inconclusive.  On a
    diagonal quadratic ``E[Q] = Tr(H)``, so the lower (upper) mean bound is
    tight iff ``Tr(H) = d L`` (``d U``), that is, iff every ``h_i`` equals
    ``L`` (``U``), as on the sphere.

    One z-stream per call is shared by every state and every check (common
    random numbers), so a state's checks equal those of a call at that state
    alone; the paired progress comparison takes its error by the delta
    method.  Each chunk of the stream is drawn once and evaluated at every
    state; the checks are built from the merged moments in state order.  An
    empty ``states`` raises ``ValueError``.
    """
    d = spec.dim
    lmod, umod = spec.strong_convexity, spec.smoothness
    tight_lower = spec.is_quadratic and bool(np.all(spec.diag == lmod))
    tight_upper = spec.is_quadratic and bool(np.all(spec.diag == umod))
    checks: list[CheckResult] = []
    _check_q_range(spec, n)
    samples = _sample(spec, _lemma_columns, states, n, seed)
    for idx, (state, moments) in enumerate(zip(states, samples)):
        sid = str(idx)
        f_m = spec.value(state.m)
        gnorm = spec.gradient_norm(state.m)
        sigma = state.sigma
        stats = _q_stats(spec, moments)
        mean_q, var_q, se_mean = stats.mean_q, stats.var_q, stats.se_mean
        half = stats.half_mean_q
        e = _unit(sigma)
        rel_e, mom_mean, p_hat = (float(x) for x in moments.mean[3:])
        se_p = moments.se(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

        checks += [
            CheckResult.judge("curvature_mean_lower", sid, d * lmod, mean_q, se_mean, tight_lower),
            CheckResult.judge("curvature_mean_upper", sid, mean_q, d * umod, se_mean, tight_upper),
            CheckResult.judge("curvature_variance", sid, var_q, 4.0 * d * umod**2, stats.se_var),
        ]
        # Q (against - 1/2) has mean half - mean_q / 2.
        dev_mean = half - 0.5 * mean_q
        half_bound = math.sqrt(2.0 / d) * (umod / lmod) * mean_q
        half_slack = moments.se(-0.5, 1.0) + math.sqrt(2.0 / d) * (umod / lmod) * se_mean
        checks.append(CheckResult.judge("curvature_half_split", sid, abs(dev_mean), half_bound, half_slack))

        # rhs = a (b half - 1/sqrt(2 pi)) p; the stderr of rel_mean - rhs is the
        # delta method over the (rel, Q against, success) columns, in units of 2^e.
        a, b = sigma * gnorm / f_m, sigma / (2.0 * gnorm)
        rhs = a * (b * half - _INV_SQRT_2PI) * p_hat
        a_e = math.ldexp(a, -e)
        se_e = moments.se(0.0, -a_e * b * p_hat, 0.0, 1.0, 0.0, -a_e * (b * half - _INV_SQRT_2PI))
        checks.append(CheckResult.judge("expected_progress_bound", sid, math.ldexp(rel_e, e), rhs,
                                        math.ldexp(se_e, e)))

        mom_bound = (umod / lmod) * (1.0 + 1.0 / (d - 3)) if d > 3 else math.nan  # none at d <= 3
        se_mom = moments.se(0.0, 0.0, 0.0, 0.0, 1.0)
        checks.append(CheckResult.judge("log_progress_moment", sid, mom_mean, mom_bound, se_mom))

        e_q, var, _ = _exact_q(spec, state)
        sbar, v_std = sigma * e_q / gnorm, var / e_q**2
        for eps in (0.1, 0.3, 0.5):
            low, high = _success_sandwich(sbar, v_std, eps)
            checks.append(CheckResult.judge(f"success_prob_lower_eps{eps:g}", sid, low, p_hat, se_p))
            checks.append(CheckResult.judge(f"success_prob_upper_eps{eps:g}", sid, p_hat, high, se_p))

    return SuiteReport(spec=describe(spec), n=n, seed=seed, checks=checks)


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
    v_sup, kappa_inf, _, states, stats = _extremes(spec, n, seed)
    rows = [
        {"m_norm": float(np.linalg.norm(st.m)), "log_sigma": st.log_sigma,
         "v_std": v_std, "kappa": kappa}
        for st, (v_std, kappa) in zip(states, stats)
    ]
    rhs = assumption_margin_rhs(kappa_inf)
    return Assumption2Report(
        holds=v_sup < rhs,
        margin=rhs - v_sup,
        v_std_sup=v_sup,
        kappa_inf=kappa_inf,
        rhs=rhs,
        exact=spec.is_quadratic,
        kappa_consistent=all(kappa >= 1.0 for _, kappa in stats),
        states=rows,
    )


# -- potential drift -------------------------------------------------------------


def estimate_drift(
    spec: ObjectiveSpec,
    states: list[EsState],
    constants: TheoryConstants,
    n: int,
    seed: int,
) -> list[EstimateWithError]:
    """Sample mean of the one-step potential change from each state.

    ``n`` transitions on one z-stream shared by every state, as in
    :func:`check_lemma_suite`; a state's estimate equals that of a call at it
    alone.  :func:`esrate.exact.regime_of` tells a state's step-size regime.
    """
    samples = _sample(spec, partial(_potential_change, constants), states, n, seed)
    return [_first_mean(moments) for moments in samples]


def _potential_change(constants: TheoryConstants, chunk: _Chunk) -> list[np.ndarray]:
    """The change of the potential over each row's step."""
    succ = chunk.success
    f_next = np.where(succ, np.maximum(chunk.f_m + chunk.step, 1e-300), chunk.f_m)
    step = np.where(succ, math.log(constants.alpha_up), math.log(constants.alpha_down))
    log_sigma = chunk.state.log_sigma
    v0 = potential_from_values(chunk.f_m, log_sigma, constants)
    change = potential_from_values(f_next, log_sigma + step, constants) - v0
    return [change]


def describe(spec: ObjectiveSpec) -> str:
    """A spec's name in reports, such as ``h1(d=10, kappa=0)`` for the sphere."""
    if spec.family:
        return f"{spec.family}(d={spec.dim}, kappa={spec.kappa})"
    return f"{spec.kind}(d={spec.dim})"
