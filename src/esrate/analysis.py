"""Monte Carlo estimators for the per-state quantities the theory bounds.

The central quantity is the scaled second-order remainder of the objective
along a mutation direction,

    Q(z) = (2/sigma^2) * (f(m + sigma z) - f(m) - <grad f(m), sigma z>),

which for a diagonal quadratic equals ``sum(h_i z_i^2)`` for every state.
Estimators below compute its moments, the success probability and the
log-progress of one step, and verify the lemma-level inequalities with a
three-standard-error slack.

Every estimator runs on one kernel.  A state's ``n`` standard-normal
mutation rows split into sub-stream blocks of ``max(1, SUB_ELEMS // d)``
rows, and block ``b`` draws from ``rng_stream(seed, *key, b)``.  A block
draws and evaluates its rows in chunks of ``max(1, ELEMS // d)`` rows, into
three work arrays (normals, candidates, scratch) allocated once per block,
and merges the estimator's per-row columns into one accumulator of the
count, the mean vector and the centred co-moment matrix.  The blocks of a
state then merge in block order by the same update.  Each value and its
standard error are read from the merged accumulator: a mean with
``sqrt(s^2 / n)`` (``s^2`` with ``n - 1`` degrees of freedom), a smooth
function of several means by the delta method.  Paired comparisons reuse
one z-stream (common random numbers).

Determinism contract: estimators are pure given ``(inputs, seed)``, and
``SUB_ELEMS`` is part of it, since it fixes which stream draws each row.
``ELEMS`` is not: the draws do not depend on how a block's rows split into
chunks, so the chunk size changes results only through floating-point
rounding.

Every ``(state, block)`` pair is one task of one process pool
(:func:`esrate.pool.fan_out`, sized by ``ES_RATE_THREADS``): the blocks of a
single state, of the states of :func:`check_lemma_suite`, and of the
scanned states behind :func:`check_assumption2` and :func:`q_extremes`.
Every block owns its stream and blocks merge in task order, so results do
not depend on the worker count.  Input is checked before any pool starts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial, reduce
from itertools import islice

import numpy as np

from .engine import EsParams, EsState, default_sigma0, rng_stream
from .objectives import ObjectiveSpec, stack_evaluator
from .pool import fan_out
from .theory import (
    QExtremes,
    TheoryConstants,
    assumption_margin_rhs,
    potential_from_values,
    potential_value,
    std_normal_cdf,
)

__all__ = [
    "ELEMS",
    "SUB_ELEMS",
    "EstimateWithError",
    "QStats",
    "estimate_q_stats",
    "quadratic_q_exact",
    "quadratic_v_std",
    "estimate_success_prob",
    "estimate_log_progress",
    "CheckResult",
    "LemmaReport",
    "check_lemma_suite",
    "Assumption2Report",
    "check_assumption2",
    "DriftEstimate",
    "estimate_drift",
    "q_extremes",
    "state_at_sigma_bar",
    "sigma_bar",
]

#: Mutation-row elements per chunk: a chunk holds ``max(1, ELEMS // d)`` rows,
#: so each of a block's three work arrays stays near 2 MB whatever the dimension.
ELEMS = 2**18

#: Mutation-row elements per sub-stream block: a state's rows split into
#: blocks of ``max(1, SUB_ELEMS // d)`` rows, each with its own stream and
#: pool task.  Unlike ``ELEMS``, it fixes which rows are drawn.
SUB_ELEMS = 2**21

#: Below this ratio of step length to distance, the generic remainder formula
#: loses too many digits to cancellation.
CANCELLATION_GUARD = 1e-6

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


def _require_plain(spec: ObjectiveSpec) -> None:
    if spec.kind == "composite":
        raise ValueError("curvature estimators operate on non-composite specs")


def _check_sample(n: int, seed: int) -> None:
    """Reject a sample size or seed that :func:`_sample` cannot draw."""
    if n < 1000:
        raise ValueError(f"need n >= 1000 mutation rows for stable estimates, got {n}")
    rng_stream(seed)  # raises for a negative seed


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
        is the delta-method standard error of that function.
        """
        w = np.zeros(len(self.mean))
        w[: len(weights)] = weights
        return math.sqrt(max(float(w @ self.comoment @ w), 0.0) / ((self.n - 1) * self.n))


class _Chunk:
    """A chunk of mutation rows ``zs`` at ``state``, with ``fx = f(m + sigma zs)``.

    ``xs`` and ``scratch`` are work arrays of the shape of ``zs``: ``xs``
    receives the candidates ``m + sigma zs`` and ``scratch`` the elementwise
    temporaries of the objective and of the row norms, so no chunk-sized
    array is allocated per chunk.  They hold nothing a column reads.
    """

    def __init__(self, spec: ObjectiveSpec, state: EsState, zs: np.ndarray,
                 xs: np.ndarray, scratch: np.ndarray) -> None:
        self.spec, self.state, self.zs, self.scratch = spec, state, zs, scratch
        self.f_m = spec.value(state.m)
        np.add(state.m, np.multiply(state.sigma, zs, out=xs), out=xs)
        self.fx = stack_evaluator([spec])(xs[None], scratch[None])[0]
        self.success = self.fx <= self.f_m

    @cached_property
    def zg(self) -> np.ndarray:
        """``<z, grad f(m)>`` of each row."""
        return self.zs @ self.spec.gradient(self.state.m)

    @cached_property
    def q(self) -> np.ndarray:
        """The scaled Taylor remainder ``Q`` of each row.

        Positive for every nonzero row by strong convexity, and pathwise
        within ``[L ||z||^2, U ||z||^2]``.  When ``sigma ||z|| / ||m||`` is
        below the cancellation guard, diagonal quadratics switch to the exact
        closed form ``sum(h_i z_i^2)``; other kinds reject such states (double
        precision cannot certify the remainder there).
        """
        m, sigma, zs = self.state.m, self.state.sigma, self.zs
        q = (2.0 / sigma**2) * (self.fx - self.f_m - sigma * self.zg)
        # np.linalg.norm(zs, axis=1) for real input, with its square in the scratch
        norms = np.sqrt(np.add.reduce(np.multiply(zs, zs, out=self.scratch), axis=1))
        tiny = sigma * norms < CANCELLATION_GUARD * np.linalg.norm(m)
        if np.any(tiny):
            if not self.spec.is_quadratic:
                raise ValueError(
                    "step too small relative to ||m|| for a reliable remainder "
                    "(non-quadratic spec); increase sigma"
                )
            zt = zs[tiny]
            q[tiny] = np.einsum("ij,ij->i", zt * self.spec.diag, zt)
        return q


def _block(spec: ObjectiveSpec, state: EsState, rows: int, columns, key: tuple) -> _Moments:
    """Merged moments of ``columns(chunk)`` over ``rows`` mutation rows of ``rng_stream(*key)``.

    This is the only loop that draws mutation rows.  It draws and evaluates
    them in chunks of ``max(1, ELEMS // d)`` rows, into work arrays
    allocated once per call.
    """
    rng = rng_stream(*key)
    chunk = max(1, ELEMS // spec.dim)
    zs, xs, scratch = np.empty((3, min(chunk, rows), spec.dim))
    moments = None
    for start in range(0, rows, chunk):
        k = min(chunk, rows - start)
        rng.standard_normal(out=zs[:k])
        cols = np.array(columns(_Chunk(spec, state, zs[:k], xs[:k], scratch[:k])), dtype=float)
        moments = _Moments(cols) if moments is None else moments.merge(_Moments(cols))
    return moments


def _sample(spec: ObjectiveSpec, columns, jobs) -> list[_Moments]:
    """Merged moments of ``columns(chunk)`` for each ``(state, n, seed, key)`` job.

    ``columns`` maps a :class:`_Chunk` to a list of per-row arrays and must
    pickle.  A job's ``n`` rows split into blocks of ``max(1, SUB_ELEMS //
    d)`` rows, and block ``b`` draws from ``rng_stream(seed, *key, b)``.
    Every block of every job is one :func:`esrate.pool.fan_out` task, and
    each job's blocks merge in block order.  Input is checked here, before
    any pool starts.
    """
    _require_plain(spec)
    for state, n, seed, _ in jobs:
        _check_sample(n, seed)
        if not np.any(state.m):
            raise ValueError("state must be off-optimum")
    rows = max(1, SUB_ELEMS // spec.dim)
    tasks = [[(spec, state, min(rows, n - start), columns, (seed, *key, b))
              for b, start in enumerate(range(0, n, rows))]
             for state, n, seed, key in jobs]
    blocks = iter(fan_out(_block, [task for job in tasks for task in job]))
    return [reduce(_Moments.merge, islice(blocks, len(job))) for job in tasks]


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
    return QStats(
        mean_q=mean,
        var_q=var,
        v_std=var / mean**2,
        half_mean_q=half,
        kappa=mean / half,
        se_mean=moments.se(1.0),
        se_var=moments.se(-shift, 0.0, 1.0),
        se_half=moments.se(0.0, 1.0),
    )


def _first_mean(moments: _Moments) -> EstimateWithError:
    return EstimateWithError(value=float(moments.mean[0]), stderr=moments.se(1.0))


# -- estimators -------------------------------------------------------------------


def quadratic_q_exact(spec: ObjectiveSpec) -> tuple[float, float]:
    """Exact mean and variance of the remainder for a diagonal quadratic.

    ``mean = trace(H)``, ``var = 2 * trace(H^2)``.
    """
    if not spec.is_quadratic:
        raise ValueError("exact remainder moments exist for quadratic_diag only")
    diag = np.asarray(spec.diag)
    return float(diag.sum()), float(2.0 * np.dot(diag, diag))


def quadratic_v_std(spec: ObjectiveSpec) -> float:
    """Exact relative variance ``2 trace(H^2) / trace(H)^2`` of a quadratic."""
    mean, var = quadratic_q_exact(spec)
    return var / mean**2


def estimate_q_stats(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> QStats:
    """Sample moments of the remainder over ``n`` standard-normal mutations."""
    return _q_stats(spec, _sample(spec, _q_columns, [(state, n, seed, ())])[0])


def estimate_success_prob(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> EstimateWithError:
    """Fraction of mutations whose candidate is no worse, with its stderr."""
    return _first_mean(_sample(spec, _success, [(state, n, seed, ())])[0])


def _success(chunk: _Chunk) -> list[np.ndarray]:
    return [chunk.success]


def _log_gain(chunk: _Chunk) -> list[np.ndarray]:
    ratio = np.maximum(chunk.fx, 1e-300) / chunk.f_m
    return [np.where(chunk.success, np.log(ratio), 0.0)]


def estimate_log_progress(spec: ObjectiveSpec, state: EsState, n: int, seed: int) -> EstimateWithError:
    """Mean one-step decrease of ``log f`` (zero on rejected steps); nonpositive."""
    return _first_mean(_sample(spec, _log_gain, [(state, n, seed, ())])[0])


# -- state helpers -------------------------------------------------------------


def _plain_mean_q(spec: ObjectiveSpec, mean_q: float | None) -> float:
    """``mean_q``, or the exact trace when it is ``None`` for a diagonal quadratic."""
    _require_plain(spec)
    if mean_q is None and not spec.is_quadratic:
        raise ValueError("mean_q required for non-quadratic specs")
    return spec.trace_hessian if mean_q is None else mean_q


def sigma_bar(spec: ObjectiveSpec, state: EsState, mean_q: float | None = None) -> float:
    """Normalized step size ``sigma * E[Q] / ||grad f(m)||``.

    Uses the exact trace for diagonal quadratics; other kinds must supply
    ``mean_q`` (an estimate).
    """
    mean_q = _plain_mean_q(spec, mean_q)
    gnorm = spec.gradient_norm(state.m)
    return state.sigma * mean_q / gnorm


def state_at_sigma_bar(spec: ObjectiveSpec, m, target_sigma_bar: float) -> EsState:
    """State at point ``m`` whose normalized step size equals the target.

    Needs a diagonal quadratic, whose ``E[Q]`` is the exact trace.
    """
    m = np.asarray(m, dtype=float)
    gnorm = spec.gradient_norm(m)
    sigma = target_sigma_bar * gnorm / spec.trace_hessian
    return EsState(m=m, log_sigma=math.log(sigma))


def _state_grid(spec: ObjectiveSpec, seed: int) -> list[EsState]:
    """The 32 scanned states: 8 distances ``1e-3 .. 1e3`` times ``sqrt(d)``
    from the optimum, 2 random directions each, at 0.1 and 1 times the
    default step size.

    Coarse coverage for the state-space extremes of non-quadratic specs;
    the suprema/infima derived from it are approximations and the sampled
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


def _extremes(
    spec: ObjectiveSpec, n: int, seed: int
) -> tuple[float, float, float, list[EsState], list[QStats]]:
    """``(sup v_std, inf kappa, sup E[Q], states, stats)`` of :func:`q_extremes` and
    :func:`check_assumption2`; diagonal quadratics use closed forms and scan no states,
    but ``n`` and ``seed`` are checked as if they did."""
    _require_plain(spec)
    _check_sample(n, seed)
    if spec.is_quadratic:
        mean, var = quadratic_q_exact(spec)
        return var / mean**2, 2.0, mean, [], []
    states = _state_grid(spec, seed)
    jobs = [(st, n, seed + 101 + i, ()) for i, st in enumerate(states)]
    stats = [_q_stats(spec, moments) for moments in _sample(spec, _q_columns, jobs)]
    v_sup, kappa_inf = max(s.v_std for s in stats), min(s.kappa for s in stats)
    return v_sup, kappa_inf, max(s.mean_q for s in stats), states, stats


def q_extremes(spec: ObjectiveSpec, *, n: int, seed: int) -> QExtremes:
    """State-space extremes of the curvature statistics.

    Exact and state-independent for diagonal quadratics.  For other kinds the
    extremes are taken over the 32 sampled states of the scan (an approximation).
    """
    v_sup, kappa_inf, e_q, _, _ = _extremes(spec, n, seed)
    return QExtremes(
        v_std_sup=v_sup, kappa_inf=kappa_inf, e_q=e_q, strong_convexity=spec.strong_convexity
    )


# -- lemma suite ---------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verified inequality: passes iff ``lhs <= rhs + 3*stderr``.

    ``tight`` marks an inequality that holds with equality at the state, so
    its one-sided test fails with probability ``Phi(-3)``, about 0.135%, by
    design.
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
            verdict = "pass" if lhs <= rhs + 3.0 * stderr else "fail"
        return CheckResult(name, state_id, lhs, rhs, stderr, verdict, tight)


@dataclass(frozen=True)
class LemmaReport:
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
        no defect, ``Phi(-3)`` per tight check."""
        return {
            "spec": self.spec,
            "n": self.n,
            "seed": self.seed,
            "ok": self.ok,
            "expected_failures": sum(c.tight for c in self.checks) * std_normal_cdf(-3.0),
            "checks": [asdict(c) for c in self.checks],
        }


def _lemma_columns(chunk: _Chunk) -> list[np.ndarray]:
    """:func:`_q_columns`, then relative progress, the ``f(m)/f(x)`` moment and success."""
    succ = chunk.success
    rel = np.where(succ, chunk.fx / chunk.f_m - 1.0, 0.0)
    mom = np.where(succ, chunk.f_m / np.maximum(chunk.fx, 1e-300), 1.0)
    return _q_columns(chunk) + [rel, mom, succ]


def check_lemma_suite(
    spec: ObjectiveSpec,
    states: list[EsState],
    n: int,
    seed: int,
) -> LemmaReport:
    """Monte Carlo verification of the one-step inequalities at each state.

    Per state: curvature-moment bounds (mean within ``[dL, dU]``, variance at
    most ``4 d U^2``, half-split deviation at most ``sqrt(2/d) (U/L)`` of the
    mean), the expected-progress upper bound, the log-progress moment bound
    ``(U/L)(1 + 1/(d-3))``, and the success-probability sandwich at the
    slack values 0.1, 0.3 and 0.5.  All comparisons carry a 3-stderr slack;
    checks whose error estimate is unusable are reported inconclusive.  On a
    diagonal quadratic ``E[Q] = Tr(H)``, so the lower (upper) mean bound is
    tight iff ``Tr(H) = d L`` (``d U``), that is, iff every ``h_i`` equals
    ``L`` (``U``), as on the sphere.

    One z-stream per state is shared by all checks (common random numbers);
    the paired progress comparison takes its error by the delta method.
    The blocks of every state are sampled in parallel by
    :func:`esrate.pool.fan_out`; the checks are built from the merged
    moments in state order.
    """
    d = spec.dim
    lmod, umod = spec.strong_convexity, spec.smoothness
    tight_lower = spec.is_quadratic and bool(np.all(spec.diag == lmod))
    tight_upper = spec.is_quadratic and bool(np.all(spec.diag == umod))
    jobs = [(state, n, seed, (idx,)) for idx, state in enumerate(states)]
    checks: list[CheckResult] = []
    for idx, (state, moments) in enumerate(zip(states, _sample(spec, _lemma_columns, jobs))):
        sid = str(idx)
        f_m = spec.value(state.m)
        gnorm = spec.gradient_norm(state.m)
        sigma = state.sigma
        stats = _q_stats(spec, moments)
        mean_q, var_q, se_mean = stats.mean_q, stats.var_q, stats.se_mean
        half = stats.half_mean_q
        rel_mean, mom_mean, p_hat = (float(x) for x in moments.mean[3:])
        se_p = moments.se(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

        checks.append(
            CheckResult.judge("curvature_mean_lower", sid, d * lmod, mean_q, se_mean, tight_lower)
        )
        checks.append(
            CheckResult.judge("curvature_mean_upper", sid, mean_q, d * umod, se_mean, tight_upper)
        )
        checks.append(
            CheckResult.judge("curvature_variance", sid, var_q, 4.0 * d * umod**2, stats.se_var)
        )
        # Q (against - 1/2) has mean half - mean_q / 2.
        dev_mean = half - 0.5 * mean_q
        half_bound = math.sqrt(2.0 / d) * (umod / lmod) * mean_q
        half_slack = moments.se(-0.5, 1.0) + math.sqrt(2.0 / d) * (umod / lmod) * se_mean
        checks.append(CheckResult.judge("curvature_half_split", sid, abs(dev_mean), half_bound, half_slack))

        # rhs = a (b half - 1/sqrt(2 pi)) p; the stderr of rel_mean - rhs is
        # the delta method over the (rel, Q against, success) columns.
        a, b = sigma * gnorm / f_m, sigma / (2.0 * gnorm)
        rhs = a * (b * half - _INV_SQRT_2PI) * p_hat
        se_diff = moments.se(0.0, -a * b * p_hat, 0.0, 1.0, 0.0, -a * (b * half - _INV_SQRT_2PI))
        checks.append(CheckResult.judge("expected_progress_bound", sid, rel_mean, rhs, se_diff))

        if d > 3:
            se_mom = moments.se(0.0, 0.0, 0.0, 0.0, 1.0)
            mom_bound = (umod / lmod) * (1.0 + 1.0 / (d - 3))
            checks.append(CheckResult.judge("log_progress_moment", sid, mom_mean, mom_bound, se_mom))
        else:
            checks.append(CheckResult("log_progress_moment", sid, math.nan, math.nan, math.nan, "inconclusive"))

        sbar = sigma_bar(spec, state, None if spec.is_quadratic else mean_q)
        v_std = quadratic_v_std(spec) if spec.is_quadratic else stats.v_std
        for eps in (0.1, 0.3, 0.5):
            low = std_normal_cdf(-0.5 * sbar * (1.0 + eps)) - v_std / eps**2
            high = std_normal_cdf(-0.5 * sbar * (1.0 - eps)) + v_std / eps**2
            checks.append(CheckResult.judge(f"success_prob_lower_eps{eps:g}", sid, low, p_hat, se_p))
            checks.append(CheckResult.judge(f"success_prob_upper_eps{eps:g}", sid, p_hat, high, se_p))

    return LemmaReport(spec=_describe(spec), n=n, seed=seed, checks=checks)


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
    evaluated at the estimated ``kappa_inf``.  Diagonal quadratics use the
    exact closed forms (``v_std = 2 tr(H^2)/tr(H)^2``, ``kappa = 2``); other
    kinds estimate over the 32 sampled states of the scan, which are
    included in the report for audit.  Every kind rejects ``n < 1000`` and a negative
    ``seed``, as the sampled path must.
    """
    v_sup, kappa_inf, _, states, stats = _extremes(spec, n, seed)
    consistent = not any(
        s.kappa < 1.0 - 3.0 * s.kappa * math.hypot(s.se_mean / s.mean_q, s.se_half / s.half_mean_q)
        for s in stats
    )
    rows = [
        {"m_norm": float(np.linalg.norm(st.m)), "log_sigma": st.log_sigma,
         "v_std": s.v_std, "kappa": s.kappa}
        for st, s in zip(states, stats)
    ]
    rhs = assumption_margin_rhs(kappa_inf)
    return Assumption2Report(
        holds=v_sup < rhs,
        margin=rhs - v_sup,
        v_std_sup=v_sup,
        kappa_inf=kappa_inf,
        rhs=rhs,
        exact=spec.is_quadratic,
        kappa_consistent=consistent,
        states=rows,
    )


# -- potential drift -------------------------------------------------------------


@dataclass(frozen=True)
class DriftEstimate:
    """Estimated expected one-step potential change at a state."""

    value: float
    stderr: float
    regime: str


def regime_of(
    spec: ObjectiveSpec,
    state: EsState,
    params: EsParams,
    constants: TheoryConstants,
    mean_q: float | None = None,
) -> str:
    """Which step-size regime a state falls in: small, reasonable, or large.

    Thresholds: ``sigma < s sqrt(L f(m)) / (alpha_up e_q)`` is small;
    ``sigma > ell ||grad f(m)|| / (sqrt(2) alpha_down E[Q])`` is large.
    """
    mean_q = _plain_mean_q(spec, mean_q)
    f_m = spec.value(state.m)
    gnorm = spec.gradient_norm(state.m)
    small_cap = constants.s * math.sqrt(constants.strong_convexity * f_m) / (
        params.alpha_up * constants.e_q
    )
    large_cap = constants.ell * gnorm / (math.sqrt(2.0) * params.alpha_down * mean_q)
    sigma = state.sigma
    if sigma < small_cap:
        return "small"
    if sigma > large_cap:
        return "large"
    return "reasonable"


def estimate_drift(
    spec: ObjectiveSpec,
    state: EsState,
    params: EsParams,
    constants: TheoryConstants,
    n: int,
    seed: int,
) -> DriftEstimate:
    """Sample mean of the one-step potential change from ``state``.

    Simulates ``n`` independent transitions and evaluates the potential
    difference for each; the state's step-size regime is classified by
    :func:`regime_of`.
    """
    mean_q = None if spec.is_quadratic else estimate_q_stats(spec, state, n, seed + 1).mean_q
    regime = regime_of(spec, state, params, constants, mean_q=mean_q)
    columns = partial(_potential_change, params, constants, potential_value(state, spec, constants))
    est = _first_mean(_sample(spec, columns, [(state, n, seed, ())])[0])
    return DriftEstimate(value=est.value, stderr=est.stderr, regime=regime)


def _potential_change(
    params: EsParams, constants: TheoryConstants, v0: float, chunk: _Chunk
) -> list[np.ndarray]:
    """The potential after each row's step, less its value ``v0`` before it."""
    succ = chunk.success
    f_next = np.where(succ, np.maximum(chunk.fx, 1e-300), chunk.f_m)
    step = np.where(succ, math.log(params.alpha_up), math.log(params.alpha_down))
    return [potential_from_values(f_next, chunk.state.log_sigma + step, constants) - v0]


def _describe(spec: ObjectiveSpec) -> str:
    if spec.family:
        return f"{spec.family}(d={spec.dim}, kappa={spec.kappa})"
    return f"{spec.kind}(d={spec.dim})"
