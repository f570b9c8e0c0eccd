"""The (1+1)-ES Markov chain with success-based step-size adaptation.

One iteration samples a candidate ``x = m + sigma * z`` with ``z ~ N(0, I)``
and accepts it iff its objective value is no worse than the incumbent's
(ties accept).  On acceptance the step size is multiplied by ``alpha_up``,
otherwise by ``alpha_down``.  ``log(sigma)`` is the stored quantity, so the
multiplicative updates are literal increments and accumulate no drift over
long runs.

Determinism contract
--------------------
All randomness flows through :func:`rng_stream`: a PCG64 generator seeded by
``numpy.random.SeedSequence(entropy=seed, spawn_key=key)``.  Normal variates
come from ``Generator.standard_normal``, one row of ``dim`` draws per
step; :func:`run` draws them in blocks of at most ``Z_BLOCK`` rows, fewer
when fewer steps are left, and the generator fills rows in stream order,
so the block size never enters the results.  Identical ``(spec, params,
init, budget, seed)`` always reproduce bit-identical trajectories, and
distinct spawn keys give independent streams, so trials may run in
parallel in any order.

:func:`run` evaluates candidates in batches of up to ``SPEC_ROWS`` rows.
While steps reject, the incumbent stays put and ``log(sigma)`` only adds
``log(alpha_down)``, so the candidates of a whole rejection run are known
from the drawn rows in advance; a batch is cut at its first acceptance.
Every float is computed as a one-step-at-a-time loop computes it, so
``SPEC_ROWS`` and ``SPEC_ELEMS`` never enter the results.

Composite objectives are simulated in canonical coordinates: the chain
tracks ``m - x_opt`` and compares pre-transform values, which is equivalent
by monotonicity of the transform and makes the recorded series of a
composite run identical to the base run's.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveSpec

__all__ = [
    "EsParams",
    "EsState",
    "Trajectory",
    "rng_stream",
    "trial_seed",
    "p_target",
    "params_for_rule",
    "params_for_target",
    "run",
    "init_default",
    "default_sigma0",
    "ALPHA_RULES",
]

#: Most rows of standard-normal draws per block inside :func:`run`.
Z_BLOCK = 1024

#: Most candidates :func:`run` evaluates in one batch (see the module notes),
#: and the most elements of one batch.  Near a success rate of 1/5 about half
#: of an 8-row batch lies past its first acceptance; from ``dim`` of a few
#: thousand on, evaluating those rows costs more than the calls they save.
SPEC_ROWS = 8
SPEC_ELEMS = 8192

ALPHA_RULES = ("const", "sqrt", "dim")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for stream ``key`` of the 64-bit ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def trial_seed(base_seed: int, cell_index: int, trial: int) -> int:
    """64-bit seed of a trial: the first word of the seed sequence of its stream."""
    ss = rng_stream(base_seed, cell_index, trial).bit_generator.seed_seq
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class EsParams:
    """Step-size adaptation factors: ``alpha_up > 1``, ``alpha_down in (0,1)``."""

    alpha_up: float
    alpha_down: float

    def __post_init__(self) -> None:
        if not self.alpha_up > 1:
            raise ValueError("alpha_up must exceed 1")
        if not 0 < self.alpha_down < 1:
            raise ValueError("alpha_down must lie in (0, 1)")

    @property
    def log_ratio(self) -> float:
        """log(alpha_up / alpha_down) > 0."""
        return math.log(self.alpha_up) - math.log(self.alpha_down)


def p_target(params: EsParams) -> float:
    """Success probability at which the expected log step-size change is zero.

    Equals ``log(1/alpha_down) / log(alpha_up/alpha_down)`` and lies in (0,1).
    """
    down = -math.log(params.alpha_down)
    return down / (math.log(params.alpha_up) + down)


def params_for_rule(rule: str, dim: int, c: float = 1.0) -> EsParams:
    """Preset factors: ``alpha_up = exp(c)``, ``exp(c/sqrt(d))`` or ``exp(c/d)``.

    ``alpha_down = alpha_up ** -0.25`` targets a success probability of 1/5.
    """
    if not dim >= 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if rule == "const":
        log_up = c
    elif rule == "sqrt":
        log_up = c / math.sqrt(dim)
    elif rule == "dim":
        log_up = c / dim
    else:
        raise ValueError(f"unknown alpha rule {rule!r}; expected one of {ALPHA_RULES}")
    try:
        up = math.exp(log_up)
    except OverflowError:
        raise ValueError(f"alpha_up = exp({log_up:g}) exceeds the float range") from None
    return EsParams(alpha_up=up, alpha_down=up**-0.25)


def params_for_target(alpha_up: float, target: float) -> EsParams:
    """Choose ``alpha_down`` so the zero-drift success probability equals ``target``."""
    if not 0 < target < 1:
        raise ValueError("target probability must lie in (0, 1)")
    exponent = target / (1.0 - target)
    return EsParams(alpha_up=alpha_up, alpha_down=alpha_up**-exponent)


@dataclass(frozen=True)
class EsState:
    """Chain state: search point ``m`` and ``log(sigma)``.

    The array is not defensively copied; treat states as read-only.
    """

    m: np.ndarray
    log_sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.log_sigma):
            raise ValueError("log_sigma must be finite")

    @property
    def sigma(self) -> float:
        return math.exp(self.log_sigma)


@dataclass(frozen=True)
class Trajectory:
    """Recorded time series of one run.

    ``log_dist``, ``log_f`` and ``log_sigma`` have one entry per state,
    ``t = 0 .. t_final``; ``success[t]`` is the outcome of the transition
    from state ``t`` to ``t+1`` (length ``t_final``).  ``log_f`` is the
    pre-transform (canonical) objective value, which is also what the
    ``f_floor`` stop rule inspects.
    """

    log_dist: np.ndarray
    log_f: np.ndarray
    log_sigma: np.ndarray
    success: np.ndarray
    stop_reason: str
    final_state: EsState

    @property
    def t_final(self) -> int:
        """Number of steps taken."""
        return len(self.success)

    def to_csv(self, path, thin: int = 1) -> None:
        """Write ``t,log_dist,log_f,log_sigma,success`` rows.

        ``success`` on row ``t`` is the outcome of step ``t``; the final
        state row carries an empty flag.  ``thin`` keeps every ``thin``-th
        state (the final state always included) and is recorded in a
        leading comment so readers can recover the stride.
        """
        if thin < 1:
            raise ValueError("thin must be >= 1")
        idx = list(range(0, self.t_final + 1, thin))
        if idx[-1] != self.t_final:
            idx.append(self.t_final)
        with open(path, "w", newline="") as fh:
            if thin > 1:
                fh.write(f"# thin={thin}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "log_dist", "log_f", "log_sigma", "success"])
            for t in idx:
                flag = "" if t == self.t_final else str(int(self.success[t]))
                writer.writerow(
                    [t, repr(float(self.log_dist[t])), repr(float(self.log_f[t])),
                     repr(float(self.log_sigma[t])), flag]
                )


def _log_norm(y: np.ndarray) -> float:
    """``log ||y||``; ``-inf`` only at ``y == 0``.

    Below about 1e-162 the squared norm underflows to 0, and the scaled
    ``math.hypot`` takes over.
    """
    sq = float(np.dot(y, y))
    if sq > 0:
        return 0.5 * math.log(sq)
    norm = math.hypot(*y)
    return math.log(norm) if norm > 0 else -math.inf


@np.errstate(over="ignore", invalid="ignore")
def run(
    spec: ObjectiveSpec,
    params: EsParams,
    init: EsState,
    budget: int,
    f_floor: float = 1e-100,
    seed: int = 0,
) -> Trajectory:
    """Simulate the chain for up to ``budget`` steps.

    Stops early once the canonical objective value of the incumbent drops
    below ``f_floor`` (recorded as ``stop_reason='f_floor'``, with
    ``t_final`` truncated to the stopping step); otherwise runs the full
    budget (``stop_reason='budget'``).  Raises ``ValueError`` for a start
    point not of shape ``(spec.dim,)``, at the optimum or with a non-finite
    objective value, and once ``exp(log_sigma)`` overflows a float.  A
    candidate whose value overflows to inf (or nan) rejects, silently.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not f_floor > 0:
        raise ValueError("f_floor must be positive")
    m = np.asarray(init.m, dtype=float)
    if m.shape != (spec.dim,):
        raise ValueError(f"start point has shape {m.shape}, expected ({spec.dim},)")
    base, shift = spec.canonical()
    y = m - shift
    if not np.any(y):
        raise ValueError("initial point must differ from the optimum")
    f_m = base.value(y)
    if not math.isfinite(f_m):
        raise ValueError(f"objective value at the initial point is not finite ({f_m})")
    la_up = math.log(params.alpha_up)
    la_dn = math.log(params.alpha_down)
    log_sigma = float(init.log_sigma)
    log_d = _log_norm(y)
    log_fm = math.log(f_m)

    log_dist = np.empty(budget + 1)
    log_f = np.empty(budget + 1)
    log_sig = np.empty(budget + 1)
    success = np.zeros(budget, dtype=bool)
    log_dist[0] = log_d
    log_f[0] = log_fm
    log_sig[0] = log_sigma

    rng = rng_stream(seed)
    dim = base.dim
    stop_reason = "budget"
    # Rows per batch; a start already below the floor takes one step and stops.
    cap = max(1, min(SPEC_ROWS, SPEC_ELEMS // dim)) if f_m >= f_floor else 1
    t = 0
    zbuf = np.empty((0, dim))
    zi = 0
    while t < budget:
        if zi == len(zbuf):
            zbuf = rng.standard_normal((min(Z_BLOCK, budget - t), dim))
            zi = 0
        # The candidates of the next k steps if all of them reject: the
        # incumbent stays and log(sigma) falls by one step at a time, summed
        # in the order of a per-step loop, so every float is that loop's.
        k = min(cap, len(zbuf) - zi, budget - t)
        ls = [log_sigma]
        for _ in range(k):
            ls.append(ls[-1] + la_dn)
        try:
            sigmas = [math.exp(v) for v in ls[:k]]  # ls decreases: only ls[0] can overflow
        except OverflowError:
            raise ValueError(f"step size overflows at step {t}: log_sigma={log_sigma!r}") from None
        xs = np.array(sigmas)[:, None] * zbuf[zi : zi + k]
        xs += y
        # Steps t .. t+n-1 happen: all reject, or the last one accepts.
        for n, f_x in enumerate(base.value_many(xs).tolist(), 1):
            if f_x <= f_m:
                break
        log_dist[t + 1 : t + n + 1] = log_d
        log_f[t + 1 : t + n + 1] = log_fm
        if f_x <= f_m:
            ls[n] = ls[n - 1] + la_up
            success[t + n - 1] = True
            y = xs[n - 1]
            f_m = f_x
            log_d = _log_norm(y)
            log_fm = math.log(f_m) if f_m > 0 else -math.inf
            log_dist[t + n] = log_d
            log_f[t + n] = log_fm
        log_sig[t + 1 : t + n + 1] = ls[1 : n + 1]
        log_sigma = ls[n]
        t += n
        zi += n
        if f_m < f_floor:
            stop_reason = "f_floor"
            break

    return Trajectory(
        log_dist=log_dist[: t + 1],
        log_f=log_f[: t + 1],
        log_sigma=log_sig[: t + 1],
        success=success[:t],
        stop_reason=stop_reason,
        final_state=EsState(y + shift, log_sigma),
    )


def default_sigma0(spec: ObjectiveSpec, m0: np.ndarray) -> float:
    """Initial step size for a start point: gradient norm over curvature mass.

    Divides by the Hessian trace for diagonal quadratics and by ``dim * U``
    otherwise (composites defer to their base at canonical coordinates).
    """
    base, shift = spec.canonical()
    y0 = np.asarray(m0, dtype=float) - shift
    grad_norm = float(np.linalg.norm(base.gradient(y0)))
    if base.is_quadratic:
        return grad_norm / base.trace_hessian
    return grad_norm / (base.dim * base.smoothness)


def init_default(spec: ObjectiveSpec, seed: int) -> EsState:
    """Standard-normal start point around the optimum with the default sigma.

    Draws from stream ``(seed, 1)``, which is independent of the stream
    :func:`run` consumes for the same seed, so one seed can drive both.
    """
    rng = rng_stream(seed, 1)
    base, shift = spec.canonical()
    y0 = rng.standard_normal(base.dim)
    while not np.any(y0):  # at the optimum only with probability zero
        y0 = rng.standard_normal(base.dim)
    m0 = y0 + shift
    return EsState(m=m0, log_sigma=math.log(default_sigma0(spec, m0)))
