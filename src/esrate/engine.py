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
step; each chain draws them in blocks of at most ``SPEC_ELEMS // dim``
rows (at least one), fewer when fewer steps are left, so a block stays
within ``SPEC_ELEMS`` elements whatever the dimension.  Rows a batch did
not use lead the next block.  The generator fills rows in stream order,
so the block size never enters the results.  Identical ``(spec, params,
init, budget, seed)`` always reproduce bit-identical trajectories, and
distinct spawn keys give independent streams, so trials may run in
parallel in any order.

Each chain evaluates candidates in batches of up to ``SPEC_ROWS`` rows.
While steps reject, the incumbent stays put and ``log(sigma)`` only adds
``log(alpha_down)``, so the candidates of a whole rejection run are known
from the drawn rows in advance; a batch is cut at its first acceptance.
:func:`run_many` steps chains of one dimension in lockstep: each round
stacks every live chain's batch into one evaluation, which pays numpy's
per-call cost once for the group.  :func:`run` is its one-chain call.
:func:`run_all` runs any batch of chains: it cuts them into such groups
(:func:`lockstep_plan`), fans the groups out over the process pool,
reduces each trajectory in its worker and returns the results in chain
order.  Every float is computed as a one-step-at-a-time loop computes
it, so ``SPEC_ROWS``, ``SPEC_ELEMS``, the grouping and the worker count
never enter the results.

Composite objectives are simulated in canonical coordinates: the chain
tracks ``m - x_opt`` and compares pre-transform values, which is equivalent
by monotonicity of the transform and makes the recorded series of a
composite run identical to the base run's.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .objectives import ObjectiveSpec, _positive_value, is_int, stack_evaluator
from .pool import fan_out, worker_count

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
    "run_many",
    "run_all",
    "lockstep_plan",
    "init_default",
    "default_sigma0",
    "ALPHA_RULES",
]

#: Most candidates a chain evaluates in one batch (see the module notes),
#: and the most elements of one batch, which also bound a lockstep round
#: (:func:`_lockstep_width`) and a chain's block of normal draws.  Near a
#: success rate of 1/5 about half of an 8-row batch lies past its first
#: acceptance; from ``dim`` of a few thousand on, evaluating those rows
#: costs more than the calls they save.
SPEC_ROWS = 8
SPEC_ELEMS = 8192

ALPHA_RULES = ("const", "sqrt", "dim")


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for stream ``key`` of the 64-bit ``seed``."""
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
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
    if not (is_int(dim) and dim >= 1):
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not (math.isfinite(c) and c > 0):  # else alpha_up <= 1 or a NaN alpha_down
        raise ValueError(f"c must be finite and > 0, got {c!r}")
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
    return _rounded_params(up, up**-0.25, f"c = {c!r}")


def params_for_target(alpha_up: float, target: float) -> EsParams:
    """Choose ``alpha_down`` so the zero-drift success probability equals ``target``."""
    if not 0 < target < 1:
        raise ValueError("target probability must lie in (0, 1)")
    if not alpha_up > 1:  # else alpha_down >= 1, or an OverflowError below
        raise ValueError(f"alpha_up must exceed 1, got {alpha_up!r}")
    return _rounded_params(alpha_up, alpha_up ** (target / (target - 1.0)), f"target = {target!r}")


def _rounded_params(up: float, down: float, source: str) -> EsParams:
    """``EsParams(up, down)``; a factor that rounds to 1 or 0 names ``source``."""
    if not up > 1:
        raise ValueError(f"{source} makes alpha_up round to {up!r}; it must exceed 1")
    if not 0 < down < 1:
        raise ValueError(f"{source} makes alpha_down round to {down!r}; it must lie in (0, 1)")
    return EsParams(alpha_up=up, alpha_down=down)


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
        if not (is_int(thin) and thin >= 1):
            raise ValueError(f"thin must be a positive integer, got {thin!r}")
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
    """``log ||y||``; ``-inf`` only at ``y == 0``.  Callers hold ``np.errstate(over="ignore")``.

    Where the squared norm falls below ``sys.float_info.min`` (a norm below
    about 1e-154), where a subnormal has lost digits, or overflows (above
    about 1e154), the scaled ``math.hypot`` takes over.
    """
    sq = float(np.dot(y, y))
    if sys.float_info.min <= sq < math.inf:
        return 0.5 * math.log(sq)
    norm = math.hypot(*y)
    return math.log(norm) if norm > 0 else -math.inf


class _Chain:
    """One chain of :func:`run_many` while it steps.

    Keeps only what its trajectory cannot rebuild: the steps that accepted
    and ``log ||y||`` and ``log f`` after each (the start values first).
    Rejected steps repeat those values, and ``log_sigma`` is the running sum
    of one ``log(alpha)`` per step, so :meth:`trajectory` restores every
    series exactly.
    """

    __slots__ = ("index", "base", "shift", "y0", "la_up", "la_dn", "budget", "f_floor",
                 "rng", "cap", "t", "f_m", "log_sigma0", "log_sigma", "ls", "k", "zbuf", "zi",
                 "acc_t", "acc_d", "acc_f", "stop_reason")

    def __init__(self, index: int, spec: ObjectiveSpec, params: EsParams, init: EsState,
                 budget: int, f_floor: float = 1e-100, seed: int = 0) -> None:
        if not (is_int(budget) and budget >= 1):
            raise ValueError(f"budget must be a positive integer, got {budget!r}")
        if not (math.isfinite(f_floor) and f_floor > 0):
            raise ValueError(f"f_floor must be finite and positive, got {f_floor}")
        m = np.asarray(init.m, dtype=float)
        if m.shape != (spec.dim,):
            raise ValueError(f"start point has shape {m.shape}, expected ({spec.dim},)")
        self.base, self.shift = spec.canonical()
        self.y0 = m - self.shift
        self.f_m = _positive_value(self.base, self.y0, "the start point")
        self.index = index
        self.la_up = math.log(params.alpha_up)
        self.la_dn = math.log(params.alpha_down)
        self.budget = budget
        self.f_floor = f_floor
        self.rng = rng_stream(seed)
        # A start already below the floor takes one step and stops.
        self.cap = _rows(spec.dim) if self.f_m >= f_floor else 1
        self.t = 0
        self.log_sigma0 = self.log_sigma = float(init.log_sigma)
        self.zbuf = np.empty((0, spec.dim))
        self.zi = 0
        self.acc_t = array("q")
        with np.errstate(over="ignore"):  # run_many's rounds hold it, so steps set none
            self.acc_d = array("d", [_log_norm(self.y0)])
        self.acc_f = array("d", [math.log(self.f_m)])
        self.stop_reason = "budget"

    def draw(self, sigmas: list, zs: np.ndarray, s: int) -> None:
        """Append this round's ``len(zs[s])`` step sizes to ``sigmas`` and put
        its normals in ``zs[s]``; the first ``k`` make the candidates.

        They are the next ``k`` steps' if all of them reject: the incumbent
        stays and ``log(sigma)`` falls by one step at a time, summed in the
        order of a per-step loop, so every float is that loop's.
        """
        zi = self.zi
        k = min(self.cap, self.budget - self.t)
        left = len(self.zbuf) - zi
        if left < k:  # the unused rows lead the next block, so no batch is cut short
            dim = zs.shape[2]
            fresh = self.rng.standard_normal(
                (min(max(1, SPEC_ELEMS // dim), self.budget - self.t - left), dim))
            self.zbuf = np.concatenate((self.zbuf[zi:], fresh))
            self.zi = zi = 0
        v = self.log_sigma
        la_dn = self.la_dn
        ls = [v]
        for _ in range(zs.shape[1] - 1):
            v += la_dn
            ls.append(v)
        try:
            sigmas.extend(map(math.exp, ls))  # ls falls: only ls[0] can overflow
        except OverflowError:
            raise ValueError(
                f"step size overflows at step {self.t}: log_sigma={self.log_sigma!r}"
            ) from None
        zs[s, :k] = self.zbuf[zi : zi + k]
        self.ls = ls
        self.k = k

    def step(self, values: list, xs: np.ndarray, y: np.ndarray, s: int) -> bool:
        """Take this round's steps up to the first acceptance, which moves the
        incumbent ``y[s]`` to its candidate in ``xs[s]``; True once the chain
        stops."""
        ls = self.ls
        k = self.k
        f_m = self.f_m
        for n in range(1, k + 1):
            f_x = values[n - 1]
            if f_x <= f_m:
                self.acc_t.append(self.t + n - 1)
                y[s] = xs[s, n - 1]
                self.f_m = f_m = f_x
                self.acc_d.append(_log_norm(y[s]))
                self.acc_f.append(math.log(f_x) if f_x > 0 else -math.inf)
                self.log_sigma = ls[n - 1] + self.la_up
                break
        else:
            self.log_sigma = ls[k - 1] + self.la_dn
        self.t += n
        self.zi += n
        if f_m < self.f_floor:
            self.stop_reason = "f_floor"
            return True
        return self.t == self.budget

    def trajectory(self, y: np.ndarray) -> Trajectory:
        """The recorded series of the stopped chain, whose incumbent is ``y``."""
        t = self.t
        steps = np.array(self.acc_t, dtype=np.int64)
        success = np.zeros(t, dtype=bool)
        success[steps] = True
        held = np.diff(steps, prepend=-1, append=t)  # states that hold each value
        log_sigma = np.full(t + 1, self.la_dn)
        log_sigma[0] = self.log_sigma0
        log_sigma[steps + 1] = self.la_up
        return Trajectory(
            log_dist=np.repeat(np.array(self.acc_d), held),
            log_f=np.repeat(np.array(self.acc_f), held),
            log_sigma=np.cumsum(log_sigma),
            success=success,
            stop_reason=self.stop_reason,
            final_state=EsState(y + self.shift, self.log_sigma),
        )


def _rows(dim: int) -> int:
    """Most candidates of one chain evaluated in one batch."""
    return max(1, min(SPEC_ROWS, SPEC_ELEMS // dim))


def _lockstep_width(dim: int) -> int:
    """Most chains of dimension ``dim`` that :func:`run_many` should step
    together: one round's batch stays within ``SPEC_ELEMS`` elements."""
    return max(1, SPEC_ELEMS // (_rows(dim) * dim))


def lockstep_plan(chains: Sequence) -> list[list[int]]:
    """The pool tasks of :func:`run_all`: lists of indices into ``chains``.

    Chains of one dimension form a group, in chain order, whatever their
    objectives.  Each group is cut in order into tasks of at most
    :func:`_lockstep_width` chains and at most a worker's share of the group,
    its size over :func:`esrate.pool.worker_count` rounded up, so every worker gets a task.
    The tasks come largest summed budget first, so the longest start first.
    """
    groups: dict[int, list[int]] = {}
    for i, chain in enumerate(chains):
        groups.setdefault(chain[0].dim, []).append(i)
    tasks = []
    for dim, members in groups.items():
        width = min(_lockstep_width(dim), -(-len(members) // worker_count()))
        tasks += [members[i : i + width] for i in range(0, len(members), width)]
    tasks.sort(key=lambda task: -sum(chains[i][3] for i in task))
    return tasks


def _run_task(indices: list[int], chains: list, reduce) -> list[tuple[int, object]]:
    """``(indices[i], reduce(trajectory))`` of one :func:`run_many` group, as chain ``i`` stops."""
    return [(indices[i], reduce(traj)) for i, traj in run_many(chains)]


def run_all(chains: Sequence, reduce) -> list:
    """``[reduce(run(*chain)) for chain in chains]``, in lockstep groups over the pool.

    ``chains`` holds :func:`run_many` tuples of any dimensions and kinds,
    composites included.  The tasks of :func:`lockstep_plan` fan out over
    :func:`esrate.pool.fan_out`, and each worker applies ``reduce``, a
    picklable function of one :class:`Trajectory`, as each chain stops, so
    only its results cross the process boundary.  Results come in chain
    order and equal the one-chain calls' bit for bit, whatever the worker
    count.
    """
    tasks = [(task, [chains[i] for i in task], reduce) for task in lockstep_plan(chains)]
    results = dict(pair for pairs in fan_out(_run_task, tasks) for pair in pairs)
    return [results[i] for i in range(len(chains))]


def run_many(chains) -> Iterator[tuple[int, Trajectory]]:
    """Step several chains in lockstep; yield ``(i, trajectory)`` as chain ``i`` stops.

    ``chains`` holds ``(spec, params, init, budget[, f_floor[, seed]])``
    tuples, the arguments of :func:`run`, and each trajectory equals that
    call's bit for bit.  Every round gathers each live chain's candidates
    into one ``(chains, rows, dim)`` batch, evaluated by one call of
    :func:`esrate.objectives.stack_evaluator`; so all specs must share
    ``dim`` (else ``ValueError``).  Live chains keep the leading rows of
    every array, so each gather is a basic slice.
    """
    live = [_Chain(i, *chain) for i, chain in enumerate(chains)]
    evaluate = stack_evaluator([c.base for c in live])
    rows = max(c.cap for c in live)
    dim = live[0].base.dim
    y = np.array([c.y0 for c in live])
    while live:
        shape = (len(live), rows, 1)
        xs = np.zeros((len(live), rows, dim))  # rows past a chain's k are ignored
        y3 = y[:, None, :]
        stopped = []
        with np.errstate(over="ignore", invalid="ignore"):  # inf or nan candidates reject
            while not stopped:
                sigmas = []
                for s, c in enumerate(live):
                    c.draw(sigmas, xs, s)
                xs *= np.array(sigmas).reshape(shape)
                xs += y3
                for s, values in enumerate(evaluate(xs).tolist()):
                    if live[s].step(values, xs, y, s):
                        stopped.append(s)
        for s in stopped:
            yield live[s].index, live[s].trajectory(y[s])
        keep = [s for s in range(len(live)) if s not in stopped]
        live = [live[s] for s in keep]
        if live:
            y = y[keep]
            evaluate = stack_evaluator([c.base for c in live])


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
    point not of shape ``(spec.dim,)`` or whose canonical objective value is
    not in ``(0, inf)``, and once ``exp(log_sigma)`` overflows a float.  A
    candidate whose value overflows to inf (or nan) rejects, silently.
    This is the one-chain call of :func:`run_many`.
    """
    ((_, traj),) = run_many([(spec, params, init, budget, f_floor, seed)])
    return traj


def default_sigma0(spec: ObjectiveSpec, m0: np.ndarray) -> float:
    """Initial step size for a start point: gradient norm over curvature mass.

    Divides by the Hessian trace for diagonal quadratics and by ``dim * U``
    otherwise; composites have no gradient, so pass their canonical base
    (as :func:`init_default` does).  A gradient norm
    (:meth:`~esrate.objectives.ObjectiveSpec.gradient_norm`) or curvature
    mass beyond the float range raises ``ValueError``.
    """
    grad_norm = spec.gradient_norm(m0)
    with np.errstate(over="ignore"):
        mass = spec.trace_hessian if spec.is_quadratic else spec.dim * spec.smoothness
    sigma = grad_norm / mass
    if not 0 < sigma < math.inf:
        raise ValueError(f"no default step size: gradient norm {grad_norm:g} "
                         f"over curvature mass {mass:g} at the start point")
    return sigma


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
    return EsState(m=y0 + shift, log_sigma=math.log(default_sigma0(base, y0)))
