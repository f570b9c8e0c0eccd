"""One process pool for every loop over independent RNG streams.

Its one caller is :func:`esrate.engine.run_all`, whose tasks are lockstep
groups of simulated chains (:func:`esrate.engine.lockstep_plan`).  Each
chain owns its RNG stream, so a group can run in any process and in any
order.  :func:`fan_out` maps a function over such tasks and returns the
results in task order, so results never depend on the worker count.
``ES_RATE_THREADS`` sets that count (default: the usable CPUs, at most 8);
1 runs everything in the calling process.  Monte Carlo calls draw one
stream in the calling process and start no pool.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

__all__ = ["worker_count", "processes", "fan_out"]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_count() -> int:
    """Pool size from ``ES_RATE_THREADS``, capped at the usable CPUs.

    Unset or empty means ``min(usable CPUs, 8)``.  Anything but a positive
    integer raises ``ValueError``.
    """
    cpus = _usable_cpus()
    env = os.environ.get("ES_RATE_THREADS", "").strip()
    if not env:
        return min(cpus, 8)
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"ES_RATE_THREADS must be a positive integer, got {env!r}")
    return min(count, cpus)


def processes(tasks: int) -> int:
    """How many processes :func:`fan_out` runs ``tasks`` tasks in.

    ``min(worker_count(), tasks)``, or 1 when the tasks run inline: one
    task, one worker, or a call from inside a pool worker.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(worker_count(), tasks))


def fan_out(fn, tasks) -> list:
    """``[fn(*task) for task in tasks]``, spread over up to :func:`worker_count` processes.

    Results come back in task order.  ``fn`` and every task must pickle, so
    ``fn`` is a module-level function.  One task, one worker, or a call from
    inside a pool worker runs inline, so pools never nest.  Each call starts
    and stops its own pool.  Workers fork where the platform can, so they
    inherit the loaded modules instead of importing numpy again.
    """
    tasks = list(tasks)
    workers = processes(len(tasks))
    if workers == 1:
        return [fn(*task) for task in tasks]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context(method)) as pool:
        return list(pool.map(fn, *zip(*tasks), chunksize=1))
