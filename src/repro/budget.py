"""One CPU budget per process: how many threads its parallel layers use.

Two layers of a campaign spend it, each bit-identical at any thread
count: a wide lane pass runs as threaded kernel slices in one call
(:func:`repro.cpu.pipeline.kernel_slices`), and a fault-map provider
draws its missing pairs on threads
(:meth:`repro.experiments.providers.FaultMapProvider.pairs`).

The budget is the number of CPUs this process may run on (its affinity
mask, so ``taskset`` and cpusets count), else the CPU count.  A process
pool divides it: :class:`~repro.campaign.executors.PoolExecutor` gives
each worker :func:`worker_budget` of the workers it started, so a pool's
threads never oversubscribe the CPUs its processes already use.  No
environment variable, flag or setting changes it.
"""

from __future__ import annotations

import os

__all__ = ["cpu_budget", "set_cpu_budget", "worker_budget"]

#: The budget a pool worker was given, or ``None``: the host's CPUs.
_assigned: "int | None" = None


def cpu_budget() -> int:
    """This process's CPU budget: what its pool gave it, else the CPUs
    it may run on."""
    if _assigned is not None:
        return _assigned
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


def set_cpu_budget(cpus: "int | None") -> None:
    """Give this process ``cpus`` CPUs (a pool worker's share), or
    ``None`` to fall back to the CPUs it may run on."""
    global _assigned
    if cpus is not None and cpus < 1:
        raise ValueError(f"a CPU budget must be >= 1, got {cpus}")
    _assigned = cpus


def worker_budget(workers: int) -> int:
    """Each worker's share of this process's budget when a pool runs
    ``workers`` of them: at least one CPU."""
    return max(1, cpu_budget() // workers)
