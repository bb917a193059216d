"""Resilience policy for campaign execution: retries, timeouts, quarantine.

The paper's premise is graceful degradation — keep the machine useful
when parts of it fail — and the campaign runner holds itself to the same
standard.  This module is the *policy* half of that story (the
mechanism lives in :class:`~repro.campaign.executors.PoolExecutor`):

* :class:`RetryPolicy` — a frozen value describing how execution
  failures are handled: per-chunk retry budget, exponential backoff with
  a cap and *deterministic* jitter (derived from the task key, never
  from ``random`` or wall-clock state, so two runs of the same campaign
  make identical retry decisions), an optional per-chunk watchdog
  timeout, and whether quarantined tasks are replayed in-process.
* :class:`Quarantined` — one poison task the executor gave up on after
  retries and bisection, with the last error it produced.
* :class:`CampaignError` — raised by ``Session.run`` only *after* the
  plan drains: every healthy task's result is already durable in the
  store (the campaign resumes exactly as a killed one does), and the
  exception carries the quarantine ledger for reporting.

Failure handling never changes simulated bits: a retried or bisected
chunk re-executes the same deterministic simulations, so a campaign
that survives worker crashes stays bit-identical to a clean serial run
(``benchmarks/ci_smokes.py chaos`` pins this).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.campaign.plan import Task


def stable_unit(*parts) -> float:
    """A deterministic uniform draw in ``[0, 1)`` derived from ``parts``.

    Pure function of its arguments (sha256 over their ``str`` forms) —
    the jitter/injection primitive that keeps retry decisions and chaos
    schedules reproducible across processes and interpreter restarts.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats failing store writes and failing, hanging,
    or poison chunks.

    ``max_attempts`` is the budget of each store write, at any worker
    count, and of each pool chunk: a chunk that fails (worker
    exception, worker death, watchdog timeout) is resubmitted until the
    budget drains, then *bisected* — each half inherits one remaining
    attempt, so a poison task is isolated in ``O(log n)`` extra
    failures while every healthy sibling still lands in the store.  A
    single-task chunk that drains its budget is quarantined.

    ``chunk_timeout`` (seconds) arms a watchdog per in-flight pool
    chunk: a hung worker triggers abandon + resubmit instead of stalling
    the campaign forever.  ``None`` (the default) keeps the legacy
    blocking behaviour; in-process there is no worker to abandon.

    ``replay_quarantined`` replays each quarantined task in-process
    after the pool drains, distinguishing worker-environment failures
    (chaos injection, a broken toolchain in one worker) — which recover
    and land normally — from deterministic simulation bugs, which fail
    again and stay quarantined with both errors recorded.  Note a task
    that *segfaults* deterministically would take the parent down too;
    disable replay to keep quarantine purely observational.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    chunk_timeout: "float | None" = None
    replay_quarantined: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive when set")

    def backoff(self, attempt: int, key: str) -> float:
        """Seconds to wait before resubmitting a chunk that has failed
        ``attempt`` times: exponential in the attempt, capped, jittered
        deterministically from the chunk's first task key (same key and
        attempt -> same delay, always)."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * (stable_unit("backoff", key, attempt) - 0.5)
        return delay


@dataclass(frozen=True)
class Quarantined:
    """One task the executor gave up on: its dispatch triple, store key,
    how many attempts it consumed, and the last error observed.
    ``replay_error`` is set when an in-process replay *also* failed —
    the failure is a deterministic simulation bug, not a worker issue."""

    task: Task
    key: str
    attempts: int
    error: str
    replay_error: "str | None" = None

    def describe(self) -> str:
        """One-line rendering for CLI summaries and logs."""
        benchmark, config, map_index = self.task
        point = f"{benchmark}/{config.label}"
        if map_index is not None:
            point += f"/map{map_index}"
        line = (
            f"{self.key[:12]} {point}: {self.error} "
            f"(after {self.attempts} attempt(s))"
        )
        if self.replay_error is not None:
            line += f"; in-process replay failed too: {self.replay_error}"
        return line


class CampaignError(RuntimeError):
    """A campaign finished with quarantined tasks.

    Raised by ``Session.run`` only after the plan drains: every healthy
    task's result is durable in the store, so catching this and
    re-running the same campaign retries exactly the quarantined points.
    ``failures`` carries the quarantine ledger.
    """

    def __init__(self, failures) -> None:
        self.failures = tuple(failures)
        super().__init__(
            f"{len(self.failures)} task(s) quarantined after retries; "
            "all other results are durable in the store"
        )

    def summary_lines(self) -> "list[str]":
        """One line per quarantined task (key, point, last exception)."""
        return [failure.describe() for failure in self.failures]
