"""Pluggable campaign executors: serial in-process and process-pool.

An executor turns a resolved :class:`~repro.campaign.plan.Plan` into
events: it drives every plan group, checkpoints results into the
session's store, keeps the session's simulation/schedule-pass counters
truthful, and yields :class:`~repro.campaign.events.PointResult` /
:class:`~repro.campaign.events.Progress` as work lands.  Both built-in
executors consume the *same* plan objects from the planner — the pool
merely ships ``Plan.worker_batches`` (one task list per group) to
workers — and every group executes through ``Session.run_group``, so
serial and parallel campaigns are bit-identical by construction.  The
pool executor is the only process-pool executor: ``run``, ``predict``
and the campaign server (``serve --workers N``) all build it, and the
parent process is the store's only writer.

The pool executor is *resilient*: failures are handled per
:class:`~repro.campaign.resilience.RetryPolicy` — failed chunks retry
with deterministic backoff, a dead worker (``BrokenProcessPool``)
rebuilds the pool and resubmits in-flight chunks, a hung worker trips
the per-chunk watchdog instead of stalling ``Session.run`` forever,
and a chunk that drains its retry budget is bisected until the poison
task is isolated and quarantined while every healthy sibling lands in
the store.  Quarantined tasks optionally replay in-process to separate
worker-environment failures from deterministic simulation bugs.  The
:mod:`repro.testing.chaos` harness injects faults on the worker
dispatch path to prove all of this stays bit-identical to a clean
serial run.

Workers never receive traces or fault maps over the wire: both are
deterministic functions of ``RunnerSettings`` (seeded generators), so
each worker regenerates and memoises its own copies.  Dispatch payloads
are ``(benchmark, config, map_index)`` triples — tiny, order-independent,
and bit-identical to the single-process path.
"""

from __future__ import annotations

import abc
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.budget import cpu_budget, set_cpu_budget, worker_budget
from repro.cpu.pipeline import SimResult

from repro.campaign.events import (
    Event,
    PointResult,
    Progress,
    StoreRecovered,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
)
from repro.campaign.plan import Plan, Task
from repro.campaign.resilience import Quarantined, RetryPolicy
from repro.testing import chaos

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.session import Session


class Executor(abc.ABC):
    """Drives a plan's groups against a session, streaming events."""

    @abc.abstractmethod
    def run(self, session: "Session", plan: Plan) -> Iterator[Event]:
        """Execute every pending group of ``plan``, yielding a
        :class:`PointResult` per completed simulation and a
        :class:`Progress` checkpoint per executed group/chunk."""


class SerialExecutor(Executor):
    """In-process execution, one plan group at a time (the default)."""

    def run(self, session: "Session", plan: Plan) -> Iterator[Event]:
        done = 0
        total = plan.pending
        for group in plan.groups:
            for item, result in session.execute_group(group):
                done += 1
                yield PointResult(
                    item.benchmark, item.config, item.map_index, item.key, result
                )
            yield Progress(
                done, total, session.simulations_executed, session.schedule_passes
            )


# --------------------------------------------------------------------------
# Process pool
# --------------------------------------------------------------------------

# Per-worker memoised state (initialised lazily in each process).
_WORKER_SESSION: "Session | None" = None


#: Signals a campaign server handles on its event loop, which its pool
#: workers must neither relay nor ignore.
_WORKER_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _shed_parent_signal_plumbing() -> None:
    """Detach this (forked) worker from the parent's signal machinery.

    An asyncio parent (the campaign server) registers SIGINT/SIGTERM via
    ``loop.add_signal_handler``, whose C-level handler writes the signal
    number into a wakeup socketpair the loop reads.  A forked worker
    inherits both the handler and the *shared* socketpair — so a SIGTERM
    aimed at the worker (pool shutdown/terminate after a crash) would be
    relayed into the parent's loop and gracefully stop the server
    mid-campaign.  Workers restore default dispositions and drop the
    inherited wakeup fd before doing anything else, then unblock both
    signals: :meth:`PoolExecutor._submit` forks with them blocked, so
    one that arrived before this point stays pending until now and then
    takes its default action.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in _WORKER_SIGNALS:
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)


def _worker_init(
    settings,
    trace_cache: "str | None" = None,
    chaos_epoch: int = 0,
    cpus: "int | None" = None,
) -> None:
    global _WORKER_SESSION
    from repro.campaign.session import Session

    _shed_parent_signal_plumbing()
    # This worker's share of the parent's CPU budget, which its kernel
    # slices and fault-map threads spend (see repro.budget).
    set_cpu_budget(cpus)
    # Arm worker-only chaos injection with the pool generation: a task
    # retried after a crash/hang rebuild re-rolls its injected fate.
    chaos.enter_worker(chaos_epoch)
    _WORKER_SESSION = Session(settings, trace_cache=trace_cache)


def run_batch_locally(
    session: "Session", batch: list[Task]
) -> list[tuple[Task, SimResult]]:
    """Run one dispatch batch — one plan group (or a bisected part of
    one), so every task shares a benchmark — through
    :meth:`Session.run_group` in a session (worker or parent).

    This is the fault-injection seam: when ``REPRO_CHAOS`` is armed,
    every task consults the deterministic chaos schedule before the
    batch simulates (worker-only kinds stay disarmed in the parent, so
    in-process replays are clean)."""
    if chaos.config_from_env() is not None:
        for task in batch:
            chaos.maybe_inject(session.task_key(*task))
    items = [(config, map_index) for (_, config, map_index) in batch]
    results = session.run_group(batch[0][0], items)
    return list(zip(batch, results))


#: Cumulative per-worker counters: (traces generated, loaded, discarded,
#: schedule passes).
Counters = tuple[int, int, int, int]


def merge_counters(previous: "Counters | None", counters: Counters) -> Counters:
    """Pool-wide high-water merge of one worker's cumulative counters:
    per-field ``max``, so reordered chunk completions can never regress
    a field (the old lexicographic tuple compare could keep a stale
    ``loaded`` count behind a newer ``generated`` one)."""
    if previous is None:
        return counters
    return tuple(max(a, b) for a, b in zip(previous, counters))


def _worker_run_batches(
    batches: list[list[Task]],
) -> tuple[int, Counters, list[tuple[Task, SimResult]]]:
    """Run a group of dispatch batches; also report this worker's
    cumulative trace-provider and schedule-pass counters (pid-keyed so
    the parent can aggregate across the pool)."""
    assert _WORKER_SESSION is not None, "worker not initialised"
    results: list[tuple[Task, SimResult]] = []
    for batch in batches:
        results.extend(run_batch_locally(_WORKER_SESSION, batch))
    traces = _WORKER_SESSION.traces
    counters = (
        traces.generated,
        traces.loaded,
        traces.discarded,
        _WORKER_SESSION.schedule_passes,
    )
    return os.getpid(), counters, results


def adaptive_chunksize(n_tasks: int, workers: int) -> int:
    """Chunk size balancing IPC amortisation against checkpoint
    granularity: small campaigns get chunk 1 (every finished simulation is
    durable immediately and the pool stays busy); large ones amortise
    dispatch over up to 8 tasks while still checkpointing ~4 times per
    worker."""
    if n_tasks <= workers:
        return 1
    return max(1, min(8, n_tasks // (workers * 4)))


@dataclass
class _Chunk:
    """One resubmittable dispatch unit: a slice of worker batches plus
    its retry state.  ``ready_at`` is a monotonic not-before time
    (backoff without blocking the drain loop)."""

    batches: list[list[Task]]
    attempts: int = 0
    ready_at: float = 0.0

    @property
    def tasks(self) -> list[Task]:
        return [task for batch in self.batches for task in batch]

    def bisect(self, attempts: int) -> "list[_Chunk]":
        """Split this chunk in half *along batch boundaries* (each batch
        is one benchmark/group slice — mixing them would dispatch tasks
        under the wrong benchmark), falling back to splitting the single
        batch's task list.  Halves inherit ``attempts`` so each level of
        the bisection pays one failure before splitting again."""
        if len(self.batches) > 1:
            mid = (len(self.batches) + 1) // 2
            halves = [self.batches[:mid], self.batches[mid:]]
        else:
            batch = self.batches[0]
            mid = (len(batch) + 1) // 2
            halves = [[batch[:mid]], [batch[mid:]]]
        return [_Chunk(half, attempts=attempts) for half in halves]


#: Idle poll period of the drain loop when no deadline bounds the wait
#: (keeps KeyboardInterrupt responsive on Pythons where ``wait`` blocks).
_POLL_SECONDS = 5.0


class PoolExecutor(Executor):
    """Streaming, fault-tolerant process-pool execution for paper-scale
    campaigns.

    The plan's groups become worker dispatch units
    (:meth:`Plan.worker_batches`) fanned across a
    :class:`ProcessPoolExecutor`; results are checkpointed to the
    parent's store as each chunk completes — not after the pool drains —
    so a killed paper-scale run against a disk-backed store resumes from its
    last completed chunk.  Worker trace/schedule counters aggregate into
    the parent session when the pool drains (even on exception paths).

    Failure handling follows ``retry``
    (:class:`~repro.campaign.resilience.RetryPolicy`): worker exceptions
    and ``BrokenProcessPool`` retry the chunk (rebuilding the pool when
    it broke), a per-chunk watchdog abandons hung workers, and repeated
    failures bisect the chunk until the poison task is isolated,
    quarantined, and — optionally — replayed in-process.  The campaign
    always drains: healthy results land regardless of how many siblings
    misbehave, and ``Session.run`` raises
    :class:`~repro.campaign.resilience.CampaignError` only afterwards.
    """

    def __init__(
        self, workers: int | None = None, retry: RetryPolicy | None = None
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.retry = retry if retry is not None else RetryPolicy()

    # ----- pool lifecycle seams (overridden by fault-simulation tests) --------

    def _make_pool(self, session: "Session", workers: int, epoch: int):
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            # Workers share the persistent trace cache (atomic writes make
            # the directory safe for concurrent fills): once an entry
            # lands, no later worker or invocation regenerates it.
            # (Workers that miss simultaneously on a cold cache may each
            # generate once — the aggregated `traces generated=` summary
            # reports it truthfully.)
            initargs=(
                session.settings, session.traces.cache_dir, epoch,
                worker_budget(workers),
            ),
        )

    def _submit(self, pool, session: "Session", chunk: _Chunk) -> Future:
        # Under the fork start method the pool forks its workers inside
        # submit, and each inherits this thread's signal mask: with
        # SIGINT and SIGTERM blocked, one sent to a worker before its
        # initializer sheds the parent's handlers stays pending instead
        # of reaching them (see _shed_parent_signal_plumbing).
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            return pool.submit(_worker_run_batches, chunk.batches)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)

    def _shutdown(self, pool) -> None:
        pool.shutdown(wait=True, cancel_futures=True)

    def _abandon(self, pool) -> None:
        """Walk away from a pool with hung workers: cancel what can be
        cancelled, then terminate the worker processes so an injected or
        real hang cannot outlive the campaign."""
        processes = getattr(pool, "_processes", None) or {}
        pool.shutdown(wait=False, cancel_futures=True)
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # already dead / mid-teardown
                pass

    # ----- result landing ------------------------------------------------------

    def _store_with_retry(
        self, session: "Session", key: str, task: Task, result: SimResult
    ) -> "tuple[bool, int, str | None]":
        """Checkpoint one finished simulation, absorbing *transient*
        store-write failures (an :class:`OSError`: torn write, fsync
        error, disk-full) through the same deterministic backoff policy
        worker faults use — a flaky disk must not kill the drain loop
        while the result is already in hand.  Returns (stored,
        failed_attempts, last_error)."""
        benchmark, config, map_index = task
        policy = self.retry
        failed = 0
        last_error: "str | None" = None
        while True:
            try:
                session.store_result(benchmark, config, map_index, result)
                return True, failed, last_error
            except OSError as exc:
                failed += 1
                last_error = repr(exc)
                if failed >= policy.max_attempts:
                    return False, failed, last_error
                time.sleep(policy.backoff(failed, key))

    def _land_chunk(
        self,
        session: "Session",
        chunk_results: list,
        quarantine: "list[Quarantined]",
    ) -> "tuple[list[Event], int]":
        """Land one completed chunk's payload: checkpoint each
        ``(task, result)`` pair into the session store (retrying
        transient write failures; quarantining a task whose write budget
        drains), and return the events to stream plus how many points
        completed."""
        events: list[Event] = []
        landed = 0
        for task, result in chunk_results:
            benchmark, config, map_index = task
            key = session.task_key(benchmark, config, map_index)
            stored, failed, error = self._store_with_retry(
                session, key, task, result
            )
            if not stored:
                # The write budget drained: quarantine the task (replay
                # below re-simulates and re-puts) instead of losing the
                # point or the loop.
                quarantine.append(
                    Quarantined(task, key, failed, f"store write failed: {error}")
                )
                continue
            if failed:
                events.append(StoreRecovered(key, failed, error))
            session.simulations_executed += 1
            landed += 1
            events.append(PointResult(benchmark, config, map_index, key, result))
        return events, landed

    # ----- the drain loop -------------------------------------------------------

    def run(self, session: "Session", plan: Plan) -> Iterator[Event]:
        batches = plan.worker_batches()
        total = plan.pending
        if total == 0:
            return
        workers = self.workers if self.workers is not None else cpu_budget()
        workers = min(workers, len(batches))
        if workers <= 1:
            yield from SerialExecutor().run(session, plan)
            return
        policy = self.retry
        size = adaptive_chunksize(len(batches), workers)
        queue: deque[_Chunk] = deque(
            _Chunk(batches[i : i + size]) for i in range(0, len(batches), size)
        )
        quarantine: list[Quarantined] = []
        worker_counters: dict[tuple[int, int], Counters] = {}
        epoch = 0
        pool = self._make_pool(session, workers, epoch)
        in_flight: dict[Future, _Chunk] = {}
        deadlines: dict[Future, float] = {}
        done = 0
        aggregated = False

        def aggregate_counters() -> None:
            # Fold pool-wide worker counters into the parent exactly once
            # — called from the normal drain *and* the finally below, so a
            # crash or an abandoned iterator can no longer silently drop
            # every worker's trace/pass counts.
            nonlocal aggregated
            if aggregated:
                return
            aggregated = True
            traces = session.traces
            for generated, loaded, discarded, passes in worker_counters.values():
                traces.generated += generated
                traces.loaded += loaded
                traces.discarded += discarded
                session.schedule_passes += passes

        def rebuild(old_pool) -> None:
            nonlocal pool, epoch
            epoch += 1
            for future in in_flight:
                future.cancel()
            queue.extend(in_flight.values())
            in_flight.clear()
            deadlines.clear()
            self._abandon(old_pool)
            pool = self._make_pool(session, workers, epoch)

        def fail_chunk(chunk: _Chunk, error: str) -> Iterator[Event]:
            # One failed attempt for this chunk: retry with deterministic
            # backoff while the budget lasts, then bisect toward the
            # poison task; an exhausted singleton is quarantined.
            chunk.attempts += 1
            tasks = chunk.tasks
            if chunk.attempts < policy.max_attempts:
                delay = policy.backoff(chunk.attempts, session.task_key(*tasks[0]))
                chunk.ready_at = time.monotonic() + delay
                queue.append(chunk)
                yield TaskRetried(tuple(tasks), chunk.attempts, delay, error)
            elif len(tasks) > 1:
                queue.extend(chunk.bisect(attempts=policy.max_attempts - 1))
                yield TaskRetried(
                    tuple(tasks), chunk.attempts, 0.0, f"bisecting after: {error}"
                )
            else:
                task = tasks[0]
                quarantine.append(
                    Quarantined(
                        task, session.task_key(*task), chunk.attempts, error
                    )
                )

        try:
            while queue or in_flight:
                now = time.monotonic()
                # Submit every ready chunk up to a 2x-workers window.
                while queue and len(in_flight) < 2 * workers:
                    if queue[0].ready_at > now:
                        # Rotate backoff waiters behind ready chunks.
                        if all(c.ready_at > now for c in queue):
                            break
                        queue.rotate(-1)
                        continue
                    chunk = queue.popleft()
                    try:
                        future = self._submit(pool, session, chunk)
                    except BrokenProcessPool as exc:
                        queue.appendleft(chunk)
                        yield WorkerCrashed(repr(exc), len(in_flight) + len(queue))
                        rebuild(pool)
                        continue
                    in_flight[future] = chunk
                    if policy.chunk_timeout is not None:
                        deadlines[future] = now + policy.chunk_timeout
                if not in_flight:
                    # Everything is backing off; sleep until the earliest
                    # chunk is ready again.
                    time.sleep(
                        max(0.0, min(c.ready_at for c in queue) - time.monotonic())
                    )
                    continue
                # Wake for whichever comes first: a watchdog deadline, a
                # backoff waiter becoming ready, or the idle poll tick.
                wake_at = [time.monotonic() + _POLL_SECONDS]
                wake_at.extend(deadlines.values())
                wake_at.extend(c.ready_at for c in queue if c.ready_at)
                timeout = max(0.0, min(wake_at) - time.monotonic())
                finished, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                crashed: str | None = None
                for future in finished:
                    chunk = in_flight.pop(future)
                    deadlines.pop(future, None)
                    try:
                        pid, counters, chunk_results = future.result()
                    except BrokenProcessPool as exc:
                        # Worker death fails every in-flight future; only
                        # this chunk (potentially the culprit's) pays an
                        # attempt — the rest resubmit for free below.
                        crashed = repr(exc)
                        yield from fail_chunk(chunk, crashed)
                    except Exception as exc:
                        yield from fail_chunk(chunk, repr(exc))
                    else:
                        key = (epoch, pid)
                        worker_counters[key] = merge_counters(
                            worker_counters.get(key), counters
                        )
                        events, landed = self._land_chunk(
                            session, chunk_results, quarantine
                        )
                        done += landed
                        yield from events
                        # Chunk-checkpoint boundary: the default durability
                        # contract.  Individual puts flush to the OS cache;
                        # the fsync lands here once per chunk (per-put
                        # fsync is the opt-in --store-fsync knob).
                        try:
                            session.flush()
                        except OSError:
                            pass  # next boundary (or close) retries
                        yield Progress(
                            done,
                            total,
                            session.simulations_executed,
                            session.schedule_passes,
                        )
                if crashed is not None:
                    yield WorkerCrashed(crashed, len(in_flight))
                    rebuild(pool)
                    continue
                # Watchdog: chunks past their deadline mean a hung worker
                # — ProcessPoolExecutor cannot cancel a running call, so
                # abandon the whole pool and resubmit (the expired chunk
                # pays an attempt, innocents in flight do not).
                if deadlines:
                    now = time.monotonic()
                    expired = [f for f, d in deadlines.items() if d <= now]
                    if expired:
                        for future in expired:
                            chunk = in_flight.pop(future)
                            deadlines.pop(future, None)
                            yield from fail_chunk(
                                chunk,
                                f"chunk timed out after {policy.chunk_timeout}s "
                                "(hung worker)",
                            )
                        rebuild(pool)
        finally:
            aggregate_counters()
            self._shutdown(pool)

        # In-process replay of the quarantine ledger: worker-environment
        # failures (chaos injection, broken toolchains) recover here and
        # land normally; deterministic bugs fail again and stay
        # quarantined with both errors on record.
        for entry in quarantine:
            replay_error: str | None = None
            if policy.replay_quarantined:
                try:
                    pairs = run_batch_locally(session, [entry.task])
                except Exception as exc:
                    replay_error = repr(exc)
                else:
                    for task, result in pairs:
                        benchmark, config, map_index = task
                        done += 1
                        yield PointResult(
                            benchmark,
                            config,
                            map_index,
                            session.task_key(benchmark, config, map_index),
                            result,
                        )
                    continue
            yield TaskFailed(
                Quarantined(
                    entry.task,
                    entry.key,
                    entry.attempts,
                    entry.error,
                    replay_error=replay_error,
                )
            )
        # Final checkpoint with the aggregated pool-wide counters (the
        # per-chunk Progress events above only see the parent's own).
        yield Progress(
            done, total, session.simulations_executed, session.schedule_passes
        )
