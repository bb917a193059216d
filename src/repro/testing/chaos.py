"""Deterministic, env-gated fault injection for resilience testing.

The resilience layer (:mod:`repro.campaign.resilience`,
``PoolExecutor``) claims a chaos-ridden pool campaign completes
bit-identical to a clean serial run.  This module is the proof
mechanism: set ``REPRO_CHAOS`` and the worker dispatch path
(:func:`repro.campaign.executors.run_batch_locally`) injects faults
*deterministically per task key* before simulating anything::

    REPRO_CHAOS=crash:0.1,hang:0.05,corrupt:0.02
    REPRO_CHAOS=crash:0.3,seed:7,hang-seconds:30
    REPRO_CHAOS=poison:0.2

Kinds
-----
``crash``
    the worker process exits immediately (``os._exit``), breaking the
    pool — exercises ``BrokenProcessPool`` rebuild + chunk resubmit.
``hang``
    the worker sleeps ``hang-seconds`` before continuing — exercises
    the per-chunk watchdog (abandon + resubmit).
``corrupt``
    the worker raises :class:`ChaosError` instead of simulating —
    exercises retry, bisection, and in-process replay (the parent is
    not a worker, so replay recovers the task).
``poison``
    raises :class:`ChaosError` in *any* process, parent replay
    included — models a deterministic simulation bug that must end up
    quarantined.

I/O kinds (storage faults)
--------------------------
Four further kinds target the *store* rather than the worker.  They
fire inside :class:`ChaosStore` — the fault-injecting wrapper
``Session`` slips around its result store when any I/O rate is armed —
on the parent's checkpoint path::

    REPRO_CHAOS=torn-write:0.1,fsync-fail:0.05,disk-full:0.02

``torn-write``
    the backend persists a *half-written record* (no newline) and the
    put raises — what a crash mid-``write(2)`` leaves behind.  The
    executor retries the put; the torn bytes must be detected and
    skipped on every later load.
``partial-append``
    the backend persists the record *without its terminator* and the
    put silently "succeeds" — a buffered write split by a crash the
    writer never saw.  On reload the fused line is detected, counted,
    and the lost point re-simulated.
``fsync-fail``
    the put raises :class:`OSError` (``EIO``) before touching the
    backend — a transient device error the retry path must absorb.
``disk-full``
    the put raises :class:`OSError` (``ENOSPC``) before touching the
    backend — exercises the same retry path with the other classic
    transient.

Unlike worker kinds, I/O rolls mix in a per-key *attempt counter*
instead of the pool epoch: each retried put re-rolls its fate, so a
retried campaign terminates almost surely while staying deterministic
for a given seed.

Determinism
-----------
Every decision is a pure function of ``(seed, kind, task key, epoch)``
via :func:`repro.campaign.resilience.stable_unit` — no ``random``
module, no wall clock.  The *epoch* is the pool generation: the parent
increments it on every pool rebuild, so a crash-injected task re-rolls
its fate on retry and the campaign terminates almost surely (a given
seed makes the whole schedule reproducible).  ``poison`` deliberately
ignores the epoch — it must fail identically on every attempt in every
process.  Worker-only kinds (``crash``/``hang``/``corrupt``) fire only
in processes that entered worker context via :func:`enter_worker`; the
parent and its in-process replays are never injected.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, fields
from typing import Iterator

from repro.campaign.resilience import stable_unit
from repro.cpu.pipeline import SimResult
from repro.store.base import ResultStore, StoreHealth

#: Environment variable arming the harness, e.g. ``crash:0.1,hang:0.05``.
CHAOS_ENV = "REPRO_CHAOS"

#: Exit status of a chaos-crashed worker (distinct from real faults).
CRASH_EXIT_STATUS = 70


class ChaosError(RuntimeError):
    """An injected failure (the ``corrupt`` and ``poison`` kinds)."""


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed ``REPRO_CHAOS`` value: per-kind rates plus the schedule
    seed and the ``hang`` sleep duration."""

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    poison: float = 0.0
    torn_write: float = 0.0
    partial_append: float = 0.0
    fsync_fail: float = 0.0
    disk_full: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0

    #: Kinds injected on the worker dispatch path.
    WORKER_KINDS = ("crash", "hang", "corrupt", "poison")
    #: Kinds injected on the store checkpoint path (:class:`ChaosStore`).
    IO_KINDS = ("torn_write", "partial_append", "fsync_fail", "disk_full")

    def __post_init__(self) -> None:
        for kind in self.WORKER_KINDS + self.IO_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"chaos rate {kind} must be in [0, 1], got {rate}")
        if self.hang_seconds <= 0:
            raise ValueError("hang-seconds must be positive")

    @classmethod
    def parse(cls, text: str) -> "ChaosConfig":
        """Parse the ``kind:value,kind:value`` environment format."""
        values: dict = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, _, raw = part.partition(":")
            kind = kind.strip().replace("-", "_")
            known = {f.name for f in fields(cls)}
            if kind not in known or not raw:
                raise ValueError(
                    f"bad {CHAOS_ENV} entry {part!r} "
                    f"(expected kind:value with kind in {sorted(known)})"
                )
            values[kind] = int(raw) if kind == "seed" else float(raw)
        return cls(**values)

    @property
    def active(self) -> bool:
        return any(
            getattr(self, kind) for kind in self.WORKER_KINDS + self.IO_KINDS
        )

    @property
    def io_active(self) -> bool:
        """Whether any store-fault rate is armed (gates the
        :class:`ChaosStore` wrap in ``Session``)."""
        return any(getattr(self, kind) for kind in self.IO_KINDS)


# Parse-once cache keyed on the raw environment string, so the per-task
# injection check costs one os.environ read on the hot path.
_parsed: "tuple[str | None, ChaosConfig | None]" = (None, None)

#: Pool-generation number when this process is a pool worker; ``None``
#: in the parent (worker-only kinds stay disarmed there).
_worker_epoch: "int | None" = None


def enter_worker(epoch: int) -> None:
    """Arm worker-only injection in this process (called by the pool
    worker initializer with the current pool generation)."""
    global _worker_epoch
    _worker_epoch = epoch


def in_worker() -> bool:
    """Whether this process entered pool-worker context.  I/O kinds stay
    disarmed in workers: a worker never writes its store (the parent
    lands every result), so injecting there would model nothing."""
    return _worker_epoch is not None


def config_from_env() -> "ChaosConfig | None":
    """The active :class:`ChaosConfig`, or ``None`` when ``REPRO_CHAOS``
    is unset/empty or names no positive rate."""
    global _parsed
    raw = os.environ.get(CHAOS_ENV) or None
    if raw != _parsed[0]:
        config = ChaosConfig.parse(raw) if raw else None
        if config is not None and not config.active:
            config = None
        _parsed = (raw, config)
    return _parsed[1]


def _rolls(config: ChaosConfig, kind: str, key: str, epoch: "int | None") -> bool:
    rate = getattr(config, kind)
    return rate > 0 and stable_unit(config.seed, kind, key, epoch) < rate


def maybe_inject(key: str) -> None:
    """Fault-injection gate for one task, called on the dispatch path
    before the task simulates.  No-op unless ``REPRO_CHAOS`` is armed.
    At most one kind fires per (task, epoch), in crash > hang > corrupt
    > poison priority."""
    config = config_from_env()
    if config is None:
        return
    if _worker_epoch is not None:
        if _rolls(config, "crash", key, _worker_epoch):
            os._exit(CRASH_EXIT_STATUS)
        if _rolls(config, "hang", key, _worker_epoch):
            time.sleep(config.hang_seconds)
            return  # a recovered hang continues normally (parent decides)
        if _rolls(config, "corrupt", key, _worker_epoch):
            raise ChaosError(f"chaos corrupt injected for task {key[:12]}")
    # Poison ignores the epoch and the process role: a deterministic
    # "simulation bug" that fails identically everywhere, replay included.
    if _rolls(config, "poison", key, None):
        raise ChaosError(f"chaos poison injected for task {key[:12]}")


# --------------------------------------------------------------------------
# Store fault injection
# --------------------------------------------------------------------------

class ChaosStore(ResultStore):
    """Fault-injecting wrapper around a real result store.

    Reads delegate untouched; each :meth:`put` rolls the armed I/O fault
    kinds deterministically from ``(seed, kind, key, attempt)``.  The
    per-key attempt counter makes retries re-roll their fate — a put
    that tears on attempt 0 usually lands on attempt 1 — so a campaign
    under I/O chaos terminates almost surely, on a schedule that is
    pure function of the seed.

    At most one kind fires per attempt, in ``disk-full`` >
    ``fsync-fail`` > ``torn-write`` > ``partial-append`` priority.  The
    first three raise :class:`OSError` (the executor's transient-write
    retry path must absorb them); ``torn-write`` additionally persists
    half a record first, and ``partial-append`` persists an
    unterminated record and returns *successfully* — silent damage only
    a later load can detect.
    """

    def __init__(self, inner: ResultStore, config: ChaosConfig) -> None:
        self._inner = inner
        self._config = config
        self._attempts: dict = {}
        self.description = inner.description

    # ----- delegated reads ------------------------------------------------------

    def get(self, key: str) -> "SimResult | None":
        return self._inner.get(key)

    def keys(self) -> Iterator[str]:
        return self._inner.keys()

    def __contains__(self, key: str) -> bool:
        return key in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def health(self) -> StoreHealth:
        return self._inner.health()

    def flush(self) -> None:
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()

    def compact(self) -> int:
        return self._inner.compact()  # type: ignore[attr-defined]

    # ----- fault-injected writes ------------------------------------------------

    def _rolls_io(self, kind: str, key: str, attempt: int) -> bool:
        rate = getattr(self._config, kind)
        return rate > 0 and stable_unit(
            self._config.seed, kind, key, attempt
        ) < rate

    def put(self, key: str, result: SimResult) -> None:
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if self._rolls_io("disk_full", key, attempt):
            raise OSError(
                errno.ENOSPC, f"chaos disk-full injected for task {key[:12]}"
            )
        if self._rolls_io("fsync_fail", key, attempt):
            raise OSError(
                errno.EIO, f"chaos fsync-fail injected for task {key[:12]}"
            )
        if self._rolls_io("torn_write", key, attempt):
            torn = getattr(self._inner, "torn_put", None)
            if torn is not None:
                torn(key, result)
            raise OSError(
                errno.EIO, f"chaos torn-write injected for task {key[:12]}"
            )
        if self._rolls_io("partial_append", key, attempt):
            partial = getattr(self._inner, "partial_put", None)
            if partial is not None:
                partial(key, result)
                return  # silent: the writer believes the put succeeded
        self._inner.put(key, result)
