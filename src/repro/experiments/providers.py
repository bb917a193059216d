"""Deterministic input providers: traces and fault maps from settings.

Both inputs to a simulation are pure functions of
:class:`~repro.campaign.spec.RunnerSettings` (seeded generators), so
they are *regenerated*, never shipped between processes or persisted
alongside results.  A campaign :class:`~repro.campaign.session.Session`
owns one :class:`TraceProvider`, one :class:`FaultMapProvider` and a
:class:`~repro.store.ResultStore`, opened once per session, and every
pool worker's private session owns its own pair.

Persistent trace cache
----------------------
Generating a multi-million-instruction trace costs more than simulating
it once, and every parallel worker regenerates every benchmark trace in
its own process.  Point ``REPRO_TRACE_CACHE`` (or ``--trace-cache DIR``)
at a directory and :class:`TraceProvider` persists each generated trace
as a compressed ``.npz`` (the existing :meth:`~repro.cpu.trace.Trace.save`
round-trip), keyed by a content hash of everything that determines the
trace: generator schema version, profile name, master seed, instruction
count, and the generator geometry.  Workers and repeated sessions then
load instead of regenerate.  Entries are written atomically (temp file +
``os.replace``) so concurrent workers can share a cache directory, and a
corrupt or truncated entry is discarded and regenerated, mirroring the
result store's torn-tail tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zipfile

from repro.cpu.config import L1_GEOMETRY
from repro.cpu.trace import Trace
from repro.faults.fault_map import FaultMapPair, fault_map_pair
from repro.faults.geometry import CacheGeometry
from repro.workloads.generator import TraceGenerator

#: Environment variable naming the persistent trace-cache directory.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Bump when TraceGenerator's output changes incompatibly (invalidates
#: cached traces without invalidating result stores).
TRACE_SCHEMA_VERSION = 1

#: In-flight cache writes beside the entries: ``.trace-XXXX.npz.tmp``
#: (trace entries) and ``.sched-XXXX.npz.tmp`` (persisted front-end
#: schedules, written by :mod:`repro.cpu.frontend` into the same
#: directory) — the stale-tmp sweep covers both.
_TMP_PREFIXES = (".trace-", ".sched-")
_TMP_PREFIX = ".trace-"
_TMP_SUFFIX = ".npz.tmp"


def trace_key(
    benchmark: str, seed: int, n_instructions: int, geometry: CacheGeometry
) -> str:
    """Stable content hash of one generated trace."""
    payload = {
        "schema": TRACE_SCHEMA_VERSION,
        "benchmark": benchmark,
        "seed": seed,
        "n_instructions": n_instructions,
        "geometry": {
            "num_sets": geometry.num_sets,
            "ways": geometry.ways,
            "block_bytes": geometry.block_bytes,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceProvider:
    """Memoised per-benchmark traces (warmup prefix + measured region),
    optionally backed by a persistent on-disk cache."""

    def __init__(self, settings, cache_dir: str | os.PathLike | None = None) -> None:
        self.settings = settings
        if cache_dir is None:
            cache_dir = os.environ.get(TRACE_CACHE_ENV) or None
        self.cache_dir = os.fspath(cache_dir) if cache_dir else None
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)
            self._sweep_stale_tmp_files()
        self._traces: dict[str, Trace] = {}
        #: Traces produced by running the generator (cache misses included).
        self.generated = 0
        #: Traces served from the persistent cache.
        self.loaded = 0
        #: Corrupt cache entries discarded and regenerated.
        self.discarded = 0

    def _length(self) -> int:
        return self.settings.n_instructions + self.settings.warmup_instructions

    def _cache_path(self, benchmark: str) -> str:
        key = trace_key(benchmark, self.settings.seed, self._length(), L1_GEOMETRY)
        return os.path.join(self.cache_dir, f"{key}.npz")

    def get(self, benchmark: str) -> Trace:
        trace = self._traces.get(benchmark)
        if trace is None:
            trace = self._acquire(benchmark)
            if self.cache_dir:
                # Compiled front-end schedules persist next to the cached
                # traces (sched-<key>.npz), so parallel workers load the
                # replay instead of recomputing it per process — even when
                # only --trace-cache (not the environment) named the
                # directory.  See repro.cpu.frontend.
                trace._schedule_cache_dir = self.cache_dir
            self._traces[benchmark] = trace
        return trace

    def _acquire(self, benchmark: str) -> Trace:
        path = self._cache_path(benchmark) if self.cache_dir else None
        if path is not None and os.path.exists(path):
            try:
                trace = Trace.load(path)
                if len(trace) != self._length():
                    raise ValueError("cached trace has the wrong length")
            except (
                OSError,
                ValueError,
                KeyError,
                EOFError,
                zipfile.BadZipFile,
            ):
                # Torn/corrupt entry (killed writer, disk trouble): discard
                # and regenerate — never fatal, mirroring DiskStore.
                self.discarded += 1
                try:
                    os.remove(path)
                except OSError:
                    pass
            else:
                self.loaded += 1
                return trace
        generator = TraceGenerator(
            benchmark, seed=self.settings.seed, geometry=L1_GEOMETRY
        )
        trace = generator.generate(self._length())
        self.generated += 1
        if path is not None:
            self._persist(trace, path)
        return trace

    def _persist(self, trace: Trace, path: str) -> None:
        """Atomic write (temp + rename) so concurrent workers sharing the
        cache directory never observe a half-written entry."""
        fd, tmp_path = tempfile.mkstemp(
            dir=self.cache_dir, prefix=_TMP_PREFIX, suffix=_TMP_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                trace.save(fh)
            os.replace(tmp_path, path)
        except Exception:
            # Caching is best-effort; the in-memory trace is already
            # usable, so swallow any write/compress failure.
            try:
                os.remove(tmp_path)
            except OSError:
                pass

    def _sweep_stale_tmp_files(self) -> None:
        """Remove temp files orphaned by killed writers.  Only entries
        older than an hour go — a fresh tmp may belong to a live worker
        mid-write in a shared cache directory."""
        cutoff = time.time() - 3600
        try:
            entries = list(os.scandir(self.cache_dir))
        except OSError:
            return
        for entry in entries:
            name = entry.name
            if not (
                name.startswith(_TMP_PREFIXES) and name.endswith(_TMP_SUFFIX)
            ):
                continue
            try:
                if entry.stat().st_mtime < cutoff:
                    os.remove(entry.path)
            except OSError:
                continue

    def __len__(self) -> int:
        return len(self._traces)


class FaultMapProvider:
    """Memoised fault-map pairs for the campaign's (pfail, seed).

    Pair *i* is drawn from its own seed stream
    (:func:`~repro.faults.fault_map.fault_map_pair`), so it is identical
    in every process and for every map count — the property the store
    keys rely on.  That is also why the provider draws past
    ``n_fault_maps`` on demand: a session serves specs of any map count
    at its fidelity.
    """

    def __init__(self, settings) -> None:
        self.settings = settings
        self._pairs: list[FaultMapPair] = []

    def pairs(self, count: int | None = None) -> list[FaultMapPair]:
        """The first ``count`` pairs (default ``n_fault_maps``).  The first
        draw takes all ``n_fault_maps`` pairs; a larger ``count`` draws
        only the missing ones."""
        settings = self.settings
        count = settings.n_fault_maps if count is None else count
        drawn = self._pairs
        if count > len(drawn):
            # Rebind, never extend in place: the campaign server plans on
            # one thread while another simulates on the same session, and
            # two threads extending one list would both append the same
            # pairs, shifting every later index.
            drawn = self._pairs = drawn + [
                fault_map_pair(L1_GEOMETRY, settings.pfail, i, settings.seed)
                for i in range(len(drawn), max(count, settings.n_fault_maps))
            ]
        return drawn[:count]

    def pair(self, index: int) -> FaultMapPair:
        return self.pairs(index + 1)[index]
