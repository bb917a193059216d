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
Every parallel worker needs every benchmark trace its groups simulate,
and each one's front-end schedule.  Point ``REPRO_TRACE_CACHE`` (or
``--trace-cache DIR``) at a directory and :class:`TraceProvider`
persists each generated trace as a raw (uncompressed) ``.npz``, the
:meth:`~repro.cpu.trace.Trace.save` round trip, keyed by a content hash
of everything that determines the trace: generator schema version,
profile name, master seed, instruction count, and the generator
geometry; compiled schedules persist beside it
(:mod:`repro.cpu.frontend`).  Workers and repeated sessions then load
instead of regenerate.  With the compiled trace kernel, a short trace
costs about as much to generate as to load and a 1.2M-instruction one
about four times more; the schedule is the larger saving.  An entry
takes 21 bytes per instruction on disk, 5-6 times a compressed one, and
is written and read about as fast as its bytes copy (README.md has the
measurements).  Entries are written atomically (temp file +
``os.replace``) so concurrent workers can share a cache directory, and
a torn entry, or one whose columns :class:`~repro.cpu.trace.Trace`
refuses (see :mod:`repro.cpu.diskcache`), is discarded and regenerated,
mirroring the result store's torn-tail tolerance.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from repro.budget import cpu_budget
from repro.cpu.config import L1_GEOMETRY
from repro.cpu.diskcache import TRACE_TMP_PREFIX, read_entry, sweep_stale_tmp, write_entry
from repro.cpu.trace import Trace
from repro.faults.fault_map import FaultMapPair, fault_map_pair
from repro.faults.geometry import CacheGeometry
from repro.workloads.generator import TraceGenerator

#: Environment variable naming the persistent trace-cache directory.
TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"

#: Bump when TraceGenerator's output changes incompatibly (invalidates
#: cached traces without invalidating result stores).
TRACE_SCHEMA_VERSION = 1


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
            sweep_stale_tmp(self.cache_dir)
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
        if path is not None:
            trace, discarded = read_entry(path, self._load)
            self.discarded += discarded
            if trace is not None:
                self.loaded += 1
                return trace
        generator = TraceGenerator(
            benchmark, seed=self.settings.seed, geometry=L1_GEOMETRY
        )
        trace = generator.generate(self._length())
        self.generated += 1
        if path is not None:
            write_entry(path, trace.save, TRACE_TMP_PREFIX)
        return trace

    def _load(self, path: str) -> Trace:
        trace = Trace.load(path)
        if len(trace) != self._length():
            raise ValueError("cached trace has the wrong length")
        return trace

    def __len__(self) -> int:
        return len(self._traces)


def require_int(value, what: str) -> None:
    """Refuse a ``value`` that is not an ``int``, ``True`` and ``1.0``
    included, with a ``TypeError`` naming it as ``what``.  Coercing one
    would run, and key, another point under its name: ``True`` draws map
    1, and a ``2.9`` map count runs 2 maps."""
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{what} is an int, got {type(value).__name__} {value!r}")


class FaultMapProvider:
    """Memoised fault-map pairs for the campaign's (pfail, seed).

    Pair *i* is drawn from its own seed stream
    (:func:`~repro.faults.fault_map.fault_map_pair`), so it is identical
    in every process and for every map count — the property the store
    keys rely on.  That is also why the provider draws past
    ``n_fault_maps`` on demand: a session serves specs of any map count
    at its fidelity.  It is also why the missing pairs may be drawn on
    threads, up to the process's CPU budget
    (:func:`repro.budget.cpu_budget`) and at least two pairs per thread:
    NumPy releases the GIL while a pair's generator fills its cells, and
    the list comes out the same, pair for pair, on any thread count.
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
        require_int(count, "a fault-map count")
        if count < 0:
            raise ValueError(f"fault-map count must be >= 0, got {count}")
        drawn = self._pairs
        if count > len(drawn):
            # Rebind, never extend in place: the campaign server plans on
            # one thread while another simulates on the same session, and
            # two threads extending one list would both append the same
            # pairs, shifting every later index.
            missing = range(len(drawn), max(count, settings.n_fault_maps))
            draw = partial(
                fault_map_pair, L1_GEOMETRY, settings.pfail, seed=settings.seed
            )
            threads = min(cpu_budget(), len(missing) // 2)
            if threads > 1:
                with ThreadPoolExecutor(threads) as pool:
                    new = list(pool.map(draw, missing))
            else:
                new = list(map(draw, missing))
            drawn = self._pairs = drawn + new
        return drawn[:count]

    def pair(self, index: int) -> FaultMapPair:
        require_int(index, "a fault-map index")
        if index < 0:
            raise ValueError(f"fault-map index must be >= 0, got {index}")
        return self.pairs(index + 1)[index]
