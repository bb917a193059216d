"""Persistent trace cache: round-trips, key discipline, corruption hygiene."""

from __future__ import annotations

import gc
import os
import warnings
import zipfile

import numpy as np
import pytest

from repro.campaign import RunnerSettings, Session
from repro.cpu import lane_kernel
from repro.cpu.config import L1_GEOMETRY, PAPER_PIPELINE
from repro.cpu.diskcache import read_members
from repro.cpu.frontend import SCHEDULE_CACHE_STATS, frontend_schedule
from repro.cpu.trace import COLUMN_DTYPES
from repro.experiments.configs import LV_BASELINE, LV_BLOCK_V10
from repro.experiments.providers import TRACE_CACHE_ENV, TraceProvider, trace_key


def settings(**overrides) -> RunnerSettings:
    base = dict(
        n_instructions=2_000,
        warmup_instructions=500,
        n_fault_maps=1,
        benchmarks=("gzip",),
        seed=7,
    )
    base.update(overrides)
    return RunnerSettings(**base)


class TestTraceKey:
    def test_stable(self):
        a = trace_key("gzip", 7, 2500, L1_GEOMETRY)
        assert a == trace_key("gzip", 7, 2500, L1_GEOMETRY)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(benchmark="crafty"),
            dict(seed=8),
            dict(n_instructions=2501),
        ],
    )
    def test_sensitive_to_inputs(self, kwargs):
        base = dict(benchmark="gzip", seed=7, n_instructions=2500)
        changed = {**base, **kwargs}
        assert trace_key(**base, geometry=L1_GEOMETRY) != trace_key(
            **changed, geometry=L1_GEOMETRY
        )


class TestTraceCache:
    def test_cold_then_warm(self, tmp_path):
        first = TraceProvider(settings(), cache_dir=tmp_path)
        trace = first.get("gzip")
        assert first.generated == 1 and first.loaded == 0
        assert len(os.listdir(tmp_path)) == 1

        second = TraceProvider(settings(), cache_dir=tmp_path)
        reloaded = second.get("gzip")
        assert second.generated == 0 and second.loaded == 1
        for name, dtype in COLUMN_DTYPES.items():
            got, expected = getattr(reloaded, name), getattr(trace, name)
            assert got.dtype == expected.dtype == dtype, name
            assert np.array_equal(got, expected), name
        assert reloaded.name == trace.name
        assert reloaded == trace

    def test_cached_trace_simulates_identically(self, tmp_path):
        cold = Session(settings(), trace_cache=os.fspath(tmp_path))
        warm = Session(settings(), trace_cache=os.fspath(tmp_path))
        a = cold.simulate("gzip", LV_BASELINE)
        b = warm.simulate("gzip", LV_BASELINE)
        assert warm.traces.loaded == 1
        assert a == b

    def test_different_settings_do_not_collide(self, tmp_path):
        short = TraceProvider(settings(), cache_dir=tmp_path)
        longer = TraceProvider(settings(n_instructions=3_000), cache_dir=tmp_path)
        short.get("gzip")
        longer.get("gzip")
        assert longer.generated == 1  # distinct key, no false hit
        assert len(os.listdir(tmp_path)) == 2

    def test_memoises_within_process(self, tmp_path):
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        assert provider.get("gzip") is provider.get("gzip")
        assert provider.generated == 1

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_CACHE_ENV, raising=False)
        provider = TraceProvider(settings())
        provider.get("gzip")
        assert provider.cache_dir is None
        assert provider.generated == 1

    def test_env_variable_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_CACHE_ENV, os.fspath(tmp_path))
        TraceProvider(settings()).get("gzip")
        assert len(os.listdir(tmp_path)) == 1
        warm = TraceProvider(settings())
        warm.get("gzip")
        assert warm.loaded == 1 and warm.generated == 0


class TestCorruptionHygiene:
    def _entry_path(self, tmp_path) -> str:
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        provider.get("gzip")
        (entry,) = os.listdir(tmp_path)
        return os.path.join(tmp_path, entry)

    @pytest.mark.parametrize("payload", [b"", b"not an npz at all", b"PK\x03\x04"])
    def test_garbage_entry_is_discarded_and_regenerated(self, tmp_path, payload):
        path = self._entry_path(tmp_path)
        with open(path, "wb") as fh:
            fh.write(payload)
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        trace = provider.get("gzip")
        assert provider.discarded == 1
        assert provider.generated == 1
        assert len(trace) == 2_500
        # The regenerated entry replaced the corrupt one and reloads cleanly.
        fresh = TraceProvider(settings(), cache_dir=tmp_path)
        fresh.get("gzip")
        assert fresh.loaded == 1 and fresh.discarded == 0

    def test_truncated_entry_is_discarded_and_regenerated(self, tmp_path):
        path = self._entry_path(tmp_path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn tail from a killed writer
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        trace = provider.get("gzip")
        assert provider.discarded == 1 and provider.generated == 1
        assert len(trace) == 2_500

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda m: {"src1": m["src1"][:-100]}, id="src1-100-short"),
            pytest.param(lambda m: {"dest": m["dest"][:-100]}, id="dest-100-short"),
            pytest.param(lambda m: {"iclass": m["iclass"][:-100]}, id="iclass-100-short"),
            pytest.param(
                lambda m: {"mem_addr": m["mem_addr"][:-100]}, id="mem_addr-100-short"
            ),
            pytest.param(lambda m: {"iclass": _set(m["iclass"], 10, 9)}, id="class-9"),
            pytest.param(
                lambda m: {"dest": _set(m["dest"].astype(np.int16), 10, 5000)},
                id="dest-5000-as-int16",
            ),
            pytest.param(lambda m: {"src2": _set(m["src2"], 3, 64)}, id="register-64"),
            pytest.param(
                lambda m: {
                    "mem_addr": _set(m["mem_addr"], np.flatnonzero(m["iclass"] == 4)[0], -64)
                },
                id="load-at-negative-address",
            ),
            pytest.param(lambda m: {"pc": m["pc"].astype(np.int32)}, id="pc-as-int32"),
            pytest.param(
                lambda m: {"taken": m["taken"].astype(np.int8)}, id="taken-as-int8"
            ),
            pytest.param(
                lambda m: {"src1": np.stack([m["src1"], m["src1"]])}, id="2-D-src1"
            ),
        ],
    )
    def test_malformed_columns_are_discarded_and_regenerated(self, tmp_path, corrupt):
        """A zip-valid entry whose columns the trace would refuse never
        loads: it is discarded, regenerated, and rewritten."""
        path = self._entry_path(tmp_path)
        members = read_members(path)
        np.savez(path, **{**members, **corrupt(members)})
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        trace = provider.get("gzip")
        assert (provider.discarded, provider.generated, provider.loaded) == (1, 1, 0)
        fresh = TraceProvider(settings(), cache_dir=tmp_path)
        assert fresh.get("gzip") == trace
        assert fresh.loaded == 1 and fresh.discarded == 0

    def test_wrong_length_entry_is_discarded(self, tmp_path):
        # A hash collision cannot realistically do this, but a manually
        # copied file can: the guard re-checks the one cheap invariant.
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        provider.get("gzip")
        (entry,) = os.listdir(tmp_path)
        other = TraceProvider(settings(n_instructions=3_000), cache_dir=tmp_path)
        other.get("gzip")
        paths = sorted(
            os.path.join(tmp_path, p) for p in os.listdir(tmp_path)
        )
        long_entry = [p for p in paths if os.path.basename(p) != entry][0]
        os.replace(long_entry, os.path.join(tmp_path, entry))
        reread = TraceProvider(settings(), cache_dir=tmp_path)
        trace = reread.get("gzip")
        assert reread.discarded == 1 and reread.generated == 1
        assert len(trace) == 2_500


def _set(column: np.ndarray, index: int, value: int) -> np.ndarray:
    column = column.copy()
    column[index] = value
    return column


class TestEntryFormat:
    def test_fresh_entries_are_stored_uncompressed(self, tmp_path):
        trace = TraceProvider(settings(), cache_dir=tmp_path).get("gzip")
        frontend_schedule(trace, PAPER_PIPELINE, L1_GEOMETRY.offset_bits)
        entries = sorted(tmp_path.glob("*.npz"))
        assert len(entries) == 2  # the trace and its schedule
        for entry in entries:
            with zipfile.ZipFile(entry) as archive:
                kinds = {member.compress_type for member in archive.infolist()}
            assert kinds == {zipfile.ZIP_STORED}, entry.name

    def test_compressed_entries_load_and_simulate_identically(self, tmp_path):
        """Entries written compressed, under the same member names, load
        into the arrays a fresh build produces and simulate identically.
        Only a lane-kernel pass compiles a front-end schedule, so the
        object loop (no kernel) leaves no schedule entry to load."""
        configs = (LV_BASELINE, LV_BLOCK_V10)
        with Session(settings(), trace_cache=os.fspath(tmp_path)) as cold:
            expected = [cold.simulate("gzip", config, 0) for config in configs]
            built = cold.trace("gzip")
        for entry in tmp_path.glob("*.npz"):
            np.savez_compressed(entry, **read_members(entry))
            with zipfile.ZipFile(entry) as archive:
                kinds = {member.compress_type for member in archive.infolist()}
            assert kinds == {zipfile.ZIP_DEFLATED}
        schedules_loaded = SCHEDULE_CACHE_STATS["loaded"]
        with Session(settings(), trace_cache=os.fspath(tmp_path)) as warm:
            got = [warm.simulate("gzip", config, 0) for config in configs]
            assert warm.traces.loaded == 1 and warm.traces.generated == 0
            assert warm.trace("gzip") == built
        schedule_entries = int(lane_kernel.load() is not None)
        assert SCHEDULE_CACHE_STATS["loaded"] == schedules_loaded + schedule_entries
        assert got == expected


class TestDiscardedEntriesAreClosed:
    """``np.load`` raises on a bad zip archive without closing a path it
    opened; the loaders open the file themselves, so a discarded entry
    leaves no handle behind."""

    @staticmethod
    def _schedule(trace):
        return frontend_schedule(trace, PAPER_PIPELINE, L1_GEOMETRY.offset_bits)

    @pytest.mark.parametrize("corruption", ["garbage", "truncated", "schedule"])
    def test_discarded_entry_leaves_no_open_file(self, tmp_path, corruption):
        self._schedule(TraceProvider(settings(), cache_dir=tmp_path).get("gzip"))
        (schedule_entry,) = tmp_path.glob("sched-*.npz")
        (trace_entry,) = set(tmp_path.glob("*.npz")) - {schedule_entry}
        if corruption == "garbage":
            trace_entry.write_bytes(b"PK\x03\x04")  # a zip header, then nothing
        else:
            path = schedule_entry if corruption == "schedule" else trace_entry
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])
        schedules_discarded = SCHEDULE_CACHE_STATS["discarded"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            provider = TraceProvider(settings(), cache_dir=tmp_path)
            self._schedule(provider.get("gzip"))
            gc.collect()
        discarded = (
            provider.discarded
            + SCHEDULE_CACHE_STATS["discarded"]
            - schedules_discarded
        )
        assert discarded == 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestTmpHygiene:
    def test_stale_tmp_files_are_swept(self, tmp_path):
        old = tmp_path / ".trace-dead.npz.tmp"
        old.write_bytes(b"orphan from a killed worker")
        os.utime(old, (0, 0))  # ancient mtime
        fresh = tmp_path / ".trace-live.npz.tmp"
        fresh.write_bytes(b"in-flight write from a live worker")
        entry = tmp_path / "not-a-tmp.npz"
        entry.write_bytes(b"real entry, untouched")
        TraceProvider(settings(), cache_dir=tmp_path)
        assert not old.exists()
        assert fresh.exists()
        assert entry.exists()
