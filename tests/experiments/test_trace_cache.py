"""Persistent trace cache: round-trips, key discipline, corruption hygiene."""

from __future__ import annotations

import os

import pytest

from repro.campaign import RunnerSettings, Session
from repro.cpu.config import L1_GEOMETRY
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
        assert reloaded.pc == trace.pc
        assert reloaded.iclass == trace.iclass
        assert reloaded.mem_addr == trace.mem_addr
        assert reloaded.src1 == trace.src1
        assert reloaded.src2 == trace.src2
        assert reloaded.dest == trace.dest
        assert reloaded.taken == trace.taken
        assert reloaded.name == trace.name

    def test_cached_trace_simulates_identically(self, tmp_path):
        cold = Session(settings(), trace_cache=os.fspath(tmp_path))
        warm = Session(settings(), trace_cache=os.fspath(tmp_path))
        from repro.experiments.configs import LV_BASELINE

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
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])  # torn tail from a killed writer
        provider = TraceProvider(settings(), cache_dir=tmp_path)
        trace = provider.get("gzip")
        assert provider.discarded == 1 and provider.generated == 1
        assert len(trace) == 2_500

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
