"""Persistent front-end schedule cache (sched-<key>.npz entries), and
one schedule per trace and front end, whatever the warmup."""

from __future__ import annotations

import dataclasses
import os
import zipfile

import numpy as np
import pytest

from repro.campaign import RunnerSettings, Session
from repro.cpu import frontend, lane_kernel
from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.cpu.diskcache import read_members
from repro.cpu.frontend import (
    SCHEDULE_CACHE_STATS,
    SCHEDULE_SCHEMA_VERSION,
    _build_schedule,
    _build_schedule_reference,
    frontend_schedule,
    load_schedule,
    save_schedule,
    schedule_disk_key,
)
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import LV_BLOCK_V10
from repro.workloads.generator import generate_trace

OFFSET_BITS = 6


def _trace(seed=9):
    return generate_trace("gzip", 3_000, seed=seed)


@pytest.fixture(autouse=True)
def _snapshot_stats():
    before = dict(SCHEDULE_CACHE_STATS)
    yield
    for key, value in before.items():
        SCHEDULE_CACHE_STATS[key] = value


def _delta(before, key):
    return SCHEDULE_CACHE_STATS[key] - before[key]


def test_roundtrip_is_bit_identical(tmp_path):
    trace = _trace()
    schedule = frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    path = tmp_path / "sched.npz"
    save_schedule(schedule, os.fspath(path))
    assert load_schedule(os.fspath(path), len(trace)) == schedule
    with zipfile.ZipFile(path) as archive:
        kinds = {member.compress_type for member in archive.infolist()}
    assert kinds == {zipfile.ZIP_STORED}


def test_compressed_entry_loads_bit_identical(tmp_path):
    """An entry written compressed, under the same member names, loads
    into the arrays a fresh build produces."""
    trace = _trace()
    schedule = frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    path = tmp_path / "sched.npz"
    save_schedule(schedule, os.fspath(path))
    np.savez_compressed(path, **read_members(os.fspath(path)))
    loaded = load_schedule(os.fspath(path), len(trace))
    assert loaded == schedule
    for name in ("static_fetch", "iaccess_index", "iaccess_line", "redirect_index",
                 "redirect_static_next"):
        assert getattr(loaded, name).dtype == np.int64, name


def test_builders_emit_int64_columns():
    trace = _trace()
    vectorised = _build_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    reference = _build_schedule_reference(trace, PAPER_PIPELINE, OFFSET_BITS)
    assert vectorised == reference
    for name in ("static_fetch", "iaccess_index", "iaccess_line", "redirect_index",
                 "redirect_static_next"):
        for schedule in (vectorised, reference):
            column = getattr(schedule, name)
            assert isinstance(column, np.ndarray) and column.dtype == np.int64, name
    changed = dataclasses.replace(
        reference, redirect_static_next=reference.redirect_static_next + 1
    )
    assert changed != vectorised


@pytest.mark.parametrize("block_bytes", [32, 64, 128])
def test_builders_agree_at_each_line_size(block_bytes):
    """The vectorised builder matches the per-instruction replay at each
    I-line size the block-size study sweeps."""
    trace = _trace()
    offset_bits = block_bytes.bit_length() - 1
    vectorised = _build_schedule(trace, PAPER_PIPELINE, offset_bits)
    reference = _build_schedule_reference(trace, PAPER_PIPELINE, offset_bits)
    assert vectorised == reference


@pytest.mark.skipif(lane_kernel.load() is None, reason="no compiled lane kernel")
def test_one_schedule_serves_every_warmup(tmp_path, monkeypatch):
    """Kernel passes at warmups 0 and 1,000 over one trace build its
    schedule once.  Fresh copies of the trace, one per warmup, load the
    one entry those passes persisted, under the one disk key."""
    builds = []

    def counting_build(*args):
        builds.append(args)
        return _build_schedule(*args)

    monkeypatch.setattr(frontend, "_build_schedule", counting_build)
    session = Session(RunnerSettings(n_instructions=2_000, warmup_instructions=1_000))
    lane = session.build_pipeline(LV_BLOCK_V10, 0).kernel_lane()
    assert lane.geometries[0].offset_bits == OFFSET_BITS
    trace = _trace()
    trace._schedule_cache_dir = os.fspath(tmp_path)
    for warmup in (0, 1_000):
        OutOfOrderPipeline.run_batch([lane], trace, measure_from=warmup)
    assert len(builds) == 1
    for warmup in (0, 1_000):
        fresh = _trace()
        fresh._schedule_cache_dir = os.fspath(tmp_path)
        OutOfOrderPipeline.run_batch([lane], fresh, measure_from=warmup)
    assert len(builds) == 1
    key = schedule_disk_key(trace, lane.config, OFFSET_BITS)
    assert [p.name for p in tmp_path.glob("sched-*.npz")] == [f"sched-{key}.npz"]


#: Each malformed entry: (member, how it changes).  Every one of them
#: would let the kernel read past a column or run with the wrong fetch
#: offsets, or is an entry of another schema.
_MALFORMED = {
    "static_fetch-100-short": ("static_fetch", lambda c: c[:-100]),
    "static_fetch-100-long": ("static_fetch", lambda c: np.append(c, c[:100])),
    "iaccess_index-truncated": ("iaccess_index", lambda c: c[:-10]),
    "iaccess_index-no-sentinel": ("iaccess_index", lambda c: c[:-1]),
    "iaccess_index-decreasing": ("iaccess_index", lambda c: c[::-1].copy()),
    "iaccess_index-negative": ("iaccess_index", lambda c: np.append(-1, c[1:])),
    "iaccess_index-duplicate": ("iaccess_index", lambda c: np.concatenate([c[:1], c[:1], c[2:]])),
    "iaccess_index-as-float": ("iaccess_index", lambda c: c.astype(np.float64)),
    "iaccess_line-short": ("iaccess_line", lambda c: c[:-1]),
    "redirect_index-truncated": ("redirect_index", lambda c: c[:-5]),
    "redirect_index-past-n": ("redirect_index", lambda c: np.append(c[:-1] + 10**6, c[-1])),
    "redirect_static_next-short": ("redirect_static_next", lambda c: c[:-1]),
    "static_fetch-2-D": ("static_fetch", lambda c: np.stack([c, c])),
    "schema-wrong": ("schema", lambda c: c + 1),
    "schema-as-float": ("schema", lambda c: c.astype(np.float64)),
}


def _persisted_entry(tmp_path):
    """A schedule built and persisted under ``tmp_path``, and its entry."""
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS)
    (entry,) = tmp_path.glob("sched-*.npz")
    return built, entry


def _assert_refused_and_rebuilt(tmp_path, entry, built, before):
    """``entry`` is refused at load, then discarded, counted, rebuilt and
    rewritten by the next lookup, which a third lookup loads."""
    with pytest.raises(ValueError):
        load_schedule(os.fspath(entry), len(built.static_fetch))
    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    rebuilt = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "discarded") == 1
    assert _delta(before, "persisted") == 2
    assert rebuilt == built
    third = _trace()
    third._schedule_cache_dir = os.fspath(tmp_path)
    assert frontend_schedule(third, PAPER_PIPELINE, OFFSET_BITS) == built
    assert _delta(before, "loaded") == 1


@pytest.mark.parametrize("corruption", sorted(_MALFORMED))
def test_malformed_entry_is_discarded_and_rebuilt(tmp_path, corruption):
    """A zip-valid entry whose columns could lead the kernel outside a
    column is refused at load: discarded, counted, rebuilt and rewritten."""
    before = dict(SCHEDULE_CACHE_STATS)
    built, entry = _persisted_entry(tmp_path)
    members = read_members(os.fspath(entry))
    member, change = _MALFORMED[corruption]
    members[member] = change(members[member])
    np.savez(entry, **members)
    _assert_refused_and_rebuilt(tmp_path, entry, built, before)


def test_an_entry_in_the_earlier_layout_is_discarded_and_rebuilt(tmp_path):
    """Schema 2 wrote a ``counts`` row (the schema number, then six
    measured-region counts) and no ``schema`` member; such an entry is
    refused whatever its key, and rebuilt."""
    assert SCHEDULE_SCHEMA_VERSION == 3
    before = dict(SCHEDULE_CACHE_STATS)
    built, entry = _persisted_entry(tmp_path)
    members = read_members(os.fspath(entry))
    del members["schema"]
    members["counts"] = np.array([2, 310, 21, 40, 2, 455, 1_120], dtype=np.int64)  # any counts
    np.savez(entry, **members)
    _assert_refused_and_rebuilt(tmp_path, entry, built, before)


def test_construction_refuses_an_index_past_its_companion():
    trace = _trace()
    schedule = _build_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    with pytest.raises(ValueError):
        dataclasses.replace(schedule, iaccess_line=schedule.iaccess_line[:-1])
    with pytest.raises(ValueError):
        dataclasses.replace(schedule, redirect_index=schedule.redirect_index[:-1])


def test_second_process_loads_instead_of_rebuilding(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "persisted") == 1
    entries = [p for p in os.listdir(tmp_path) if p.startswith("sched-")]
    assert len(entries) == 1

    # A fresh trace object with identical content models a new worker
    # process: the schedule must come from disk, bit-identical.
    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    loaded = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "loaded") == 1
    assert loaded == built


def test_memoised_lookup_skips_disk(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    trace = _trace()
    trace._schedule_cache_dir = os.fspath(tmp_path)
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "persisted") == 1
    assert _delta(before, "loaded") == 0


def test_corrupt_entry_is_discarded_and_rebuilt(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS)
    entry = next(p for p in os.listdir(tmp_path) if p.startswith("sched-"))
    (tmp_path / entry).write_bytes(b"not an npz")

    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    rebuilt = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "discarded") == 1
    assert rebuilt == built
    # The corrupt entry was replaced by a fresh one.
    third = _trace()
    third._schedule_cache_dir = os.fspath(tmp_path)
    frontend_schedule(third, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "loaded") == 1


def test_keys_separate_content_and_frontend_parameters(tmp_path):
    """Different trace content, line size or front-end parameters must
    all produce distinct entries; the warmup is no part of a key (see
    :func:`test_one_schedule_serves_every_warmup`)."""
    base = _trace()
    key = schedule_disk_key(base, PAPER_PIPELINE, OFFSET_BITS)
    assert schedule_disk_key(_trace(), PAPER_PIPELINE, OFFSET_BITS) == key
    assert schedule_disk_key(_trace(seed=10), PAPER_PIPELINE, OFFSET_BITS) != key
    assert schedule_disk_key(base, PAPER_PIPELINE, OFFSET_BITS + 1) != key
    narrow = PipelineConfig(fetch_width=2)
    assert schedule_disk_key(base, narrow, OFFSET_BITS) != key


def test_a_trace_outside_a_provider_persists_no_schedule(tmp_path, monkeypatch):
    """Only a provider's stamp names a schedule directory:
    ``$REPRO_TRACE_CACHE`` alone leaves a trace built outside a provider
    without one."""
    before = dict(SCHEDULE_CACHE_STATS)
    monkeypatch.setenv("REPRO_TRACE_CACHE", os.fspath(tmp_path))
    trace = _trace()
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS)
    assert _delta(before, "persisted") == _delta(before, "loaded") == 0
    assert not any(p.startswith("sched-") for p in os.listdir(tmp_path))
