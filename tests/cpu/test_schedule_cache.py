"""Persistent front-end schedule cache (sched-<key>.npz entries)."""

from __future__ import annotations

import dataclasses
import os
import zipfile

import numpy as np
import pytest

from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.cpu.diskcache import read_members
from repro.cpu.frontend import (
    SCHEDULE_CACHE_STATS,
    _build_schedule,
    _build_schedule_reference,
    frontend_schedule,
    load_schedule,
    save_schedule,
    schedule_disk_key,
)
from repro.workloads.generator import generate_trace

OFFSET_BITS = 6
MEASURE_FROM = 500


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
    schedule = frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
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
    schedule = frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
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
    vectorised = _build_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    reference = _build_schedule_reference(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
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


@pytest.mark.parametrize("measure_from", [0, 1, 1_500, 2_999, 3_000, 3_007])
def test_builders_agree_at_every_reset_point(measure_from):
    """The vectorised builder matches the per-instruction replay wherever
    the measured region starts (the first instruction, mid-trace, the
    last one, the end and past it; only ``0 < measure_from < n`` resets
    the counts), at each I-line size the block-size study sweeps."""
    trace = _trace()
    assert len(trace) == 3_000
    for block_bytes in (32, 64, 128):
        offset_bits = block_bytes.bit_length() - 1
        vectorised = _build_schedule(trace, PAPER_PIPELINE, offset_bits, measure_from)
        reference = _build_schedule_reference(trace, PAPER_PIPELINE, offset_bits, measure_from)
        assert vectorised == reference, block_bytes


#: Each malformed entry: (member, how it changes).  Every one of them
#: would let the kernel read past a column or run with the wrong fetch
#: offsets or counts (or, for a short ``counts`` row, raise IndexError,
#: which the discarding reader does not catch).
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
    "counts-short": ("counts", lambda c: c[:-1]),
    "counts-as-float": ("counts", lambda c: c.astype(np.float64)),
}


@pytest.mark.parametrize("corruption", sorted(_MALFORMED))
def test_malformed_entry_is_discarded_and_rebuilt(tmp_path, corruption):
    """A zip-valid entry whose columns could lead the kernel outside a
    column is refused at load: discarded, counted, rebuilt and rewritten."""
    before = dict(SCHEDULE_CACHE_STATS)
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    (entry,) = tmp_path.glob("sched-*.npz")
    members = read_members(os.fspath(entry))
    member, change = _MALFORMED[corruption]
    members[member] = change(members[member])
    np.savez(entry, **members)
    with pytest.raises(ValueError):
        load_schedule(os.fspath(entry), len(first))

    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    rebuilt = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "discarded") == 1
    assert _delta(before, "persisted") == 2
    assert rebuilt == built
    third = _trace()
    third._schedule_cache_dir = os.fspath(tmp_path)
    assert frontend_schedule(third, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM) == built
    assert _delta(before, "loaded") == 1


def test_construction_refuses_an_index_past_its_companion():
    trace = _trace()
    schedule = _build_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    with pytest.raises(ValueError):
        dataclasses.replace(schedule, iaccess_line=schedule.iaccess_line[:-1])
    with pytest.raises(ValueError):
        dataclasses.replace(schedule, redirect_index=schedule.redirect_index[:-1])


def test_second_process_loads_instead_of_rebuilding(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "persisted") == 1
    entries = [p for p in os.listdir(tmp_path) if p.startswith("sched-")]
    assert len(entries) == 1

    # A fresh trace object with identical content models a new worker
    # process: the schedule must come from disk, bit-identical.
    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    loaded = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "loaded") == 1
    assert loaded == built


def test_memoised_lookup_skips_disk(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    trace = _trace()
    trace._schedule_cache_dir = os.fspath(tmp_path)
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "persisted") == 1
    assert _delta(before, "loaded") == 0


def test_corrupt_entry_is_discarded_and_rebuilt(tmp_path):
    before = dict(SCHEDULE_CACHE_STATS)
    first = _trace()
    first._schedule_cache_dir = os.fspath(tmp_path)
    built = frontend_schedule(first, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    entry = next(p for p in os.listdir(tmp_path) if p.startswith("sched-"))
    (tmp_path / entry).write_bytes(b"not an npz")

    second = _trace()
    second._schedule_cache_dir = os.fspath(tmp_path)
    rebuilt = frontend_schedule(second, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "discarded") == 1
    assert rebuilt == built
    # The corrupt entry was replaced by a fresh one.
    third = _trace()
    third._schedule_cache_dir = os.fspath(tmp_path)
    frontend_schedule(third, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "loaded") == 1


def test_keys_separate_content_and_frontend_parameters(tmp_path):
    base = _trace()
    assert schedule_disk_key(
        base, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM
    ) == schedule_disk_key(_trace(), PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    # Different trace content, measured region, or front-end parameters
    # must all produce distinct entries.
    assert schedule_disk_key(
        _trace(seed=10), PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM
    ) != schedule_disk_key(base, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert schedule_disk_key(
        base, PAPER_PIPELINE, OFFSET_BITS, 0
    ) != schedule_disk_key(base, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    narrow = PipelineConfig(fetch_width=2)
    assert schedule_disk_key(
        base, narrow, OFFSET_BITS, MEASURE_FROM
    ) != schedule_disk_key(base, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)


def test_a_trace_outside_a_provider_persists_no_schedule(tmp_path, monkeypatch):
    """Only a provider's stamp names a schedule directory:
    ``$REPRO_TRACE_CACHE`` alone leaves a trace built outside a provider
    without one."""
    before = dict(SCHEDULE_CACHE_STATS)
    monkeypatch.setenv("REPRO_TRACE_CACHE", os.fspath(tmp_path))
    trace = _trace()
    frontend_schedule(trace, PAPER_PIPELINE, OFFSET_BITS, MEASURE_FROM)
    assert _delta(before, "persisted") == _delta(before, "loaded") == 0
    assert not any(p.startswith("sched-") for p in os.listdir(tmp_path))
