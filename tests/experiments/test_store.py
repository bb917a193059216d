"""Tests for the persistent result store and its campaign semantics."""

import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import RunnerSettings, Session
from repro.core.schemes import VoltageMode
from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.cpu.pipeline import SimResult
from repro.experiments.configs import (
    ALL_CONFIGS,
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
    RunConfig,
)
from repro.experiments.keys import STORE_SCHEMA_VERSION, task_key
from repro.store import (
    DiskStore,
    MemoryStore,
    open_store,
    result_from_dict,
    result_to_dict,
)
from repro.workloads.spec2000 import ALL_BENCHMARKS

SMALL = RunnerSettings(
    n_instructions=3000,
    n_fault_maps=2,
    warmup_instructions=1000,
    benchmarks=("crafty", "swim"),
)


@pytest.fixture
def disk_store():
    """``DiskStore`` factory: every store a test opens through it is
    closed at teardown, append handle included."""
    opened: list[DiskStore] = []

    def open_disk_store(path) -> DiskStore:
        store = DiskStore(path)
        opened.append(store)
        return store

    yield open_disk_store
    for store in opened:
        store.close()


def make_result(cycles: int = 1234) -> SimResult:
    return SimResult(
        benchmark="crafty",
        instructions=3000,
        cycles=cycles,
        branch_mispredictions=17,
        branch_predictions=210,
        hierarchy_stats={"l1d": {"accesses": 900, "miss_rate": 0.125}},
    )


class TestTaskKey:
    def test_deterministic(self):
        a = task_key(SMALL, "crafty", LV_BLOCK, 1)
        b = task_key(SMALL, "crafty", LV_BLOCK, 1)
        assert a == b

    def test_distinguishes_points(self):
        keys = {
            task_key(SMALL, "crafty", LV_BLOCK, 0),
            task_key(SMALL, "crafty", LV_BLOCK, 1),
            task_key(SMALL, "swim", LV_BLOCK, 0),
            task_key(SMALL, "crafty", LV_WORD, None),
            task_key(SMALL, "crafty", LV_BASELINE, None),
        }
        assert len(keys) == 5

    def test_fidelity_fields_change_key(self):
        base = task_key(SMALL, "crafty", LV_BLOCK, 0)
        for variant in (
            RunnerSettings(**{**_fields(SMALL), "n_instructions": 4000}),
            RunnerSettings(**{**_fields(SMALL), "warmup_instructions": 2000}),
            RunnerSettings(**{**_fields(SMALL), "seed": 7}),
            RunnerSettings(**{**_fields(SMALL), "pfail": 0.002}),
        ):
            assert task_key(variant, "crafty", LV_BLOCK, 0) != base

    def test_scope_fields_do_not_change_key(self):
        """Campaign scope (benchmark list, number of maps) selects which
        points run, not what each computes — quick campaigns must seed
        paper-scale ones."""
        base = task_key(SMALL, "crafty", LV_BLOCK, 0)
        wider = RunnerSettings(**{**_fields(SMALL), "n_fault_maps": 50})
        rescoped = RunnerSettings(
            **{**_fields(SMALL), "benchmarks": ("crafty",)}
        )
        assert task_key(wider, "crafty", LV_BLOCK, 0) == base
        assert task_key(rescoped, "crafty", LV_BLOCK, 0) == base

    def test_pipeline_config_changes_key(self):
        """Sessions with different pipelines must not read each other's
        results out of a shared store."""
        from repro.cpu.config import PAPER_PIPELINE, PipelineConfig

        base = task_key(SMALL, "crafty", LV_BLOCK, 0)
        assert task_key(SMALL, "crafty", LV_BLOCK, 0, PAPER_PIPELINE) == base
        narrow = PipelineConfig(issue_width=2)
        assert task_key(SMALL, "crafty", LV_BLOCK, 0, narrow) != base

    def test_keys_are_pinned(self):
        """Keys address every stored result: the digests of one
        default-pipeline and one custom-pipeline point must never move."""
        from repro.cpu.config import PipelineConfig

        assert task_key(SMALL, "crafty", LV_BLOCK, 1) == (
            "5d19acb1b416dc4cd067058f274b24a2803ed5c7e0d19836e7abf099d950361f"
        )
        narrow = PipelineConfig(issue_width=2)
        for _ in range(2):  # the second computation reuses the config's fields
            assert task_key(SMALL, "crafty", LV_BASELINE, None, narrow) == (
                "599945646aa4443d795bc63aa684ebd066d50fe51298d0e7e639c1c4b3617be3"
            )

    def test_runner_with_custom_pipeline_gets_disjoint_store_rows(
        self, disk_store, tmp_path
    ):
        """A session simulates the paper's pipeline, so a row another
        pipeline's campaign left in a shared store is not its result."""
        from repro.cpu.config import PipelineConfig

        narrow = PipelineConfig(issue_width=2)
        store = disk_store(tmp_path)
        store.put(task_key(SMALL, "crafty", LV_BASELINE, None, narrow), make_result())
        store.flush()
        assert Session(SMALL, store=disk_store(tmp_path)).cached(
            "crafty", LV_BASELINE
        ) is None

    def test_label_is_cosmetic(self):
        from repro.experiments.configs import RunConfig

        relabeled = RunConfig(
            "a different label", LV_BLOCK.scheme, LV_BLOCK.voltage
        )
        assert task_key(SMALL, "crafty", relabeled, 0) == task_key(
            SMALL, "crafty", LV_BLOCK, 0
        )

    def test_stable_across_processes(self):
        """The key is a content hash, not a Python hash: a fresh
        interpreter computes the identical string."""
        code = (
            "from repro.campaign.spec import RunnerSettings\n"
            "from repro.experiments.keys import task_key\n"
            "from repro.experiments.configs import LV_BLOCK\n"
            "s = RunnerSettings(n_instructions=3000, n_fault_maps=2,\n"
            "                   warmup_instructions=1000,\n"
            "                   benchmarks=('crafty', 'swim'))\n"
            "print(task_key(s, 'crafty', LV_BLOCK, 1))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == task_key(SMALL, "crafty", LV_BLOCK, 1)


def reference_task_key(
    runner, benchmark, config, map_index, pipeline_config=None
) -> str:
    """``task_key`` as one ``json.dumps`` of its whole payload, the
    expression the memoised key must reproduce byte for byte."""
    payload = {
        "fidelity": {
            "n_instructions": runner.n_instructions,
            "warmup_instructions": runner.warmup_instructions,
            "pfail": runner.pfail,
            "seed": runner.seed,
            "schema": STORE_SCHEMA_VERSION,
        },
        "pipeline": dataclasses.asdict(pipeline_config or PAPER_PIPELINE),
        "benchmark": benchmark,
        "scheme": config.scheme,
        "voltage": config.voltage.name,
        "victim_entries": config.victim_entries,
        "map_index": map_index,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Values that compare equal but JSON encodes differently (1, 1.0, True;
# 0.0 and -0.0) are drawn side by side, so a memo that let them share an
# entry would hand one of them the other's key.
_fidelity = st.tuples(
    st.sampled_from([3000, 3000.0, 1, 1.0, True]),
    st.sampled_from([1000, 1000.0, 0, 0.0, -0.0, False, 1, True]),
    st.sampled_from([0.001, 1, 1.0, True, 0, 0.0, -0.0, False]),
    st.sampled_from([2010, 2010.0, 7, 1, 1.0, True, 0.0, -0.0]),
)
_configs = st.sampled_from(ALL_CONFIGS) | st.builds(
    RunConfig,
    label=st.just("drawn"),
    scheme=st.sampled_from(["baseline", "block-disable", 'a "quoted" scheme']),
    voltage=st.sampled_from(list(VoltageMode)),
    victim_entries=st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True, 16]),
)
_pipelines = st.none() | st.just(PAPER_PIPELINE) | st.builds(
    PipelineConfig,
    issue_width=st.sampled_from([2, 2.0, 6, 6.0]),
    fetch_width=st.sampled_from([1, 1.0, True, 4]),
    gshare_history_bits=st.integers(min_value=0, max_value=2**40),
)


class TestTaskKeyEncoding:
    """``task_key`` assembles its JSON from memoised, pre-encoded parts;
    every key must stay byte-identical to one ``json.dumps`` of the
    whole payload."""

    @given(
        benchmarks=st.lists(
            st.sampled_from(list(ALL_BENCHMARKS))
            | st.text(max_size=12)
            | st.sampled_from(['say "hi"', "back\\slash", "café", "漢字", "\u2028"]),
            min_size=1,
            max_size=3,
        ),
        fidelities=st.lists(_fidelity, min_size=1, max_size=4),
        configs=st.lists(_configs, min_size=1, max_size=3),
        map_index=st.none() | st.just(0) | st.integers(min_value=0, max_value=2**70),
        pipelines=st.lists(_pipelines, min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_json_dumps_of_the_payload(
        self, benchmarks, fidelities, configs, map_index, pipelines
    ):
        for n, warmup, pfail, seed in fidelities:
            runner = RunnerSettings(
                n_instructions=n, warmup_instructions=warmup, pfail=pfail, seed=seed
            )
            for benchmark, config, pipeline in itertools.product(
                benchmarks, configs, pipelines
            ):
                assert task_key(
                    runner, benchmark, config, map_index, pipeline
                ) == reference_task_key(runner, benchmark, config, map_index, pipeline)

    @pytest.mark.parametrize("alike", [(1, 1.0, True), (0, 0.0, -0.0, False)])
    def test_values_equal_in_python_get_their_own_keys(self, alike):
        """``RunnerSettings`` does not check types, so ``pfail=1`` and
        ``pfail=1.0`` are different keys (as are ``0.0`` and ``-0.0``);
        neither is the other's, in whichever order they are keyed."""
        keys = {}
        for pfail in alike + alike[::-1]:
            runner = RunnerSettings(**{**_fields(SMALL), "pfail": pfail})
            key = task_key(runner, "crafty", LV_BLOCK, 1)
            assert key == reference_task_key(runner, "crafty", LV_BLOCK, 1)
            keys.setdefault(repr(pfail), set()).add(key)
        assert all(len(found) == 1 for found in keys.values())
        assert len(set().union(*keys.values())) == len(alike)
        narrow = [PipelineConfig(issue_width=2), PipelineConfig(issue_width=2.0)]
        assert narrow[0] == narrow[1]
        assert len({task_key(SMALL, "crafty", LV_BLOCK, 1, p) for p in narrow}) == 2


class TestSerde:
    def test_round_trip(self):
        result = make_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_json_round_trip_preserves_floats(self):
        result = make_result()
        rehydrated = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rehydrated == result
        assert (
            rehydrated.hierarchy_stats["l1d"]["miss_rate"]
            == result.hierarchy_stats["l1d"]["miss_rate"]
        )


class TestMemoryStore:
    def test_put_get(self):
        store = MemoryStore()
        assert store.get("k") is None
        assert "k" not in store
        store.put("k", make_result())
        assert store.get("k") == make_result()
        assert "k" in store
        assert len(store) == 1


class TestDiskStore:
    def test_round_trip_across_instances(self, disk_store, tmp_path):
        first = disk_store(tmp_path / "campaign")
        first.put("k1", make_result(100))
        first.put("k2", make_result(200))
        reopened = disk_store(tmp_path / "campaign")
        assert reopened.get("k1") == make_result(100)
        assert reopened.get("k2") == make_result(200)
        assert len(reopened) == 2
        assert set(reopened.keys()) == {"k1", "k2"}

    def test_truncated_line_is_skipped_not_fatal(self, disk_store, tmp_path):
        store = disk_store(tmp_path)
        store.put("good", make_result(300))
        # Simulate a crash mid-append: a truncated JSON tail.
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "half", "result": {"benchmark": "cr')
        reopened = disk_store(tmp_path)
        assert reopened.get("good") == make_result(300)
        assert reopened.get("half") is None
        assert reopened.health().malformed == 1

    def test_garbage_and_blank_lines_tolerated(self, disk_store, tmp_path):
        store = disk_store(tmp_path)
        store.put("good", make_result(300))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("\n")
            fh.write("not json at all\n")
            fh.write('{"key": "no-result-field"}\n')
            fh.write('{"key": "bad", "result": {"cycles": 1}}\n')
        reopened = disk_store(tmp_path)
        assert len(reopened) == 1
        assert reopened.health().malformed == 3  # blank lines are not counted

    def test_resumed_writes_survive_a_truncated_tail(self, disk_store, tmp_path):
        """A crash can leave the file without a trailing newline; the next
        open must repair it so resumed results do not fuse onto (and get
        lost with) the corrupt line."""
        store = disk_store(tmp_path)
        store.put("good", make_result(300))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "half", "result": {"benchmark": "cr')  # no \n
        resumed = disk_store(tmp_path)
        resumed.put("after-crash", make_result(400))
        reopened = disk_store(tmp_path)
        assert reopened.get("good") == make_result(300)
        assert reopened.get("after-crash") == make_result(400)
        assert reopened.health().malformed == 1

    def test_last_write_wins(self, disk_store, tmp_path):
        store = disk_store(tmp_path)
        store.put("k", make_result(1))
        store.put("k", make_result(2))
        with pytest.warns(UserWarning, match="duplicate"):
            assert disk_store(tmp_path).get("k") == make_result(2)

    def test_open_store_helper(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        assert isinstance(open_store(""), MemoryStore)
        assert isinstance(open_store(tmp_path), DiskStore)


class TestDuplicateKeys:
    """Concurrent writers append duplicate keys; loading must dedupe
    (last write wins), warn, and count — and compact() must rewrite the
    log without them."""

    def _race(self, disk_store, tmp_path) -> DiskStore:
        # Two store handles on one directory — the concurrent-writer
        # shape: each appends, neither sees the other's in-memory index.
        a = disk_store(tmp_path)
        b = disk_store(tmp_path)
        a.put("shared", make_result(1))
        b.put("shared", make_result(2))
        a.put("only-a", make_result(3))
        return a

    def test_load_dedupes_and_counts(self, disk_store, tmp_path):
        self._race(disk_store, tmp_path)
        with pytest.warns(UserWarning, match="duplicate result"):
            reopened = disk_store(tmp_path)
        assert reopened.duplicate_lines == 1
        assert len(reopened) == 2
        assert reopened.get("shared") == make_result(2)  # last write wins
        assert reopened.get("only-a") == make_result(3)

    def test_clean_load_does_not_warn(self, disk_store, tmp_path):
        disk_store(tmp_path).put("k", make_result(5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = disk_store(tmp_path)
        assert reopened.duplicate_lines == 0

    def test_compact_rewrites_without_duplicates(self, disk_store, tmp_path):
        self._race(disk_store, tmp_path)
        with pytest.warns(UserWarning):
            store = disk_store(tmp_path)
        before = dict.fromkeys(store.keys())
        assert store.compact() == 1
        assert store.duplicate_lines == 0
        with open(store.path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 2
        assert {entry["key"] for entry in lines} == set(before)
        # A reopen sees identical contents and no duplicates.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = disk_store(tmp_path)
        assert reopened.get("shared") == make_result(2)
        assert reopened.get("only-a") == make_result(3)

    def test_compact_drops_corrupt_lines_too(self, disk_store, tmp_path):
        store = disk_store(tmp_path)
        store.put("good", make_result(7))
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        reopened = disk_store(tmp_path)
        assert reopened.health().malformed == 1
        assert reopened.compact() == 1
        fresh = disk_store(tmp_path)
        assert fresh.health().malformed == 0
        assert fresh.get("good") == make_result(7)

    def test_compact_noop_on_clean_store(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("k", make_result(9))
        assert store.compact() == 0
        assert DiskStore(tmp_path).get("k") == make_result(9)


class TestStoreLifecycle:
    """The ResultStore context-manager satellite: flush/close semantics."""

    def test_open_store_context_manager(self, tmp_path):
        with open_store(tmp_path) as store:
            store.put("k", make_result())
            assert store._fh is not None  # persistent append handle
        assert store._fh is None  # released on exit
        assert DiskStore(tmp_path).get("k") == make_result()

    def test_put_after_close_reopens(self, tmp_path):
        store = DiskStore(tmp_path)
        store.put("k1", make_result(1))
        store.close()
        store.put("k2", make_result(2))  # lazily reopens the handle
        store.close()
        reopened = DiskStore(tmp_path)
        assert reopened.get("k1") == make_result(1)
        assert reopened.get("k2") == make_result(2)

    def test_flush_and_close_idempotent(self, tmp_path):
        store = DiskStore(tmp_path)
        store.flush()  # nothing buffered yet: no-op, no handle
        store.put("k", make_result())
        store.flush()
        store.close()
        store.close()

    def test_memory_store_lifecycle_noops(self):
        with MemoryStore() as store:
            store.put("k", make_result())
            store.flush()
        assert store.get("k") == make_result()  # still readable after close

    def test_sibling_compact_does_not_lose_appends(self, disk_store, tmp_path):
        """A rename by another store instance (compact) must not leave
        this store appending to the unlinked old inode."""
        first = disk_store(tmp_path)
        first.put("k1", make_result(1))
        sibling = disk_store(tmp_path)
        sibling.compact()  # replaces results.jsonl via rename
        first.put("k2", make_result(2))  # must land in the live file
        final = disk_store(tmp_path)
        assert final.get("k1") == make_result(1)
        assert final.get("k2") == make_result(2)

    def test_compact_releases_and_reopens_handle(self, disk_store, tmp_path):
        store = disk_store(tmp_path)
        store.put("k", make_result(1))
        store.put("k", make_result(2))  # duplicate key in the log
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write('{"key": "k", "result": {}}\n')  # unreadable line
        with pytest.warns(UserWarning, match="duplicate"):
            reread = disk_store(tmp_path)
        assert reread.compact() == 2
        assert reread._fh is None
        reread.put("k2", make_result(3))  # append handle reopens
        final = disk_store(tmp_path)
        assert final.get("k") == make_result(2)
        assert final.get("k2") == make_result(3)
        assert final.duplicate_lines == final.health().malformed == 0


class TestCampaignResume:
    def test_runner_reads_through_disk_store(self, disk_store, tmp_path):
        first = Session(SMALL, store=disk_store(tmp_path))
        result = first.simulate("crafty", LV_BLOCK, 0)
        assert first.simulations_executed == 1
        second = Session(SMALL, store=disk_store(tmp_path))
        assert second.simulate("crafty", LV_BLOCK, 0) == result
        assert second.simulations_executed == 0

    def test_interrupted_campaign_completes_only_remainder(
        self, disk_store, tmp_path
    ):
        """Kill-and-rerun: results checkpointed before the 'crash' are
        never simulated again."""
        killed = Session(SMALL, store=disk_store(tmp_path))
        tasks = _pending(killed, (LV_BASELINE, LV_BLOCK))
        assert len(tasks) == 6
        for task in tasks[:4]:  # the part that "finished" before the kill
            killed.simulate(*task)
        resumed = Session(SMALL, store=disk_store(tmp_path))
        spec = resumed.spec((LV_BASELINE, LV_BLOCK))
        assert resumed.run_all(spec).pending == 2
        assert resumed.run_all(spec).pending == 0

    def test_store_shared_across_config_objects_with_same_content(
        self, disk_store, tmp_path
    ):
        from repro.core.schemes import VoltageMode
        from repro.experiments.configs import RunConfig

        session = Session(SMALL, store=disk_store(tmp_path))
        session.simulate("crafty", LV_BLOCK_V10, 0)
        clone = RunConfig(
            "same cache, new label",
            LV_BLOCK_V10.scheme,
            VoltageMode.LOW,
            LV_BLOCK_V10.victim_entries,
        )
        assert session.cached("crafty", clone, 0) is not None
        assert _pending(session, (clone,)) == [
            ("crafty", clone, 1),
            ("swim", clone, 0),
            ("swim", clone, 1),
        ]


class TestWarmupCLIFix:
    def test_settings_from_args_preserves_env_warmup(self, monkeypatch):
        from repro.experiments.__main__ import _build_parser, _settings_from_args

        monkeypatch.setenv("REPRO_WARMUP", "12345")
        args = _build_parser().parse_args(["fig8"])
        assert _settings_from_args(args).warmup_instructions == 12345

    def test_warmup_flag_overrides_env(self, monkeypatch):
        from repro.experiments.__main__ import _build_parser, _settings_from_args

        monkeypatch.setenv("REPRO_WARMUP", "12345")
        args = _build_parser().parse_args(["fig8", "--warmup", "777"])
        assert _settings_from_args(args).warmup_instructions == 777


class TestCLICampaign:
    def test_second_invocation_executes_zero_simulations(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        argv = [
            "fig3",
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--store",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "simulations executed=6" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "simulations executed=0" in second.err
        # Figure output is bit-identical when read back from the store.
        assert first.out == second.out

    def test_summary_prints_for_a_disk_store(self, tmp_path, capsys):
        # An analytical-only run simulates nothing, yet a disk-backed
        # store still gets its summary line.
        from repro.experiments.__main__ import main

        argv = ["fig3", "--store", str(tmp_path)]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[campaign] simulations executed=0 " in err
        assert f"store={tmp_path}" in err

    def test_store_and_no_store_conflict(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig3", "--store", str(tmp_path), "--no-store"])
        assert "not allowed with" in capsys.readouterr().err

    def test_no_store_forces_memory(self, tmp_path, capsys, monkeypatch):
        from repro.experiments.__main__ import main

        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        argv = [
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--no-store",
        ]
        assert main(argv) == 0
        assert "store=memory" in capsys.readouterr().err
        assert not (tmp_path / "results.jsonl").exists()


def _pending(session: Session, configs) -> list:
    """The plan's pending tasks for ``configs``, in plan order."""
    plan = session.plan(session.spec(configs))
    return [item.task for group in plan.groups for item in group.items]


def _fields(settings: RunnerSettings) -> dict:
    return dataclasses.asdict(settings)
