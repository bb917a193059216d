"""Operator tooling: store verify / repair / compact / migrate / merge.

Exercises the CLI exactly as an operator would — through ``main(argv)``
and through the ``python -m repro.experiments store`` dispatch — against
real damaged directories, asserting exit codes, report text, and the
on-disk outcome (repair heals, migrate folds a legacy layout into the
log losslessly and verifies it, merge copies only what the destination
lacks, a read-only legacy store refuses every rewrite with the migrate
hint, and a directory holding no store is refused untouched).
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.store import (
    RESULTS_FILENAME,
    SQLITE_FILENAME,
    DiskStore,
    detect_backend,
    open_store,
)
from repro.store.format import RECORD_SCHEMA_VERSION
from repro.store.tools import main

from store_helpers import (
    LEGACY_WRITERS,
    fill,
    make_key,
    make_result,
    stored_bytes,
    write_sqlite,
)


@pytest.fixture(params=sorted(LEGACY_WRITERS))
def layout(request) -> str:
    return request.param


def sorted_log_lines(directory) -> list:
    return sorted((directory / RESULTS_FILENAME).read_text().splitlines())


@pytest.fixture
def damaged_dir(tmp_path):
    """A jsonl store with one of each damage class plus a duplicate."""
    with open_store(str(tmp_path)) as store:
        pairs = fill(store, 6)
    path = tmp_path / RESULTS_FILENAME
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace('"instructions": 1000', '"instructions": 1001')
    entry = json.loads(lines[1])
    entry["schema"] = RECORD_SCHEMA_VERSION + 1
    lines[1] = json.dumps(entry)
    lines.append("garbage")
    lines.append(lines[2])  # duplicate
    path.write_text("\n".join(lines) + "\n")
    return tmp_path, pairs


class TestVerify:
    def test_clean_store_exits_zero(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            fill(store, 3)
        assert main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "jsonl store" in out
        assert "verify: clean" in out

    def test_damaged_store_exits_one(self, damaged_dir, capsys):
        directory, _ = damaged_dir
        assert main(["verify", str(directory)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "corrupt=1" in out and "stale=1" in out and "malformed=1" in out
        assert "note:" in out  # the duplicate warning, folded into the report

    def test_legacy_store_is_clean_but_flagged(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            fill(store, 2)
        path = tmp_path / RESULTS_FILENAME
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text(
            "\n".join(
                json.dumps({"key": e["key"], "result": e["result"]})
                for e in entries
            )
            + "\n"
        )
        assert main(["verify", str(tmp_path)]) == 0
        assert "legacy v1" in capsys.readouterr().out

    @staticmethod
    def _torn_log(directory) -> "tuple[list, bytes]":
        """A 3-record log whose last record lost its newline."""
        with open_store(str(directory)) as store:
            pairs = fill(store, 3)
        path = directory / RESULTS_FILENAME
        path.write_bytes(path.read_bytes()[:-1])
        return pairs, path.read_bytes()

    def test_verify_writes_nothing_to_a_torn_tail(self, tmp_path, capsys):
        """The newline-less record decodes, so the log verifies clean,
        and verify leaves every byte as it found it."""
        _, torn = self._torn_log(tmp_path)
        assert main(["verify", str(tmp_path)]) == 0
        assert "verify: clean" in capsys.readouterr().out
        assert (tmp_path / RESULTS_FILENAME).read_bytes() == torn

    def test_the_first_put_terminates_a_torn_tail(self, tmp_path):
        """Opening the store writes nothing; its first put terminates the
        torn line before appending, and all four records read back."""
        pairs, torn = self._torn_log(tmp_path)
        path = tmp_path / RESULTS_FILENAME
        with open_store(str(tmp_path)) as store:
            assert path.read_bytes() == torn
            store.put(make_key(3), make_result(3))
        assert path.read_bytes().startswith(torn + b"\n")
        with open_store(str(tmp_path)) as store:
            assert not store.health().damaged
            assert len(store) == 4
            for key, result in [*pairs, (make_key(3), make_result(3))]:
                assert store.get(key) == result


class TestRepair:
    def test_repair_heals_then_verify_is_clean(self, damaged_dir, capsys):
        directory, pairs = damaged_dir
        assert main(["repair", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "dropped 4" in out  # corrupt + stale + malformed + duplicate
        assert main(["verify", str(directory)]) == 0
        assert "verify: clean" in capsys.readouterr().out
        with open_store(str(directory)) as store:
            # The corrupt and stale records are gone; the rest survived.
            assert store.get(pairs[0][0]) is None
            assert store.get(pairs[1][0]) is None
            for key, result in pairs[2:]:
                assert store.get(key) == result

    def test_repair_clean_store_is_noop(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            fill(store, 4)
        before = (tmp_path / RESULTS_FILENAME).stat().st_mtime_ns
        assert main(["repair", str(tmp_path)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert (tmp_path / RESULTS_FILENAME).stat().st_mtime_ns == before

    def test_repair_upgrades_legacy(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            pairs = fill(store, 2)
        path = tmp_path / RESULTS_FILENAME
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text(
            "\n".join(
                json.dumps({"key": e["key"], "result": e["result"]})
                for e in entries
            )
            + "\n"
        )
        assert main(["repair", str(tmp_path)]) == 0
        assert "upgraded 2 legacy record(s)" in capsys.readouterr().out
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == RECORD_SCHEMA_VERSION
        with open_store(str(tmp_path)) as store:
            for key, result in pairs:
                assert store.get(key) == result


class TestCompact:
    def test_compact_collapses_duplicates(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            fill(store, 3)
            store.put(make_key(0), make_result(0))  # duplicate line
        assert main(["compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out and "kept 3" in out
        assert len((tmp_path / RESULTS_FILENAME).read_text().splitlines()) == 3


class TestNoStore:
    """Every command but ``merge`` refuses a directory holding no store
    and creates nothing."""

    @pytest.mark.parametrize("command", ["verify", "repair", "compact", "migrate"])
    def test_a_missing_directory_is_refused(self, tmp_path, capsys, command):
        missing = tmp_path / "nope"
        assert main([command, str(missing)]) == 2
        assert f"{command}: no store at {missing}" in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command", ["verify", "repair", "compact", "migrate"])
    def test_an_empty_directory_is_refused_untouched(self, tmp_path, capsys, command):
        (tmp_path / "stray").mkdir()  # not a store
        assert main([command, str(tmp_path)]) == 2
        assert f"no store at {tmp_path}" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["stray"]

    def test_migrate_dest_is_not_created_for_a_missing_source(self, tmp_path):
        dest = tmp_path / "dest"
        assert main(["migrate", str(tmp_path / "nope"), "--dest", str(dest)]) == 2
        assert not dest.exists()


class TestMigrate:
    @pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "dest"])
    def test_migration_is_lossless_and_verified(
        self, tmp_path, capsys, records, layout, in_place
    ):
        """A legacy store's migrated log equals, line for line, a log
        written directly with the same records."""
        direct = tmp_path / "direct"
        with DiskStore(direct) as log:
            for key, result in records:
                log.put(key, result)
        source = tmp_path / "src"
        LEGACY_WRITERS[layout](source, records)
        dest = source if in_place else tmp_path / "dst"
        argv = ["migrate", str(source)] + ([] if in_place else ["--dest", str(dest)])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"{layout} -> jsonl: copied {len(records)} record(s)" in out
        assert "verified — every record reads back identically" in out
        assert sorted_log_lines(dest) == sorted_log_lines(direct)
        assert detect_backend(dest) == "jsonl"
        if not in_place:
            assert detect_backend(source) == layout

    def test_in_place_migration_resolves_jsonl(self, tmp_path, capsys, records, layout):
        LEGACY_WRITERS[layout](tmp_path, records)
        legacy_bytes = stored_bytes(tmp_path)
        assert main(["migrate", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"auto-detection now resolves {tmp_path} to jsonl" in out
        assert detect_backend(tmp_path) == "jsonl"
        with open_store(str(tmp_path)) as store:
            assert type(store) is DiskStore
            assert sorted(store.keys()) == sorted(k for k, _ in records)
            for key, result in records:
                assert store.get(key) == result
        # The legacy files stay as they were.
        after = stored_bytes(tmp_path)
        assert {name: after[name] for name in legacy_bytes} == legacy_bytes
        # A rerun finds every key already in the log.
        assert main(["migrate", str(tmp_path)]) == 0
        assert f"copied 0 record(s) ({len(records)} already in the log)" in (
            capsys.readouterr().out
        )

    def test_only_the_keys_the_log_lacks_migrate(
        self, tmp_path, capsys, records, layout
    ):
        """A directory holding both a log and a legacy layout — one an
        earlier build migrated jsonl -> sqlite in place, then wrote on —
        folds in only the legacy records the log lacks."""
        LEGACY_WRITERS[layout](tmp_path, records[:8])
        with DiskStore(tmp_path) as log:
            for key, result in records[4:]:
                log.put(key, result)
        lines_before = (tmp_path / RESULTS_FILENAME).read_text().splitlines()
        assert main(["migrate", str(tmp_path)]) == 0
        assert "copied 4 record(s) (4 already in the log)" in capsys.readouterr().out
        lines = (tmp_path / RESULTS_FILENAME).read_text().splitlines()
        assert lines[: len(lines_before)] == lines_before
        assert len(lines) == len(records)
        with open_store(str(tmp_path)) as store:
            assert {k: store.get(k) for k in store.keys()} == dict(records)

    def test_an_empty_legacy_store_migrates_to_an_empty_log(self, tmp_path, layout):
        LEGACY_WRITERS[layout](tmp_path, [])
        assert detect_backend(tmp_path) == layout
        assert main(["migrate", str(tmp_path)]) == 0
        assert detect_backend(tmp_path) == "jsonl"
        assert (tmp_path / RESULTS_FILENAME).read_bytes() == b""

    def test_same_backend_in_place_is_refused(self, tmp_path, capsys):
        with open_store(str(tmp_path)) as store:
            fill(store, 2)
        assert main(["migrate", str(tmp_path)]) == 1
        assert "nothing to do" in capsys.readouterr().out

    def test_migrate_skips_damaged_records(self, tmp_path, capsys):
        pairs = [(make_key(i), make_result(i)) for i in range(6)]
        write_sqlite(tmp_path, pairs)
        conn = sqlite3.connect(tmp_path / SQLITE_FILENAME)
        with conn:
            conn.execute(
                "UPDATE results SET payload = replace(payload, '1000', '1001') "
                "WHERE key = ?",
                (pairs[0][0],),
            )
            conn.execute(
                "UPDATE results SET schema = ? WHERE key = ?",
                (RECORD_SCHEMA_VERSION + 1, pairs[1][0]),
            )
            conn.execute(
                "UPDATE results SET payload = 'garbage' WHERE key = ?", (pairs[2][0],)
            )
        conn.close()
        dest = tmp_path / "migrated"
        assert main(["migrate", str(tmp_path), "--dest", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "corrupt=1 stale=1 malformed=1" in out
        assert "copied 3 record(s)" in out  # 6 - corrupt - stale - malformed
        with open_store(str(dest)) as migrated:
            assert not migrated.health().damaged
            assert sorted(migrated.keys()) == sorted(k for k, _ in pairs[3:])


class TestReadOnlyLegacy:
    """Verify reads a legacy store; every write exits 2 with the hint."""

    def test_verify_reports_clean(self, tmp_path, capsys, records, layout):
        LEGACY_WRITERS[layout](tmp_path, records)
        assert main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"{layout} store" in out and "read-only" in out
        assert f"{len(records)} record(s)" in out
        assert "verify: clean" in out

    @pytest.mark.parametrize("command", ["repair", "compact"])
    def test_rewrites_fail_with_the_migrate_hint(
        self, tmp_path, capsys, records, layout, command
    ):
        LEGACY_WRITERS[layout](tmp_path, records)
        before = stored_bytes(tmp_path)
        assert main([command, str(tmp_path)]) == 2
        assert f"store migrate {tmp_path}`" in capsys.readouterr().err
        assert stored_bytes(tmp_path) == before

    def test_merge_into_a_legacy_store_fails_with_the_migrate_hint(
        self, tmp_path, capsys, records, layout
    ):
        store_dir = tmp_path / "store"
        LEGACY_WRITERS[layout](store_dir, records)
        with open_store(str(tmp_path / "parts" / "worker-0-1")) as part:
            part.put(make_key(99), make_result(99))
        assert main(
            ["merge", str(store_dir), "--from", str(tmp_path / "parts")]
        ) == 2
        assert f"store migrate {store_dir}`" in capsys.readouterr().err
        assert not (store_dir / RESULTS_FILENAME).exists()

    def test_campaign_needing_a_write_exits_2_with_the_hint(
        self, tmp_path, capsys, records, layout
    ):
        from repro.experiments.__main__ import main as experiments_main

        LEGACY_WRITERS[layout](tmp_path, records)
        argv = ["fig8", "--instructions", "1000", "--maps", "1",
                "--benchmarks", "gzip", "--store", str(tmp_path)]
        assert experiments_main(argv) == 2
        assert f"store migrate {tmp_path}`" in capsys.readouterr().err

    def test_campaign_of_store_hits_reads_a_legacy_store(
        self, tmp_path, capsys, layout
    ):
        """A campaign whose every point a legacy store holds renders the
        same figures from it, simulating nothing."""
        from repro.experiments.__main__ import main as experiments_main

        argv = ["fig8", "--instructions", "1000", "--maps", "1",
                "--benchmarks", "gzip", "--store"]
        assert experiments_main(argv + [str(tmp_path / "log")]) == 0
        first = capsys.readouterr()
        with open_store(str(tmp_path / "log")) as log:
            pairs = [(key, log.get(key)) for key in log.keys()]
        LEGACY_WRITERS[layout](tmp_path / "legacy", pairs)
        assert experiments_main(argv + [str(tmp_path / "legacy")]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "simulations executed=0 " in second.err
        assert f"({layout}, read-only) entries={len(pairs)}" in second.err


class TestMerge:
    """``store merge DIR --from ROOT`` folds every store directly under
    ROOT — here one jsonl log and one legacy sqlite store, as separate
    hosts would leave them — into DIR."""

    @pytest.fixture
    def root(self, tmp_path, records):
        root = tmp_path / "hosts"
        with open_store(str(root / "a")) as store:
            for key, result in records[:8]:
                store.put(key, result)
        write_sqlite(root / "b", records[4:])
        (root / "stray").mkdir()  # no store files: not a source
        return root

    def test_merge_stores_copies_only_missing(self, tmp_path, root, records):
        from repro.store.tools import merge_stores, store_dirs

        sources = store_dirs(str(root))
        assert sources == [str(root / "a"), str(root / "b")]
        with open_store(str(tmp_path / "dest")) as dest:
            dest.put(*records[0])  # already present
            copied = sum(merge_stores(dest, open_store(path)) for path in sources)
            assert copied == len(records) - 1
            assert {key: dest.get(key) for key in dest.keys()} == dict(records)

    def test_store_merge_cli_folds_every_store_under_root(
        self, tmp_path, root, records, capsys
    ):
        dest = tmp_path / "campaign"
        with open_store(str(dest)) as store:
            store.put(*records[0])
        assert main(["merge", str(dest), "--from", str(root)]) == 0
        out = capsys.readouterr().out
        assert "folded 2 store(s)" in out
        assert f"copied {len(records) - 1} record(s)" in out
        with open_store(str(dest)) as merged:
            assert {key: merged.get(key) for key in merged.keys()} == dict(records)
        assert main(["verify", str(dest)]) == 0

    def test_store_merge_cli_with_no_stores_fails(self, tmp_path, capsys):
        (tmp_path / "empty" / "stray").mkdir(parents=True)
        code = main(
            ["merge", str(tmp_path / "dest"), "--from", str(tmp_path / "empty")]
        )
        assert code == 1
        assert "no stores under" in capsys.readouterr().out


class TestExperimentsDispatch:
    def test_store_subcommand_routes_from_experiments_cli(self, tmp_path, capsys):
        from repro.experiments.__main__ import main as experiments_main

        with open_store(str(tmp_path)) as store:
            fill(store, 2)
        assert experiments_main(["store", "verify", str(tmp_path)]) == 0
        assert "verify: clean" in capsys.readouterr().out

    def test_module_entrypoint_exists(self):
        import repro.store.__main__  # noqa: F401  (importable = runnable)
