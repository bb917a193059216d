"""Operator tooling: store verify / repair / compact / migrate / merge.

Exercises the CLI exactly as an operator would — through ``main(argv)``
and through the ``python -m repro.experiments store`` dispatch — against
real damaged directories, asserting exit codes, report text, and the
on-disk outcome (repair heals, migrate is lossless and verified, merge
copies only what the destination lacks, a read-only sharded store
refuses every rewrite with the migrate hint).
"""

from __future__ import annotations

import json

import pytest

from repro.store import RESULTS_FILENAME, DiskStore, detect_backend, open_store
from repro.store.format import RECORD_SCHEMA_VERSION
from repro.store.tools import main

from store_helpers import fill, make_key, make_result, write_sharded


@pytest.fixture
def damaged_dir(tmp_path):
    """A jsonl store with one of each damage class plus a duplicate."""
    with open_store(str(tmp_path), backend="jsonl") as store:
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
        with open_store(str(tmp_path), backend="jsonl") as store:
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
        with open_store(str(tmp_path), backend="jsonl") as store:
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

    def test_backend_flag_forces_backend(self, tmp_path, capsys):
        with open_store(str(tmp_path), backend="sqlite") as store:
            fill(store, 2)
        assert main(["verify", str(tmp_path), "--backend", "sqlite"]) == 0
        assert "sqlite store" in capsys.readouterr().out


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
        with open_store(str(tmp_path), backend="jsonl") as store:
            fill(store, 4)
        before = (tmp_path / RESULTS_FILENAME).stat().st_mtime_ns
        assert main(["repair", str(tmp_path)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert (tmp_path / RESULTS_FILENAME).stat().st_mtime_ns == before

    def test_repair_upgrades_legacy(self, tmp_path, capsys):
        with open_store(str(tmp_path), backend="jsonl") as store:
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
        with open_store(str(tmp_path), backend="jsonl") as store:
            fill(store, 3)
            store.put(make_key(0), make_result(0))  # duplicate line
        assert main(["compact", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out and "kept 3" in out
        assert len((tmp_path / RESULTS_FILENAME).read_text().splitlines()) == 3


class TestMigrate:
    @pytest.mark.parametrize(
        "src,dst", [("jsonl", "sqlite"), ("sharded", "sqlite"),
                    ("sqlite", "jsonl"), ("sharded", "jsonl")]
    )
    def test_migration_is_lossless_and_verified(self, tmp_path, capsys, src, dst):
        source = tmp_path / "src"
        dest = tmp_path / "dst"
        pairs = [(make_key(i), make_result(i)) for i in range(8)]
        if src == "sharded":
            write_sharded(source, pairs)
        else:
            with open_store(str(source), backend=src) as store:
                fill(store, 8)
        assert main(
            ["migrate", str(source), "--to", dst, "--dest", str(dest)]
        ) == 0
        out = capsys.readouterr().out
        assert f"{src} -> {dst}: copied 8 record(s)" in out
        assert "verified — every record reads back identically" in out
        with open_store(str(dest)) as migrated:
            assert sorted(migrated.keys()) == sorted(k for k, _ in pairs)
            for key, result in pairs:
                assert migrated.get(key) == result

    def test_in_place_migration_wins_auto_detection(self, tmp_path, capsys):
        with open_store(str(tmp_path), backend="jsonl") as store:
            pairs = fill(store, 5)
        assert main(["migrate", str(tmp_path), "--to", "sqlite"]) == 0
        assert "auto-detection now resolves" in capsys.readouterr().out
        with open_store(str(tmp_path)) as store:  # auto-detects sqlite now
            assert type(store).__name__ == "SqliteStore"
            for key, result in pairs:
                assert store.get(key) == result

    def test_in_place_migration_out_of_sharded_resolves_jsonl(
        self, tmp_path, capsys, records
    ):
        write_sharded(tmp_path, records)
        assert main(["migrate", str(tmp_path), "--to", "jsonl"]) == 0
        out = capsys.readouterr().out
        assert f"auto-detection now resolves {tmp_path} to jsonl" in out
        assert detect_backend(tmp_path) == "jsonl"
        with open_store(str(tmp_path)) as store:
            assert type(store) is DiskStore
            assert sorted(store.keys()) == sorted(k for k, _ in records)
            for key, result in records:
                assert store.get(key) == result
        # A rerun finds the directory already migrated.
        assert main(["migrate", str(tmp_path), "--to", "jsonl"]) == 1
        assert "nothing to do" in capsys.readouterr().out

    def test_sharded_is_not_a_destination(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["migrate", str(tmp_path), "--to", "sharded"])
        assert "invalid choice" in capsys.readouterr().err

    def test_round_trip_jsonl_sqlite_jsonl_is_byte_stable(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        with open_store(str(a), backend="jsonl") as store:
            fill(store, 8)
        assert main(["migrate", str(a), "--to", "sqlite", "--dest", str(b)]) == 0
        assert main(["migrate", str(b), "--to", "jsonl", "--dest", str(c)]) == 0
        first = sorted((a / RESULTS_FILENAME).read_text().splitlines())
        final = sorted((c / RESULTS_FILENAME).read_text().splitlines())
        assert first == final  # checksums and all — byte-identical records

    def test_same_backend_in_place_is_refused(self, tmp_path, capsys):
        with open_store(str(tmp_path), backend="jsonl") as store:
            fill(store, 2)
        assert main(["migrate", str(tmp_path), "--to", "jsonl"]) == 1
        assert "nothing to do" in capsys.readouterr().out

    def test_migrate_skips_damaged_records(self, damaged_dir, capsys):
        directory, pairs = damaged_dir
        dest = directory / "migrated"
        assert main(
            ["migrate", str(directory), "--to", "sqlite", "--dest", str(dest)]
        ) == 0
        out = capsys.readouterr().out
        assert "copied 4 record(s)" in out  # 6 - corrupt - stale
        with open_store(str(dest)) as migrated:
            assert not migrated.health().damaged
            assert migrated.get(pairs[0][0]) is None


class TestReadOnlySharded:
    """Verify reads a sharded store; every rewrite fails with the hint."""

    def test_verify_reports_clean(self, tmp_path, capsys, records):
        write_sharded(tmp_path, records)
        assert main(["verify", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sharded store" in out and "read-only" in out
        assert f"{len(records)} record(s)" in out
        assert "verify: clean" in out

    @pytest.mark.parametrize("command", ["repair", "compact"])
    def test_rewrites_fail_with_the_migrate_hint(
        self, tmp_path, capsys, records, command
    ):
        write_sharded(tmp_path, records)
        shards = tmp_path / "shards"
        before = {p.name: p.read_bytes() for p in shards.iterdir()}
        assert main([command, str(tmp_path)]) == 2
        assert f"store migrate {tmp_path} --to jsonl" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in shards.iterdir()} == before

    def test_merge_into_sharded_fails_with_the_migrate_hint(
        self, tmp_path, capsys, records
    ):
        store_dir = tmp_path / "store"
        write_sharded(store_dir, records)
        with open_store(str(tmp_path / "parts" / "worker-0-1"), backend="jsonl") as part:
            part.put(make_key(99), make_result(99))
        assert main(
            ["merge", str(store_dir), "--from", str(tmp_path / "parts")]
        ) == 2
        assert "--to jsonl" in capsys.readouterr().err
        assert not (store_dir / RESULTS_FILENAME).exists()


    def test_campaign_needing_a_write_exits_2_with_the_hint(
        self, tmp_path, capsys, records
    ):
        from repro.experiments.__main__ import main as experiments_main

        write_sharded(tmp_path, records)
        argv = ["fig8", "--instructions", "1000", "--maps", "1",
                "--benchmarks", "gzip", "--store", str(tmp_path)]
        assert experiments_main(argv) == 2
        assert f"store migrate {tmp_path} --to jsonl" in capsys.readouterr().err


class TestMerge:
    """``store merge DIR --from ROOT`` folds every store directly under
    ROOT — here one jsonl and one sqlite store, as separate hosts would
    leave them — into DIR."""

    @pytest.fixture
    def root(self, tmp_path, records):
        root = tmp_path / "hosts"
        with open_store(str(root / "a"), backend="jsonl") as store:
            for key, result in records[:8]:
                store.put(key, result)
        with open_store(str(root / "b"), backend="sqlite") as store:
            for key, result in records[4:]:
                store.put(key, result)
        (root / "stray").mkdir()  # no store files: not a source
        return root

    def test_merge_stores_copies_only_missing(self, tmp_path, root, records):
        from repro.store.tools import merge_stores, store_dirs

        sources = store_dirs(str(root))
        assert sources == [str(root / "a"), str(root / "b")]
        with open_store(str(tmp_path / "dest"), backend="jsonl") as dest:
            dest.put(*records[0])  # already present
            copied = merge_stores(dest, sources)
            assert copied == len(records) - 1
            assert {key: dest.get(key) for key in dest.keys()} == dict(records)

    def test_store_merge_cli_folds_every_store_under_root(
        self, tmp_path, root, records, capsys
    ):
        dest = tmp_path / "campaign"
        with open_store(str(dest), backend="jsonl") as store:
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

        with open_store(str(tmp_path), backend="jsonl") as store:
            fill(store, 2)
        assert experiments_main(["store", "verify", str(tmp_path)]) == 0
        assert "verify: clean" in capsys.readouterr().out

    def test_module_entrypoint_exists(self):
        import repro.store.__main__  # noqa: F401  (importable = runnable)
