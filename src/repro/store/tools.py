"""Operator tooling for campaign stores: verify, repair, compact, migrate.

Exposed as ``python -m repro.experiments store <command>`` (and
``python -m repro.store <command>``)::

    store verify  DIR [--backend B]    # scan + report damage; exit 1 if any
    store repair  DIR [--backend B]    # drop damaged records, upgrade legacy
    store compact DIR [--backend B]    # rewrite without duplicates/damage
    store migrate DIR --to B [--dest DIR2] [--backend B]
    store merge   DIR --from ROOT      # fold per-worker partitions into DIR

``verify`` classifies every stored record (see
:class:`~repro.store.base.StoreHealth`): duplicates, checksum failures,
stale schema epochs, undecodable bytes, legacy v1 records.  All damage
is *contained* — the affected records are never served — so verify's
exit status is about whether a ``repair`` would change anything.

``repair`` is an atomic rewrite keeping exactly the readable records
(the jsonl log via temp file + rename; the sqlite backend deletes its
unreadable rows and vacuums), upgrading legacy v1 records to the checksummed
format.  ``compact`` is the same rewrite invoked for space (duplicate
collapse) rather than damage.

``migrate`` copies every readable record into a store of another
backend and verifies the copy key-by-key before reporting success.  The
record checksum is computed over backend-independent canonical JSON, so
a lossless migration preserves every checksum.  Migrating in place
(no ``--dest``) lays the new backend's files alongside the old ones;
backend auto-detection prefers sqlite > jsonl > sharded precisely so
the migrated store wins on the next open.

A sharded store is read-only: ``verify`` and ``migrate`` read it, while
``repair``, ``compact`` and ``merge`` into it exit 2 with the hint to
``migrate DIR --to jsonl`` first.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from repro.store.base import ResultStore
from repro.store.sharded import ReadOnlyStoreError, ShardedDiskStore, read_only_error


def _open(directory: str, backend: "str | None"):
    # Deferred import: repro.store imports this module's siblings.
    from repro.store import open_store

    return open_store(directory, backend=backend)


def _backend_name(store: ResultStore) -> str:
    from repro.store import DiskStore, SqliteStore

    if isinstance(store, SqliteStore):
        return "sqlite"
    if isinstance(store, ShardedDiskStore):
        return "sharded"
    if isinstance(store, DiskStore):
        return "jsonl"
    return "memory"


def _open_reporting(directory: str, backend: "str | None") -> ResultStore:
    """Open the store with duplicate-warnings folded into stdout (the
    operator asked for a report; route everything to one place)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = _open(directory, backend)
    for warning in caught:
        print(f"note: {warning.message}")
    return store


def _open_writable(directory: str, backend: "str | None") -> ResultStore:
    """:func:`_open_reporting` for the commands that rewrite a store; a
    read-only (sharded) store raises its migrate hint instead."""
    store = _open_reporting(directory, backend)
    if isinstance(store, ShardedDiskStore):
        raise read_only_error(store.directory)
    return store


def cmd_verify(args: argparse.Namespace) -> int:
    with _open_reporting(args.directory, args.backend) as store:
        health = store.health()
        print(f"{_backend_name(store)} store at {store.description}")
        print(f"verify: {health.describe()}")
        if health.damaged:
            print("verify: DAMAGED — run `store repair` to rewrite without "
                  "the damaged records")
            return 1
        if health.legacy:
            print("verify: clean (legacy v1 records present; `store repair` "
                  "upgrades them to the checksummed format)")
        else:
            print("verify: clean")
        return 0


def cmd_repair(args: argparse.Namespace) -> int:
    with _open_writable(args.directory, args.backend) as store:
        before = store.health()
        print(f"{_backend_name(store)} store at {store.description}")
        print(f"before: {before.describe()}")
        if not before.damaged and not before.legacy:
            print("repair: nothing to do")
            return 0
        removed = store.compact()
        print(f"repair: dropped {removed} damaged/duplicate record(s), "
              f"kept {len(store)}"
              + (f", upgraded {before.legacy} legacy record(s)"
                 if before.legacy else ""))
    # Re-open and prove the rewrite healed everything it could.
    with _open(args.directory, args.backend) as store:
        after = store.health()
        print(f"after: {after.describe()}")
        if after.damaged:
            print("repair: residual damage after rewrite (is another writer "
                  "racing this directory?)")
            return 1
        return 0


def cmd_compact(args: argparse.Namespace) -> int:
    with _open_writable(args.directory, args.backend) as store:
        removed = store.compact()
        print(f"{_backend_name(store)} store at {store.description}")
        print(f"compact: removed {removed} line(s)/row(s), kept {len(store)}")
        return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    from repro.store import detect_backend, open_store

    dest = args.dest or args.directory
    same_dir = os.path.abspath(dest) == os.path.abspath(args.directory)
    if same_dir and (args.backend or detect_backend(args.directory)) == args.to:
        print(f"migrate: {args.directory} already resolves to backend "
              f"{args.to!r}; nothing to do")
        return 1
    with _open_reporting(args.directory, args.backend) as src:
        src_name = _backend_name(src)
        if same_dir and src_name == args.to:
            print(f"migrate: source already is backend {args.to!r}; "
                  "nothing to do")
            return 1
        with open_store(dest, backend=args.to) as dst:
            moved = 0
            for key in src.keys():
                dst.put(key, src.get(key))
                moved += 1
            # Prove losslessness before claiming success: every source
            # record must read back identically from the destination.
            missing = sum(1 for key in src.keys() if dst.get(key) != src.get(key))
        print(f"migrate: {src_name} -> {args.to}: copied {moved} record(s) "
              f"from {src.description} to {dest}")
        if missing:
            print(f"migrate: FAILED verification — {missing} record(s) did "
                  "not read back identically")
            return 1
        print("migrate: verified — every record reads back identically")
        if same_dir:
            print(f"migrate: old {src_name} files left in place; "
                  "auto-detection now resolves "
                  f"{args.directory} to {detect_backend(args.directory)}")
        return 0


# --------------------------------------------------------------------------
# Partition merging (the DistributedExecutor's drain step)
# --------------------------------------------------------------------------

def partition_dirs(root: "str | os.PathLike") -> "list[str]":
    """Sorted store directories directly under ``root`` — the per-worker
    partitions a :class:`~repro.service.distributed.DistributedExecutor`
    campaign leaves behind.  Only subdirectories whose files actually
    detect as a store backend count; stray directories are ignored."""
    from repro.store import detect_backend

    root = os.fspath(root)
    if not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isdir(path) and detect_backend(path) is not None:
            found.append(path)
    return found


def load_partitions(
    root: "str | os.PathLike", backend: "str | None" = None
) -> dict:
    """Union key -> result map over every partition store under ``root``.

    Workers are deterministic — a key appearing in more than one
    partition (a chunk retried after a crash landed on another worker)
    carries an identical result, so the union is order-independent; the
    first partition's copy wins for definiteness."""
    merged: dict = {}
    for path in partition_dirs(root):
        with _open(path, backend) as store:
            for key in store.keys():
                if key not in merged:
                    merged[key] = store.get(key)
    return merged


def merge_stores(dest: ResultStore, sources) -> int:
    """Copy every record of ``sources`` (stores, or directories to open)
    into ``dest``, skipping keys ``dest`` already holds (re-putting an
    existing key is a harmless identical overwrite — skipping merely
    saves the writes).  Returns the number of records copied."""
    copied = 0
    for source in sources:
        opened = None
        if not isinstance(source, ResultStore):
            opened = _open(os.fspath(source), None)
            source = opened
        try:
            for key in source.keys():
                if key not in dest:
                    dest.put(key, source.get(key))
                    copied += 1
        finally:
            if opened is not None:
                opened.close()
    return copied


def cmd_merge(args: argparse.Namespace) -> int:
    partitions = partition_dirs(args.source_root)
    if not partitions:
        print(f"merge: no partition stores under {args.source_root}")
        return 1
    with _open_writable(args.directory, args.backend) as dest:
        before = len(dest)
        copied = merge_stores(dest, partitions)
        print(f"{_backend_name(dest)} store at {dest.description}")
        print(
            f"merge: folded {len(partitions)} partition(s), copied {copied} "
            f"record(s) ({before} already present, {len(dest)} total)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Verify, repair, compact, or migrate a campaign result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("directory", help="campaign store directory")
        p.add_argument(
            "--backend",
            choices=("auto", "jsonl", "sharded", "sqlite"),
            default=None,
            help="force a backend (default: auto-detect from the directory)",
        )

    p = sub.add_parser(
        "verify",
        help="scan every record; report damage; exit 1 if repair would change anything",
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "repair",
        help="atomically rewrite the store keeping exactly the readable records",
    )
    common(p)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser(
        "compact",
        help="rewrite without duplicate/damaged lines (space reclamation)",
    )
    common(p)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser(
        "migrate",
        help="copy every record into another backend and verify the copy",
    )
    common(p)
    p.add_argument(
        "--to",
        required=True,
        choices=("jsonl", "sqlite"),
        help="destination backend",
    )
    p.add_argument(
        "--dest",
        default=None,
        help="destination directory (default: alongside the source, in place)",
    )
    p.set_defaults(func=cmd_migrate)

    p = sub.add_parser(
        "merge",
        help="fold every per-worker partition store under --from into DIR",
    )
    common(p)
    p.add_argument(
        "--from",
        dest="source_root",
        required=True,
        metavar="ROOT",
        help="directory whose store-bearing subdirectories are the partitions",
    )
    p.set_defaults(func=cmd_merge)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.backend == "auto":
        args.backend = None
    try:
        return args.func(args)
    except ReadOnlyStoreError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
