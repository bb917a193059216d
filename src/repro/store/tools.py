"""Operator tooling for campaign stores: verify, repair, compact, migrate, merge.

Exposed as ``python -m repro.experiments store <command>`` (and
``python -m repro.store <command>``)::

    store verify  DIR                  # scan + report damage; exit 1 if any
    store repair  DIR                  # drop damaged records, upgrade legacy
    store compact DIR                  # rewrite without duplicates/damage
    store migrate DIR [--dest DIR2]    # fold a legacy layout into a jsonl log
    store merge   DIR --from ROOT      # fold every store under ROOT into DIR

Every command but ``merge`` needs a store at ``DIR``: a directory that
holds none exits 2 with ``no store at DIR`` and nothing is created.

``verify`` classifies every stored record (see
:class:`~repro.store.base.StoreHealth`): duplicates, checksum failures,
stale schema epochs, undecodable bytes, legacy v1 records.  All damage
is *contained* — the affected records are never served — so verify's
exit status is about whether a ``repair`` would change anything.

``repair`` is an atomic rewrite of the jsonl log (temp file + rename)
keeping exactly the readable records, upgrading legacy v1 records to the
checksummed format.  ``compact`` is the same rewrite invoked for space
(duplicate collapse) rather than damage.

``migrate`` folds every readable record of ``DIR``'s legacy layout (an
earlier build's ``results.sqlite``, else its ``shards/``) that the jsonl
log lacks into the log — ``DIR``'s own, or ``--dest``'s — then reads the
log back and checks every key against the source before reporting
success.  The record checksum does not depend on the layout that stored
it, so migration preserves every checksum.  The legacy files stay in
place; the log wins auto-detection from then on.

A legacy layout is read-only: ``verify`` and ``migrate`` read it, while
``repair``, ``compact`` and ``merge`` into it exit 2 with the hint to
``migrate DIR`` first.

``merge`` copies into ``DIR`` every record it lacks from each store
directly under ``ROOT`` — the way to fold stores written on separate
hosts into one campaign directory.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from repro.store import DiskStore, ResultStore, detect_backend, open_store
from repro.store.jsonl import JsonlLog
from repro.store.legacy import (
    LEGACY_READERS,
    LegacyStore,
    ReadOnlyStoreError,
    legacy_layout,
    read_only_error,
)


def _backend_name(store: ResultStore) -> str:
    return store.layout if isinstance(store, LegacyStore) else "jsonl"


def _open_reporting(directory: str) -> ResultStore:
    """Open the store with duplicate-warnings folded into stdout (the
    operator asked for a report; route everything to one place)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        store = open_store(directory)
    for warning in caught:
        print(f"note: {warning.message}")
    return store


def _open_writable(directory: str) -> ResultStore:
    """:func:`_open_reporting` for the commands that rewrite a store; a
    read-only legacy store raises its migrate hint instead."""
    store = _open_reporting(directory)
    if isinstance(store, LegacyStore):
        raise read_only_error(store.directory)
    return store


def cmd_verify(args: argparse.Namespace) -> int:
    with _open_reporting(args.directory) as store:
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
    with _open_writable(args.directory) as store:
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
    with open_store(args.directory) as store:
        after = store.health()
        print(f"after: {after.describe()}")
        if after.damaged:
            print("repair: residual damage after rewrite (is another writer "
                  "racing this directory?)")
            return 1
        return 0


def cmd_compact(args: argparse.Namespace) -> int:
    with _open_writable(args.directory) as store:
        removed = store.compact()
        print(f"{_backend_name(store)} store at {store.description}")
        print(f"compact: removed {removed} line(s), kept {len(store)}")
        return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    layout = legacy_layout(args.directory)
    if layout is None:
        print(f"migrate: {args.directory} holds no legacy (sqlite or sharded) "
              "layout; nothing to do")
        return 1
    dest = args.dest or args.directory
    with LEGACY_READERS[layout](args.directory) as source:
        print(f"{layout} store at {source.description}: "
              f"{source.health().describe()}")
        with DiskStore(dest) as log:
            copied = merge_stores(log, source)
            path = log.path
        if not os.path.exists(path):
            # Nothing was appended: an empty log still marks the
            # directory migrated, so it stops resolving to the legacy layout.
            open(path, "a", encoding="utf-8").close()
        # Prove the migration from the bytes on disk before claiming
        # success: every source record must read back identically.
        on_disk = {record.key: record.result for record in JsonlLog(path).load()}
        mismatched = sum(
            1 for key in source.keys() if on_disk.get(key) != source.get(key)
        )
        print(f"migrate: {layout} -> jsonl: copied {copied} record(s) "
              f"({len(source) - copied} already in the log) to {path}")
    if mismatched:
        print(f"migrate: FAILED verification — {mismatched} record(s) did "
              "not read back identically")
        return 1
    print("migrate: verified — every record reads back identically")
    if args.dest is None:
        print(f"migrate: old {layout} files left in place; auto-detection "
              f"now resolves {args.directory} to jsonl")
    return 0


# --------------------------------------------------------------------------
# Store merging
# --------------------------------------------------------------------------

def store_dirs(root: "str | os.PathLike") -> "list[str]":
    """Sorted store directories directly under ``root``.  Only
    subdirectories whose files actually detect as a store count; stray
    directories are ignored."""
    root = os.fspath(root)
    if not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isdir(path) and detect_backend(path) is not None:
            found.append(path)
    return found


def merge_stores(dest: ResultStore, source: ResultStore) -> int:
    """Copy every record of ``source`` into ``dest``, skipping keys
    ``dest`` already holds (re-putting an existing key is a harmless
    identical overwrite — skipping merely saves the writes).  Returns
    the number of records copied."""
    copied = 0
    for key in source.keys():
        if key not in dest:
            dest.put(key, source.get(key))
            copied += 1
    return copied


def cmd_merge(args: argparse.Namespace) -> int:
    sources = store_dirs(args.source_root)
    if not sources:
        print(f"merge: no stores under {args.source_root}")
        return 1
    with _open_writable(args.directory) as dest:
        before = len(dest)
        copied = 0
        for directory in sources:
            with open_store(directory) as source:
                copied += merge_stores(dest, source)
        print(f"{_backend_name(dest)} store at {dest.description}")
        print(
            f"merge: folded {len(sources)} store(s), copied {copied} "
            f"record(s) ({before} already present, {len(dest)} total)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Verify, repair, compact, migrate, or merge campaign result stores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("directory", help="campaign store directory")
        p.set_defaults(func=func)
        return p

    command(
        "verify",
        cmd_verify,
        "scan every record; report damage; exit 1 if repair would change anything",
    )
    command(
        "repair",
        cmd_repair,
        "atomically rewrite the store keeping exactly the readable records",
    )
    command(
        "compact",
        cmd_compact,
        "rewrite without duplicate/damaged lines (space reclamation)",
    )
    p = command(
        "migrate",
        cmd_migrate,
        "fold a legacy sqlite or sharded layout into a jsonl log and verify it",
    )
    p.add_argument(
        "--dest",
        default=None,
        help="directory of the jsonl log to fold into (default: DIR, in place)",
    )
    p = command("merge", cmd_merge, "fold every store directly under --from into DIR")
    p.add_argument(
        "--from",
        dest="source_root",
        required=True,
        metavar="ROOT",
        help="directory whose store-bearing subdirectories are merged",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "merge" and detect_backend(args.directory) is None:
        print(f"{args.command}: no store at {args.directory}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ReadOnlyStoreError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
