"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig3 fig4 fig5
    python -m repro.experiments fig8 --instructions 100000 --maps 20
    python -m repro.experiments fig8 fig9 --dry-run
    python -m repro.experiments all-analytical
    python -m repro.experiments all-performance --benchmarks crafty,gzip
    python -m repro.experiments run fig8            # explicit subcommand form
    python -m repro.experiments serve --store DIR --workers 4
    python -m repro.experiments submit fig8 --url http://127.0.0.1:8631
    python -m repro.experiments predict fig8 --budget 0.4 --maps 50
    python -m repro.experiments store verify CAMPAIGN_DIR
    python -m repro.experiments store migrate CAMPAIGN_DIR

The first token selects a subcommand — ``run`` (figure campaigns; the
default, so every historical invocation works unchanged), ``serve`` (the
campaign server of :mod:`repro.service`), ``submit`` (send a campaign to
a running server and stream its events), ``predict`` (active-learning
figure campaigns through :mod:`repro.predict`), ``store`` (storage
tooling).

The CLI is a thin shell over the campaign layer: flags build a
:class:`~repro.campaign.session.Session` and one union
:class:`~repro.campaign.spec.CampaignSpec` covering every requested
performance target, the session streams the campaign (serial or through
a ``--workers N`` process pool), and figures render from pure store
hits.  ``--dry-run`` prints the resolved plan — work items, store-dedup
hits, schedule-pass groups, predicted schedule passes — without
simulating.

Campaigns: pass ``--store DIR`` (or set ``REPRO_STORE``) to persist every
simulation result under ``DIR``; reruns — including after a crash —
execute only what the store is missing, and a summary line on stderr
reports how many simulations actually ran.  Pass ``--trace-cache DIR``
(or set ``REPRO_TRACE_CACHE``) to persist generated benchmark traces too:
repeated invocations and parallel workers load them instead of
regenerating (the summary reports ``traces generated=N loaded=M``).
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.campaign.events import PlanReady, Progress, StoreCorruption, StoreRecovered
from repro.campaign.executors import PoolExecutor
from repro.campaign.resilience import CampaignError, RetryPolicy
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.ablation import ABLATION_STUDIES, run_studies
from repro.experiments.characterize import characterization_table
from repro.experiments.figures import (
    ANALYTICAL_FIGURES,
    PERFORMANCE_FIGURES,
    configs_for_targets,
)
from repro.experiments.report import REPORT_CONFIGS, reproduction_report
from repro.store import (
    DiskStore,
    MemoryStore,
    ReadOnlyStoreError,
    ResultStore,
    open_store,
)
from repro.workloads.spec2000 import ALL_BENCHMARKS


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return parsed


def _benchmark_list(value: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    unknown = [name for name in names if name not in ALL_BENCHMARKS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown benchmarks: {', '.join(unknown) or repr(value)} "
            "(see 'python -m repro.experiments list')"
        )
    return names


def _add_fidelity_flags(parser: argparse.ArgumentParser) -> None:
    """The fidelity knobs every campaign subcommand shares (same dests,
    so :func:`_settings_from_args` reads any of their namespaces)."""
    parser.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help="trace length per benchmark",
    )
    parser.add_argument(
        "--maps", type=_positive_int, default=None, help="fault-map pairs (paper: 50)"
    )
    parser.add_argument(
        "--benchmarks",
        type=_benchmark_list,
        default=None,
        help="comma-separated benchmark subset",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--warmup",
        type=_non_negative_int,
        default=None,
        help="warmup instructions before the measured region",
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The store knobs of ``run``, ``serve`` and ``predict`` (same dests,
    so :func:`_store_from_args` reads any of their namespaces)."""
    store_group = parser.add_mutually_exclusive_group()
    store_group.add_argument(
        "--store",
        type=str,
        default=None,
        metavar="DIR",
        help="campaign directory: persist simulation results and reuse "
        "them across invocations (default: $REPRO_STORE if set)",
    )
    store_group.add_argument(
        "--no-store",
        action="store_true",
        help="keep results in memory even if REPRO_STORE is set",
    )
    parser.add_argument(
        "--store-fsync",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="fsync every result write (default: $REPRO_STORE_FSYNC, else "
        "off — pooled campaigns fsync at chunk-checkpoint boundaries "
        "instead; per-put fsync trades throughput for power-loss "
        "durability of every single point)",
    )


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The ``--workers`` pool, its resilience budget and the trace cache,
    shared by ``run``, ``serve`` and ``predict`` (read back by
    :func:`_executor_from_args`)."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="fan campaigns across N worker processes through the "
        "resilient process pool, each with its share of the CPUs "
        "(default: 1, in-process, with threads over every CPU it may use)",
    )
    parser.add_argument(
        "--max-retries",
        type=_non_negative_int,
        default=2,
        metavar="N",
        help="resilience budget for --workers pools: a failed, crashed, or "
        "timed-out chunk is retried up to N times (deterministic backoff), "
        "then bisected to isolate and quarantine the poison task while "
        "healthy siblings still land (default: 2; 0 disables retries)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-chunk watchdog for --workers pools: a chunk still running "
        "after SECONDS is abandoned and resubmitted instead of hanging the "
        "campaign (default: no timeout)",
    )
    parser.add_argument(
        "--trace-cache",
        type=str,
        default=None,
        metavar="DIR",
        help="persistent trace cache: store generated benchmark traces as "
        ".npz under DIR and reuse them across invocations and parallel "
        "workers (default: $REPRO_TRACE_CACHE if set)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate figures/tables from 'Performance-Effective "
        "Operation below Vcc-min' (ISPASS 2010).",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="figure ids (fig1, table1, fig3..fig12, ext-incremental), "
        "'list', 'all-analytical', or 'all-performance'",
    )
    _add_fidelity_flags(parser)
    _add_execution_flags(parser)
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="resolve the campaign plan and print it — work items, "
        "store-dedup hits, schedule-pass groups, predicted schedule passes "
        "— without simulating anything",
    )
    _add_store_flags(parser)
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        metavar="DIR",
        help="also write each figure's data as DIR/<figure-id>.csv",
    )
    return parser


def _settings_from_args(args: argparse.Namespace) -> RunnerSettings:
    try:
        base = RunnerSettings.from_env()
    except ValueError as exc:  # exit like argparse does on a bad flag
        print(f"bad environment value: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return RunnerSettings(
        n_instructions=(
            args.instructions if args.instructions is not None else base.n_instructions
        ),
        n_fault_maps=args.maps if args.maps is not None else base.n_fault_maps,
        benchmarks=(
            args.benchmarks if args.benchmarks is not None else base.benchmarks
        ),
        seed=args.seed if args.seed is not None else base.seed,
        warmup_instructions=(
            args.warmup if args.warmup is not None else base.warmup_instructions
        ),
    )


def _store_from_args(args: argparse.Namespace) -> ResultStore:
    if args.no_store:
        return MemoryStore()
    try:
        return open_store(
            args.store or os.environ.get("REPRO_STORE"), fsync=args.store_fsync
        )
    except OSError as exc:
        print(f"cannot open result store: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _open_session(args: argparse.Namespace, settings: RunnerSettings) -> Session:
    """The session ``run``, ``serve`` and ``predict`` simulate through,
    over the store and trace cache their flags name (``--trace-cache``,
    else the provider's ``$REPRO_TRACE_CACHE`` default).  The session
    owns the store, so closing the session closes it."""
    session = Session(
        settings, store=_store_from_args(args), trace_cache=args.trace_cache or None
    )
    session.owns_store = True
    return session


def _executor_from_args(args: argparse.Namespace) -> "PoolExecutor | None":
    """The executor ``run``, ``serve`` and ``predict`` simulate through:
    a :class:`PoolExecutor` for ``--workers`` above 1, else ``None`` (the
    session's in-process serial default)."""
    if args.workers == 1:
        return None
    return PoolExecutor(
        args.workers,
        retry=RetryPolicy(
            max_attempts=args.max_retries + 1, chunk_timeout=args.chunk_timeout
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """Dispatch on the first token.  ``run`` is the default subcommand
    (and an explicit alias), so historical figure invocations —
    ``python -m repro.experiments fig8 --dry-run`` — behave
    byte-identically with or without it."""
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "store":
        # Store tooling rides the same entry point: `python -m
        # repro.experiments store verify|repair|compact|migrate|merge DIR`.
        from repro.store.tools import main as store_main

        return store_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "serve":
        return _serve_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "submit":
        return _submit_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "predict":
        return _predict_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "run":
        raw_argv = raw_argv[1:]
    return _run_main(raw_argv)


# --------------------------------------------------------------------------
# run — figure campaigns (the historical CLI surface)
# --------------------------------------------------------------------------


def _run_main(raw_argv: list[str]) -> int:
    args = _build_parser().parse_args(raw_argv)

    targets: list[str] = []
    for target in args.targets:
        if target == "list":
            print("analytical figures :", ", ".join(ANALYTICAL_FIGURES))
            print("performance figures:", ", ".join(PERFORMANCE_FIGURES))
            print("ablation studies   :", ", ".join(ABLATION_STUDIES))
            print("extras             : report, characterize")
            print("benchmarks         :", ", ".join(ALL_BENCHMARKS))
            return 0
        if target == "all-analytical":
            targets.extend(ANALYTICAL_FIGURES)
        elif target == "all-performance":
            targets.extend(PERFORMANCE_FIGURES)
        elif target == "all-ablations":
            targets.extend(ABLATION_STUDIES)
        else:
            targets.append(target)

    known = (
        set(ANALYTICAL_FIGURES)
        | set(PERFORMANCE_FIGURES)
        | set(ABLATION_STUDIES)
        | {"report", "characterize"}
    )
    unknown = [t for t in targets if t not in known]
    if unknown:
        print(f"unknown targets: {', '.join(unknown)}", file=sys.stderr)
        print("run 'python -m repro.experiments list' to see options", file=sys.stderr)
        return 2

    # The union campaign every requested performance target needs — one
    # spec, one plan, one streaming run; figures then read store hits.
    needed = list(configs_for_targets(targets))
    if "report" in targets:
        needed.extend(c for c in REPORT_CONFIGS if c not in needed)
    # Only campaign targets read the settings; the store still opens for
    # the others, whose summary line reports its size.
    if needed:
        session = _open_session(args, _settings_from_args(args))
        store = session.store
    else:
        session = None
        store = _store_from_args(args)
    opened = session if session is not None else store

    def make_progress(unit: str):
        def progress(done: int, total: int) -> None:
            print(f"[campaign] {done}/{total} {unit}", file=sys.stderr)

        return progress

    if args.dry_run:
        # Targets that simulate outside the campaign store (own inputs,
        # no store keys) — the plan below cannot cost them.
        non_store = [
            t for t in targets if t in ABLATION_STUDIES or t == "characterize"
        ]
        if session is not None:
            spec = CampaignSpec.from_settings(session.settings, tuple(needed))
            print(session.plan(spec).describe())
        else:
            print("dry run: requested targets need no store-backed simulations")
        if non_store:
            print(
                f"note: {len(non_store)} target(s) "
                f"({', '.join(non_store)}) simulate outside the "
                "campaign store and are not included in this plan"
            )
        opened.close()
        return 0

    def prefill(active: Session) -> None:
        """Stream the union campaign through the session so every figure
        renders from pure store hits (byte-identical to the lazy path)."""
        spec = CampaignSpec.from_settings(active.settings, tuple(needed))
        progress = make_progress("simulations")
        for event in active.run(spec, executor=_executor_from_args(args)):
            if isinstance(event, PlanReady) and not event.plan.pending:
                break
            if isinstance(event, Progress):
                progress(event.done, event.total)
            elif isinstance(event, StoreCorruption):
                print(
                    f"[campaign] store damage contained — {event.detail}; "
                    "run `python -m repro.experiments store repair "
                    "<dir>` to rewrite (lost points re-simulate now)",
                    file=sys.stderr,
                )
            elif isinstance(event, StoreRecovered):
                print(
                    f"[campaign] store write recovered after "
                    f"{event.attempts} failed attempt(s) for task "
                    f"{event.key[:12]} ({event.error})",
                    file=sys.stderr,
                )

    prefilled = False

    def ready_session() -> Session:
        nonlocal prefilled
        if not prefilled:
            prefilled = True
            prefill(session)
        return session

    # Ablation studies build their own inputs (no shared session), so with
    # --workers they run one-study-per-process up front.
    ablation_targets = [t for t in targets if t in ABLATION_STUDIES]
    ablation_results: dict[str, object] = {}
    if args.workers > 1 and len(ablation_targets) > 1:
        ablation_results = run_studies(
            ablation_targets,
            workers=args.workers,
            progress=make_progress("ablation studies"),
        )

    ablations_rendered: set[str] = set()
    try:
        code = _render_targets(
            args, targets, ablation_results, ablations_rendered, ready_session
        )
    except CampaignError as exc:
        # A campaign finished with quarantined tasks: every healthy
        # result is durable, so report one line per poison task and exit
        # non-zero instead of dumping a traceback.
        for line in exc.summary_lines():
            print(f"[campaign] quarantined {line}", file=sys.stderr)
        print(
            f"[campaign] {len(exc.failures)} task(s) quarantined after "
            "retries; completed results are durable — re-run the same "
            "command to retry the quarantined points "
            "(--max-retries raises the budget)",
            file=sys.stderr,
        )
        code = 3
    except ReadOnlyStoreError as exc:
        # The store auto-detected as a read-only legacy layout and the
        # campaign needed to write a point; the message names the migrate.
        print(f"[campaign] {exc}", file=sys.stderr)
        code = 2
    except KeyboardInterrupt:
        # Session.run already flushed the store and printed the resume
        # hint; exit with the conventional interrupt status.
        code = 130
    if code == 0 and (
        session is not None or isinstance(store, DiskStore)
    ):
        executed = session.simulations_executed if session is not None else 0
        passes = session.schedule_passes if session is not None else 0
        summary = (
            f"[campaign] simulations executed={executed} "
            f"schedule passes={passes} "
            f"store={store.description} entries={len(store)}"
        )
        if session is not None:
            traces = session.traces
            summary += (
                f" traces generated={traces.generated} loaded={traces.loaded}"
            )
            if traces.discarded:
                summary += f" discarded={traces.discarded}"
        if ablations_rendered:
            # Ablation studies build their own inputs and bypass the
            # store; their simulations are not in the counts above.
            summary += f" (+{len(ablations_rendered)} ablation studies, not store-backed)"
        print(summary, file=sys.stderr)
    opened.close()
    return code


def _render_targets(
    args, targets, ablation_results, ablations_rendered, ready_session
) -> int:
    for target in targets:
        if target == "report":
            print(reproduction_report(ready_session()))
            print()
            continue
        if target == "characterize":
            print(characterization_table().to_text())
            print()
            continue
        if target in ANALYTICAL_FIGURES:
            result = ANALYTICAL_FIGURES[target]()
        elif target in ABLATION_STUDIES:
            ablations_rendered.add(target)
            if target in ablation_results:
                result = ablation_results[target]
            else:
                result = ABLATION_STUDIES[target]()
        else:
            result = PERFORMANCE_FIGURES[target](ready_session())
        print(result.to_text())
        print()
        if args.csv:
            import pathlib

            directory = pathlib.Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{result.figure_id}.csv").write_text(result.to_csv())
    return 0


# --------------------------------------------------------------------------
# serve / submit — the campaign service (repro.service)
# --------------------------------------------------------------------------


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Run a campaign server: accept CampaignSpec JSON from "
        "concurrent clients over HTTP, coalesce overlapping specs against "
        "the shared store, and stream typed campaign events back as NDJSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8631,
        help="bind port (0 picks an ephemeral port, announced on stdout)",
    )
    _add_fidelity_flags(parser)
    _add_execution_flags(parser)
    _add_store_flags(parser)
    return parser


def _serve_main(argv: list[str]) -> int:
    args = _serve_parser().parse_args(argv)
    session = _open_session(args, _settings_from_args(args))
    from repro.service.server import serve_blocking

    try:
        serve_blocking(
            session,
            executor=_executor_from_args(args),
            host=args.host,
            port=args.port,
        )
    finally:
        session.close()
    return 0


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments submit",
        description="Send a campaign to a running campaign server and "
        "stream its events: NDJSON on stdout (the wire lines, replayable "
        "through repro.campaign.events.event_from_dict), progress on "
        "stderr.  Exit 3 if any task failed terminally.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        help="performance figure ids (fig8..fig12, all-performance) — the "
        "union campaign they need — or one path to a CampaignSpec JSON "
        "file (as written by CampaignSpec.to_dict)",
    )
    parser.add_argument(
        "--url",
        required=True,
        help="campaign server base url, e.g. http://127.0.0.1:8631",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="socket timeout while waiting for the next event line",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the NDJSON event stream on stdout (progress and the "
        "summary still report on stderr)",
    )
    _add_fidelity_flags(parser)
    return parser


def _submit_spec(args: argparse.Namespace) -> "CampaignSpec | None":
    """Resolve the submit targets to one spec: a JSON file path verbatim,
    or figure ids through the same union-campaign path ``run`` uses."""
    import json

    if len(args.targets) == 1 and (
        args.targets[0].endswith(".json") or os.path.exists(args.targets[0])
    ):
        with open(args.targets[0], "r", encoding="utf-8") as handle:
            return CampaignSpec.from_dict(json.load(handle))
    targets: list[str] = []
    for target in args.targets:
        if target == "all-performance":
            targets.extend(PERFORMANCE_FIGURES)
        else:
            targets.append(target)
    unknown = [t for t in targets if t not in PERFORMANCE_FIGURES]
    if unknown:
        print(
            f"unknown submit targets: {', '.join(unknown)} (submit takes "
            "performance figures or a spec JSON path; analytical figures "
            "need no simulation)",
            file=sys.stderr,
        )
        return None
    needed = tuple(configs_for_targets(targets))
    return CampaignSpec.from_settings(_settings_from_args(args), needed)


def _submit_main(argv: list[str]) -> int:
    args = _submit_parser().parse_args(argv)
    spec = _submit_spec(args)
    if spec is None:
        return 2
    from repro.service import protocol
    from repro.service.client import RemoteCampaignError, connect

    remote = connect(args.url, timeout=args.timeout)
    code = 0
    try:
        for event in remote.run(spec):
            if not args.quiet:
                sys.stdout.buffer.write(protocol.event_line(event))
                sys.stdout.buffer.flush()
            if isinstance(event, Progress):
                print(
                    f"[submit] {event.done}/{event.total} points",
                    file=sys.stderr,
                )
    except CampaignError as exc:
        for line in exc.summary_lines():
            print(f"[submit] quarantined {line}", file=sys.stderr)
        code = 3
    except RemoteCampaignError as exc:
        print(f"[submit] {exc}", file=sys.stderr)
        return 2
    done = remote.last_done or {}
    if not args.quiet:
        # Forward the wire's done line too: stdout is the complete
        # NDJSON stream, replayable by any protocol consumer.
        sys.stdout.buffer.write(protocol.encode_line(done))
        sys.stdout.buffer.flush()
    print(
        f"[submit] done: failures={done.get('failures', 0)} "
        f"simulations executed={done.get('simulations_executed', 0)} "
        f"server total={done.get('server_simulations', 0)}",
        file=sys.stderr,
    )
    return code


# --------------------------------------------------------------------------
# predict — active-learning figure campaigns (repro.predict)
# --------------------------------------------------------------------------


def _predict_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments predict",
        description="Reproduce a performance figure from a fraction of its "
        "grid: an active-learning loop proposes per-cell fault-map "
        "extensions, the Planner dedups them against the store, a "
        "pure-NumPy surrogate predicts the rest, and the loop stops when "
        "the mixed simulated+predicted figure stops moving.  Exit 3 if "
        "any task failed terminally.",
    )
    parser.add_argument(
        "target",
        help="one performance figure id (fig8..fig12, ext-incremental)",
    )
    parser.add_argument(
        "--budget", type=float, default=0.5, metavar="FRACTION",
        help="stop once this fraction of the grid is labeled (default 0.5)",
    )
    parser.add_argument(
        "--batch", type=int, default=24, metavar="N",
        help="new work items proposed per round (default 24)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.02, metavar="DELTA",
        help="convergence threshold on the figure estimate's max movement",
    )
    parser.add_argument(
        "--patience", type=int, default=2, metavar="N",
        help="consecutive converged fits before stopping (default 2)",
    )
    parser.add_argument(
        "--strategy",
        choices=("figure-error", "uncertainty", "random"),
        default="figure-error",
        help="acquisition strategy (default figure-error)",
    )
    parser.add_argument(
        "--initial-maps", type=_positive_int, default=4, metavar="N",
        help="fault-map prefix per cell in the seed round (default 4)",
    )
    parser.add_argument(
        "--maps-step", type=_positive_int, default=3, metavar="N",
        help="largest per-cell extension per round (default 3)",
    )
    parser.add_argument(
        "--predict-seed", type=int, default=None, metavar="N",
        help="surrogate/acquisition seed (default: the settings default; "
        "independent of the campaign's --seed)",
    )
    parser.add_argument(
        "--url", type=str, default=None,
        help="run the proposed campaigns on a campaign server instead of "
        "locally (store flags then configure nothing)",
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit the estimated figure as CSV"
    )
    parser.add_argument(
        "--report-json", type=str, default=None, metavar="FILE",
        help="write the full PredictReport (estimate, coverage, settings) "
        "as JSON",
    )
    _add_fidelity_flags(parser)
    _add_execution_flags(parser)
    _add_store_flags(parser)
    return parser


def _predict_main(argv: list[str]) -> int:
    args = _predict_parser().parse_args(argv)
    from repro.experiments.figures import FIGURE_BASELINES, figure_spec
    from repro.predict import ActiveCampaign, PredictSettings

    if args.target not in PERFORMANCE_FIGURES:
        print(
            f"unknown predict target {args.target!r} (predict takes one "
            f"performance figure: {', '.join(PERFORMANCE_FIGURES)})",
            file=sys.stderr,
        )
        return 2

    settings = _settings_from_args(args)
    spec = figure_spec(args.target, settings)
    predict_kwargs = dict(
        budget=args.budget,
        batch=args.batch,
        tolerance=args.tolerance,
        patience=args.patience,
        strategy=args.strategy,
        initial_maps=args.initial_maps,
        maps_step=args.maps_step,
    )
    if args.predict_seed is not None:
        predict_kwargs["seed"] = args.predict_seed
    try:
        predict_settings = PredictSettings(**predict_kwargs)
    except ValueError as exc:
        print(f"bad predict settings: {exc}", file=sys.stderr)
        return 2

    session = (
        Session.connect(args.url) if args.url else _open_session(args, settings)
    )
    loop = ActiveCampaign(
        session,
        spec,
        settings=predict_settings,
        baseline=FIGURE_BASELINES[args.target],
        executor=None if args.url else _executor_from_args(args),
    )
    from repro.campaign.events import BatchProposed, Converged, SurrogateFit

    code = 0
    try:
        for event in loop.run():
            if isinstance(event, BatchProposed):
                print(
                    f"[predict] round {event.round_index}: {event.strategy} "
                    f"proposed {event.proposed} point(s) across "
                    f"{len(event.specs)} spec(s) "
                    f"({event.simulated}/{event.total} simulated so far)",
                    file=sys.stderr,
                )
            elif isinstance(event, SurrogateFit):
                delta = "n/a" if event.delta is None else f"{event.delta:.4f}"
                print(
                    f"[predict] fit on {event.training} label(s), "
                    f"delta={delta}",
                    file=sys.stderr,
                )
            elif isinstance(event, Converged):
                print(
                    f"[predict] converged ({event.reason}) after "
                    f"{event.rounds} round(s): {event.simulated}/"
                    f"{event.total} points simulated "
                    f"({event.coverage:.0%} of the grid)",
                    file=sys.stderr,
                )
    except CampaignError as exc:
        for line in exc.summary_lines():
            print(f"[predict] quarantined {line}", file=sys.stderr)
        print(
            f"[predict] {len(exc.failures)} task(s) quarantined after "
            "retries; completed results are durable — re-run to retry",
            file=sys.stderr,
        )
        code = 3
    finally:
        session.close()

    if code == 0:
        report = loop.report()
        result = report.figure_result()
        print(result.to_csv() if args.csv else result.to_text())
        print(
            f"[predict] coverage {report.coverage:.1%} "
            f"(labeled {report.labeled_fraction:.1%}) at tolerance "
            f"{predict_settings.tolerance} — stopped on {report.reason}",
            file=sys.stderr,
        )
        if args.report_json:
            with open(args.report_json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json(indent=2) + "\n")
            print(f"[predict] report written to {args.report_json}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
