"""One-command CI gate: every smoke the workflow runs, runnable locally.

The GitHub workflow used to inline four shell steps (golden bit-identity,
KIPS microbench, lane-batch equivalence, campaign store/trace-cache);
this driver checks them in so ``python benchmarks/ci_smokes.py`` runs the
identical gate on a laptop, and adds the cross-point lane-pass smoke,
``mega-batch`` (a multi-point campaign plan must scatter back
bit-identical results with strictly fewer schedule passes than campaign
points, its figures must be byte-identical with one-lane passes, and a
campaign one map wider than ``PASS_LANES`` must run in its predicted
passes, none wider than the cap), plus the campaign smoke: the Fig. 8 JSON a
``Session`` renders must match a pinned sha256 digest, and dedup re-runs
must execute zero schedule passes.  The ``kernel`` smoke gates the compiled kernels:
a heterogeneous-victim campaign must merge into one lane-kernel pass,
bit-identical to ``engine="object"`` runs; under ``REPRO_NO_CKERNEL=1``
the same campaign must plan the same pass, regenerate its trace with
the Python walk and run through the object loop in exactly its
predicted passes to byte-identical figures; the vectorised
schedule compiler must match the reference replay; the trace kernel
must generate the Python walk's trace and RNG state; a small
block-size x prefetching study must render byte-identically with its
prefetching runs in the lane kernel and on the object loop; and a
25-lane pass must give the object runs' results as one, two and three
threaded kernel slices, and split in two by default on two CPUs.
The ``sanitize`` smoke rebuilds both kernels with AddressSanitizer and
UBSan and runs the kernel, fuzzed-equivalence, golden, prefetcher and
workload tests against them: a sanitizer report fails the gate.
The ``store`` smoke also reruns over a copy of its log rewritten in the
layout earlier builds wrote: pure store hits, byte-identical figures,
the log left unchanged, ``store verify`` clean.
The ``store-chaos`` smoke gates the crash-consistent storage subsystem:
a pool campaign checkpointing into a jsonl store under I/O fault
injection is SIGKILLed mid-write with its whole process group (no pool
worker may survive), resumed to byte-identical figures, then repaired
and verified clean; the same campaign run in-process under the same
faults must finish byte-identical, repair and verify clean, and re-run
as pure store hits; a legacy sqlite copy and a legacy sharded copy of
the resumed store, each migrated in place, must resolve to a log
holding the same records byte for byte and serve the same figures from
pure store hits.
The ``examples`` smoke runs every script under ``examples/`` against the
source tree: each must exit 0.  The ``perfbench`` smoke runs the
benchmark harness's own checks (pinned digests, layer self-tests) on
one short traced run of each workload ``BENCHMARK.json`` declares; its
timings never fail the gate.

Each smoke writes ``<name>-smoke.json`` into ``--json-dir`` (default:
current directory) — the workflow uploads them as per-commit artifacts so
the performance trajectory stays inspectable.

Usage::

    PYTHONPATH=src python benchmarks/ci_smokes.py            # all smokes
    PYTHONPATH=src python benchmarks/ci_smokes.py goldens mega-batch
    PYTHONPATH=src python benchmarks/ci_smokes.py --json-dir artifacts
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHES = os.path.join(ROOT, "benchmarks")
for path in (SRC, BENCHES):  # one-command local use without PYTHONPATH=src
    if path not in sys.path:
        sys.path.insert(0, path)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _cli(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        **kwargs,
    )


def _write(json_dir: str, name: str, payload: dict) -> None:
    path = os.path.join(json_dir, f"{name}-smoke.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# Smokes (each returns a list of failure strings; empty = pass)
# --------------------------------------------------------------------------

def smoke_goldens(json_dir: str) -> list[str]:
    """Golden bit-identity suite: both engines must reproduce the locked
    cycle counts and statistics exactly."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "tests/integration/test_golden_sim.py",
        ],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
    )
    _write(
        json_dir,
        "goldens",
        {"returncode": proc.returncode, "tail": proc.stdout[-2000:]},
    )
    if proc.returncode != 0:
        return [f"golden suite failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"]
    return []


def smoke_kips(json_dir: str) -> list[str]:
    """KIPS microbench: both engines per scheme, zero SimResult
    divergences (timing numbers are informational)."""
    import bench_micro_pipeline

    path = os.path.join(json_dir, "kips-smoke.json")
    code = bench_micro_pipeline.main(["--smoke", "--json", path])
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    failures = []
    if code != 0:
        failures.append(f"bench_micro_pipeline exited {code}")
    if summary.get("divergences", 1) != 0:
        failures.append(f"KIPS smoke diverged: {summary}")
    return failures


def smoke_lane_batch(json_dir: str) -> list[str]:
    """Lane-batch equivalence: one campaign point at several lane widths
    must match sequential ``engine="object"`` runs lane for lane."""
    import bench_micro_batch

    path = os.path.join(json_dir, "batch-smoke.json")
    code = bench_micro_batch.main(["--smoke", "--json", path])
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    failures = []
    if code != 0:
        failures.append(f"bench_micro_batch exited {code}")
    if summary.get("divergences", 1) != 0:
        failures.append(f"lane-batch smoke diverged: {summary}")
    return failures


_STORE_ARGS = [
    "fig3",
    "fig8",
    "--instructions",
    "2000",
    "--maps",
    "2",
    "--benchmarks",
    "gzip",
]


def smoke_store(json_dir: str) -> list[str]:
    """Campaign store + trace cache: a second invocation must be pure
    store/cache hits and regenerate byte-identical figures.  So must a
    run over a copy of the first run's log rewritten in the layout
    earlier builds wrote (``json.dumps``'s default separators, each line
    checked by re-encoding), which must leave that log unchanged and
    pass ``store verify``."""
    import shutil

    sys.path.insert(0, os.path.join(ROOT, "tests", "store"))
    from store_helpers import rewrite_in_earlier_layout

    failures: list[str] = []
    with tempfile.TemporaryDirectory() as store, tempfile.TemporaryDirectory() as traces, \
            tempfile.TemporaryDirectory() as tmp:
        persist = ["--store", store, "--trace-cache", traces]
        first = _cli(_STORE_ARGS + persist)
        second = _cli(_STORE_ARGS + persist)
        third = _cli(_STORE_ARGS + ["--no-store", "--trace-cache", traces])
        earlier = os.path.join(tmp, "earlier")
        shutil.copytree(store, earlier)
        log = os.path.join(earlier, "results.jsonl")
        rewritten = rewrite_in_earlier_layout(log)
        with open(log, "rb") as fh:
            earlier_bytes = fh.read()
        fourth = _cli(_STORE_ARGS + ["--store", earlier, "--trace-cache", traces])
        verify = _cli(["store", "verify", earlier])
        with open(log, "rb") as fh:
            if fh.read() != earlier_bytes:
                failures.append("a run over the earlier-layout log rewrote it")
        if rewritten != 6 or b'": ' not in earlier_bytes:
            failures.append(f"rewrote {rewritten} line(s) in the earlier layout, not 6")
        for name, proc in (
            ("first", first), ("second", second), ("third", third),
            ("earlier-layout", fourth), ("store verify of the earlier layout", verify),
        ):
            if proc.returncode != 0:
                failures.append(f"{name} run exited {proc.returncode}: {proc.stderr}")
        checks = [
            ("first executes every simulation", "simulations executed=6", first),
            ("first generates the trace", "traces generated=1 loaded=0", first),
            ("second is all store hits", "simulations executed=0", second),
            ("second regenerates no trace", "traces generated=0", second),
            ("third loads the cached trace", "traces generated=0 loaded=1", third),
            ("earlier layout is all store hits", "simulations executed=0", fourth),
        ]
        for label, needle, proc in checks:
            if needle not in proc.stderr:
                failures.append(f"{label}: {needle!r} not in stderr: {proc.stderr}")
        for label, proc in (("second", second), ("third", third), ("earlier-layout", fourth)):
            if proc.stdout != first.stdout:
                diff = "\n".join(
                    difflib.unified_diff(
                        first.stdout.splitlines(), proc.stdout.splitlines(), lineterm=""
                    )
                )
                failures.append(f"{label} run figures differ from first:\n{diff}")
        _write(
            json_dir,
            "store",
            {
                "ok": not failures,
                "first_stderr": first.stderr.strip(),
                "second_stderr": second.stderr.strip(),
                "third_stderr": third.stderr.strip(),
                "earlier_layout_stderr": fourth.stderr.strip(),
                "earlier_layout_verify": verify.stdout.strip(),
            },
        )
    return failures


def _render_at_width(settings, figures, width=None) -> tuple[str, dict]:
    """Render ``figures`` through a fresh in-memory session with the
    planner's pass width patched to ``width`` (``None``: the default);
    returns the figure text and every stored record."""
    from repro.campaign import plan
    from repro.campaign.session import Session
    from repro.experiments.figures import ANALYTICAL_FIGURES, PERFORMANCE_FIGURES

    default = plan.PASS_LANES
    plan.PASS_LANES = default if width is None else width
    try:
        with Session(settings) as session:
            text = "".join(
                (
                    ANALYTICAL_FIGURES[name]()
                    if name in ANALYTICAL_FIGURES
                    else PERFORMANCE_FIGURES[name](session)
                ).to_text()
                for name in figures
            )
            store = session.store
            return text, {key: store.get(key) for key in store.keys()}
    finally:
        plan.PASS_LANES = default


def smoke_mega_batch(json_dir: str) -> list[str]:
    """Cross-point lane passes across a multi-point plan.

    Every work item of a several-config, two-map campaign — the shape
    that used to pay one schedule pass per point — must come back
    bit-identical to per-point ``simulate`` calls (``divergences == 0``)
    while executing strictly fewer schedule passes than campaign points.
    The store smoke's figures (``fig3 fig8``) and their store records
    must be byte-identical with one-lane passes (``PASS_LANES = 1``) and
    at the default width.  A wide campaign — one benchmark,
    ``PASS_LANES + 1`` maps — must run in exactly its predicted passes,
    none wider than ``PASS_LANES``.
    """
    from repro.campaign import plan
    from repro.campaign.session import Session
    from repro.campaign.spec import RunnerSettings
    from repro.cpu.pipeline import OutOfOrderPipeline
    from repro.experiments.configs import (
        LV_BASELINE,
        LV_BLOCK,
        LV_BLOCK_V10,
        LV_INCREMENTAL,
        LV_WORD,
    )

    settings = RunnerSettings(
        n_instructions=3_000,
        warmup_instructions=1_000,
        n_fault_maps=2,
        benchmarks=("gzip",),
    )
    configs = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)
    points = len(settings.benchmarks) * len(configs)

    merged = Session(settings)
    executed = merged.run_all(merged.spec(configs)).pending
    sequential = Session(settings)

    divergences = 0
    compared = 0
    for config in configs:
        indices = (
            range(settings.n_fault_maps) if config.needs_fault_map else (None,)
        )
        for m in indices:
            compared += 1
            if merged.simulate("gzip", config, m) != sequential.simulate(
                "gzip", config, m
            ):
                divergences += 1

    failures: list[str] = []
    if divergences:
        failures.append(
            f"{divergences}/{compared} merged results diverged from "
            "per-point simulate calls"
        )
    if merged.simulations_executed != executed or merged.simulations_executed != compared:
        failures.append(
            f"merged plan executed {executed} simulations, expected {compared}"
        )
    if merged.schedule_passes >= points:
        failures.append(
            f"merged campaign took {merged.schedule_passes} schedule passes "
            f"for {points} points (must be strictly fewer)"
        )

    # The store smoke's CLI figures, in process: one-lane passes against
    # the default width.
    cli_settings = RunnerSettings(
        n_instructions=2_000, n_fault_maps=2, benchmarks=("gzip",)
    )
    figures = ("fig3", "fig8")
    default_text, default_records = _render_at_width(cli_settings, figures)
    narrow_text, narrow_records = _render_at_width(cli_settings, figures, width=1)
    width_identical = (
        default_text == narrow_text and default_records == narrow_records
    )
    if default_text != narrow_text:
        diff = "\n".join(
            difflib.unified_diff(
                default_text.splitlines(), narrow_text.splitlines(), lineterm=""
            )
        )
        failures.append(f"PASS_LANES=1 figures differ from the default:\n{diff}")
    if default_records != narrow_records:
        failures.append("PASS_LANES=1 store records differ from the default")

    # Wide case: one more map than a pass holds.
    wide_settings = RunnerSettings(
        n_instructions=1_000,
        warmup_instructions=250,
        n_fault_maps=plan.PASS_LANES + 1,
        benchmarks=("gzip",),
    )
    widths: list[int] = []
    run_batch = OutOfOrderPipeline.__dict__["run_batch"]

    def recording(pipelines, trace, measure_from=0):
        widths.append(len(pipelines))
        return run_batch.__func__(pipelines, trace, measure_from)

    OutOfOrderPipeline.run_batch = staticmethod(recording)
    try:
        wide = Session(wide_settings)
        wide_plan = wide.run_all(wide.spec((LV_BLOCK,)))
    finally:
        OutOfOrderPipeline.run_batch = run_batch
    if wide.schedule_passes != wide_plan.predicted_passes:
        failures.append(
            f"wide campaign ran {wide.schedule_passes} schedule passes, "
            f"predicted {wide_plan.predicted_passes}"
        )
    if sum(widths) != wide_settings.n_fault_maps or max(widths) > plan.PASS_LANES:
        failures.append(
            f"wide campaign ran passes of {widths} lanes for "
            f"{wide_settings.n_fault_maps} maps (cap {plan.PASS_LANES})"
        )

    _write(
        json_dir,
        "mega-batch",
        {
            "divergences": divergences,
            "compared": compared,
            "points": points,
            "schedule_passes_merged": merged.schedule_passes,
            "schedule_passes_sequential": sequential.schedule_passes,
            "width1_byte_identical": width_identical,
            "pass_lanes": plan.PASS_LANES,
            "wide_pass_widths": widths,
            "wide_predicted_passes": wide_plan.predicted_passes,
            "wide_schedule_passes": wide.schedule_passes,
            "ok": not failures,
        },
    )
    return failures


#: sha256 of the Fig. 8 JSON the campaign smoke renders.  Every pass width
#: produces these bytes; a change that moves them changes simulated
#: results.
FIG8_DIGEST = "128dcac91b6fd06a7a1c31495b159425215b50daf4027b1a7bb7ad19f4d1d085"


def smoke_campaign(json_dir: str) -> list[str]:
    """Campaign figure bytes and dedup.

    The Fig. 8 JSON a ``Session`` renders (``json.dumps`` of the
    ``FigureResult`` with sorted keys) must hash to :data:`FIG8_DIGEST`,
    and a dedup re-run of an already-stored campaign must resolve to an
    empty plan and execute zero schedule passes.  The CLI's
    ``--dry-run`` must simulate nothing.
    """
    import dataclasses
    import hashlib

    from repro.campaign.session import Session
    from repro.campaign.spec import RunnerSettings
    from repro.experiments.figures import fig8_data, figure_spec

    settings = RunnerSettings(
        n_instructions=3_000,
        warmup_instructions=1_000,
        n_fault_maps=2,
        benchmarks=("gzip",),
    )

    failures: list[str] = []

    session = Session(settings)
    figure_json = json.dumps(dataclasses.asdict(fig8_data(session)), sort_keys=True)
    digest = hashlib.sha256(figure_json.encode()).hexdigest()
    if digest != FIG8_DIGEST:
        failures.append(
            f"Fig. 8 JSON digest {digest} != pinned {FIG8_DIGEST}:\n{figure_json}"
        )

    # Dedup re-run: pure store hits, empty plan, zero new schedule passes.
    passes_before = session.schedule_passes
    rerun_plan = session.run_all(figure_spec("fig8", settings))
    rerun_passes = session.schedule_passes - passes_before
    if rerun_plan.pending != 0:
        failures.append(
            f"dedup re-run still plans {rerun_plan.pending} simulations"
        )
    if rerun_passes != 0:
        failures.append(f"dedup re-run executed {rerun_passes} schedule passes")
    if rerun_plan.dedup_hits != rerun_plan.total_points:
        failures.append(
            f"dedup re-run saw {rerun_plan.dedup_hits} store hits for "
            f"{rerun_plan.total_points} points"
        )

    # CLI dry-run: prints the plan, simulates nothing.
    dry = _cli(_STORE_ARGS + ["--no-store", "--dry-run"])
    if dry.returncode != 0:
        failures.append(f"--dry-run exited {dry.returncode}: {dry.stderr}")
    elif "to simulate" not in dry.stdout:
        failures.append(f"--dry-run printed no plan:\n{dry.stdout}")

    _write(
        json_dir,
        "campaign",
        {
            "figure_digest": digest,
            "figure_digest_matches": digest == FIG8_DIGEST,
            "session_schedule_passes": passes_before,
            "rerun_pending": rerun_plan.pending,
            "rerun_schedule_passes": rerun_passes,
            "ok": not failures,
        },
    )
    return failures


@contextlib.contextmanager
def _no_ckernel():
    """``REPRO_NO_CKERNEL=1`` for the block, restored afterwards."""
    saved = os.environ.get("REPRO_NO_CKERNEL")
    os.environ["REPRO_NO_CKERNEL"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NO_CKERNEL"]
        else:
            os.environ["REPRO_NO_CKERNEL"] = saved


def smoke_kernel(json_dir: str) -> list[str]:
    """Compiled-kernel gate.

    A heterogeneous-victim campaign (block disabling plus the 6T and
    10T victim-cache rows over two fault maps — six lanes) must merge
    into ONE lane pass and scatter back bit-identical to sequential
    ``engine="object"`` runs.  The fallback leg repeats it under
    ``REPRO_NO_CKERNEL=1``: its plan must equal the kernel leg's (groups,
    item keys, order and predicted passes), it must run in exactly its
    predicted passes, still bit-identical, and Fig. 10 rendered in both
    legs must be byte-identical.  Each leg generates its trace (the fallback leg with
    the Python walk), so that byte check covers trace generation too.
    The vectorised pass-1 schedule compiler must match the reference
    replay, ``.npz`` payload included, and the trace kernel's gzip trace
    (4,000 instructions, then 777 more from the same generator) must
    match the Python walk's, columns and RNG state alike.  The
    block-size x prefetching study over swim at 32- and 64-B blocks
    (3,000 instructions) must run its two prefetching runs in the lane
    kernel, and render a figure CSV and ``SimResult`` list identical to
    the ``REPRO_NO_CKERNEL=1`` object-loop leg's.  One 25-lane gzip pass
    of mixed victim sizes, without and with prefetchers, run as 1, 2 and
    3 threaded kernel slices, must equal each lane's object run; the
    slice count the default rule picks for it is recorded, and must be 2
    or more where the process may use 2 or more CPUs.
    """
    import dataclasses
    import io

    import numpy as np

    from repro.budget import cpu_budget
    from repro.campaign.events import signature_digest
    from repro.campaign.session import Session
    from repro.campaign.spec import CampaignSpec, RunnerSettings
    from repro.cpu import frontend, lane_kernel
    from repro.cpu import pipeline as pipeline_mod
    from repro.cpu.pipeline import OutOfOrderPipeline
    from repro.experiments.ablation import blocksize_prefetch_study
    from repro.experiments.configs import LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10
    from repro.experiments.figures import fig10_data
    from repro.workloads.generator import TraceGenerator

    settings = RunnerSettings(
        n_instructions=3_000,
        warmup_instructions=1_000,
        n_fault_maps=2,
        benchmarks=("gzip",),
    )
    configs = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
    items = [(config, m) for config in configs for m in range(2)]

    reference_session = Session(settings)
    trace = reference_session.trace("gzip")
    reference = {
        (config.label, m): reference_session.build_pipeline(
            config, m, engine="object"
        ).run(trace, measure_from=settings.warmup_instructions)
        for config, m in items
    }

    def leg() -> dict:
        with Session(settings) as session:
            plan = session.plan(CampaignSpec.from_settings(settings, configs))
            for group in plan.groups:
                session.run_group(
                    group.benchmark, [(i.config, i.map_index) for i in group.items]
                )
            divergences = sum(
                session.store.get(session.task_key("gzip", config, m))
                != reference[(config.label, m)]
                for config, m in items
            )
            return {
                "plan": [
                    [g.benchmark, signature_digest(g.signature), [i.key for i in g.items]]
                    for g in plan.groups
                ],
                "predicted_passes": plan.predicted_passes,
                "passes": session.schedule_passes,
                "divergences": divergences,
                "traces_generated": session.traces.generated,
                "traces_loaded": session.traces.loaded,
                "figure": fig10_data(session).to_csv(),
            }

    failures: list[str] = []
    kernel_active = lane_kernel.load() is not None
    runs = {"kernel": leg()}
    with _no_ckernel():
        runs["fallback"] = leg()
    figures_identical = runs["kernel"].pop("figure") == runs["fallback"].pop("figure")
    if not figures_identical:
        failures.append("Fig. 10 bytes differ between the kernel and fallback legs")
    # The plan is the host's business no more: both legs plan one pass of
    # every lane and run exactly the passes they predict.
    if runs["fallback"]["plan"] != runs["kernel"]["plan"] or (
        runs["fallback"]["predicted_passes"] != runs["kernel"]["predicted_passes"]
    ):
        failures.append("the REPRO_NO_CKERNEL=1 plan differs from the kernel leg's")
    for name, run in runs.items():
        if (run["traces_generated"], run["traces_loaded"]) != (1, 0):
            failures.append(
                f"{name} leg: generated {run['traces_generated']} and loaded "
                f"{run['traces_loaded']} traces; it must generate its one trace"
            )
        if run["divergences"]:
            failures.append(
                f"{name} leg: {run['divergences']}/{len(items)} lanes "
                "diverged from the sequential object runs"
            )
        groups = [len(keys) for _, _, keys in run["plan"]]
        if groups != [len(items)] or run["passes"] != run["predicted_passes"]:
            failures.append(
                f"{name} leg: hetero campaign planned groups of {groups} lanes "
                f"and took {run['passes']} passes for {run['predicted_passes']} "
                f"predicted; expected one group of {len(items)} and one pass"
            )

    offset_bits = reference_session.build_pipeline(
        LV_BLOCK, 0
    ).hierarchy.l1i.geometry.offset_bits
    config = reference_session.pipeline_config
    vec = frontend._build_schedule(trace, config, offset_bits)
    ref = frontend._build_schedule_reference(trace, config, offset_bits)
    compile_identical = vec == ref

    def npz_members(schedule) -> dict:
        buffer = io.BytesIO()
        frontend.save_schedule(schedule, buffer)
        buffer.seek(0)
        with np.load(buffer) as data:
            return {k: data[k].tobytes() for k in data.files}

    npz_identical = npz_members(vec) == npz_members(ref)
    if not (compile_identical and npz_identical):
        failures.append(
            "vectorised schedule compile diverged from the reference replay "
            f"(schedule={compile_identical}, npz={npz_identical})"
        )

    with _no_ckernel():
        oracle = TraceGenerator("gzip", seed=settings.seed)
    compiled = TraceGenerator("gzip", seed=settings.seed)
    trace_kernel_active = compiled._kernel is not None
    walk_identical = True
    for n in (4_000, 777):
        same_columns = compiled.generate(n) == oracle.generate(n)
        same_state = compiled._rng.getstate() == oracle._rng.getstate()
        walk_identical &= same_columns and same_state
    if not walk_identical:
        failures.append(
            "the trace kernel's gzip trace or RNG state diverged from the Python walk"
        )

    def prefetch_leg() -> dict:
        results, routed = [], []
        run = OutOfOrderPipeline.run

        def collect(pipeline, trace, *args, **kwargs):
            if pipeline.hierarchy.dport.prefetcher is not None:
                routed.append(
                    pipeline.kernel_lane() is not None
                    and lane_kernel.load() is not None
                )
            results.append(run(pipeline, trace, *args, **kwargs))
            return results[-1]

        OutOfOrderPipeline.run = collect
        try:
            figure = blocksize_prefetch_study(
                benchmarks=("swim",), n_instructions=3_000, block_sizes=(32, 64)
            )
        finally:
            OutOfOrderPipeline.run = run
        return {"figure": figure.to_csv(), "results": results, "routed": routed}

    study = {"kernel": prefetch_leg()}
    with _no_ckernel():
        study["fallback"] = prefetch_leg()
    study_identical = {
        part: study["kernel"][part] == study["fallback"][part]
        for part in ("figure", "results")
    }
    if not all(study_identical.values()):
        failures.append(
            "the prefetch study diverged between the kernel and fallback legs "
            f"(identical: {study_identical})"
        )
    expected_routing = {"kernel": [kernel_active] * 2, "fallback": [False] * 2}
    study_routing = {name: leg["routed"] for name, leg in study.items()}
    if study_routing != expected_routing:
        failures.append(
            f"prefetching runs reached the kernel as {study_routing}, "
            f"expected {expected_routing}"
        )

    # Threaded kernel slices: one 25-lane pass, forced to 1-3 slices.
    warmup = settings.warmup_instructions
    wide = [
        reference_session._kernel_lane(config, m)
        for m in range(9)
        for config in configs
    ][:25]
    rule = pipeline_mod.kernel_slices
    default_slices = rule(len(wide), len(trace))
    slices_identical = {}
    for degree in (0, 1):
        lanes = [dataclasses.replace(lane, prefetch_degree=degree) for lane in wide]
        expected = [lane.pipeline("object").run(trace, warmup) for lane in lanes]
        for k in (1, 2, 3):
            pipeline_mod.kernel_slices = lambda lanes, instructions, k=k: k
            try:
                sliced = OutOfOrderPipeline.run_batch(lanes, trace, warmup)
            finally:
                pipeline_mod.kernel_slices = rule
            slices_identical[f"prefetch {degree}, {k} slices"] = sliced == expected
    if not all(slices_identical.values()):
        failures.append(
            "a sliced 25-lane pass diverged from the object runs "
            f"(identical: {slices_identical})"
        )
    if kernel_active and cpu_budget() >= 2 and default_slices < 2:
        failures.append(
            f"the slice rule keeps a 25-lane pass of {len(trace)} instructions "
            f"whole on {cpu_budget()} CPUs"
        )

    _write(
        json_dir,
        "kernel",
        {
            "kernel_active": kernel_active,
            "cpu_budget": cpu_budget(),
            "default_slices": default_slices,
            "slices_identical": slices_identical,
            "trace_kernel_active": trace_kernel_active,
            "trace_walk_identical": walk_identical,
            "lanes": len(items),
            "runs": runs,
            "figure_bytes_identical": figures_identical,
            "schedule_compile_identical": compile_identical,
            "npz_identical": npz_identical,
            "prefetch_study_identical": study_identical,
            "prefetch_study_runs": len(study["kernel"]["results"]),
            "prefetch_study_kernel_runs": study_routing,
            "ok": not failures,
        },
    )
    return failures


def smoke_chaos(json_dir: str) -> list[str]:
    """Resilience gate: a pool campaign under chaos fault injection must
    drain bit-identical to a clean serial run.

    ``REPRO_CHAOS=crash:0.4,seed:3`` deterministically kills real pool
    workers mid-campaign (the seed is chosen so crashes actually fire
    for this campaign's task keys); the resilient ``PoolExecutor`` must
    rebuild the pool, re-roll the injected fate via the pool-generation
    epoch, retry the lost chunks, and land every result byte-identical
    to the serial reference — zero divergences, zero quarantined tasks.
    """
    from repro.campaign.events import TaskRetried, WorkerCrashed
    from repro.campaign.executors import PoolExecutor
    from repro.campaign.resilience import RetryPolicy
    from repro.campaign.session import Session
    from repro.campaign.spec import RunnerSettings
    from repro.experiments.configs import (
        LV_BASELINE,
        LV_BLOCK,
        LV_BLOCK_V10,
        LV_WORD,
    )
    from repro.store import result_to_dict
    from repro.testing.chaos import CHAOS_ENV

    settings = RunnerSettings(
        n_instructions=3_000,
        warmup_instructions=1_000,
        n_fault_maps=2,
        benchmarks=("gzip",),
    )
    configs = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10)

    def snapshot(session: Session) -> dict:
        return {
            key: result_to_dict(session.store.get(key))
            for key in session.store.keys()
        }

    serial = Session(settings)
    serial.run_all(serial.spec(configs))
    reference = snapshot(serial)

    crashes = retries = 0
    saved = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = "crash:0.4,seed:3"
    try:
        chaotic = Session(settings)
        executor = PoolExecutor(
            2, retry=RetryPolicy(max_attempts=5, backoff_base=0.0)
        )
        for event in chaotic.run(chaotic.spec(configs), executor=executor):
            if isinstance(event, WorkerCrashed):
                crashes += 1
            elif isinstance(event, TaskRetried):
                retries += 1
    finally:
        if saved is None:
            del os.environ[CHAOS_ENV]
        else:
            os.environ[CHAOS_ENV] = saved

    chaos_snapshot = snapshot(chaotic)
    divergences = sum(
        chaos_snapshot.get(key) != value for key, value in reference.items()
    ) + sum(1 for key in chaos_snapshot if key not in reference)

    failures: list[str] = []
    if crashes < 1:
        failures.append(
            "chaos injection fired no worker crash — the smoke proved nothing "
            "(did the injection seam or the seeded schedule change?)"
        )
    if divergences:
        failures.append(
            f"{divergences}/{len(reference)} chaos-run results diverge from "
            "the clean serial store"
        )
    if chaotic.failures:
        failures.append(
            f"{len(chaotic.failures)} task(s) quarantined under crash-only "
            "chaos (crashes must be retried to completion, not quarantined)"
        )

    _write(
        json_dir,
        "chaos",
        {
            "crashes": crashes,
            "retries": retries,
            "points": len(reference),
            "divergences": divergences,
            "quarantined": len(chaotic.failures),
            "ok": not failures,
        },
    )
    return failures


def _live_group_members(pgid: int) -> list[int]:
    """PIDs in process group ``pgid`` that are still running (zombies
    only await reaping by their new parent and do not count)."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited meanwhile
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry))
    return live


def smoke_store_chaos(json_dir: str) -> list[str]:
    """Crash-consistent storage gate: one writable store, two legacy
    layouts migrated.

    A pool campaign checkpointing into a jsonl store under I/O fault
    injection is SIGKILLed, with its whole process group, as soon as its
    first record bytes reach the log, and no process of that group (the
    pool workers) may outlive it; a chaos-free resume against the
    survivor directory must regenerate figures byte-identical to a
    storeless reference run; ``store repair`` then ``store verify`` must
    leave zero undetected-corrupt records.  The same campaign run
    in-process (the default ``--workers 1``, ``--max-retries 7``) under
    the same I/O faults must exit 0 with stdout byte-identical to the
    reference, repair and verify cleanly, and re-run as pure store hits.
    Then a sqlite copy and a
    sharded copy of the resumed store (laid out by the test helpers:
    this build writes neither) each migrate in place: the directory must
    resolve to jsonl, the migrated log's sorted lines must equal the
    resumed log's byte for byte, and a rerun must be pure store hits
    with byte-identical figures.
    """
    import signal
    import time

    sys.path.insert(0, os.path.join(ROOT, "tests", "store"))
    from store_helpers import LEGACY_WRITERS

    from repro.store import detect_backend, open_store

    failures: list[str] = []
    summary: dict = {"migrated": {}}
    chaos_env = _env()
    chaos_env["REPRO_CHAOS"] = (
        "torn-write:0.3,fsync-fail:0.2,partial-append:0.2,seed:7"
    )

    def sorted_lines(directory: str) -> list:
        with open(os.path.join(directory, "results.jsonl"), encoding="utf-8") as fh:
            return sorted(fh.read().splitlines())

    with tempfile.TemporaryDirectory() as tmp:
        traces = os.path.join(tmp, "traces")
        reference = _cli(_STORE_ARGS + ["--no-store", "--trace-cache", traces])
        if reference.returncode != 0:
            return [f"reference run exited {reference.returncode}: {reference.stderr}"]

        directory = os.path.join(tmp, "jsonl")
        log = os.path.join(directory, "results.jsonl")
        persist = ["--store", directory, "--trace-cache", traces]
        # Its own session, so the pool workers share the victim's
        # process group and die with it.
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", *_STORE_ARGS,
             *persist, "--workers", "2"],
            cwd=ROOT,
            env=chaos_env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        # Kill mid-write: the moment record bytes hit the log the
        # campaign is inside its checkpoint path.  A campaign that
        # finishes before the probe trips still resumes cleanly.
        deadline = time.monotonic() + 60.0
        while victim.poll() is None and time.monotonic() < deadline:
            if os.path.exists(log) and os.path.getsize(log) > 0:
                try:
                    os.killpg(victim.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the campaign finished first
                break
            time.sleep(0.02)
        victim.wait(timeout=60.0)
        killed = victim.returncode == -signal.SIGKILL
        # SIGKILL lands asynchronously: give the group a moment to go.
        settle = time.monotonic() + 10.0
        survivors = _live_group_members(victim.pid)
        while survivors and time.monotonic() < settle:
            time.sleep(0.05)
            survivors = _live_group_members(victim.pid)
        if survivors:
            failures.append(
                f"victim's process group outlived SIGKILL: pids {survivors}"
            )
            for pid in survivors:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        resume = _cli(_STORE_ARGS + persist)
        if resume.returncode != 0:
            failures.append(f"resume exited {resume.returncode}: {resume.stderr}")
        identical = resume.stdout == reference.stdout
        if not identical:
            diff = "\n".join(
                difflib.unified_diff(
                    reference.stdout.splitlines(),
                    resume.stdout.splitlines(),
                    lineterm="",
                )
            )
            failures.append(
                f"resumed figures differ from the clean reference:\n{diff}"
            )
        repair = _cli(["store", "repair", directory])
        verify = _cli(["store", "verify", directory])
        if repair.returncode != 0:
            failures.append(f"repair exited {repair.returncode}:"
                            f"\n{repair.stdout}{repair.stderr}")
        if verify.returncode != 0:
            failures.append(f"verify not clean after repair:"
                            f"\n{verify.stdout}{verify.stderr}")
        summary.update(
            killed_mid_write=killed,
            group_survivors=len(survivors),
            resume_byte_identical=identical,
            repair_rc=repair.returncode,
            verify_rc=verify.returncode,
        )

        # In-process: one worker lands results through the same retrying
        # path as a pool, so the faults above cost retries, not the run.
        inproc = os.path.join(tmp, "in-process")
        inproc_args = _STORE_ARGS + [
            "--store", inproc, "--trace-cache", traces, "--max-retries", "7",
        ]
        faulted = subprocess.run(
            [sys.executable, "-m", "repro.experiments", *inproc_args],
            cwd=ROOT,
            env=chaos_env,
            capture_output=True,
            text=True,
        )
        if faulted.returncode != 0:
            failures.append(
                f"in-process run under I/O chaos exited {faulted.returncode}:"
                f"\n{faulted.stderr}"
            )
        if faulted.stdout != reference.stdout:
            failures.append(
                "in-process figures under I/O chaos differ from the clean reference"
            )
        inproc_repair = _cli(["store", "repair", inproc])
        inproc_verify = _cli(["store", "verify", inproc])
        for name, proc in (("repair", inproc_repair), ("verify", inproc_verify)):
            if proc.returncode != 0:
                failures.append(
                    f"in-process store {name} exited {proc.returncode}:"
                    f"\n{proc.stdout}{proc.stderr}"
                )
        inproc_rerun = _cli(inproc_args)
        if "simulations executed=0" not in inproc_rerun.stderr:
            failures.append(
                f"in-process store re-run was not pure store hits: "
                f"{inproc_rerun.stderr}"
            )
        summary["in_process"] = {
            "rc": faulted.returncode,
            "byte_identical": faulted.stdout == reference.stdout,
            "writes_recovered": faulted.stderr.count("store write recovered"),
            "repair_rc": inproc_repair.returncode,
            "verify_rc": inproc_verify.returncode,
            "rerun_pure_hits": "simulations executed=0" in inproc_rerun.stderr,
        }

        # A legacy copy of the resumed store per layout, migrated in
        # place: the next open must resolve to the migrated log, which
        # must hold the resumed log's records byte for byte.
        with open_store(directory) as resumed:
            pairs = [(key, resumed.get(key)) for key in resumed.keys()]
        for layout, write in LEGACY_WRITERS.items():
            copy = os.path.join(tmp, f"{layout}-in-place")
            write(copy, pairs)
            proc = _cli(["store", "migrate", copy])
            if proc.returncode != 0:
                failures.append(
                    f"in-place migrate of the {layout} copy exited "
                    f"{proc.returncode}:\n{proc.stdout}{proc.stderr}"
                )
            resolved = detect_backend(copy)
            if resolved != "jsonl":
                failures.append(
                    f"after in-place migration {copy} resolves to {resolved!r}"
                )
            lossless = (
                resolved == "jsonl" and sorted_lines(copy) == sorted_lines(directory)
            )
            if not lossless:
                failures.append(
                    f"the {layout} copy's migrated log is not the resumed log "
                    "record for record"
                )
            rerun = _cli(_STORE_ARGS + ["--store", copy, "--trace-cache", traces])
            if rerun.stdout != reference.stdout:
                failures.append(
                    f"figures from migrated store {copy} differ from the "
                    "clean reference"
                )
            if "simulations executed=0" not in rerun.stderr:
                failures.append(
                    f"migrated store {copy} was not pure store hits: {rerun.stderr}"
                )
            summary["migrated"][layout] = {
                "resolves": resolved,
                "lines_identical": lossless,
            }
        summary["ok"] = not failures
        _write(json_dir, "store-chaos", summary)
    return failures


#: The service smoke's campaign: client A's spec, and client B's, which
#: overlaps A on every fig8 key.
_SERVICE_FIG_ARGS = ["--instructions", "2000", "--maps", "2", "--benchmarks", "gzip"]
_SERVICE_SPEC_A = ["fig8"]
_SERVICE_SPEC_B = ["fig8", "fig9"]


def smoke_service(json_dir: str) -> list[str]:
    """Campaign service gate: server + concurrent clients + worker chaos.

    A campaign server over a fresh jsonl store
    (``serve --workers 2``: the same ``PoolExecutor`` as ``run``, whose
    parent lands every chunk in the shared store as it completes) runs
    under ``REPRO_CHAOS`` worker-crash injection while two concurrent
    ``submit`` clients send overlapping specs.  Each client must receive
    a complete event stream (one PointResult per distinct key of its
    spec); the server must execute the overlap once (executed_A +
    executed_B == |union| < total_A + total_B), and its ``/healthz``,
    read before SIGTERM, must agree (store_hits + simulations_executed
    == total_A + total_B, simulations_executed == |union|); a figure
    re-render from the server's store must be pure store hits and
    byte-identical to a chaos-free serial reference; ``store verify``
    must find the store clean.
    """
    with tempfile.TemporaryDirectory() as tmp:
        traces = os.path.join(tmp, "traces")
        reference = _cli(
            _SERVICE_SPEC_A + _SERVICE_FIG_ARGS + ["--no-store", "--trace-cache", traces]
        )
        if reference.returncode != 0:
            return [f"reference run exited {reference.returncode}: {reference.stderr}"]
        failures, summary = _service_round(
            os.path.join(tmp, "store"), traces, reference.stdout
        )
    summary["ok"] = not failures
    _write(json_dir, "service", summary)
    return failures


def _service_round(
    store: str, traces: str, reference: str
) -> "tuple[list[str], dict]":
    """One ``service`` round over a fresh store: serve, two overlapping
    clients, SIGTERM, then the re-render and ``store verify`` checks.
    Returns (failures, the clients' summary)."""
    import signal
    import time
    import urllib.request

    failures: list[str] = []
    chaos_env = _env()
    chaos_env["REPRO_CHAOS"] = "crash:0.4,seed:3"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0", "--workers", "2",
            "--store", store,
            "--trace-cache", traces, *_SERVICE_FIG_ARGS,
        ],
        cwd=ROOT,
        env=chaos_env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    url = None
    stats = {}
    health = {}
    all_keys = set()
    event_kinds = set()
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = server.stdout.readline()
            if line.startswith("serving on "):
                url = line.split()[-1].strip()
                break
            if server.poll() is not None:
                break
        if url is None:
            return ["server never announced its port"], {}

        def submit(targets):
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro.experiments", "submit",
                    *targets, *_SERVICE_FIG_ARGS, "--url", url,
                ],
                cwd=ROOT,
                env=_env(),  # clients are chaos-free; faults are server-side
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )

        clients = {"A": submit(_SERVICE_SPEC_A), "B": submit(_SERVICE_SPEC_B)}
        streams = {}
        for name, proc in clients.items():
            out, err = proc.communicate(timeout=600)
            if proc.returncode != 0:
                failures.append(f"client {name} exited {proc.returncode}: {err}")
            streams[name] = [json.loads(l) for l in out.splitlines() if l.strip()]

        for name, lines in streams.items():
            events = [l for l in lines if "event" in l]
            done = next((l for l in lines if l.get("done") is True), None)
            if done is None:
                failures.append(f"client {name} stream has no done line")
                continue
            plans = [e for e in events if e["event"] == "PlanReady"]
            points = [e for e in events if e["event"] == "PointResult"]
            event_kinds.update(e["event"] for e in events)
            total = plans[0]["plan"]["total_points"] if plans else -1
            keys = {p["key"] for p in points}
            all_keys |= keys
            if len(keys) != total:
                failures.append(
                    f"client {name} stream incomplete: {len(keys)} distinct "
                    f"PointResult keys for {total} plan points"
                )
            if done["failures"] != 0:
                failures.append(f"client {name} saw {done['failures']} failures")
            stats[name] = {"total_points": total, **done}

        if len(stats) == 2:
            executed = sum(s["simulations_executed"] for s in stats.values())
            standalone = sum(s["total_points"] for s in stats.values())
            if executed != len(all_keys):
                failures.append(
                    f"union executed once violated: {executed} executed "
                    f"vs {len(all_keys)} distinct keys"
                )
            if executed >= standalone:
                failures.append(
                    f"no dedup: executed {executed} >= standalone "
                    f"sum {standalone}"
                )
            # The server's own ledger: every key of each client was either
            # streamed from the store or simulated, and the union once.
            with urllib.request.urlopen(f"{url}/healthz", timeout=30) as reply:
                health = json.load(reply)
            served = health["store_hits"] + health["simulations_executed"]
            if served != standalone:
                failures.append(
                    f"/healthz store_hits + simulations_executed = {served}, "
                    f"expected the clients' {standalone} distinct keys"
                )
            if health["simulations_executed"] != len(all_keys):
                failures.append(
                    f"/healthz simulations_executed = "
                    f"{health['simulations_executed']}, expected the "
                    f"{len(all_keys)}-key union"
                )
        if not event_kinds & {"WorkerCrashed", "TaskRetried"}:
            failures.append(
                "chaos fired no WorkerCrashed/TaskRetried events "
                f"(kinds seen: {sorted(event_kinds)})"
            )
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            failures.append("server ignored SIGTERM")

    # Figures from the chaos-survivor store: pure hits, byte-identical.
    rerun = _cli(
        _SERVICE_SPEC_A + _SERVICE_FIG_ARGS + ["--store", store, "--trace-cache", traces]
    )
    if rerun.returncode != 0:
        failures.append(f"rerun exited {rerun.returncode}: {rerun.stderr}")
    if "simulations executed=0" not in rerun.stderr:
        failures.append(f"rerun re-simulated: {rerun.stderr}")
    if rerun.stdout != reference:
        diff = "\n".join(
            difflib.unified_diff(
                reference.splitlines(), rerun.stdout.splitlines(), lineterm=""
            )
        )
        failures.append(f"service figures differ from serial reference:\n{diff}")
    verify = _cli(["store", "verify", store])
    if verify.returncode != 0:
        failures.append(f"store verify failed ({verify.returncode}): {verify.stdout}")
    return failures, {
        "clients": stats,
        "distinct_keys": len(all_keys),
        "event_kinds": sorted(event_kinds),
        "healthz": health,
    }


def smoke_predict(json_dir: str) -> list[str]:
    """Predictive campaign gate: the active loop earns its keep.

    On a fig8 slice (4 configs x 8 benchmarks x 50 fault maps = 816
    points, low fidelity) the ``repro.predict`` loop must

    * converge within its tolerance while simulating at most 50% of the
      grid;
    * run every proposal, at any map depth, on the smoke's one session:
      no other ``Session`` is built and each benchmark's trace is
      generated or loaded once;
    * land every simulated point in the store, so re-planning the full
      grid dedups exactly the loop's labels;
    * be replayable: ``replay_report`` over the loop's store re-derives
      a byte-identical estimate with zero simulations;
    * beat **random** acquisition at equal simulation budget on the
      figure's average series against the fully-simulated ground truth
      (the paper's fig8 bars), with its own error under a pinned bound.

    Everything is seeded, so the errors are deterministic; the JSON
    artifact records the active-vs-random comparison per run.
    """
    from repro.campaign.session import Session
    from repro.campaign.spec import CampaignSpec, RunnerSettings
    from repro.experiments.configs import (
        LV_BASELINE,
        LV_BLOCK,
        LV_BLOCK_V10,
        LV_WORD,
    )
    from repro.predict import ActiveCampaign, PredictSettings, replay_report

    benchmarks = ("ammp", "art", "equake", "crafty", "gcc", "gzip", "mcf", "vpr")
    settings = RunnerSettings(
        n_instructions=2_000,
        warmup_instructions=500,
        n_fault_maps=50,
        benchmarks=benchmarks,
    )
    spec = CampaignSpec.from_settings(
        settings, (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10), figure="fig8"
    )
    # batch (24) deliberately under cells x maps_step (16 x 3): every
    # round must *choose* cells, so the gate exercises acquisition, not
    # just round-robin depth.
    predict = PredictSettings(
        budget=0.5, batch=24, tolerance=0.01, patience=2, seed=2010
    )
    avg_error_bound = 0.005  # measured 0.0026 on this slice; headroom for drift

    failures: list[str] = []

    def figure_error(estimate: dict, truth: dict) -> "tuple[float, float]":
        """Max abs error on the average series (and the min series,
        informational) across every non-baseline config x benchmark."""
        avg_err = min_err = 0.0
        for label, series in truth.items():
            est = estimate[label]
            for a, b in zip(series["average"], est["average"]):
                avg_err = max(avg_err, abs(a - b))
            if series["minimum"] is not None and est["minimum"] is not None:
                for a, b in zip(series["minimum"], est["minimum"]):
                    min_err = max(min_err, abs(a - b))
        return avg_err, min_err

    with tempfile.TemporaryDirectory() as traces:
        with Session(settings, trace_cache=traces) as session:
            built = []
            session_init = Session.__init__

            def counting_init(other, *args, **kwargs):
                built.append(other)
                session_init(other, *args, **kwargs)

            Session.__init__ = counting_init
            try:
                report = ActiveCampaign(session, spec, predict).run_all()
            finally:
                Session.__init__ = session_init
            if built:
                failures.append(
                    f"the active loop built {len(built)} session(s) besides "
                    "the smoke's own"
                )
            acquired = session.traces.generated + session.traces.loaded
            if acquired != len(benchmarks):
                failures.append(
                    f"traces generated+loaded={acquired}, expected one per "
                    f"benchmark ({len(benchmarks)})"
                )
            if report.coverage > 0.5:
                failures.append(
                    f"active loop simulated {report.simulated}/{report.total} "
                    f"({report.coverage:.0%}) — over the 50% ceiling"
                )
            if report.reason not in ("tolerance", "budget"):
                failures.append(f"unexpected stop reason {report.reason!r}")

            # replayable: the store alone re-derives the estimate
            replay = replay_report(session, spec, predict)
            replay_identical = replay.estimate == report.estimate
            if not replay_identical:
                failures.append("replay_report estimate differs from the run's")
            if replay.simulated != 0:
                failures.append(f"replay simulated {replay.simulated} points")

            # economics: a follow-up full campaign is pure dedup ...
            plan = session.plan(spec)
            if plan.dedup_hits != report.labeled:
                failures.append(
                    f"full-grid plan dedups {plan.dedup_hits}, loop "
                    f"labeled {report.labeled} — some work was not durable"
                )
            # ... then fill the grid for ground truth
            session.run_all(spec)
            truth = {}
            for config in (LV_WORD, LV_BLOCK, LV_BLOCK_V10):
                avgs, mins = [], []
                for benchmark in benchmarks:
                    base = session.cached(benchmark, LV_BASELINE, None).cycles
                    if config.needs_fault_map:
                        values = [
                            base / session.cached(benchmark, config, m).cycles
                            for m in range(settings.n_fault_maps)
                        ]
                    else:
                        values = [
                            base / session.cached(benchmark, config, None).cycles
                        ]
                    avgs.append(sum(values) / len(values))
                    mins.append(min(values))
                truth[config.label] = {
                    "average": avgs,
                    "minimum": mins if config.needs_fault_map else None,
                }

        active_avg, active_min = figure_error(report.estimate, truth)
        if active_avg > avg_error_bound:
            failures.append(
                f"active figure error {active_avg:.4f} exceeds the "
                f"{avg_error_bound} bound"
            )

        # the control: random acquisition at the same simulation budget,
        # forced to spend it all (no tolerance stop), on a fresh store
        random_settings = PredictSettings(
            budget=report.coverage,
            batch=24,
            tolerance=1e-9,
            patience=10**6,
            strategy="random",
            initial_maps=predict.initial_maps,
            maps_step=predict.maps_step,
            seed=predict.seed,
        )
        with Session(settings, trace_cache=traces) as control:
            random_report = ActiveCampaign(control, spec, random_settings).run_all()
        random_avg, random_min = figure_error(random_report.estimate, truth)
        if active_avg >= random_avg:
            failures.append(
                f"active acquisition ({active_avg:.4f}) does not beat "
                f"random ({random_avg:.4f}) at equal budget "
                f"({report.simulated} vs {random_report.simulated} sims)"
            )

    _write(
        json_dir,
        "predict",
        {
            "grid": {
                "configs": 4,
                "benchmarks": len(benchmarks),
                "fault_maps": settings.n_fault_maps,
                "total_points": report.total,
            },
            "active": {
                "strategy": predict.strategy,
                "simulated": report.simulated,
                "coverage": report.coverage,
                "rounds": report.rounds,
                "reason": report.reason,
                "avg_series_error": active_avg,
                "min_series_error": active_min,
            },
            "random": {
                "simulated": random_report.simulated,
                "avg_series_error": random_avg,
                "min_series_error": random_min,
            },
            "avg_error_bound": avg_error_bound,
            "replay_identical": replay_identical,
            "full_plan_dedup_hits": plan.dedup_hits,
            "failures": failures,
        },
    )
    return failures


#: Tests the sanitize smoke runs against the instrumented kernels: every
#: kernel-eligible golden scenario reaches the lane kernel, single and as
#: two kernel lanes of one pass, the property suite fuzzes its whole
#: eligible space (prefetching lanes included) through pipelines' and
#: directly built kernel lanes, each pass also split into 1-4 threaded
#: slices, as the lane-kernel tests split theirs (so the threaded entry
#: runs instrumented), and the session-lane tests drive arrays
#: built from enabled-way matrices, victim-less lanes padded beside 8-
#: and 16-entry ones; the prefetcher tests and the block-size x
#: prefetching study drive the prefetchers' tag sets, which every pass
#: starts empty, the study at 32- and 64-B blocks; the metamorphic
#: properties drive lanes over thinned, nested (rising-pfail) and fully
#: disabled sets, and the allocation test one pass over a fresh
#: 200k-instruction trace, both reading the trace's int8 columns in
#: place; the workload tests and the trace-equivalence property drive the
#: trace kernel over the SPEC profiles and fuzzed ones; the trace- and
#: schedule-cache tests drive columns and schedules read from disk (raw,
#: compressed and malformed entries), and the trace refusal tests
#: hand-built malformed columns.
_SANITIZE_TESTS = (
    "tests/cpu/test_lane_kernel.py",
    "tests/property/test_batch_equivalence.py",
    "tests/integration/test_golden_sim.py",
    "tests/experiments/test_runner_batch.py",
    "tests/property/test_mega_partition.py",
    "tests/property/test_metamorphic.py",
    "tests/cpu/test_batch.py::test_a_kernel_pass_allocates_nothing_of_the_trace_length",
    "tests/cache/test_prefetch.py",
    "tests/experiments/test_ablation.py::TestBlocksizePrefetchStudy",
    "tests/workloads/",
    "tests/property/test_trace_equivalence.py",
    "tests/experiments/test_trace_cache.py",
    "tests/cpu/test_schedule_cache.py",
    "tests/cpu/test_trace_isa.py::TestTraceRefusesMalformedColumns",
)
#: Per kernel: (the source text the self-check breaks, its one-past-end
#: replacement, the test the broken build runs under).
_SANITIZE_SELF_CHECKS = {
    "lane_kernel": (
        "for (int64_t l = 0; l < L; l++) fetch_base[l]",
        "for (int64_t l = 0; l <= L; l++) fetch_base[l]",
        "tests/cpu/test_lane_kernel.py::TestKernelVsFallback"
        "::test_padded_heterogeneous_victims",
    ),
    "trace_kernel": (
        "a->taken[i] = (taken_);",
        "a->taken[i + 1] = (taken_);",
        "tests/workloads/test_generator.py::TestStructure::test_requested_length",
    ),
}


def _sanitized_run(tests: tuple, workdir: str, sources: dict | None = None) -> dict:
    """Build both kernels with ASan and UBSan into an empty kernel cache,
    under the object names their loaders look for (``sources`` replaces a
    kernel's source by name), then run pytest on ``tests`` against them
    in a subprocess.  Sanitizer reports go to log files: pytest's fd
    capture swallows a report written to stderr when the sanitizer
    aborts the process."""
    from repro.cpu import lane_kernel
    from repro.workloads import trace_kernel

    cache = os.path.join(workdir, "kernel")
    logs = os.path.join(workdir, "logs")
    os.makedirs(cache)
    os.makedirs(logs)
    kernels = (lane_kernel.KERNEL, trace_kernel.KERNEL)
    lib_paths = []
    for kernel in kernels:
        src_path = os.path.join(workdir, f"{kernel.name}.c")
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write((sources or {}).get(kernel.name, kernel.source))
        lib_paths.append(os.path.join(cache, kernel.object_name()))
        subprocess.run(
            [
                "gcc", "-O1", "-g", "-fsanitize=address,undefined",
                "-fno-sanitize-recover=all", *kernel.cflags, "-shared", "-fPIC",
                "-o", lib_paths[-1], src_path, *kernel.libs,
            ],
            check=True,
            capture_output=True,
        )
    runtimes = [
        subprocess.run(
            ["gcc", f"-print-file-name={name}"],
            check=True,
            capture_output=True,
            text=True,
        ).stdout.strip()
        for name in ("libasan.so", "libubsan.so")
    ]
    env = _env()
    env.pop("REPRO_NO_CKERNEL", None)
    env.update(
        REPRO_KERNEL_CACHE=cache,
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS=f"detect_leaks=0:log_path={os.path.join(logs, 'asan')}",
        UBSAN_OPTIONS=f"print_stacktrace=1:log_path={os.path.join(logs, 'ubsan')}",
    )
    # A kernel that fails to load is dropped and rebuilt unsanitized by the
    # tests, which would then pass vacuously: require a clean load first.
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; from repro.cpu import lane_kernel; "
            "from repro.workloads import trace_kernel; "
            "sys.exit(lane_kernel.load() is None or trace_kernel.load() is None)",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    reports = []
    for name in sorted(os.listdir(logs)):
        with open(os.path.join(logs, name), encoding="utf-8", errors="replace") as fh:
            reports.append(fh.read())
    return {
        "loaded": probe.returncode == 0 and all(map(os.path.exists, lib_paths)),
        "returncode": proc.returncode,
        "tail": (proc.stdout + proc.stderr)[-2000:],
        "reports": reports,
    }


def smoke_sanitize(json_dir: str) -> list[str]:
    """Memory-safety gate for the compiled kernels.

    The lane and trace kernel sources are rebuilt with ``-O1 -g
    -fsanitize=address,undefined -fno-sanitize-recover=all`` and picked
    up through the existing ``REPRO_KERNEL_CACHE`` lookup; the kernel,
    property (the eligible-space fuzz and the trace-equivalence
    property included), golden, prefetcher and workload tests must pass
    with no sanitizer report.  Self-checks first build each kernel with a
    one-past-end write injected (``l <= L`` in the lane kernel's
    fetch-base refresh; ``taken[i + 1]`` in the trace kernel's output
    column) and require ASan to report the heap-buffer-overflow.
    """
    from repro.cpu import lane_kernel
    from repro.workloads import trace_kernel

    failures: list[str] = []
    runs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kernel in (lane_kernel.KERNEL, trace_kernel.KERNEL):
            target, broken, test = _SANITIZE_SELF_CHECKS[kernel.name]
            injected = kernel.source.replace(target, broken)
            if injected == kernel.source:
                failures.append(
                    f"self-check: the injection site left the {kernel.name} source"
                )
                continue
            check = _sanitized_run(
                (test,),
                os.path.join(tmp, f"self-check-{kernel.name}"),
                {kernel.name: injected},
            )
            runs[f"self_check_{kernel.name}"] = check
            if check["returncode"] == 0 or not any(
                "heap-buffer-overflow" in report for report in check["reports"]
            ):
                failures.append(
                    f"self-check: the {kernel.name}'s injected one-past-end write "
                    f"went undetected (exit {check['returncode']})\n{check['tail']}"
                )
        run = _sanitized_run(_SANITIZE_TESTS, os.path.join(tmp, "kernels"))
        runs["kernels"] = run
    if not run["loaded"]:
        failures.append("the sanitized kernels did not load; nothing was checked")
    if run["returncode"] != 0 or run["reports"]:
        failures.append(
            f"sanitized tests exited {run['returncode']} with "
            f"{len(run['reports'])} sanitizer report(s):\n"
            + "\n".join(run["reports"])
            + f"\n{run['tail']}"
        )
    _write(json_dir, "sanitize", {"runs": runs, "ok": not failures})
    return failures


#: Seconds one example script may run before the ``examples`` smoke
#: fails it (all eight take about 7 s together on a 2-core host).
EXAMPLE_TIMEOUT_S = 300


def smoke_examples(json_dir: str) -> list[str]:
    """Every script under ``examples/`` must exit 0.  They drive public
    names (``repro.cache``, ``repro.faults``, ``repro.analysis``, the
    campaign and predict APIs) end to end, as a reader would; each runs
    in a fresh working directory."""
    import time

    directory = os.path.join(ROOT, "examples")
    scripts = sorted(name for name in os.listdir(directory) if name.endswith(".py"))
    failures = [] if scripts else [f"no example scripts under {directory}"]
    runs: dict[str, dict] = {}
    for name in scripts:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as cwd:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(directory, name)],
                    cwd=cwd,
                    env=_env(),
                    capture_output=True,
                    text=True,
                    timeout=EXAMPLE_TIMEOUT_S,
                )
                returncode, tail = proc.returncode, (proc.stdout + proc.stderr)[-2000:]
            except subprocess.TimeoutExpired:
                returncode, tail = None, f"timed out after {EXAMPLE_TIMEOUT_S} s"
        runs[name] = {
            "returncode": returncode,
            "seconds": round(time.perf_counter() - start, 2),
        }
        if returncode != 0:
            failures.append(f"{name} exited {returncode}:\n{tail}")
    _write(json_dir, "examples", {"runs": runs, "ok": not failures})
    return failures


def smoke_perfbench(json_dir: str) -> list[str]:
    """``perfbench/run.py --workload W --trace 1 --seconds 1`` for every
    workload in ``BENCHMARK.json``: each must exit 0 and end in a JSON
    line with ``correct: true`` and ``failed: 0`` (perfbench exits 0 on
    an incorrect run too).  This catches a moved digest or a seam the
    tracer patches before a benchmark run does; timing never fails it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    failures = []
    runs: dict[str, dict] = {}
    for workload in workloads:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                "--workload", workload, "--trace", "1", "--seconds", "1",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            summary = {}
        runs[workload] = {
            "returncode": proc.returncode,
            "correct": summary.get("correct"),
            "failed": summary.get("failed"),
        }
        if proc.returncode != 0 or summary.get("correct") is not True or (
            summary.get("failed") != 0
        ):
            report = "\n".join(lines[:-1]) + proc.stderr  # the JSON line aside
            failures.append(
                f"{workload}: exit {proc.returncode}, correct="
                f"{summary.get('correct')}, failed={summary.get('failed')}\n"
                f"{report[-2000:]}"
            )
    _write(json_dir, "perfbench", {"runs": runs, "ok": not failures})
    return failures


SMOKES = {
    "goldens": smoke_goldens,
    "kips": smoke_kips,
    "lane-batch": smoke_lane_batch,
    "kernel": smoke_kernel,
    "sanitize": smoke_sanitize,
    "store": smoke_store,
    "mega-batch": smoke_mega_batch,
    "campaign": smoke_campaign,
    "chaos": smoke_chaos,
    "store-chaos": smoke_store_chaos,
    "service": smoke_service,
    "predict": smoke_predict,
    "examples": smoke_examples,
    "perfbench": smoke_perfbench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "smokes",
        nargs="*",
        choices=[*SMOKES, "all"],
        default="all",
        help="which smokes to run (default: all)",
    )
    parser.add_argument(
        "--json-dir",
        default=".",
        metavar="DIR",
        help="directory for the <name>-smoke.json artifacts (default: .)",
    )
    args = parser.parse_args(argv)
    if args.smokes in ("all", []) or "all" in args.smokes:
        names = list(SMOKES)
    else:
        names = args.smokes

    os.makedirs(args.json_dir, exist_ok=True)
    failed = 0
    for name in names:
        print(f"== {name} ==", flush=True)
        failures = SMOKES[name](args.json_dir)
        if failures:
            failed += 1
            for failure in failures:
                print(f"FAIL [{name}] {failure}", file=sys.stderr)
        else:
            print(f"ok [{name}]")
    if failed:
        print(f"{failed}/{len(names)} smokes failed", file=sys.stderr)
        return 1
    print(f"all {len(names)} smokes passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
