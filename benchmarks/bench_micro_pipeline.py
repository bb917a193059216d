"""End-to-end KIPS microbenchmark: the canonical perf metric for the core.

Measures simulated-instructions-per-second per scheme for one *campaign
point* — configured-hierarchy construction plus a full pipeline run over a
warm trace, exactly the unit of work a Monte-Carlo campaign repeats
thousands of times — on both execution engines:

* ``default`` — the pipeline's default engine: a one-lane pass of the
  compiled C lane kernel for every kernel-eligible scheme (all rows
  below when ``gcc`` works), the object loop otherwise;
* ``object``  — the ``MemoryHierarchy.access_*`` method chain, the
  reference every other path is checked against and the engine of
  hosts without ``gcc``.

A ``schedule_compile`` section additionally times pass-1
``FrontEndSchedule`` compilation both ways — the vectorised
array-at-a-time builder against the per-instruction reference replay —
and verifies the outputs are field-identical *and* serialise to
bit-identical ``.npz`` cache payloads.  Compile KIPS scale with trace
length; drive ``--instructions 1000000`` for campaign-scale numbers.

Every measured pair is also checked for **bit-identical** ``SimResult``s;
a divergence exits non-zero (that is the CI failure condition — timing
never is).

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_pipeline.py
    PYTHONPATH=src python benchmarks/bench_micro_pipeline.py --smoke --json out.json

Point ``REPRO_TRACE_CACHE`` at a directory to exercise trace-cache loads
instead of generation (the campaign-worker reality).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.campaign import RunnerSettings, Session
from repro.experiments.configs import (
    HV_BASELINE,
    LV_BASELINE,
    LV_BASELINE_V,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
    RunConfig,
)

#: Scheme set benchmarked: the headline Table III rows.  The LV baseline is
#: the acceptance config (its speedup is reported as ``baseline_speedup``).
BENCH_CONFIGS: tuple[RunConfig, ...] = (
    LV_BASELINE,
    LV_BASELINE_V,
    LV_WORD,
    LV_BLOCK,
    LV_BLOCK_V10,
    HV_BASELINE,
)


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="gzip", help="trace profile")
    parser.add_argument(
        "--instructions", type=int, default=40_000, help="measured region length"
    )
    parser.add_argument(
        "--warmup", type=int, default=10_000, help="warmup prefix length"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny trace, one repetition (validates bit-identity; "
        "timing numbers are indicative only)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write summary")
    return parser.parse_args(argv)


def _bench_schedule_compile(session, trace, repeats) -> dict:
    """Pass-1 schedule compilation: vectorised builder vs the
    per-instruction reference replay, plus ``.npz`` payload identity."""
    from io import BytesIO

    import numpy as np

    from repro.cpu import frontend

    config = session.pipeline_config
    offset_bits = session.build_pipeline(
        BENCH_CONFIGS[0], 0 if BENCH_CONFIGS[0].needs_fault_map else None
    ).hierarchy.l1i.geometry.offset_bits

    timings = {"reference": float("inf"), "vectorised": float("inf")}
    outputs = {}
    builders = {
        "reference": frontend._build_schedule_reference,
        "vectorised": frontend._build_schedule,
    }
    for name, build in builders.items():
        for rep in range(repeats + 1):  # +1 untimed warm-up rep
            t0 = time.perf_counter()
            schedule = build(trace, config, offset_bits)
            elapsed = time.perf_counter() - t0
            if rep > 0 or repeats == 1:
                timings[name] = min(timings[name], elapsed)
        outputs[name] = schedule
    identical = outputs["vectorised"] == outputs["reference"]

    def npz_members(schedule):
        buffer = BytesIO()
        frontend.save_schedule(schedule, buffer)
        buffer.seek(0)
        with np.load(buffer) as data:
            return {k: data[k].tobytes() for k in data.files}

    npz_identical = npz_members(outputs["vectorised"]) == npz_members(
        outputs["reference"]
    )
    total = len(trace)
    return {
        "kips_reference": round(total / timings["reference"] / 1e3, 1),
        "kips_vectorised": round(total / timings["vectorised"] / 1e3, 1),
        "speedup": round(timings["reference"] / timings["vectorised"], 2),
        "identical": identical,
        "npz_identical": npz_identical,
    }


def run_bench(args) -> dict:
    if args.smoke:
        instructions, warmup, repeats = 4_000, 1_000, 1
    else:
        instructions, warmup, repeats = args.instructions, args.warmup, args.repeats

    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=1,
        benchmarks=(args.benchmark,),
    )
    session = Session(settings)
    trace = session.trace(args.benchmark)  # generated once or trace-cache hit
    total = len(trace)

    schemes: dict[str, dict] = {}
    divergences = 0
    for config in BENCH_CONFIGS:
        map_index = 0 if config.needs_fault_map else None
        timings: dict[str, float] = {}
        results: dict[str, object] = {}
        for engine, name in (("object", "object"), ("fused", "default")):
            best = float("inf")
            result = None
            for rep in range(repeats + 1):  # +1 untimed warm-up rep
                pipeline = session.build_pipeline(config, map_index, engine=engine)
                t0 = time.perf_counter()
                result = pipeline.run(trace, measure_from=warmup)
                elapsed = time.perf_counter() - t0
                if rep > 0 or repeats == 1:
                    best = min(best, elapsed)
            timings[name] = best
            results[name] = result
        identical = results["object"] == results["default"]
        if not identical:
            divergences += 1
        key = f"{config.voltage.value}/{config.label}"
        schemes[key] = {
            "kips_object": round(total / timings["object"] / 1e3, 1),
            "kips_default": round(total / timings["default"] / 1e3, 1),
            "speedup": round(timings["object"] / timings["default"], 2),
            "cycles": results["default"].cycles,
            "identical": identical,
        }

    compile_row = _bench_schedule_compile(session, trace, repeats)
    if not (compile_row["identical"] and compile_row["npz_identical"]):
        divergences += 1

    baseline_key = f"{LV_BASELINE.voltage.value}/{LV_BASELINE.label}"
    return {
        "benchmark": args.benchmark,
        "instructions": total,
        "warmup": warmup,
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "traces_generated": session.traces.generated,
        "traces_loaded": session.traces.loaded,
        "schemes": schemes,
        "schedule_compile": compile_row,
        "baseline_speedup": schemes[baseline_key]["speedup"],
        "divergences": divergences,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    summary = run_bench(args)

    width = max(len(k) for k in summary["schemes"])
    print(f"# KIPS per scheme — {summary['benchmark']}, "
          f"{summary['instructions']} instructions (warmup {summary['warmup']})")
    print(f"{'scheme':{width}}  {'object':>9}  {'default':>9}  {'speedup':>7}  ok")
    for key, row in summary["schemes"].items():
        print(
            f"{key:{width}}  {row['kips_object']:>9.1f}  {row['kips_default']:>9.1f}"
            f"  {row['speedup']:>6.2f}x  {'yes' if row['identical'] else 'DIVERGED'}"
        )
    print(f"baseline speedup: {summary['baseline_speedup']:.2f}x")
    comp = summary["schedule_compile"]
    ok = "yes" if comp["identical"] and comp["npz_identical"] else "DIVERGED"
    print(
        f"schedule compile: ref {comp['kips_reference']:.1f} KIPS -> "
        f"vec {comp['kips_vectorised']:.1f} KIPS "
        f"({comp['speedup']:.2f}x, npz-identical={ok})"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    if summary["divergences"]:
        print(
            f"ERROR: {summary['divergences']} scheme(s) diverged between engines",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
