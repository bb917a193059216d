"""Lane-batching microbenchmark: KIPS per lane width against the object loop.

Measures the compiled lane kernel (:meth:`OutOfOrderPipeline.run_batch`)
on one fault-dependent campaign point: the same trace simulated over
``--maps`` fault-map pairs, each map's pipeline handed over as its
``kernel_lane()``, dispatched in kernel passes of each requested width
(1 = one single-lane pass per map), against the reference — one
sequential ``engine="object"`` run per map, which is also what every
simulation costs on a host without ``gcc``.  Reported per row:

* ``kips``    — aggregate simulated instructions per second across lanes;
* ``seconds`` — wall-clock for the whole point;
* ``kernel_seconds`` — the part of ``seconds`` spent inside the compiled
  entry point (``lane_kernel.load`` wrapped as perfbench's tracer wraps
  it; 0 for the object runs);
* ``speedup`` — vs the sequential object runs.

A ``wide`` section times one full-width pass — ``PASS_LANES`` maps of
``mcf``, whose L1D and L2 miss most accesses — against its object runs:
the shape of a paper-scale campaign pass.  While the kernel's scans
branched, their per-lane comparisons, not its cache-state footprint, set
that pace: shrinking every lane's L2 from 2 MB to 64 KB shortened a
25-lane block-disabling pass by 0-1% on gzip and 8-9% on mcf.  With the
scans as selects, such a pass takes about 40% less time on gzip and
15-20% less on mcf, where the 64 KB L2 now saves 12-25% (2-core host,
gcc 12).

A ``hetero`` section demonstrates that a ``--maps 2`` campaign over
mixed victim sizings (0/8/16 entries) pads to one slot axis and merges
into a *single* kernel pass group.

Every kernel result is checked for **bit-identity** against the object
runs; a divergence exits non-zero (that is the CI failure condition —
timing never is).

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_batch.py
    PYTHONPATH=src python benchmarks/bench_micro_batch.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from repro.campaign import RunnerSettings, Session
from repro.campaign.plan import PASS_LANES
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import (
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    RunConfig,
)

#: Fault-dependent configs benchmarked: the plain block-disabling row and
#: the 6T victim-cache row (the paper's densest fault-dependent machinery).
BENCH_CONFIGS: tuple[RunConfig, ...] = (LV_BLOCK, LV_BLOCK_V6)

#: The wide point's trace: mcf misses most of its L1D and L2 accesses.
WIDE_BENCHMARK = "mcf"


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="gzip", help="trace profile")
    parser.add_argument(
        "--instructions", type=int, default=40_000, help="measured region length"
    )
    parser.add_argument(
        "--warmup", type=int, default=10_000, help="warmup prefix length"
    )
    parser.add_argument(
        "--maps", type=int, default=50, help="fault-map pairs (paper: 50)"
    )
    parser.add_argument(
        "--lanes",
        default="1,8,50",
        help="comma list of lane widths to measure (each capped at --maps)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions (best kept)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny trace, fewer maps, one repetition (validates "
        "lane bit-identity; timing numbers are indicative only)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write summary")
    return parser.parse_args(argv)


#: The reference row: one sequential ``engine="object"`` run per map.
OBJECT = "object"


@contextlib.contextmanager
def _kernel_clock():
    """Yields ``[seconds]``: the time spent inside the compiled lane-kernel
    entry point while the block runs.  ``lane_kernel.load`` is wrapped as
    perfbench's tracer wraps it (callers look it up at call time)."""
    from repro.cpu import lane_kernel

    load = lane_kernel.load
    spent = [0.0]

    def timed_load():
        kernel = load()
        if kernel is None:
            return None

        def call(args):
            start = time.perf_counter()
            try:
                kernel(args)
            finally:
                spent[0] += time.perf_counter() - start

        return call

    lane_kernel.load = timed_load
    try:
        yield spent
    finally:
        lane_kernel.load = load


def _run_point(session, config, trace, warmup, map_count, width):
    """One campaign point in kernel passes of ``width`` lanes (or, for
    :data:`OBJECT`, sequential object runs); returns (seconds, results)."""
    indices = list(range(map_count))
    results = []
    start = time.perf_counter()
    if width == OBJECT:
        for m in indices:
            pipeline = session.build_pipeline(config, m, engine="object")
            results.append(pipeline.run(trace, measure_from=warmup))
        return time.perf_counter() - start, results
    for begin in range(0, map_count, width):
        chunk = indices[begin : begin + width]
        # Without a lane kernel on this host, run_batch runs each lane's
        # object-loop twin.
        lanes = [session.build_pipeline(config, m).kernel_lane() for m in chunk]
        results.extend(OutOfOrderPipeline.run_batch(lanes, trace, measure_from=warmup))
    return time.perf_counter() - start, results


def _measure(session, config, trace, warmup, maps, widths, repeats) -> dict:
    """One campaign point's rows: the object reference and each kernel
    width, keyed by width, each checked for bit-identity against the
    reference."""
    session.build_pipeline(config, 0).run(trace, measure_from=warmup)  # warm
    # Repetitions interleave the rows so per-repetition speedup ratios
    # are robust against machine-load drift; the reported speedup is the
    # median ratio, the KIPS the best run.
    rows_measured = [OBJECT, *widths]
    times: dict = {w: [] for w in rows_measured}
    kernel_times: dict = {w: [] for w in rows_measured}
    outputs: dict = {}
    for _ in range(repeats):
        for width in rows_measured:
            with _kernel_clock() as spent:
                elapsed, results = _run_point(
                    session, config, trace, warmup, maps, width
                )
            times[width].append(elapsed)
            kernel_times[width].append(spent[0])
            outputs[width] = results
    total = len(trace) * maps
    rows: dict[str, dict] = {}
    for width in rows_measured:
        ratios = sorted(ref / run for ref, run in zip(times[OBJECT], times[width]))
        best = times[width].index(min(times[width]))
        rows[str(width)] = {
            "kips": round(total / times[width][best] / 1e3, 1),
            "seconds": round(times[width][best], 3),
            "kernel_seconds": round(kernel_times[width][best], 3),
            "speedup": round(ratios[len(ratios) // 2], 2),
            "identical": outputs[width] == outputs[OBJECT],
        }
    return rows


def _run_wide(instructions, warmup, repeats) -> dict:
    """:data:`WIDE_BENCHMARK` over ``PASS_LANES`` maps of the 6T
    victim-cache row: one full-width kernel pass against the object
    runs.  Bit-identity is gated; the timing is informational."""
    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=PASS_LANES,
        benchmarks=(WIDE_BENCHMARK,),
    )
    session = Session(settings)
    trace = session.trace(WIDE_BENCHMARK)
    rows = _measure(
        session, LV_BLOCK_V6, trace, warmup, PASS_LANES, [PASS_LANES], repeats
    )
    return {
        "benchmark": WIDE_BENCHMARK,
        "config": LV_BLOCK_V6.label,
        "instructions": len(trace),
        "lanes": PASS_LANES,
        "rows": rows,
    }


def _run_hetero(args, instructions, warmup) -> dict:
    """A --maps 2 campaign over mixed victim sizings (0/8/16 entries):
    the padded slot axis must merge all six lanes into ONE kernel pass
    group, bit-identical to six sequential object runs."""
    from repro.campaign.spec import CampaignSpec

    configs = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=2,
        benchmarks=(args.benchmark,),
    )
    with Session(settings) as session:
        trace = session.trace(args.benchmark)
        reference = {
            (config.label, m): session.build_pipeline(
                config, m, engine="object"
            ).run(trace, measure_from=warmup)
            for config in configs
            for m in range(2)
        }
    with Session(settings) as session:
        spec = CampaignSpec.from_settings(settings, configs)
        plan = session.plan(spec)
        start = time.perf_counter()
        for group in plan.groups:
            session.execute_group(group)
        elapsed = time.perf_counter() - start
        identical = all(
            session.store.get(session.task_key(args.benchmark, config, m))
            == reference[(config.label, m)]
            for config in configs
            for m in range(2)
        )
        return {
            "configs": [c.label for c in configs],
            "maps": 2,
            "groups": len(plan.groups),
            "passes": session.schedule_passes,
            "predicted_passes": plan.predicted_passes,
            "seconds": round(elapsed, 3),
            "identical": identical,
        }


def run_bench(args) -> dict:
    from repro.cpu import lane_kernel

    if args.smoke:
        instructions, warmup, maps, repeats = 3_000, 1_000, 8, 1
        widths = [w for w in (1, 4, 8) if w <= maps]
        # lanes50_warm's fidelity: long enough for mcf to miss in the L2.
        wide_instructions, wide_warmup = 20_000, 5_000
    else:
        instructions, warmup, maps = args.instructions, args.warmup, args.maps
        repeats = args.repeats
        widths = sorted(
            {min(int(w), maps) for w in args.lanes.split(",") if w.strip()}
        )
        wide_instructions, wide_warmup = instructions, warmup

    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=maps,
        benchmarks=(args.benchmark,),
    )
    session = Session(settings)
    trace = session.trace(args.benchmark)

    configs = {
        config.label: _measure(session, config, trace, warmup, maps, widths, repeats)
        for config in BENCH_CONFIGS
    }
    wide = _run_wide(wide_instructions, wide_warmup, repeats)
    hetero = _run_hetero(args, instructions, warmup)
    divergences = sum(
        not row["identical"]
        for rows in (*configs.values(), wide["rows"])
        for row in rows.values()
    ) + (not hetero["identical"])
    top = str(max(widths))
    return {
        "benchmark": args.benchmark,
        "instructions": len(trace),
        "warmup": warmup,
        "maps": maps,
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "kernel_active": lane_kernel.load() is not None,
        "lanes": widths,
        "configs": configs,
        "speedup_full_batch": configs[BENCH_CONFIGS[0].label][top]["speedup"],
        "wide": wide,
        "hetero": hetero,
        "divergences": divergences,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    summary = run_bench(args)

    print(
        f"# KIPS per lane width — {summary['benchmark']}, "
        f"{summary['instructions']} instructions x {summary['maps']} maps"
    )
    print(f"compiled lane kernel: {'on' if summary['kernel_active'] else 'off'}")
    for label, rows in summary["configs"].items():
        print(f"{label}:")
        for width, row in rows.items():
            ok = "yes" if row["identical"] else "DIVERGED"
            name = width if width == OBJECT else f"lanes={width}"
            print(
                f"  {name:>9}  {row['kips']:>9.1f} KIPS"
                f"  {row['seconds']:>7.3f}s  {row['speedup']:>6.2f}x  ok={ok}"
            )
    print(f"full-batch speedup over object runs: {summary['speedup_full_batch']}x")
    wide = summary["wide"]
    row = wide["rows"][str(wide["lanes"])]
    print(
        f"wide pass ({wide['benchmark']}, {wide['config']}, "
        f"{wide['instructions']} instructions x {wide['lanes']} lanes): "
        f"{row['kips']:.1f} KIPS  {row['seconds']:.3f}s "
        f"(kernel {row['kernel_seconds']:.3f}s)  "
        f"{row['speedup']:.2f}x  ok={'yes' if row['identical'] else 'DIVERGED'}"
    )
    hetero = summary["hetero"]
    print(
        f"hetero victim merge (--maps {hetero['maps']}, "
        f"{len(hetero['configs'])} configs): groups={hetero['groups']} "
        f"passes={hetero['passes']} "
        f"(predicted {hetero['predicted_passes']}) "
        f"ok={'yes' if hetero['identical'] else 'DIVERGED'}"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    if summary["divergences"]:
        print(
            f"ERROR: {summary['divergences']} lane width(s) diverged from the "
            "sequential object engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
