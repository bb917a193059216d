"""Golden simulation scenarios: the bit-identity contract of the simulator.

Each scenario builds a complete (pipeline config, memory hierarchy, trace,
measured region) quadruple covering every behavioural corner the lane
kernel must reproduce exactly: all disabling schemes at both voltages,
victim caches of several sizes, prefetching, every replacement policy,
fault-thinned and fully-disabled sets, and non-Table-II pipeline widths
(which exercise the generic min-scans).

``golden_sim.json`` locks the cycle counts, branch statistics, and full
hierarchy stats these scenarios produced on the pre-engine object path.
``test_golden_sim.py`` asserts that both the object path and the default
engine (the lane kernel where eligible) still reproduce them bit-for-bit.

Regenerate (only when the simulator's bits change *on purpose*)::

    PYTHONPATH=src python tests/integration/golden_scenarios.py --regen
"""

from __future__ import annotations

import json
import os
from typing import Callable

import numpy as np

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core import SCHEMES
from repro.core.schemes import VoltageMode
from repro.cpu.config import (
    HIGH_VOLTAGE,
    L1_GEOMETRY,
    L2_GEOMETRY,
    LOW_VOLTAGE,
    PAPER_PIPELINE,
    OperatingPoint,
    PipelineConfig,
)
from repro.cpu.pipeline import OutOfOrderPipeline, SimResult
from repro.cpu.trace import Trace
from repro.faults.fault_map import FaultMap, sample_fault_map_pairs
from repro.faults.geometry import CacheGeometry
from repro.workloads.generator import generate_trace

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_sim.json")

#: Instructions per scenario trace; the measured region starts after the
#: warmup prefix so the mid-run statistics reset is exercised too.
TRACE_LENGTH = 6_000
MEASURE_FROM = 1_500

# Small geometries for the direct (non-scheme) scenarios: few sets means
# heavy conflict pressure, so every path (evictions, victim swaps,
# writebacks, policy decisions) fires within a short trace.
SMALL_L1 = CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)
SMALL_L2 = CacheGeometry(size_bytes=32 * 1024, ways=8, block_bytes=64)
SMALL_LATENCIES = LatencyConfig(l1i=3, l1d=3, victim=1, l2=12, memory=90)

#: Non-Table-II widths: exercises the generic (non-unrolled) FU/port scans.
ODD_PIPELINE = PipelineConfig(
    issue_width=3,
    int_alu_units=2,
    int_mul_units=2,
    fp_alu_units=2,
    fp_mul_units=1,
    commit_width=3,
)


def _traces() -> dict[str, Trace]:
    return {
        "gzip": generate_trace("gzip", TRACE_LENGTH, seed=11),
        "applu": generate_trace("applu", TRACE_LENGTH, seed=12),
    }


def _scheme_hierarchy(
    scheme_name: str,
    voltage: VoltageMode,
    victim_entries: int,
    imap: FaultMap | None,
    dmap: FaultMap | None,
) -> MemoryHierarchy:
    """Mirror of ``Session.build_pipeline``'s construction."""
    scheme = SCHEMES.create(scheme_name)
    operating: OperatingPoint = (
        LOW_VOLTAGE if voltage is VoltageMode.LOW else HIGH_VOLTAGE
    )
    if voltage is VoltageMode.LOW and imap is None:
        imap = dmap = FaultMap.empty(L1_GEOMETRY)
    cfg_i = scheme.configure(L1_GEOMETRY, imap, voltage)
    cfg_d = scheme.configure(L1_GEOMETRY, dmap, voltage)
    latencies = operating.latencies(
        operating.l1_base_latency + cfg_i.latency_adder,
        operating.l1_base_latency + cfg_d.latency_adder,
    )
    return MemoryHierarchy(
        cfg_i.build_cache("l1i", seed=2010),
        cfg_d.build_cache("l1d", seed=2010),
        L2_GEOMETRY,
        latencies,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
    )


def _thinned_matrix(seed: int) -> np.ndarray:
    """Enabled-way matrix with heavy thinning, one fully-disabled set and
    one single-way set — the block-disabling worst cases."""
    rng = np.random.default_rng(seed)
    enabled = rng.random((SMALL_L1.num_sets, SMALL_L1.ways)) > 0.35
    enabled[3, :] = False  # fully-disabled set: fills bypass
    enabled[7, :] = False
    enabled[7, 2] = True  # direct-mapped set
    return enabled


def _small_hierarchy(
    policy: str = "lru",
    enabled_i: np.ndarray | None = None,
    enabled_d: np.ndarray | None = None,
    victim_entries: int = 0,
    prefetch_degree: int = 0,
    l2_policy: str | None = None,
) -> MemoryHierarchy:
    l1i = SetAssociativeCache(SMALL_L1, enabled_ways=enabled_i, policy=policy, name="l1i", seed=5)
    l1d = SetAssociativeCache(SMALL_L1, enabled_ways=enabled_d, policy=policy, name="l1d", seed=6)
    l2 = SetAssociativeCache(SMALL_L2, policy=l2_policy or policy, name="l2", seed=7)
    return MemoryHierarchy(
        l1i,
        l1d,
        l2,
        SMALL_LATENCIES,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
    )


def scenarios() -> list[tuple[str, PipelineConfig, Callable[[], MemoryHierarchy], str]]:
    """(name, pipeline config, hierarchy factory, trace name) quadruples."""
    pairs = list(sample_fault_map_pairs(L1_GEOMETRY, 0.001, 2, seed=77))
    # pfail=0.002 disables ~2/3 of blocks (1 - (1-p)^537): every set keeps
    # a different handful of usable ways — variable associativity at scale.
    heavy_i = FaultMap.generate(L1_GEOMETRY, 0.002, seed=78)
    heavy_d = FaultMap.generate(L1_GEOMETRY, 0.002, seed=79)
    LOW, HIGH = VoltageMode.LOW, VoltageMode.HIGH
    entries: list[tuple[str, PipelineConfig, Callable[[], MemoryHierarchy], str]] = []

    def scheme(name, scheme_name, voltage, victim, imap, dmap, trace="gzip"):
        entries.append(
            (
                name,
                PAPER_PIPELINE,
                lambda: _scheme_hierarchy(scheme_name, voltage, victim, imap, dmap),
                trace,
            )
        )

    # ----- Table III rows (paper geometry) ---------------------------------
    scheme("lv-baseline", "baseline", LOW, 0, None, None)
    scheme("lv-baseline-v16", "baseline", LOW, 16, None, None, trace="applu")
    scheme("lv-word", "word-disable", LOW, 0, None, None)
    scheme("lv-word-v16", "word-disable", LOW, 16, None, None)
    scheme("lv-block-m0", "block-disable", LOW, 0, pairs[0].icache, pairs[0].dcache)
    scheme(
        "lv-block-v10-m0",
        "block-disable",
        LOW,
        16,
        pairs[0].icache,
        pairs[0].dcache,
        trace="applu",
    )
    scheme("lv-block-v6-m1", "block-disable", LOW, 8, pairs[1].icache, pairs[1].dcache)
    scheme(
        "lv-incremental-m0",
        "incremental-word-disable",
        LOW,
        0,
        pairs[0].icache,
        pairs[0].dcache,
    )
    scheme("hv-baseline", "baseline", HIGH, 0, None, None, trace="applu")
    scheme("hv-block-v16", "block-disable", HIGH, 16, None, None)
    # Far beyond the paper's pfail: many thinned sets in one map.
    scheme("lv-block-heavy", "block-disable", LOW, 8, heavy_i, heavy_d)

    # ----- direct stress scenarios (small geometry) ------------------------
    entries.append(
        ("policy-fifo", PAPER_PIPELINE, lambda: _small_hierarchy(policy="fifo"), "gzip")
    )
    entries.append(
        (
            "policy-random",
            PAPER_PIPELINE,
            lambda: _small_hierarchy(policy="random"),
            "gzip",
        )
    )
    entries.append(
        (
            "prefetch-d1",
            PAPER_PIPELINE,
            lambda: MemoryHierarchy(
                SetAssociativeCache(SMALL_L1, name="l1i"),
                SetAssociativeCache(SMALL_L1, name="l1d"),
                SMALL_L2,
                SMALL_LATENCIES,
                prefetch_degree=1,
            ),
            "gzip",
        )
    )
    entries.append(
        (
            "prefetch-d2-victim4",
            PAPER_PIPELINE,
            lambda: MemoryHierarchy(
                SetAssociativeCache(SMALL_L1, name="l1i"),
                SetAssociativeCache(SMALL_L1, name="l1d"),
                SMALL_L2,
                SMALL_LATENCIES,
                victim_entries_i=4,
                victim_entries_d=4,
                prefetch_degree=2,
            ),
            "applu",
        )
    )
    entries.append(
        (
            "thinned-victim4",
            PAPER_PIPELINE,
            lambda: _small_hierarchy(
                enabled_i=_thinned_matrix(21),
                enabled_d=_thinned_matrix(22),
                victim_entries=4,
            ),
            "gzip",
        )
    )
    entries.append(
        (
            "thinned-random",
            PAPER_PIPELINE,
            lambda: _small_hierarchy(
                policy="random",
                enabled_i=_thinned_matrix(23),
                enabled_d=_thinned_matrix(24),
            ),
            "applu",
        )
    )
    entries.append(
        (
            "victim1-fifo",
            PAPER_PIPELINE,
            lambda: _small_hierarchy(policy="fifo", victim_entries=1),
            "applu",
        )
    )
    entries.append(
        ("odd-widths", ODD_PIPELINE, lambda: _small_hierarchy(victim_entries=4), "gzip")
    )
    return entries


def run_scenario(
    pipeline_config: PipelineConfig,
    hierarchy: MemoryHierarchy,
    trace: Trace,
    engine: str | None = None,
) -> SimResult:
    """Simulate one scenario; ``engine=None`` uses the pipeline default."""
    kwargs = {} if engine is None else {"engine": engine}
    pipeline = OutOfOrderPipeline(pipeline_config, hierarchy, **kwargs)
    return pipeline.run(trace, measure_from=MEASURE_FROM)


def result_record(result: SimResult) -> dict:
    return {
        "benchmark": result.benchmark,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "branch_mispredictions": result.branch_mispredictions,
        "branch_predictions": result.branch_predictions,
        "hierarchy_stats": result.hierarchy_stats,
    }


def run_all(engine: str | None = None) -> dict[str, dict]:
    traces = _traces()
    records: dict[str, dict] = {}
    for name, pipeline_config, make_hierarchy, trace_name in scenarios():
        result = run_scenario(
            pipeline_config, make_hierarchy(), traces[trace_name], engine=engine
        )
        records[name] = result_record(result)
    return records


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regen", action="store_true", help="rewrite golden_sim.json"
    )
    parser.add_argument(
        "--engine",
        default=None,
        help="engine to regenerate with (default: pipeline default)",
    )
    args = parser.parse_args()
    records = run_all(engine=args.engine)
    if args.regen:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(records)} scenarios to {GOLDEN_PATH}")
    else:
        print(json.dumps(records, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
