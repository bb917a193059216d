"""Ablation studies beyond the paper's figures.

Each function here answers one of the design questions the paper raises
but does not simulate:

* :func:`granularity_performance_study` — Section III's granularity choice
  (blocks vs sets vs ways) run through the performance model;
* :func:`l2_low_voltage_study` — Section VIII future work: block-disabling
  the L2 as well as the L1s;
* :func:`blocksize_prefetch_study` — Section IV-B: smaller blocks keep
  more capacity but lose spatial locality; can a next-line prefetcher
  recover it?
* :func:`energy_study` — the Fig. 1 motivation quantified: energy per task
  of each scheme at the low-voltage operating point vs staying at Vcc-min.

The studies build their own traces and fault maps (different seeds and
warmup than the figure campaign) and bypass the result store, so
:func:`run_studies` parallelises them one study per worker process.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.core import SCHEMES
from repro.core.schemes import VoltageMode
from repro.cpu.config import (
    L1_GEOMETRY,
    L2_GEOMETRY,
    LOW_VOLTAGE,
    PAPER_PIPELINE,
)
from repro.cpu.pipeline import OutOfOrderPipeline, SimResult
from repro.experiments.results import FigureResult
from repro.faults.fault_map import FaultMap
from repro.faults.geometry import CacheGeometry
from repro.power.dvs import DVSModel
from repro.power.energy import EnergyModel, compare_operating_points
from repro.power.vccmin import DEFAULT_VCCMIN_MODEL
from repro.workloads.generator import TraceGenerator

DEFAULT_BENCHMARKS = ("crafty", "gzip", "swim", "parser")

#: SimPoint-style warmup prefix for every ablation run.
WARMUP = 5_000


def _trace(bench: str, n_instructions: int, seed: int, geometry=None):
    generator = (
        TraceGenerator(bench, seed=seed)
        if geometry is None
        else TraceGenerator(bench, seed=seed, geometry=geometry)
    )
    return generator.generate(n_instructions + WARMUP)


def _simulate(
    trace,
    l1i_cache: SetAssociativeCache,
    l1d_cache: SetAssociativeCache,
    l2,
    latency_adder: int = 0,
    victim_entries: int = 0,
    prefetch_degree: int = 0,
) -> SimResult:
    latencies = LOW_VOLTAGE.latencies(
        LOW_VOLTAGE.l1_base_latency + latency_adder,
        LOW_VOLTAGE.l1_base_latency + latency_adder,
    )
    hierarchy = MemoryHierarchy(
        l1i_cache,
        l1d_cache,
        l2,
        latencies,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
        prefetch_degree=prefetch_degree,
    )
    return OutOfOrderPipeline(PAPER_PIPELINE, hierarchy).run(
        trace, measure_from=WARMUP
    )


def granularity_performance_study(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    n_instructions: int = 25_000,
    pfail: float = 0.001,
    seed: int = 2010,
) -> FigureResult:
    """Block vs set vs way disabling under identical fault maps.

    The analytical prediction (:mod:`repro.analysis.granularity`): block
    keeps ~58%, set ~1.3%, way ~0% capacity at pfail = 0.001.  This study
    shows what that does to performance.
    """
    result = FigureResult(
        figure_id="abl-granularity",
        title="Disable granularity: normalized low-voltage performance",
        index_label="benchmark",
        index=list(benchmarks),
        notes="same fault map per benchmark; baseline = fault-free cache "
        "at the low-voltage operating point",
    )
    series: dict[str, list[float]] = {
        "block-disable": [],
        "set-disable": [],
        "way-disable": [],
    }
    capacities: dict[str, float] = {}
    for i, bench in enumerate(benchmarks):
        trace = _trace(bench, n_instructions, seed)
        imap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 17 * i)
        dmap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 17 * i + 1)
        base = _simulate(
            trace,
            SetAssociativeCache(L1_GEOMETRY, name="l1i"),
            SetAssociativeCache(L1_GEOMETRY, name="l1d"),
            L2_GEOMETRY,
        )
        for scheme_name in series:
            scheme = SCHEMES.create(scheme_name)
            cfg_i = scheme.configure(L1_GEOMETRY, imap, VoltageMode.LOW)
            cfg_d = scheme.configure(L1_GEOMETRY, dmap, VoltageMode.LOW)
            run = _simulate(
                trace, cfg_i.build_cache("l1i"), cfg_d.build_cache("l1d"), L2_GEOMETRY
            )
            series[scheme_name].append(base.cycles / run.cycles)
            capacities[scheme_name] = cfg_d.capacity_fraction(L1_GEOMETRY)
    for name, values in series.items():
        result.add_series(name, values)
    result.notes += "; capacities " + ", ".join(
        f"{k}={v:.1%}" for k, v in capacities.items()
    )
    return result


def l2_low_voltage_study(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    n_instructions: int = 25_000,
    pfail: float = 0.001,
    seed: int = 2010,
) -> FigureResult:
    """Future work (Section VIII): block-disable the unified L2 too.

    The L2 shares the 64B block size, so each of its blocks dies with the
    same ~42% probability at pfail = 0.001 — but L2 capacity loss only
    costs on L1 misses, so the performance impact should be far smaller
    than the L1 loss. This study quantifies that asymmetry.
    """
    result = FigureResult(
        figure_id="abl-l2",
        title="Block-disabling the L2: normalized low-voltage performance",
        index_label="benchmark",
        index=list(benchmarks),
        notes="baseline = fault-free L1+L2 at the low-voltage point; "
        "'L1 only' disables L1 blocks; 'L1+L2' also disables L2 blocks",
    )
    scheme = SCHEMES.create("block-disable")
    l1_only: list[float] = []
    l1_l2: list[float] = []
    l2_capacity = None
    for i, bench in enumerate(benchmarks):
        trace = _trace(bench, n_instructions, seed)
        imap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 31 * i)
        dmap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 31 * i + 1)
        l2map = FaultMap.generate(L2_GEOMETRY, pfail, seed=seed + 31 * i + 2)
        base = _simulate(
            trace,
            SetAssociativeCache(L1_GEOMETRY, name="l1i"),
            SetAssociativeCache(L1_GEOMETRY, name="l1d"),
            L2_GEOMETRY,
        )
        cfg_i = scheme.configure(L1_GEOMETRY, imap, VoltageMode.LOW)
        cfg_d = scheme.configure(L1_GEOMETRY, dmap, VoltageMode.LOW)
        run_l1 = _simulate(
            trace, cfg_i.build_cache("l1i"), cfg_d.build_cache("l1d"), L2_GEOMETRY
        )
        cfg_l2 = scheme.configure(L2_GEOMETRY, l2map, VoltageMode.LOW)
        l2_capacity = cfg_l2.capacity_fraction(L2_GEOMETRY)
        run_l1_l2 = _simulate(
            trace,
            cfg_i.build_cache("l1i"),
            cfg_d.build_cache("l1d"),
            cfg_l2.build_cache("l2"),
        )
        l1_only.append(base.cycles / run_l1.cycles)
        l1_l2.append(base.cycles / run_l1_l2.cycles)
    result.add_series("L1 only", l1_only)
    result.add_series("L1+L2", l1_l2)
    result.notes += f"; L2 capacity at pfail={pfail}: {l2_capacity:.1%}"
    return result


def blocksize_prefetch_study(
    benchmarks: tuple[str, ...] = ("swim", "applu", "gzip"),
    n_instructions: int = 25_000,
    pfail: float = 0.002,
    block_sizes: tuple[int, ...] = (32, 64, 128),
    seed: int = 2010,
) -> FigureResult:
    """Section IV-B: block-size capacity gains vs spatial-locality loss,
    with and without a next-line prefetcher.

    For each block size the baseline is the *fault-free* cache of the same
    block size, so the bars isolate the fault/capacity effect; the
    prefetcher column shows how much of the small-block locality loss it
    recovers in absolute IPC.
    """
    index = []
    normalized: list[float] = []
    normalized_prefetch: list[float] = []
    ipc_plain: list[float] = []
    ipc_prefetch: list[float] = []
    scheme = SCHEMES.create("block-disable")
    for block_bytes in block_sizes:
        geometry = L1_GEOMETRY.with_block_bytes(block_bytes)
        for bench in benchmarks:
            trace = _trace(bench, n_instructions, seed, geometry=geometry)
            imap = FaultMap.generate(geometry, pfail, seed=seed + block_bytes)
            dmap = FaultMap.generate(geometry, pfail, seed=seed + block_bytes + 1)
            base = _simulate(
                trace,
                SetAssociativeCache(geometry, name="l1i"),
                SetAssociativeCache(geometry, name="l1d"),
                L2_GEOMETRY,
            )
            cfg_i = scheme.configure(geometry, imap, VoltageMode.LOW)
            cfg_d = scheme.configure(geometry, dmap, VoltageMode.LOW)
            plain = _simulate(
                trace, cfg_i.build_cache("l1i"), cfg_d.build_cache("l1d"), L2_GEOMETRY
            )
            with_prefetch = _simulate(
                trace,
                cfg_i.build_cache("l1i"),
                cfg_d.build_cache("l1d"),
                L2_GEOMETRY,
                prefetch_degree=1,
            )
            index.append(f"{bench}/{block_bytes}B")
            normalized.append(base.cycles / plain.cycles)
            normalized_prefetch.append(base.cycles / with_prefetch.cycles)
            ipc_plain.append(plain.ipc)
            ipc_prefetch.append(with_prefetch.ipc)
    result = FigureResult(
        figure_id="abl-blocksize-prefetch",
        title="Block size x prefetching for block-disabling (Sec. IV-B)",
        index_label="benchmark/block",
        index=index,
        notes="normalized to the fault-free, non-prefetching cache of the "
        "same block size; values above 1.0 mean the prefetcher more than "
        "recovers the fault loss",
    )
    result.add_series("block-disable", normalized)
    result.add_series("block-disable+prefetch", normalized_prefetch)
    result.add_series("ipc", ipc_plain)
    result.add_series("ipc+prefetch", ipc_prefetch)
    return result


def energy_study(
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS,
    n_instructions: int = 25_000,
    pfail: float = 0.001,
    seed: int = 2010,
) -> FigureResult:
    """Energy per task: Vcc-min baseline vs sub-Vcc-min disabling schemes.

    Reference: the fault-free cache at Vcc-min.  Candidates: word- and
    block-disabling at the low-voltage point (the paper's Table III
    600MHz row, mapped to the voltage where pfail = 0.001).
    """
    dvs = DVSModel()
    model = EnergyModel(dvs=dvs)
    v_low = DEFAULT_VCCMIN_MODEL.voltage_for_pfail(pfail)
    v_ref = DEFAULT_VCCMIN_MODEL.vcc_min

    index = []
    energy_word: list[float] = []
    energy_block: list[float] = []
    slowdown_block: list[float] = []
    for i, bench in enumerate(benchmarks):
        trace = _trace(bench, n_instructions, seed)
        imap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 7 * i)
        dmap = FaultMap.generate(L1_GEOMETRY, pfail, seed=seed + 7 * i + 1)
        reference = _simulate(
            trace,
            SetAssociativeCache(L1_GEOMETRY, name="l1i"),
            SetAssociativeCache(L1_GEOMETRY, name="l1d"),
            L2_GEOMETRY,
        )
        candidates = {}
        for scheme_name in ("word-disable", "block-disable"):
            scheme = SCHEMES.create(scheme_name)
            cfg_i = scheme.configure(L1_GEOMETRY, imap, VoltageMode.LOW)
            cfg_d = scheme.configure(L1_GEOMETRY, dmap, VoltageMode.LOW)
            run = _simulate(
                trace,
                cfg_i.build_cache("l1i"),
                cfg_d.build_cache("l1d"),
                L2_GEOMETRY,
                latency_adder=cfg_d.latency_adder,
            )
            candidates[scheme_name] = (run, v_low)
        comparisons = {
            c.label: c
            for c in compare_operating_points(model, reference, v_ref, candidates)
        }
        index.append(bench)
        energy_word.append(comparisons["word-disable"].relative_energy)
        energy_block.append(comparisons["block-disable"].relative_energy)
        slowdown_block.append(comparisons["block-disable"].relative_runtime)
    result = FigureResult(
        figure_id="abl-energy",
        title="Energy per task below Vcc-min, relative to Vcc-min operation",
        index_label="benchmark",
        index=index,
        notes=f"low-voltage point: {v_low:.2f}V (pfail={pfail}); "
        f"reference: fault-free cache at Vcc-min ({v_ref:.2f}V)",
    )
    result.add_series("word-disable energy", energy_word)
    result.add_series("block-disable energy", energy_block)
    result.add_series("block-disable runtime", slowdown_block)
    return result


#: Registry for the CLI.
ABLATION_STUDIES = {
    "abl-granularity": granularity_performance_study,
    "abl-l2": l2_low_voltage_study,
    "abl-blocksize-prefetch": blocksize_prefetch_study,
    "abl-energy": energy_study,
}


def _study_worker(name: str):
    return name, ABLATION_STUDIES[name]()


def run_studies(
    names: list[str],
    workers: int | None = None,
    progress: "Callable[[int, int], None] | None" = None,
) -> dict[str, FigureResult]:
    """Run named ablation studies concurrently, one study per worker.

    Returns ``{name: FigureResult}``; callers print in their own order.
    ``workers=None`` uses the CPU count; ``progress(done, total)`` is
    called as each study finishes.
    """
    unique = list(dict.fromkeys(names))
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(unique))
    results: dict[str, FigureResult] = {}
    if workers <= 1:
        for i, name in enumerate(unique):
            results[name] = _study_worker(name)[1]
            if progress is not None:
                progress(i + 1, len(unique))
        return results
    done = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_study_worker, name) for name in unique]
        for future in as_completed(futures):
            name, result = future.result()
            results[name] = result
            done += 1
            if progress is not None:
                progress(done, len(unique))
    return results
