"""Golden bit-identity suite: both engines vs the locked fixtures.

``golden_sim.json`` was generated by the object path (see
``golden_scenarios.py``).  Every scenario — all disabling schemes at both
voltages, victim caches, prefetching, thinned and fully-disabled sets,
non-Table-II widths — must reproduce its cycles, branch statistics, and
full hierarchy statistics exactly: on ``engine="object"``, on the default
engine (the C lane kernel wherever it loads), and batched (as kernel
lanes).
Any divergence is a simulator-semantics change and fails CI (stats
divergence, not timing).
"""

from __future__ import annotations

import pytest
from golden_scenarios import (
    MEASURE_FROM,
    _traces,
    load_golden,
    result_record,
    run_scenario,
    scenarios,
)

from repro.cpu import lane_kernel
from repro.cpu.pipeline import OutOfOrderPipeline

_SCENARIOS = {name: (cfg, make, trace) for name, cfg, make, trace in scenarios()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def traces():
    return _traces()


def test_fixture_covers_every_scenario(golden):
    assert set(golden) == set(_SCENARIOS)


@pytest.mark.parametrize("engine", ["object", "fused"])
@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity(name, engine, golden, traces):
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    result = run_scenario(
        pipeline_config, make_hierarchy(), traces[trace_name], engine=engine
    )
    assert result_record(result) == golden[name], (
        f"{name} diverged on the {engine} engine"
    )


@pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)
@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity_batched(name, golden, traces):
    """Every scenario must also reproduce its goldens through
    ``run_batch``: two identical ``kernel_lane()`` values run in one
    kernel pass, and both must match the locked record exactly (the
    prefetching scenarios included)."""
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    lanes = [
        OutOfOrderPipeline(pipeline_config, make_hierarchy()).kernel_lane()
        for _ in range(2)
    ]
    assert None not in lanes
    results = OutOfOrderPipeline.run_batch(
        lanes, traces[trace_name], measure_from=MEASURE_FROM
    )
    for lane, result in enumerate(results):
        assert result_record(result) == golden[name], (
            f"{name} diverged on the batched engine (lane {lane})"
        )


def test_pipeline_reuse_stays_identical(traces):
    """A pipeline reused across runs never silently leaves the object
    path.  Where the object loop ran the first run, the second starts
    with trained predictors and warm caches exactly as on
    ``engine="object"``; where the kernel ran it, the pipeline was left
    as built and refuses a second run."""
    for name, (pipeline_config, make_hierarchy, trace_name) in sorted(
        _SCENARIOS.items()
    ):
        trace = traces[trace_name]
        obj = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="object")
        fused = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="fused")
        assert fused.kernel_lane() is not None, name
        in_kernel = lane_kernel.load() is not None
        first = obj.run(trace, measure_from=MEASURE_FROM)
        assert fused.run(trace, measure_from=MEASURE_FROM) == first, name
        second = obj.run(trace, measure_from=MEASURE_FROM)
        assert second != first, name  # the second run starts warm
        if in_kernel:
            with pytest.raises(RuntimeError, match='engine="object"'):
                fused.run(trace, measure_from=MEASURE_FROM)
        else:
            assert fused.run(trace, measure_from=MEASURE_FROM) == second, name
