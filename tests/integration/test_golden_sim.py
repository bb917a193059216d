"""Golden bit-identity suite: both engines vs the locked fixtures.

``golden_sim.json`` was generated by the pre-engine object path (see
``golden_scenarios.py``).  Every scenario — all disabling schemes at both
voltages, victim caches, prefetching, all replacement policies, thinned and
fully-disabled sets, non-Table-II widths — must reproduce its cycles,
branch statistics, and full hierarchy statistics exactly: on
``engine="object"``, on the default engine (the C lane kernel for every
kernel-eligible scenario, the object loop for the rest), and batched.
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


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity_batched(name, golden, traces):
    """Every scenario must also reproduce its goldens through
    ``run_batch``: two identical lanes run in one kernel pass, and both
    must match the locked record exactly.  Scenarios the kernel cannot
    take (prefetchers, non-LRU policies) exercise the per-pipeline
    object-loop fallback — same contract either way."""
    from repro.cpu.pipeline import OutOfOrderPipeline

    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    pipelines = [
        OutOfOrderPipeline(pipeline_config, make_hierarchy()) for _ in range(2)
    ]
    results = OutOfOrderPipeline.run_batch(
        pipelines, traces[trace_name], measure_from=MEASURE_FROM
    )
    for lane, result in enumerate(results):
        assert result_record(result) == golden[name], (
            f"{name} diverged on the batched engine (lane {lane})"
        )


def test_pipeline_reuse_stays_identical(traces):
    """A pipeline reused across runs must behave like the object path:
    the second run starts with trained predictors and warm caches (the
    first run is a kernel pass, the second runs the object loop)."""
    name = "lv-baseline"
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    trace = traces[trace_name]

    from repro.cpu.pipeline import OutOfOrderPipeline

    obj = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="object")
    fused = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="fused")
    for _ in range(2):
        expected = obj.run(trace, measure_from=MEASURE_FROM)
        got = fused.run(trace, measure_from=MEASURE_FROM)
        assert result_record(got) == result_record(expected)
