"""Session.run_group over one campaign point's fault-map lanes: identity
with per-map ``simulate`` calls, store dedup, pass widths,
fault-independent collapse, subset and order."""

from __future__ import annotations

from repro.campaign import RunnerSettings, Session
from repro.campaign import plan as plan_module
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=5,
    benchmarks=("gzip",),
)


def _lanes(config, maps=range(SETTINGS.n_fault_maps)):
    return [(config, m) for m in maps]


def test_batched_results_match_legacy_path():
    """One batched pass equals per-map ``simulate`` calls."""
    sequential = Session(SETTINGS)
    batched = Session(SETTINGS)
    expected = [
        sequential.simulate("gzip", LV_BLOCK, m)
        for m in range(SETTINGS.n_fault_maps)
    ]
    assert batched.run_group("gzip", _lanes(LV_BLOCK)) == expected
    # Everything was stored under the same keys the per-map path uses.
    for m in range(SETTINGS.n_fault_maps):
        assert batched.cached("gzip", LV_BLOCK, m) == expected[m]


def test_batch_skips_stored_lanes():
    session = Session(SETTINGS)
    session.simulate("gzip", LV_BLOCK, 1)
    session.simulate("gzip", LV_BLOCK, 3)
    executed_before = session.simulations_executed
    results = session.run_group("gzip", _lanes(LV_BLOCK))
    assert len(results) == SETTINGS.n_fault_maps
    assert session.simulations_executed == executed_before + 3
    # A second pass is a pure store read.
    assert session.run_group("gzip", _lanes(LV_BLOCK)) == results
    assert session.simulations_executed == executed_before + 3


def test_lane_width_bounds_batches(monkeypatch):
    expected = Session(SETTINGS).run_group("gzip", _lanes(LV_BLOCK))
    monkeypatch.setattr(plan_module, "PASS_LANES", 2)
    widths = []
    run_batch = OutOfOrderPipeline.run_batch

    def recording(pipelines, trace, measure_from=0):
        widths.append(len(pipelines))
        return run_batch(pipelines, trace, measure_from)

    monkeypatch.setattr(OutOfOrderPipeline, "run_batch", staticmethod(recording))
    assert Session(SETTINGS).run_group("gzip", _lanes(LV_BLOCK)) == expected
    assert widths == [2, 2, 1]  # 5 maps in balanced passes of at most 2


def test_fault_independent_config_collapses():
    session = Session(SETTINGS)
    results = session.run_group("gzip", _lanes(LV_WORD))
    assert results == [session.simulate("gzip", LV_WORD)] * SETTINGS.n_fault_maps
    assert session.simulations_executed == 1


def test_subset_and_order_preserved():
    session = Session(SETTINGS)
    subset = session.run_group("gzip", _lanes(LV_BLOCK, [3, 0, 3]))
    assert subset[0] == session.simulate("gzip", LV_BLOCK, 3)
    assert subset[1] == session.simulate("gzip", LV_BLOCK, 0)
    assert subset[2] == subset[0]


def test_normalized_series_identical_across_paths(monkeypatch):
    batched = Session(SETTINGS).normalized_series(LV_BLOCK, LV_BASELINE)
    monkeypatch.setattr(plan_module, "PASS_LANES", 1)
    assert Session(SETTINGS).normalized_series(LV_BLOCK, LV_BASELINE) == batched
