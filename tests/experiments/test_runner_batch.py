"""ExperimentRunner.run_batch: store dedup, lane widths, figure identity."""

from __future__ import annotations

import pytest

from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD
from repro.experiments.runner import ExperimentRunner, RunnerSettings

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=5,
    benchmarks=("gzip",),
)


def test_batched_results_match_legacy_path():
    legacy = ExperimentRunner(SETTINGS, lanes=1)
    batched = ExperimentRunner(SETTINGS)
    expected = [
        legacy.run("gzip", LV_BLOCK, m) for m in range(SETTINGS.n_fault_maps)
    ]
    assert batched.run_batch("gzip", LV_BLOCK) == expected
    # Everything was stored under the same keys the per-map path uses.
    for m in range(SETTINGS.n_fault_maps):
        assert batched.cached("gzip", LV_BLOCK, m) == expected[m]


def test_batch_skips_stored_lanes():
    runner = ExperimentRunner(SETTINGS)
    runner.run("gzip", LV_BLOCK, 1)
    runner.run("gzip", LV_BLOCK, 3)
    executed_before = runner.simulations_executed
    results = runner.run_batch("gzip", LV_BLOCK)
    assert len(results) == SETTINGS.n_fault_maps
    assert runner.simulations_executed == executed_before + 3
    # A second pass is a pure store read.
    assert runner.run_batch("gzip", LV_BLOCK) == results
    assert runner.simulations_executed == executed_before + 3


def test_lane_width_bounds_batches():
    narrow = ExperimentRunner(SETTINGS, lanes=2)
    wide = ExperimentRunner(SETTINGS)
    assert narrow.run_batch("gzip", LV_BLOCK) == wide.run_batch("gzip", LV_BLOCK)


def test_fault_independent_config_collapses():
    runner = ExperimentRunner(SETTINGS)
    results = runner.run_batch("gzip", LV_WORD)
    assert results == [runner.run("gzip", LV_WORD)]
    assert runner.simulations_executed == 1


def test_subset_and_order_preserved():
    runner = ExperimentRunner(SETTINGS)
    subset = runner.run_batch("gzip", LV_BLOCK, [3, 0, 3])
    assert subset[0] == runner.run("gzip", LV_BLOCK, 3)
    assert subset[1] == runner.run("gzip", LV_BLOCK, 0)
    assert subset[2] == subset[0]


def test_normalized_series_identical_across_paths():
    legacy = ExperimentRunner(SETTINGS, lanes=1)
    batched = ExperimentRunner(SETTINGS)
    assert legacy.normalized_series(
        LV_BLOCK, LV_BASELINE
    ) == batched.normalized_series(LV_BLOCK, LV_BASELINE)


def test_invalid_lane_width_rejected():
    with pytest.raises(ValueError):
        ExperimentRunner(SETTINGS, lanes=0)
