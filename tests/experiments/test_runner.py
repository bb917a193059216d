"""Tests for the campaign session's point API (small settings for speed)."""

import pytest

from repro.campaign import RunnerSettings, Session
from repro.core.schemes import VoltageMode
from repro.experiments.configs import (
    HV_BASELINE,
    HV_BLOCK,
    HV_WORD,
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
    RunConfig,
)

SMALL = RunnerSettings(
    n_instructions=4000, n_fault_maps=2, benchmarks=("crafty", "swim")
)


@pytest.fixture(scope="module")
def session():
    return Session(SMALL)


class TestSettings:
    def test_quick_defaults(self):
        settings = RunnerSettings.quick()
        assert settings.n_instructions > 0
        assert settings.n_fault_maps > 0
        assert len(settings.benchmarks) == 26

    def test_paper_settings_use_50_maps(self):
        assert RunnerSettings.paper().n_fault_maps == 50

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_INSTR", "1234")
        monkeypatch.setenv("REPRO_MAPS", "3")
        monkeypatch.setenv("REPRO_BENCHMARKS", "crafty, gzip")
        settings = RunnerSettings.from_env()
        assert settings.n_instructions == 1234
        assert settings.n_fault_maps == 3
        assert settings.benchmarks == ("crafty", "gzip")

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError):
            RunnerSettings(benchmarks=("notabench",))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RunnerSettings(n_instructions=0)
        with pytest.raises(ValueError):
            RunnerSettings(n_fault_maps=0)


class TestRunConfig:
    def test_fault_dependence(self):
        assert LV_BLOCK.needs_fault_map
        assert LV_BLOCK_V10.needs_fault_map
        assert not LV_WORD.needs_fault_map
        assert not LV_BASELINE.needs_fault_map
        assert not HV_BLOCK.needs_fault_map

    def test_custom_config(self):
        config = RunConfig("x", "block-disable", VoltageMode.LOW, 4)
        assert config.needs_fault_map


class TestRunner:
    def test_trace_caching(self, session):
        assert session.trace("crafty") is session.trace("crafty")

    def test_fault_map_count(self, session):
        assert len(session.fault_maps()) == 2

    def test_result_caching(self, session):
        a = session.simulate("swim", LV_BASELINE)
        b = session.simulate("swim", LV_BASELINE)
        assert a is b

    def test_fault_config_requires_index(self, session):
        with pytest.raises(ValueError):
            session.simulate("swim", LV_BLOCK)

    def test_map_index_ignored_for_fixed_configs(self, session):
        a = session.simulate("swim", LV_BASELINE, map_index=0)
        b = session.simulate("swim", LV_BASELINE, map_index=1)
        assert a is b

    def test_word_disable_slower_than_baseline_low_voltage(self, session):
        base = session.simulate("crafty", LV_BASELINE)
        word = session.simulate("crafty", LV_WORD)
        assert word.cycles > base.cycles

    def test_block_disable_between_baseline_and_word(self, session):
        base = session.simulate("crafty", LV_BASELINE)
        block = session.simulate("crafty", LV_BLOCK, map_index=0)
        assert block.cycles >= base.cycles

    def test_high_voltage_block_equals_baseline(self, session):
        """Block-disabling at high voltage is *exactly* the baseline: same
        latencies, full cache, disable bits ignored."""
        base = session.simulate("crafty", HV_BASELINE)
        block = session.simulate("crafty", HV_BLOCK)
        assert block.cycles == base.cycles

    def test_high_voltage_word_pays_alignment_cycle(self, session):
        base = session.simulate("crafty", HV_BASELINE)
        word = session.simulate("crafty", HV_WORD)
        assert word.cycles > base.cycles

    def test_normalized_series_structure(self, session):
        series = session.normalized_series(LV_WORD, LV_BASELINE)
        assert series.benchmarks == ("crafty", "swim")
        assert len(series.average) == 2
        assert all(0.0 < v <= 1.2 for v in series.average)
        assert all(m <= a + 1e-12 for m, a in zip(series.minimum, series.average))

    def test_normalized_series_rejects_fault_baseline(self, session):
        with pytest.raises(ValueError):
            session.normalized_series(LV_WORD, LV_BLOCK)

    def test_mean_penalty(self, session):
        series = session.normalized_series(LV_WORD, LV_BASELINE)
        assert series.mean_penalty == pytest.approx(1.0 - series.mean_average)
