"""Tests for the reproduction scorecard and workload characterization."""

import pytest

from repro.campaign import RunnerSettings, Session
from repro.experiments.characterize import behaviour_space_check, characterization_table
from repro.experiments.report import (
    ReportLine,
    analytical_lines,
    reproduction_report,
    simulation_lines,
)


class TestReportLine:
    def test_pass_within_tolerance(self):
        line = ReportLine("src", "claim", 10.0, 10.4, 0.05)
        assert line.passed

    def test_miss_outside_tolerance(self):
        line = ReportLine("src", "claim", 10.0, 12.0, 0.05)
        assert not line.passed

    def test_exact_requirement(self):
        assert ReportLine("s", "c", 100, 100, 0.0).passed
        assert not ReportLine("s", "c", 100, 101, 0.0).passed

    def test_zero_paper_value(self):
        assert ReportLine("s", "c", 0.0, 0.005, 0.01).passed

    def test_render_contains_status(self):
        text = ReportLine("src", "claim", 1.0, 1.0, 0.1).render()
        assert "PASS" in text
        assert "claim" in text


class TestAnalyticalScorecard:
    def test_every_analytical_claim_passes(self):
        for line in analytical_lines():
            assert line.passed, line.render()

    def test_report_without_runner(self):
        text = reproduction_report()
        assert "Reproduction scorecard" in text
        assert "MISS" not in text
        assert "claims reproduced" in text


class TestSimulationScorecard:
    @pytest.fixture(scope="class")
    def session(self):
        return Session(
            RunnerSettings(
                n_instructions=15_000,
                n_fault_maps=2,
                warmup_instructions=5_000,
                benchmarks=("crafty", "swim", "gzip", "mcf"),
            )
        )

    def test_simulation_lines_have_expected_claims(self, session):
        lines = simulation_lines(session)
        claims = [line.claim for line in lines]
        assert any("word-disabling average penalty" in c for c in claims)
        assert any("crafty" in c for c in claims)

    def test_full_report_renders(self, session):
        text = reproduction_report(session)
        assert "Fig 8" in text
        assert "claims reproduced" in text


class TestCharacterization:
    @pytest.fixture(scope="class")
    def table(self):
        return characterization_table(
            benchmarks=("crafty", "swim", "mcf", "eon", "gcc", "twolf"),
            n_instructions=12_000,
            warmup=5_000,
        )

    def test_all_series_present(self, table):
        for series in ("ipc", "l1d_miss", "l1i_miss", "l2_miss", "mispredict"):
            assert series in table.series

    def test_values_in_valid_ranges(self, table):
        for name in ("l1d_miss", "l1i_miss", "l2_miss", "mispredict"):
            for value in table.series[name]:
                assert 0.0 <= value <= 1.0
        for value in table.series["ipc"]:
            assert 0.0 < value <= 4.0

    def test_mcf_is_memory_bound(self, table):
        i = table.index.index("mcf")
        assert table.series["l1d_miss"][i] > 0.3
        assert table.series["ipc"][i] < 0.5

    def test_eon_is_cache_friendly(self, table):
        i = table.index.index("eon")
        assert table.series["l1d_miss"][i] < 0.05

    def test_behaviour_space_spanned(self, table):
        flags = behaviour_space_check(table)
        for label in ("cache_friendly", "capacity_bound", "code_heavy"):
            assert flags[label], f"suite does not span {label}"
