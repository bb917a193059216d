"""Tests for figure data generation and the FigureResult container."""

import pytest

from repro.campaign import RunnerSettings, Session
from repro.experiments.figures import (
    ANALYTICAL_FIGURES,
    PERFORMANCE_FIGURES,
    fig1_data,
    fig3_data,
    fig4_data,
    fig5_data,
    fig6_data,
    fig7_data,
    fig8_data,
    fig11_data,
    table1_data,
)
from repro.experiments.results import FigureResult


@pytest.fixture(scope="module")
def session():
    return Session(
        RunnerSettings(n_instructions=4000, n_fault_maps=2, benchmarks=("crafty", "swim"))
    )


class TestFigureResult:
    def test_series_length_validation(self):
        result = FigureResult("f", "t", "x", [1, 2, 3])
        with pytest.raises(ValueError):
            result.add_series("bad", [1.0])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FigureResult("f", "t", "x", [1, 2], series={"s": [1.0]})

    def test_mean(self):
        result = FigureResult("f", "t", "x", [1, 2])
        result.add_series("s", [0.5, 1.5])
        assert result.mean("s") == pytest.approx(1.0)

    def test_to_text_contains_everything(self):
        result = FigureResult("fig9", "Title here", "bench", ["a", "b"])
        result.add_series("col", [0.1, 0.2])
        result.notes = "a note"
        result.paper_reference = {"metric": 0.5}
        text = result.to_text()
        assert "fig9" in text
        assert "Title here" in text
        assert "col" in text
        assert "a note" in text
        assert "paper reports" in text


class TestAnalyticalFigures:
    def test_registry_complete(self):
        assert set(ANALYTICAL_FIGURES) == {
            "fig1",
            "table1",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
        }

    def test_fig1_two_performance_regimes(self):
        result = fig1_data()
        conventional = result.series["perf_conventional(1a)"]
        below = result.series["perf_below_vccmin(1b)"]
        assert any(b < c for b, c in zip(below, conventional))
        # At nominal voltage the two coincide.
        assert below[0] == pytest.approx(conventional[0])

    def test_table1_matches_paper_exactly(self):
        result = table1_data()
        totals = dict(zip(result.index, result.series["total_transistors"]))
        for scheme, expected in result.paper_reference.items():
            assert totals[scheme] == expected

    def test_fig3_monotone_increasing(self):
        result = fig3_data()
        faulty = result.series["faulty_blocks"]
        assert all(b >= a for a, b in zip(faulty, faulty[1:]))
        assert faulty[0] == 0.0

    def test_fig4_is_distribution(self):
        result = fig4_data()
        assert sum(result.series["probability"]) == pytest.approx(1.0, abs=1e-6)

    def test_fig4_mass_concentrated_near_58pct(self):
        result = fig4_data()
        peak_bin = result.index[
            result.series["probability"].index(max(result.series["probability"]))
        ]
        assert 0.52 <= peak_bin <= 0.62

    def test_fig5_monotone_and_tiny_at_low_pfail(self):
        result = fig5_data()
        pwcf = result.series["whole_cache_failure"]
        assert all(b >= a for a, b in zip(pwcf, pwcf[1:]))
        assert pwcf[0] == 0.0

    def test_fig6_blocksize_ordering(self):
        result = fig6_data()
        c32 = result.series["32B"]
        c64 = result.series["64B"]
        c128 = result.series["128B"]
        for i in range(1, len(c32)):
            assert c32[i] > c64[i] > c128[i]

    def test_fig7_shape(self):
        result = fig7_data()
        capacity = result.series["capacity"]
        assert capacity[0] == pytest.approx(1.0)
        assert capacity[-1] < 0.5


class TestPerformanceFigures:
    def test_registry_complete(self):
        assert set(PERFORMANCE_FIGURES) == {
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "ext-incremental",
        }

    def test_fig8_series_names(self, session):
        result = fig8_data(session)
        assert list(result.series) == [
            "word disabling",
            "block disabling avg",
            "block disabling avg+V$ 10T",
            "block disabling min",
            "block disabling min+V$ 10T",
        ]
        assert result.index == ["crafty", "swim"]

    def test_fig8_min_below_avg(self, session):
        result = fig8_data(session)
        for avg, minimum in zip(
            result.series["block disabling avg"], result.series["block disabling min"]
        ):
            assert minimum <= avg + 1e-12

    def test_fig11_block_disable_is_baseline(self, session):
        result = fig11_data(session)
        for value in result.series["block disabling"]:
            assert value == pytest.approx(1.0)

    def test_fig11_word_disable_below_one(self, session):
        result = fig11_data(session)
        for value in result.series["word disabling"]:
            assert value < 1.0

    def test_all_performance_figures_run(self, session):
        for figure_fn in PERFORMANCE_FIGURES.values():
            result = figure_fn(session)
            assert result.series
            text = result.to_text()
            assert result.figure_id in text
