"""Integration tests pinning the paper's headline numbers.

These are the reproduction's acceptance tests: every quantitative claim the
paper's abstract, Section IV, and Section VI make, checked end-to-end
against this implementation (analytical claims exactly; simulation claims
as shape/ordering, since the substrate is a different simulator — see
DESIGN.md).
"""

import pytest

from repro.analysis import (
    CapacityDistribution,
    expected_faulty_blocks_exact,
    pfail_for_capacity,
    whole_cache_failure_probability,
)
from repro.analysis.victim import paper_victim_analysis
from repro.campaign import RunnerSettings, Session
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)
from repro.faults import PAPER_L1_GEOMETRY
from repro.overhead.transistors import OverheadModel


class TestSectionIVClaims:
    def test_275_faults_hit_213_blocks(self):
        assert round(expected_faulty_blocks_exact(512, 537, 275)) == 213

    def test_more_than_half_capacity_below_0_0013(self):
        assert pfail_for_capacity(537, 0.5) == pytest.approx(0.0013, abs=1e-4)

    def test_fig4_mean_58_pct(self):
        dist = CapacityDistribution(512, 537, 0.001)
        assert dist.mean_capacity == pytest.approx(0.58, abs=0.01)

    def test_999_probability_above_half(self):
        dist = CapacityDistribution(512, 537, 0.001)
        assert dist.prob_capacity_above(0.5) >= 0.999

    def test_1_in_1000_caches_unfit_at_0_001(self):
        pwcf = whole_cache_failure_probability(0.001)
        assert pwcf == pytest.approx(1.6e-3, rel=0.5)

    def test_factor_10_increase_at_0_0015(self):
        ratio = whole_cache_failure_probability(0.0015) / whole_cache_failure_probability(0.001)
        assert ratio == pytest.approx(10, rel=0.4)

    def test_mean_6_5_faulty_victim_blocks(self):
        assert paper_victim_analysis(0.001).mean_faulty_entries == pytest.approx(
            6.5, abs=0.2
        )


class TestTableIClaims:
    def test_all_six_rows(self):
        model = OverheadModel(PAPER_L1_GEOMETRY)
        totals = [row.total_transistors for row in model.all_rows()]
        assert totals == [76_800, 126_138, 209_920, 81_920, 164_150, 131_418]

    def test_order_of_magnitude_cheaper(self):
        model = OverheadModel(PAPER_L1_GEOMETRY)
        assert (
            model.word_disable_cache_increase()
            / model.block_disable_cache_increase()
            > 10
        )


@pytest.mark.slow
class TestSectionVIShape:
    """Simulation-based ordering claims on a reduced but meaningful setup:
    six representative benchmarks, three fault maps, 20k instructions."""

    @pytest.fixture(scope="class")
    def session(self):
        return Session(
            RunnerSettings(
                n_instructions=20_000,
                n_fault_maps=3,
                benchmarks=("crafty", "gzip", "mcf", "swim", "wupwise", "parser"),
            )
        )

    def test_scheme_ordering(self, session):
        """word-disable < block-disable < block-disable+V$ on average —
        the paper's central result."""
        word = session.normalized_series(LV_WORD, LV_BASELINE)
        block = session.normalized_series(LV_BLOCK, LV_BASELINE)
        block_v = session.normalized_series(LV_BLOCK_V10, LV_BASELINE)
        assert word.mean_average < block.mean_average < block_v.mean_average

    def test_loss_magnitudes_in_paper_range(self, session):
        """Average penalties in the paper's neighbourhood (11.2% / 8.3% /
        5.3%); we accept generous bands since the benchmark subset is small."""
        word = session.normalized_series(LV_WORD, LV_BASELINE)
        block_v = session.normalized_series(LV_BLOCK_V10, LV_BASELINE)
        assert 0.04 < word.mean_penalty < 0.25
        assert block_v.mean_penalty < word.mean_penalty
        assert block_v.mean_penalty < 0.12

    def test_victim_cache_raises_minimum(self, session):
        """Section VI-A: the victim cache fixes block-disabling's worst-case
        (minimum) performance."""
        block = session.normalized_series(LV_BLOCK, LV_BASELINE)
        block_v = session.normalized_series(LV_BLOCK_V10, LV_BASELINE)
        for without, with_v in zip(block.minimum, block_v.minimum):
            assert with_v >= without - 0.02

    def test_streaming_benchmarks_insensitive(self, session):
        """swim/mcf: compulsory/capacity-bound traffic means every scheme
        sits close to the baseline."""
        word = session.normalized_series(LV_WORD, LV_BASELINE)
        for bench, value in zip(word.benchmarks, word.average):
            if bench in ("swim", "mcf"):
                assert value > 0.93
