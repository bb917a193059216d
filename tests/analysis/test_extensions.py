"""Tests for the ECC and bit-interleaving extensions."""

import numpy as np
import pytest

from repro.analysis.ecc import (
    block_survival_probability,
    ecc_capacity_curve,
    ecc_storage_overhead,
    ecc_vs_block_disable,
    secded_check_bits,
    word_survival_probability,
)
from repro.analysis.interleaving import (
    _clustered_matrix,
    clustered_interleaving_study,
    interleave_fault_matrix,
    uniform_fault_invariance,
)
from repro.faults import PAPER_L1_GEOMETRY, CacheGeometry

SMALL = CacheGeometry(size_bytes=8 * 1024, ways=8, block_bytes=64)


class TestSECDED:
    @pytest.mark.parametrize(
        "data_bits,expected", [(8, 5), (16, 6), (32, 7), (64, 8)]
    )
    def test_check_bits_standard_values(self, data_bits, expected):
        assert secded_check_bits(data_bits) == expected

    def test_rejects_bad_data_bits(self):
        with pytest.raises(ValueError):
            secded_check_bits(0)

    def test_word_survival_at_zero(self):
        assert word_survival_probability(0.0) == pytest.approx(1.0)

    def test_word_survival_decreasing(self):
        assert word_survival_probability(0.01) < word_survival_probability(0.001)

    def test_block_survival_is_word_power(self):
        p = word_survival_probability(0.002)
        assert block_survival_probability(0.002, 16) == pytest.approx(p**16)

    def test_storage_overhead_32bit(self):
        assert ecc_storage_overhead(32) == pytest.approx(7 / 32)

    def test_curve_monotone(self):
        curve = ecc_capacity_curve(np.linspace(0, 0.02, 10))
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_ecc_excellent_at_low_pfail_but_collapses(self):
        """The related-work claim: coding is fine at low fault densities but
        becomes ineffective at sub-Vcc-min rates."""
        assert block_survival_probability(0.0005) > 0.99
        assert block_survival_probability(0.02) < 0.5

    def test_head_to_head_summary(self, paper_geometry):
        summary = ecc_vs_block_disable(paper_geometry, 0.001)
        assert summary["ecc_capacity"] > summary["block_disable_capacity"]
        assert summary["ecc_capacity_net"] < summary["ecc_capacity"]
        assert summary["ecc_storage_overhead"] == pytest.approx(7 / 32)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            word_survival_probability(1.5)
        with pytest.raises(ValueError):
            block_survival_probability(0.001, 0)


class TestInterleaveMatrix:
    def test_shape_transform(self):
        faults = np.zeros((4, 12), dtype=bool)
        logical = interleave_fault_matrix(faults, 4)
        assert logical.shape == (16, 3)

    def test_ownership_striding(self):
        """Logical block j of a row owns physical cells j, j+degree, ..."""
        faults = np.zeros((1, 8), dtype=bool)
        faults[0, 2] = True  # belongs to logical block 2 (degree 4)
        faults[0, 6] = True  # also logical block 2 (6 = 2 + 4)
        logical = interleave_fault_matrix(faults, 4)
        assert logical[2].sum() == 2
        assert logical.sum() == 2

    def test_fault_count_preserved(self, rng):
        faults = rng.random((8, 64)) < 0.1
        logical = interleave_fault_matrix(faults, 4)
        assert logical.sum() == faults.sum()

    def test_rejects_bad_degree(self):
        faults = np.zeros((2, 10), dtype=bool)
        with pytest.raises(ValueError):
            interleave_fault_matrix(faults, 3)
        with pytest.raises(ValueError):
            interleave_fault_matrix(faults, 0)


class TestInterleavingStudy:
    def test_uniform_faults_are_invariant(self):
        contiguous, strided = uniform_fault_invariance(
            SMALL, 0.002, degree=4, trials=60, seed=0
        )
        assert contiguous == pytest.approx(strided, abs=0.02)

    def test_clustered_interleaving_hurts_block_disable(self):
        """The future-work hypothesis: under clustered faults, interleaving
        spreads clusters across blocks and lowers block-disable capacity."""
        result = clustered_interleaving_study(
            SMALL, 0.004, degree=4, cluster_size=16.0, trials=60, seed=1
        )
        assert result.interleaving_penalty > 0.0

    def test_clustering_beats_uniform_without_interleaving(self):
        result = clustered_interleaving_study(
            SMALL, 0.004, degree=4, cluster_size=16.0, trials=60, seed=2
        )
        assert result.capacity_non_interleaved > result.capacity_uniform_reference

    def test_interleaving_moves_capacity_toward_uniform(self):
        """Degree-d interleaving spreads each cluster over up to d blocks:
        capacity lands strictly between the non-interleaved clustered case
        and the fully decorrelated uniform case."""
        result = clustered_interleaving_study(
            SMALL, 0.004, degree=4, cluster_size=16.0, trials=60, seed=3
        )
        assert (
            result.capacity_uniform_reference
            < result.capacity_interleaved
            < result.capacity_non_interleaved
        )

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            clustered_interleaving_study(SMALL, 0.001, degree=7, trials=2)
        with pytest.raises(ValueError, match="does not divide"):
            uniform_fault_invariance(SMALL, 0.001, degree=7, trials=2)

    @pytest.mark.parametrize(
        "study, bad",
        [
            *(
                (clustered_interleaving_study, {"cluster_size": size})
                for size in (0.0, 0.5, float("inf"))
            ),
            *(
                (study, bad)
                for study in (clustered_interleaving_study, uniform_fault_invariance)
                for bad in ({"pfail": 1.5}, {"pfail": -0.001}, {"degree": 0}, {"trials": 0})
            ),
        ],
        ids=lambda v: v.__name__ if callable(v) else "{}={}".format(*dict(v).popitem()),
    )
    def test_rejects_bad_inputs_by_name(self, study, bad):
        """Each bad value raises a ValueError naming its argument, not a
        ZeroDivisionError, NumPy's sampler message or a NaN capacity."""
        (argument,) = bad
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            study(SMALL, **{"pfail": 0.001, "trials": 2, **bad})


class TestClusteredMatrix:
    """The clustered fault model the interleaving study samples, on the
    paper's L1 shape (one row per block)."""

    SHAPE = (PAPER_L1_GEOMETRY.num_blocks, PAPER_L1_GEOMETRY.cells_per_block)

    def test_expected_density_matches(self):
        faults = _clustered_matrix(*self.SHAPE, 0.002, 4.0, np.random.default_rng(5))
        expected = 0.002 * faults.size
        assert faults.shape == self.SHAPE
        assert 0.5 * expected < faults.sum() <= 1.5 * expected

    def test_clustering_concentrates_faults(self):
        """Same fault density, fewer distinct faulty blocks than the
        uniform model."""
        rngs = [np.random.default_rng(s) for s in range(10)]
        uniform = np.mean([(r.random(self.SHAPE) < 0.002).any(axis=1).sum() for r in rngs])
        clustered = np.mean(
            [_clustered_matrix(*self.SHAPE, 0.002, 8.0, r).any(axis=1).sum() for r in rngs]
        )
        assert clustered < 0.5 * uniform

    def test_cluster_size_one_behaves_like_uniform(self):
        faults = _clustered_matrix(*self.SHAPE, 0.001, 1.0, np.random.default_rng(1))
        expected = 0.001 * faults.size
        assert 0.3 * expected < faults.sum() < 2.0 * expected
