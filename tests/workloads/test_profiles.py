"""Tests for workload profiles and the SPEC 2000 suite definition."""

import pytest

from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2000 import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    SPEC2000_PROFILES,
    get_profile,
)


class TestSuiteDefinition:
    def test_26_benchmarks(self):
        """The paper: 'we run all 26 SPEC CPU 2000 benchmarks'."""
        assert len(ALL_BENCHMARKS) == 26

    def test_fp_int_split(self):
        assert len(FP_BENCHMARKS) == 14
        assert len(INT_BENCHMARKS) == 12

    def test_figure_order_fp_first(self):
        assert ALL_BENCHMARKS[:14] == FP_BENCHMARKS
        assert ALL_BENCHMARKS[14:] == INT_BENCHMARKS

    def test_every_benchmark_has_profile(self):
        for name in ALL_BENCHMARKS:
            assert name in SPEC2000_PROFILES

    def test_profiles_match_suite_labels(self):
        for name in FP_BENCHMARKS:
            assert SPEC2000_PROFILES[name].suite == "fp"
        for name in INT_BENCHMARKS:
            assert SPEC2000_PROFILES[name].suite == "int"

    def test_paper_figure_names_present(self):
        for name in ("crafty", "mesa", "wupwise", "gap", "gzip", "perlbmk", "mcf"):
            assert name in ALL_BENCHMARKS

    def test_get_profile_error_message(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_profile("bzip2")


class TestProfileValidation:
    def make(self, **overrides):
        base = dict(
            name="x", suite="int", load_frac=0.25, store_frac=0.1, branch_frac=0.1
        )
        base.update(overrides)
        return WorkloadProfile(**base)

    def test_valid_profile(self):
        profile = self.make()
        assert profile.name == "x"

    def test_rejects_bad_suite(self):
        with pytest.raises(ValueError):
            self.make(suite="mixed")

    def test_rejects_mix_over_one(self):
        with pytest.raises(ValueError):
            self.make(load_frac=0.7, store_frac=0.3, branch_frac=0.2)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError):
            self.make(load_frac=-0.1)

    def test_rejects_zero_working_set(self):
        with pytest.raises(ValueError):
            self.make(ws_kb=0)

    @pytest.mark.parametrize(
        "field", ["ws_kb", "code_kb", "conflict_blocks", "conflict_sets", "stride_bytes"]
    )
    @pytest.mark.parametrize("value", [0, -64, 64.0, 1.5, True])
    def test_sizes_and_counts_must_be_positive_ints(self, field, value):
        """A zero pool or set count divided by zero in the generator, a
        float size made float addresses, and a non-positive stride gave
        the feature model a log of a non-positive number."""
        with pytest.raises(ValueError, match=field):
            self.make(conflict_frac=0.3, **{field: value})

    def test_rejects_empty_pattern_mixture(self):
        with pytest.raises(ValueError):
            self.make(stream_frac=0, stride_frac=0, random_frac=0, conflict_frac=0)

    def test_pattern_weights_normalised(self):
        profile = self.make(
            stream_frac=0.2, stride_frac=0.2, random_frac=0.2, conflict_frac=0.2
        )
        weights = profile.pattern_weights
        assert sum(weights) == pytest.approx(1.0)
        assert all(w == pytest.approx(0.25) for w in weights)


class TestProfileDiversity:
    """The suite must span the behaviour space the paper's results need."""

    def test_has_streaming_fp(self):
        swim = SPEC2000_PROFILES["swim"]
        assert swim.stream_frac > 0.7
        assert swim.ws_kb >= 4096

    def test_has_pointer_chaser(self):
        mcf = SPEC2000_PROFILES["mcf"]
        assert mcf.random_frac >= 0.7
        assert mcf.ws_kb >= 4096

    def test_has_conflict_sensitive_int(self):
        crafty = SPEC2000_PROFILES["crafty"]
        assert crafty.conflict_frac >= 0.3

    def test_has_code_heavy(self):
        assert SPEC2000_PROFILES["gcc"].code_kb >= 256

    def test_paper_min_dip_benchmarks_have_conflicts(self):
        """mesa, wupwise, gap, gzip, perlbmk: the benchmarks whose
        block-disable minimum dips below word-disable in Fig. 8 — all need
        set-conflict pressure in their profiles."""
        for name in ("mesa", "wupwise", "gap", "gzip", "perlbmk"):
            assert SPEC2000_PROFILES[name].conflict_frac > 0.0
