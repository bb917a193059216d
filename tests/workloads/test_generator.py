"""Tests for the synthetic trace generator."""

import numpy as np
import pytest

from repro.cpu.isa import InstrClass
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2000 import ALL_BENCHMARKS


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace("crafty", 5000, seed=3)
        b = generate_trace("crafty", 5000, seed=3)
        assert a == b
        for name, column in a.to_arrays().items():
            other = getattr(b, name)
            assert other.dtype == column.dtype and np.array_equal(other, column), name

    def test_different_seed_different_trace(self):
        a = generate_trace("crafty", 5000, seed=3)
        b = generate_trace("crafty", 5000, seed=4)
        assert not np.array_equal(a.mem_addr, b.mem_addr)

    def test_different_benchmarks_differ(self):
        a = generate_trace("crafty", 5000, seed=3)
        b = generate_trace("gzip", 5000, seed=3)
        assert not np.array_equal(a.pc, b.pc)


class TestStructure:
    def test_requested_length(self):
        assert len(generate_trace("gcc", 3000, seed=0)) == 3000

    def test_traces_validate(self):
        for name in ("crafty", "swim", "mcf"):
            generate_trace(name, 3000, seed=0).validate()

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            generate_trace("gcc", 0)

    def test_mix_tracks_profile(self):
        """Emitted class fractions track the profile within tolerance."""
        from repro.workloads.spec2000 import get_profile

        profile = get_profile("crafty")
        trace = generate_trace("crafty", 30_000, seed=1)
        mix = trace.class_mix()
        assert mix["load"] == pytest.approx(profile.load_frac, abs=0.03)
        assert mix["store"] == pytest.approx(profile.store_frac, abs=0.03)
        assert mix["branch"] == pytest.approx(profile.branch_frac, abs=0.03)

    def test_memory_footprint_scales_with_ws(self):
        small = generate_trace("eon", 30_000, seed=0)  # 12KB working set
        large = generate_trace("mcf", 30_000, seed=0)  # 8MB working set
        assert large.memory_footprint_bytes() > 4 * small.memory_footprint_bytes()

    def test_code_footprint_scales(self):
        small = generate_trace("swim", 40_000, seed=0)  # 16KB code
        large = generate_trace("gcc", 40_000, seed=0)  # 448KB code
        assert large.code_footprint_bytes() > 2 * small.code_footprint_bytes()

    def test_branches_have_outcomes(self):
        trace = generate_trace("twolf", 10_000, seed=0)
        branches = trace.iclass == InstrClass.BRANCH
        assert branches.any()
        taken = int(np.count_nonzero(trace.taken[branches]))
        # Both outcomes must occur.
        assert 0 < taken < np.count_nonzero(branches)

    def test_loads_have_addresses(self):
        trace = generate_trace("ammp", 5000, seed=0)
        memory = (trace.iclass == InstrClass.LOAD) | (trace.iclass == InstrClass.STORE)
        assert memory.any() and (trace.mem_addr[memory] >= 0).all()


class TestConflictPattern:
    def test_conflict_pool_maps_to_few_sets(self, paper_geometry):
        """The conflict stressor must land in `conflict_sets` cache sets."""
        generator = TraceGenerator("crafty", seed=0)
        pool = generator._conflict_pool
        sets = {paper_geometry.set_index(addr) for addr in pool}
        assert len(sets) == generator.profile.conflict_sets

    def test_conflict_blocks_are_distinct(self, paper_geometry):
        generator = TraceGenerator("crafty", seed=0)
        blocks = {a >> 6 for a in generator._conflict_pool}
        assert len(blocks) == generator.profile.conflict_blocks


class TestGeneratorAPI:
    def test_accepts_profile_object(self):
        profile = WorkloadProfile(
            name="custom",
            suite="int",
            load_frac=0.2,
            store_frac=0.1,
            branch_frac=0.1,
        )
        trace = generate_trace(profile, 2000, seed=0)
        assert trace.name == "custom"

    def test_all_benchmarks_generate(self):
        for name in ALL_BENCHMARKS:
            trace = generate_trace(name, 500, seed=0)
            assert len(trace) == 500
