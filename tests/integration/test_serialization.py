"""Round-trip tests for fault-map and trace persistence, and the pipeline's
measured-region support."""

import numpy as np
import pytest

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cpu.config import PAPER_PIPELINE
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.faults import CacheGeometry, FaultMap
from repro.workloads.generator import generate_trace


class TestFaultMapPersistence:
    def test_round_trip(self, paper_geometry, tmp_path):
        fmap = FaultMap.generate(paper_geometry, 0.001, seed=5)
        path = str(tmp_path / "map.npz")
        fmap.save(path)
        loaded = FaultMap.load(path)
        assert np.array_equal(loaded.faults, fmap.faults)
        assert loaded.pfail == fmap.pfail
        assert loaded.geometry == fmap.geometry

    def test_round_trip_with_explicit_tag_bits(self, tmp_path):
        geometry = CacheGeometry(size_bytes=4096, ways=4, block_bytes=64, tag_bits=30)
        fmap = FaultMap.generate(geometry, 0.002, seed=1)
        path = str(tmp_path / "map.npz")
        fmap.save(path)
        loaded = FaultMap.load(path)
        assert loaded.geometry.tag_bits == 30
        assert np.array_equal(loaded.faults, fmap.faults)

    def test_loaded_map_usable_by_schemes(self, paper_geometry, tmp_path):
        from repro.core import BlockDisableScheme, VoltageMode

        fmap = FaultMap.generate(paper_geometry, 0.001, seed=9)
        path = str(tmp_path / "map.npz")
        fmap.save(path)
        loaded = FaultMap.load(path)
        original = BlockDisableScheme().configure(paper_geometry, fmap, VoltageMode.LOW)
        reloaded = BlockDisableScheme().configure(paper_geometry, loaded, VoltageMode.LOW)
        assert original.usable_blocks == reloaded.usable_blocks


class TestTracePersistence:
    def test_round_trip(self, tmp_path):
        trace = generate_trace("gzip", 3000, seed=4)
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        from repro.cpu.trace import Trace

        loaded = Trace.load(path)
        assert loaded.name == "gzip"
        for name, column in trace.to_arrays().items():
            got = getattr(loaded, name)
            assert got.dtype == column.dtype and np.array_equal(got, column), name
        assert loaded == trace

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.cpu.trace import Trace
        from repro.faults import PAPER_L1_GEOMETRY, PAPER_L2_GEOMETRY

        trace = generate_trace("gzip", 3000, seed=4)
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = Trace.load(path)

        def run(t):
            hierarchy = MemoryHierarchy(
                SetAssociativeCache(PAPER_L1_GEOMETRY),
                SetAssociativeCache(PAPER_L1_GEOMETRY),
                PAPER_L2_GEOMETRY,
                LatencyConfig(),
            )
            return OutOfOrderPipeline(PAPER_PIPELINE, hierarchy).run(t)

        assert run(trace).cycles == run(loaded).cycles


class TestMeasuredRegion:
    def make_pipeline(self):
        from repro.faults import PAPER_L1_GEOMETRY, PAPER_L2_GEOMETRY

        hierarchy = MemoryHierarchy(
            SetAssociativeCache(PAPER_L1_GEOMETRY),
            SetAssociativeCache(PAPER_L1_GEOMETRY),
            PAPER_L2_GEOMETRY,
            LatencyConfig(),
        )
        return OutOfOrderPipeline(PAPER_PIPELINE, hierarchy)

    def test_measured_region_reports_fewer_instructions(self):
        trace = generate_trace("gzip", 6000, seed=1)
        result = self.make_pipeline().run(trace, measure_from=2000)
        assert result.instructions == 4000

    def test_measured_cycles_below_total(self):
        trace = generate_trace("gzip", 6000, seed=1)
        full = self.make_pipeline().run(trace)
        region = self.make_pipeline().run(trace, measure_from=2000)
        assert 0 < region.cycles < full.cycles

    def test_warm_measurement_has_higher_ipc(self):
        """Warm caches/predictors: the measured region runs faster per
        instruction than the cold full run."""
        trace = generate_trace("gzip", 20_000, seed=1)
        full = self.make_pipeline().run(trace)
        region = self.make_pipeline().run(trace, measure_from=10_000)
        assert region.ipc > full.ipc

    def test_stats_cover_only_measured_region(self):
        trace = generate_trace("gzip", 6000, seed=1)
        region = self.make_pipeline().run(trace, measure_from=3000)
        accesses = region.hierarchy_stats["l1d"]["accesses"]
        full = self.make_pipeline().run(trace)
        assert accesses < full.hierarchy_stats["l1d"]["accesses"]

    def test_measure_from_zero_is_full_run(self):
        trace = generate_trace("gzip", 3000, seed=1)
        a = self.make_pipeline().run(trace)
        b = self.make_pipeline().run(trace, measure_from=0)
        assert a.cycles == b.cycles

    def test_out_of_range_rejected(self):
        trace = generate_trace("gzip", 100, seed=1)
        with pytest.raises(ValueError):
            self.make_pipeline().run(trace, measure_from=100)
        with pytest.raises(ValueError):
            self.make_pipeline().run(trace, measure_from=-1)
