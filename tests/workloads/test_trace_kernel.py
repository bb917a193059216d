"""The compiled trace kernel: toolchain, and which generators use it.

Bit-identity with the Python generator is fuzzed in
``tests/property/test_trace_equivalence.py``; these tests pin the load
gates and the per-generator engine choice: the kernel whenever it loads
and the profile stays inside its 2^32 draw ranges and int64 addresses,
the Python walk otherwise.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from kernel_toolchain import BuildFailureChecks, GatingChecks

from repro.workloads import trace_kernel
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2000 import ALL_BENCHMARKS

kernel_available = pytest.mark.skipif(
    trace_kernel.load() is None, reason="no compiled trace kernel on this host"
)


def _profile(**overrides) -> WorkloadProfile:
    base = dict(name="big", suite="int", load_frac=0.25, store_frac=0.1, branch_frac=0.1)
    base.update(overrides)
    return WorkloadProfile(**base)


class TestTraceKernelGating(GatingChecks):
    kernel = trace_kernel


class TestTraceKernelBuildFailureWarning(BuildFailureChecks):
    kernel = trace_kernel
    fallback = "Python walk"


class TestTraceMemory:
    @kernel_available
    def test_kernel_trace_retains_at_most_22_bytes_per_instruction(self):
        """The walk's output columns are the trace: two int64 columns and
        five one-byte ones, 21 bytes per instruction, with no list copy."""
        n = 200_000
        generator = TraceGenerator("mcf", seed=2010)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = generator.generate(n)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == n
        assert retained <= 22 * n, retained / n


class TestEngineChoice:
    @kernel_available
    def test_spec_profiles_use_the_kernel(self):
        for name in ALL_BENCHMARKS:
            assert TraceGenerator(name, seed=2010)._kernel is not None, name

    def test_env_override_uses_the_python_walk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        generator = TraceGenerator("gzip", seed=0)
        assert generator._kernel is None
        assert len(generator.generate(500)) == 500

    def test_random_region_past_2_32_blocks_uses_the_python_walk(self):
        """``ws_kb=2**30`` with the default mixture puts about 5.2e9
        64-byte blocks in the random region: ``randrange`` over it takes
        ``getrandbits``'s multi-word path, which the kernel does not copy."""
        generator = TraceGenerator(_profile(ws_kb=2**30), seed=3)
        assert generator._random_region // 64 >= 2**32
        assert generator._kernel is None
        trace = generator.generate(2_000)
        assert len(trace) == 2_000
        trace.validate()
        assert max(trace.mem_addr) >= generator._random_base  # region in use

    def test_addresses_past_int64_use_the_python_walk(self):
        """Every draw range fits, but the stride and random regions start
        past 2^63."""
        profile = _profile(ws_kb=2**52, stream_frac=1.0, stride_frac=0.0, random_frac=0.0)
        generator = TraceGenerator(profile, seed=3)
        assert generator._random_region // 64 < 2**32
        assert generator._random_base >= 2**63
        assert generator._kernel is None
        assert len(generator.generate(500)) == 500

    @kernel_available
    def test_run_rejects_a_mistyped_column(self):
        with pytest.raises(TypeError, match="pc"):
            trace_kernel.run(
                trace_kernel.load(), "walk", random.Random(0), pc=np.empty(4, np.int32)
            )
