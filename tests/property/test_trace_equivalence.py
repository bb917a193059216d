"""Property-based equivalence: the compiled trace kernel vs the Python
generator.

The trace kernel promises the Python generator's traces bit for bit,
and the same ``random.Random`` state after every call, so that either
engine can continue the other's stream.  Hypothesis draws the 26 SPEC
profiles and arbitrary valid profiles, seeds, and one to three
consecutive ``generate`` lengths (including 1 and lengths that end
mid-block), and drives one generator built under ``REPRO_NO_CKERNEL=1``
beside one built with the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cpu.trace import COLUMN_DTYPES
from repro.workloads import trace_kernel
from repro.workloads.generator import CodeSkeleton, TraceGenerator
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.spec2000 import ALL_BENCHMARKS, get_profile

pytestmark = pytest.mark.skipif(
    trace_kernel.load() is None, reason="no compiled trace kernel on this host"
)

fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def drawn_profiles(draw) -> WorkloadProfile:
    load = draw(st.floats(min_value=0.0, max_value=0.45))
    store = draw(st.floats(min_value=0.0, max_value=0.2))
    branch = draw(st.floats(min_value=0.0, max_value=0.25))
    call = draw(st.floats(min_value=0.0, max_value=0.04))
    if not 0.0 < load + store + branch + call < 1.0:
        branch = 0.1
    patterns = [draw(fraction) for _ in range(4)]
    if sum(patterns) <= 0:
        patterns[0] = 1.0
    return WorkloadProfile(
        name=draw(st.sampled_from(["drawn", "x", "mcf"])),
        suite=draw(st.sampled_from(["int", "fp"])),
        load_frac=load,
        store_frac=store,
        branch_frac=branch,
        call_frac=call,
        fp_frac=draw(fraction),
        mul_frac=draw(fraction),
        ws_kb=draw(st.integers(min_value=1, max_value=1 << 22)),
        stream_frac=patterns[0],
        stride_frac=patterns[1],
        random_frac=patterns[2],
        conflict_frac=patterns[3],
        conflict_blocks=draw(st.integers(min_value=1, max_value=40)),
        conflict_sets=draw(st.integers(min_value=1, max_value=8)),
        stride_bytes=draw(st.integers(min_value=1, max_value=1 << 20)),
        code_kb=draw(st.integers(min_value=1, max_value=256)),
        predictability=draw(fraction),
        dep_density=draw(fraction),
    )


profiles = st.one_of(st.sampled_from(ALL_BENCHMARKS).map(get_profile), drawn_profiles())


def _cursors(generator: TraceGenerator) -> tuple:
    return (
        generator._stream_ptrs,
        generator._stream_next,
        generator._stride_ptrs,
        generator._stride_next,
        generator._conflict_next,
    )


@given(
    profile=profiles,
    seed=st.integers(min_value=0, max_value=2**32),
    lengths=st.lists(st.integers(min_value=1, max_value=3_000), min_size=1, max_size=3),
)
@example(profile=get_profile("gzip"), seed=2010, lengths=[1, 1, 1])
@example(profile=get_profile("mcf"), seed=7, lengths=[6_250, 777])
@settings(max_examples=40, deadline=None)
def test_kernel_matches_the_python_generator(profile, seed, lengths):
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_NO_CKERNEL", "1")
        oracle = TraceGenerator(profile, seed=seed)
    compiled = TraceGenerator(profile, seed=seed)
    assert oracle._kernel is None and compiled._kernel is not None

    for column in (*CodeSkeleton.COLUMNS, "hot"):
        expected = getattr(oracle._code, column)
        got = getattr(compiled._code, column)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), column
    assert compiled._rng.getstate() == oracle._rng.getstate()

    for n in lengths:
        expected, got = oracle.generate(n), compiled.generate(n)
        assert len(got) == n and got.name == expected.name
        for column, dtype in COLUMN_DTYPES.items():
            a, b = getattr(got, column), getattr(expected, column)
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b), column
        assert got == expected
        assert compiled._rng.getstate() == oracle._rng.getstate()
        assert _cursors(compiled) == _cursors(oracle)


@given(seed=st.integers(min_value=0, max_value=2**16), n=st.integers(1, 2_000))
@settings(max_examples=10, deadline=None)
def test_engines_continue_each_others_stream(seed, n):
    """``_rng`` is the one source of truth: a Python-walk call after a
    kernel call (and the reverse) continues the same trace stream."""
    reference = TraceGenerator("crafty", seed=seed)
    expected = [reference.generate(n) for _ in range(3)]
    mixed = TraceGenerator("crafty", seed=seed)
    kernel = mixed._kernel
    got = [mixed.generate(n)]
    mixed._kernel = None
    got.append(mixed.generate(n))
    mixed._kernel = kernel
    got.append(mixed.generate(n))
    assert got == expected
