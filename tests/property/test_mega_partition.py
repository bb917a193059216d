"""Property: group scattering is partition-invariant.

However a campaign's work items are sliced into groups — any grouping,
any order, any subset already sitting in the store as "holes" —
:meth:`Session.run_group` must scatter back results bit-identical to
per-point runs of the object engine, the oracle.  This is the
planner's core invariant: grouping is a pure performance decision and
can never change a simulated bit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_INCREMENTAL
from repro.campaign import RunnerSettings, Session

TINY = RunnerSettings(
    n_instructions=1_200,
    warmup_instructions=400,
    n_fault_maps=3,
    benchmarks=("gzip",),
)

#: Work items of a small multi-point campaign: a fault-free baseline that
#: shares a batch signature with the block-disabling maps, plus
#: incremental word-disabling lanes in a different latency class.
ITEMS = (
    (LV_BASELINE, None),
    *((LV_BLOCK, m) for m in range(TINY.n_fault_maps)),
    *((LV_INCREMENTAL, m) for m in range(TINY.n_fault_maps)),
)

#: Per-point object-engine reference, computed once (hypothesis reruns
#: the test body many times; the reference never changes).
_REFERENCE: dict = {}


def _reference() -> dict:
    if not _REFERENCE:
        oracle = Session(TINY)
        trace = oracle.trace("gzip")
        for config, m in ITEMS:
            _REFERENCE[(config.label, m)] = oracle.build_pipeline(
                config, m, engine="object"
            ).run(trace, measure_from=TINY.warmup_instructions)
    return _REFERENCE


@st.composite
def partitions(draw):
    """A random ordered partition of ITEMS into groups, plus the
    subset of items pre-seeded into the store (the dedup holes)."""
    order = draw(st.permutations(range(len(ITEMS))))
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(ITEMS),
            max_size=len(ITEMS),
        )
    )
    groups: dict[int, list] = {}
    for index, label in zip(order, labels):
        groups.setdefault(label, []).append(ITEMS[index])
    holes = draw(st.sets(st.integers(min_value=0, max_value=len(ITEMS) - 1)))
    return list(groups.values()), [ITEMS[i] for i in sorted(holes)]


@given(partitions())
@settings(max_examples=12, deadline=None)
def test_any_partition_scatters_bit_identical(partition):
    groups, holes = partition
    reference = _reference()
    session = Session(TINY)
    for config, m in holes:
        session.store.put(
            session.task_key("gzip", config, m), reference[(config.label, m)]
        )
    for group in groups:
        results = session.run_group("gzip", list(group))
        assert results == [
            reference[(config.label, m)] for config, m in group
        ]
    # Post-scatter, the store holds the full campaign, every point
    # bit-identical to the object engine, holes untouched.
    for config, m in ITEMS:
        assert session.cached("gzip", config, m) == reference[
            (config.label, m)
        ]
    assert session.simulations_executed == len(ITEMS) - len(holes)
