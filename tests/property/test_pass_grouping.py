"""Property: the planner's one grouping rule.

Whatever configurations, map count and store holes a campaign has, its
plan groups partition the pending work items into schedule passes of one
benchmark and one batch signature: passes hold at most ``PASS_LANES``
lanes, and those of one (benchmark, signature) differ in size by at most
one; and serial execution spends exactly the predicted passes, one per
group, with the lane kernel on and off.  ``PASS_LANES`` is patched small so that groups wider than one pass
stay cheap to simulate.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, RunnerSettings, Session
from repro.campaign import plan as plan_module
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)

WIDTH = 3

#: Three batch signatures with the kernel: baseline/block/V$ lanes merge,
#: word-disabling and incremental word-disabling each split off.
CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)


@st.composite
def campaigns(draw):
    """Random config subset and benchmark scope, 1..2*WIDTH+1 fault maps,
    random store holes, kernel on or off."""
    configs = tuple(
        draw(st.lists(st.sampled_from(CONFIGS), min_size=1, unique=True))
    )
    benchmarks = tuple(
        draw(st.lists(st.sampled_from(("gzip", "mcf")), min_size=1, unique=True))
    )
    run_settings = RunnerSettings(
        n_instructions=600,
        warmup_instructions=200,
        n_fault_maps=draw(st.integers(min_value=1, max_value=2 * WIDTH + 1)),
        benchmarks=benchmarks,
    )
    items = list(CampaignSpec.from_settings(run_settings, configs).work_items())
    holes = draw(st.sets(st.sampled_from(range(len(items)))))
    return run_settings, configs, [items[i] for i in sorted(holes)], draw(st.booleans())


@given(campaigns())
@settings(max_examples=20, deadline=None)
def test_groups_are_balanced_single_signature_passes(campaign):
    run_settings, configs, holes, kernel = campaign
    environ = {} if kernel else {"REPRO_NO_CKERNEL": "1"}
    with mock.patch.object(plan_module, "PASS_LANES", WIDTH), mock.patch.dict(
        os.environ, environ
    ):
        session = Session(run_settings)
        for benchmark, config, m in holes:
            session.simulate(benchmark, config, m)
        spec = session.spec(configs)
        plan = session.plan(spec)

        hole_keys = {session.task_key(*hole) for hole in holes}
        pending = {session.task_key(*task) for task in spec.work_items()} - hole_keys
        keys = [item.key for group in plan.groups for item in group.items]
        assert len(keys) == len(set(keys))
        assert set(keys) == pending

        sizes: dict[tuple, list[int]] = defaultdict(list)
        for group in plan.groups:
            assert 1 <= len(group) <= WIDTH
            assert {item.benchmark for item in group.items} == {group.benchmark}
            signatures = {session.batch_signature(item.config) for item in group.items}
            assert signatures == {group.signature}
            sizes[(group.benchmark, group.signature)].append(len(group))
        for passes in sizes.values():
            assert max(passes) - min(passes) <= 1
            assert len(passes) == math.ceil(sum(passes) / WIDTH)
        assert plan.predicted_passes == len(plan.groups)

        before = session.schedule_passes
        executed = session.run_all(spec)
        assert executed.predicted_passes == plan.predicted_passes
        assert session.schedule_passes - before == plan.predicted_passes
        assert session.simulations_executed == len(holes) + len(pending)
