"""The Planner: grouping, dedup holes, predicted passes, and the pool's
dispatch slices of the same plan."""

import pytest

from repro.campaign import plan as plan_module
from repro.campaign.executors import PoolExecutor
from repro.campaign.plan import Planner, WorkItem, lane_passes
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.cpu import lane_kernel
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)
from repro.experiments.figures import configs_for_targets

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)


@pytest.fixture()
def session() -> Session:
    return Session(SETTINGS)


def resolve(session, configs=CONFIGS):
    return Planner(session).resolve(session.spec(configs))


def plan_shape(plan) -> list:
    """Each group's benchmark, signature and item keys, in plan order."""
    return [
        (g.benchmark, g.signature, [item.key for item in g.items])
        for g in plan.groups
    ]


class TestResolution:
    def test_covers_every_work_item_once(self, session):
        plan = resolve(session)
        keys = [item.key for group in plan.groups for item in group.items]
        assert len(keys) == len(set(keys)) == 8  # 1+1+2+2+2
        assert plan.total_points == 8
        assert plan.dedup_hits == 0
        assert plan.pending == 8

    def test_structural_twins_merge_across_points(self, session):
        # Victim sizings pad to one slot axis, so the V$ variants ride
        # in the same lane pass as the baseline and plain block lanes.
        plan = resolve(session)
        merged = {
            tuple((item.config.label, item.map_index) for item in group.items)
            for group in plan.groups
        }
        assert (
            ("baseline", None),
            ("block disabling", 0),
            ("block disabling", 1),
            ("block disabling+V$ 10T", 0),
            ("block disabling+V$ 10T", 1),
        ) in merged

    def test_store_holes_counted_and_dropped(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = resolve(session, (LV_BASELINE, LV_BLOCK))
        items = [
            (item.config, item.map_index)
            for group in plan.groups
            for item in group.items
        ]
        assert (LV_BLOCK, 0) not in items
        assert (LV_BLOCK, 1) in items
        assert plan.total_points == 3
        assert plan.dedup_hits == 1
        assert plan.pending == 2


class TestPredictedPasses:
    """Predicted passes equal executed passes, serial and pooled, with
    the lane kernel on (this class) and off
    (:class:`TestPredictedPassesWithoutKernel`), and the plans agree."""

    kernel = True

    @pytest.fixture(autouse=True)
    def kernel_switch(self, monkeypatch):
        if not self.kernel:
            monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        elif lane_kernel.load() is None:
            pytest.skip("no compiled lane kernel on this host")

    def execute(self, session, plan):
        """Run every group; without the kernel, check the plan first: it
        is the plan the same session resolves with the kernel allowed —
        same groups, item keys, order and predicted passes."""
        if not self.kernel:
            with pytest.MonkeyPatch.context() as patched:
                patched.delenv("REPRO_NO_CKERNEL")
                kernel_plan = Planner(session).resolve(plan.spec)
            assert plan_shape(plan) == plan_shape(kernel_plan)
            assert plan.predicted_passes == kernel_plan.predicted_passes
        for group in plan.groups:
            session.run_group(
                group.benchmark, [(item.config, item.map_index) for item in group.items]
            )
        assert session.schedule_passes == plan.predicted_passes

    def test_prediction_matches_execution(self, session):
        plan = resolve(session)
        self.execute(session, plan)
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert plan.predicted_passes < points

    def test_prediction_with_explicit_single_lane(self, monkeypatch):
        monkeypatch.setattr(plan_module, "PASS_LANES", 1)
        session = Session(SETTINGS)
        plan = resolve(session)
        assert plan.predicted_passes == plan.pending  # one pass per lane
        self.execute(session, plan)

    def test_pool_execution_spends_predicted_passes(self, monkeypatch):
        # Narrow passes give the pool several groups to fan out.
        monkeypatch.setattr(plan_module, "PASS_LANES", 3)
        session = Session(SETTINGS)
        plan = session.run_all(session.spec(CONFIGS), executor=PoolExecutor(2))
        assert len(plan.groups) > 1
        assert session.schedule_passes == plan.predicted_passes

    def test_padded_victim_merge_prediction_matches_execution(self, session):
        """Regression: a mixed 0/8/16-entry victim campaign merges into
        one padded lane pass, and the planner's pass accounting agrees
        with what the executor then actually spends (one pass)."""
        configs = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
        plan = resolve(session, configs)
        assert len(plan.groups) == 1
        assert len(plan.groups[0]) == len(configs) * SETTINGS.n_fault_maps
        assert plan.predicted_passes == 1
        self.execute(session, plan)

    def test_empty_plan_predicts_zero(self, session):
        session.run_all(session.spec(CONFIGS))
        plan = resolve(session)
        assert plan.pending == 0
        assert plan.predicted_passes == 0


class TestPredictedPassesWithoutKernel(TestPredictedPasses):
    """``REPRO_NO_CKERNEL=1``: the plan is the one a kernel host
    resolves, and each group runs as one pass of object-loop runs."""

    kernel = False


class TestPlansDoNotDependOnTheHost:
    """Fig. 8 over gzip and mcf at 50 maps — 204 points — plans the same
    12 groups with the lane kernel and without it (same benchmarks, item
    keys, order and signatures), and either plan runs in exactly one
    schedule pass per group."""

    SETTINGS = RunnerSettings(
        n_instructions=300,
        warmup_instructions=100,
        n_fault_maps=50,
        benchmarks=("gzip", "mcf"),
    )

    def test_fig8_plans_and_runs_alike(self, monkeypatch):
        configs = tuple(configs_for_targets(["fig8"]))
        legs = {}
        for kernel in (True, False):
            if kernel:
                monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
            else:
                monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
            session = Session(self.SETTINGS)
            plan = session.plan(session.spec(configs))
            session.run_all(plan.spec)
            assert session.schedule_passes == len(plan.groups)
            assert session.simulations_executed == plan.pending == 204
            legs[kernel] = plan
        assert len(legs[True].groups) == 12
        assert plan_shape(legs[True]) == plan_shape(legs[False])


class TestLanePasses:
    """The grouping rule itself, at a 25-lane cap: ``ceil(n / 25)``
    contiguous passes, larger ones first, sizes within one of each
    other."""

    @pytest.fixture(autouse=True)
    def width(self, monkeypatch):
        monkeypatch.setattr(plan_module, "PASS_LANES", 25)

    @pytest.mark.parametrize(
        "lanes, sizes",
        [
            (1, [1]),
            (25, [25]),
            (26, [13, 13]),
            (50, [25, 25]),
            (101, [21, 20, 20, 20, 20]),
        ],
    )
    def test_balanced_contiguous_passes(self, lanes, sizes):
        items = [WorkItem("gzip", LV_BLOCK, m, f"k{m}") for m in range(lanes)]
        groups = lane_passes(items, lambda config: config.label)
        assert [len(group) for group in groups] == sizes
        assert [item for group in groups for item in group.items] == items
        assert all(group.signature == LV_BLOCK.label for group in groups)

    def test_merges_across_points_per_benchmark_and_signature(self):
        items = [
            WorkItem("gzip", LV_BLOCK, 0, "a"),
            WorkItem("mcf", LV_BLOCK, 0, "b"),
            WorkItem("gzip", LV_WORD, None, "c"),
            WorkItem("gzip", LV_BASELINE, None, "d"),
        ]
        signature = {LV_BLOCK: "x", LV_BASELINE: "x", LV_WORD: "y"}.get
        groups = lane_passes(items, signature)
        assert [
            (g.benchmark, g.signature, [i.key for i in g.items]) for g in groups
        ] == [
            ("gzip", "x", ["a", "d"]),
            ("mcf", "x", ["b"]),
            ("gzip", "y", ["c"]),
        ]


class TestWorkerBatches:
    def test_lane_width_slices_groups(self, session, monkeypatch):
        monkeypatch.setattr(plan_module, "PASS_LANES", 1)
        plan = resolve(session)
        batches = plan.worker_batches()
        assert len(batches) == len(plan.groups)
        assert all(len(batch) == 1 for batch in batches)
        assert sum(len(batch) for batch in batches) == plan.pending


class TestDescribe:
    def test_dry_run_rendering(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = resolve(session)
        text = plan.describe()
        assert "work items : 8 (1 already in store, 7 to simulate)" in text
        assert "predicted schedule passes" in text
        assert "gzip" in text
        assert "baseline" in text

    def test_empty_plan_rendering(self, session):
        session.run_all(session.spec((LV_BASELINE,)))
        plan = resolve(session, (LV_BASELINE,))
        assert "nothing to simulate" in plan.describe()
