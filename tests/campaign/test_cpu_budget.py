"""One CPU budget per process (``repro.budget``).

The budget is the CPUs the process may run on, so a process confined by
``taskset`` or a cpuset sizes its default pools and its threads to what
it may use; a pool worker gets its share, the budget divided by the
workers the pool started.  These tests set the affinity by monkeypatch
(the ``cpus`` fixture).
"""

from __future__ import annotations

import pytest

from repro import budget
from repro.budget import cpu_budget, worker_budget
from repro.campaign.executors import PoolExecutor
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments import ablation
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD

SETTINGS = RunnerSettings(
    n_instructions=2_000,
    warmup_instructions=500,
    n_fault_maps=2,
    benchmarks=("gzip", "mcf"),
)
SPEC = CampaignSpec.from_settings(SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK))


class PoolStarted(Exception):
    pass


class RecordingPool(PoolExecutor):
    """Records the worker count a pool would start, and starts none."""

    def __init__(self) -> None:
        super().__init__()
        self.started: list[int] = []

    def _make_pool(self, session, workers, epoch):
        self.started.append(workers)
        raise PoolStarted


class TestBudget:
    def test_the_budget_is_the_cpus_the_process_may_run_on(self, cpus):
        cpus(3)
        assert cpu_budget() == 3

    def test_a_worker_gets_its_share_and_at_least_one(self, cpus):
        cpus(8)
        assert [worker_budget(w) for w in (1, 2, 3, 8, 16)] == [8, 4, 2, 1, 1]

    def test_an_assigned_budget_wins_over_the_affinity(self, cpus, monkeypatch):
        cpus(8)
        monkeypatch.setattr(budget, "_assigned", None)
        budget.set_cpu_budget(2)
        assert cpu_budget() == 2
        budget.set_cpu_budget(None)
        assert cpu_budget() == 8
        with pytest.raises(ValueError, match=">= 1"):
            budget.set_cpu_budget(0)


class TestDefaults:
    def test_one_cpu_runs_a_default_pool_campaign_serially(self, cpus):
        cpus(1)
        executor = RecordingPool()
        with Session(SETTINGS) as session:
            session.run_all(SPEC, executor=executor)
            assert session.simulations_executed == 8  # 2 benchmarks x 4 points
        assert executor.started == []

    def test_a_default_pool_starts_one_worker_per_cpu(self, cpus):
        cpus(2)
        executor = RecordingPool()
        with Session(SETTINGS) as session, pytest.raises(PoolStarted):
            session.run_all(SPEC, executor=executor)
        assert executor.started == [2]

    def test_one_cpu_runs_default_ablation_studies_serially(self, cpus, monkeypatch):
        cpus(1)
        monkeypatch.setattr(
            ablation, "ABLATION_STUDIES", {"a": lambda: "A", "b": lambda: "B"}
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-CPU process started a study pool")

        monkeypatch.setattr(ablation, "ProcessPoolExecutor", no_pool)
        assert ablation.run_studies(["a", "b"]) == {"a": "A", "b": "B"}


class TestPoolWorkers:
    def test_each_worker_runs_on_its_share_of_the_budget(self, cpus):
        cpus(8)
        executor = PoolExecutor(2)
        with Session(SETTINGS) as session:
            pool = executor._make_pool(session, 2, 0)
            try:
                shares = {pool.submit(cpu_budget).result(timeout=60) for _ in range(4)}
            finally:
                executor._shutdown(pool)
        assert shares == {4}
