"""The active campaign driver, end to end against real (tiny) sessions.

The acceptance claims under test:

* the loop converges for a real reason (budget / tolerance / exhausted /
  stalled) and its event stream is well-formed — seed round first, one
  ``SurrogateFit`` per round, exactly one terminal ``Converged``;
* every point the loop simulates lands in the store, so a follow-up
  full-grid campaign is **pure dedup** (``dedup_hits == report.labeled``);
* proposals at every map depth run on the caller's session: no other
  session is built and each benchmark's trace is acquired once;
* the whole run is deterministic — two fresh-store runs of the same
  (spec, settings) produce byte-identical report JSON — and
  ``replay_report`` re-derives the same estimate from the store alone;
* validation fails loudly: bad knobs, foreign settings schema, missing
  or fault-dependent baselines, fidelity drift, seed cost over budget.
"""

import pytest

from repro.campaign.events import BatchProposed, Converged, SurrogateFit
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_WORD,
)
from repro.experiments.providers import TraceProvider
from repro.predict.loop import (
    ActiveCampaign,
    PredictSettings,
    replay_report,
)

SETTINGS = RunnerSettings(
    n_instructions=2_000,
    warmup_instructions=500,
    n_fault_maps=3,
    benchmarks=("gzip", "mcf"),
)

# 2 benchmarks x (baseline 1 + word 1 + block 3) = 10 grid points
SPEC = CampaignSpec.from_settings(
    SETTINGS, (LV_BASELINE, LV_WORD, LV_BLOCK), figure="fig8"
)

FAST = dict(initial_maps=2, batch=4, members=4, seed=11)


class TestPredictSettings:
    def test_defaults_are_valid(self):
        PredictSettings()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(budget=0.0),
            dict(budget=1.5),
            dict(batch=0),
            dict(tolerance=0.0),
            dict(patience=0),
            dict(strategy="greedy"),
            dict(initial_maps=0),
            dict(maps_step=0),
            dict(members=1),
            dict(ridge=0.0),
            dict(knn=-1),
            dict(knn_weight=2.0),
        ],
    )
    def test_bad_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            PredictSettings(**bad)

    def test_json_round_trip(self):
        settings = PredictSettings(budget=0.4, strategy="uncertainty", seed=3)
        assert PredictSettings.from_json(settings.to_json()) == settings

    def test_foreign_schema_rejected(self):
        data = PredictSettings().to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="unsupported predict settings schema"):
            PredictSettings.from_dict(data)


class TestValidation:
    def test_baseline_must_be_in_the_spec(self):
        with Session(SETTINGS) as session:
            spec = CampaignSpec.from_settings(SETTINGS, (LV_BASELINE, LV_BLOCK))
            with pytest.raises(ValueError, match="not part of the spec"):
                ActiveCampaign(session, spec, baseline=LV_WORD)

    def test_baseline_must_be_fault_independent(self):
        with Session(SETTINGS) as session:
            with pytest.raises(ValueError, match="fault-independent"):
                ActiveCampaign(session, SPEC, baseline=LV_BLOCK)

    def test_spec_without_any_baseline_needs_an_explicit_one(self):
        with Session(SETTINGS) as session:
            spec = CampaignSpec.from_settings(SETTINGS, (LV_BLOCK,))
            with pytest.raises(ValueError, match="pass baseline="):
                ActiveCampaign(session, spec)

    def test_fidelity_drift_rejected(self):
        other = RunnerSettings(
            n_instructions=9_000,
            warmup_instructions=500,
            n_fault_maps=3,
            benchmarks=("gzip", "mcf"),
        )
        with Session(other) as session:
            with pytest.raises(ValueError, match="fidelity differs"):
                ActiveCampaign(session, SPEC)

    def test_map_depth_difference_is_allowed(self):
        deeper = RunnerSettings(
            n_instructions=2_000,
            warmup_instructions=500,
            n_fault_maps=16,
            benchmarks=("gzip", "mcf"),
        )
        with Session(deeper) as session:
            ActiveCampaign(session, SPEC)

    def test_seed_cost_over_budget_rejected(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(
                session, SPEC, PredictSettings(budget=0.2, **FAST)
            )
            with pytest.raises(ValueError, match="seed round"):
                list(loop.run())

    def test_report_before_convergence_raises(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(session, SPEC, PredictSettings(**FAST))
            with pytest.raises(RuntimeError, match="not converged"):
                loop.report()


class TestLoop:
    def test_exhausting_the_grid(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(
                session,
                SPEC,
                PredictSettings(budget=1.0, tolerance=1e-9, patience=99, **FAST),
            )
            events = list(loop.run())
            report = loop.report()
            assert report.reason == "exhausted"
            assert report.labeled == report.total == 10
            assert report.predicted == 0
            assert report.coverage == 1.0
            # stream shape: seed batch first, one fit per round, one terminal
            batches = [e for e in events if isinstance(e, BatchProposed)]
            fits = [e for e in events if isinstance(e, SurrogateFit)]
            terminal = [e for e in events if isinstance(e, Converged)]
            assert batches[0].strategy == "seed"
            assert all(b.strategy == "figure-error" for b in batches[1:])
            assert len(fits) == report.rounds
            assert len(terminal) == 1 and events[-1] is terminal[0]

            # every simulated point is durable: the full grid re-plans to
            # pure dedup
            plan = session.plan(SPEC)
            assert plan.dedup_hits == report.labeled
            assert plan.pending == 0

    def test_budget_stop(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(session, SPEC, PredictSettings(budget=0.8, **FAST))
            report = loop.run_all()
            assert report.reason == "budget"
            assert report.labeled == 8 <= loop.budget_items
            assert report.predicted == 2
            # the estimate covers every non-baseline config x benchmark
            assert set(report.estimate) == {LV_WORD.label, LV_BLOCK.label}
            for series in report.estimate.values():
                assert len(series["average"]) == len(SPEC.benchmarks)
            assert session.plan(SPEC).dedup_hits == report.labeled

    def test_tolerance_stop(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(
                session,
                SPEC,
                PredictSettings(budget=0.9, tolerance=10.0, patience=1, **FAST),
            )
            report = loop.run_all()
            assert report.reason == "tolerance"
            assert report.delta is not None and report.delta <= 10.0
            assert report.labeled == 9  # seed 8 + one acquisition round

    def test_stalled_stop(self):
        with Session(SETTINGS) as session:
            stalling = _StallingSession(session)
            loop = ActiveCampaign(
                stalling, SPEC, PredictSettings(budget=1.0, tolerance=1e-9, **FAST)
            )
            seen_fit = False
            reason = None
            for event in loop.run():
                if isinstance(event, SurrogateFit):
                    seen_fit = True
                    stalling.refuse = True  # every later run yields nothing
                if isinstance(event, Converged):
                    reason = event.reason
            assert seen_fit
            assert reason == "stalled"

    def test_figure_result_renders(self):
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(session, SPEC, PredictSettings(budget=0.8, **FAST))
            report = loop.run_all()
            result = report.figure_result()
            assert result.figure_id == "fig8-predicted"
            assert f"{LV_BLOCK.label} min" in result.series
            assert f"{LV_WORD.label} avg" in result.series
            # word-disable is fault-independent: no minimum series
            assert f"{LV_WORD.label} min" not in result.series
            text = result.to_text()
            assert "gzip" in text and "mcf" in text


class TestOneSession:
    def test_every_depth_runs_on_the_callers_session(self, monkeypatch):
        built: list = []
        acquired: list = []
        init = Session.__init__
        acquire = TraceProvider._acquire

        def counting_init(session, *args, **kwargs):
            built.append(session)
            init(session, *args, **kwargs)

        def counting_acquire(provider, benchmark):
            acquired.append(benchmark)
            return acquire(provider, benchmark)

        with Session(SETTINGS) as session:
            monkeypatch.setattr(Session, "__init__", counting_init)
            monkeypatch.setattr(TraceProvider, "_acquire", counting_acquire)
            loop = ActiveCampaign(
                session,
                SPEC,
                PredictSettings(budget=1.0, tolerance=1e-9, patience=99, **FAST),
            )
            events = list(loop.run())
        depths = {
            spec.n_fault_maps
            for event in events
            if isinstance(event, BatchProposed)
            for spec in event.specs
        }
        assert depths == {1, 2, 3}  # baselines, the seed prefix, extensions
        assert loop.report().labeled == 10
        assert built == []
        assert sorted(acquired) == ["gzip", "mcf"]


class _StallingSession:
    """Session proxy that can start refusing work: ``run`` yields nothing
    once ``refuse`` is set, which is exactly the loop's stall condition."""

    def __init__(self, inner):
        self._inner = inner
        self.refuse = False

    @property
    def settings(self):
        return self._inner.settings

    def cached(self, *item):
        return self._inner.cached(*item)

    def run(self, spec, **kwargs):
        if self.refuse:
            return iter(())
        return self._inner.run(spec, **kwargs)


class TestDeterminismAndReplay:
    def test_fresh_store_runs_are_byte_identical(self):
        def one_run():
            with Session(SETTINGS) as session:
                loop = ActiveCampaign(
                    session, SPEC, PredictSettings(budget=0.9, **FAST)
                )
                report = loop.run_all()
                return report

        assert one_run().to_json() == one_run().to_json()

    def test_replay_reproduces_the_estimate_from_the_store(self):
        settings = PredictSettings(budget=0.8, **FAST)
        with Session(SETTINGS) as session:
            loop = ActiveCampaign(session, SPEC, settings)
            report = loop.run_all()
            replay = replay_report(session, SPEC, settings)
            assert replay.reason == "replay"
            assert replay.simulated == 0
            assert replay.labeled == report.labeled
            assert replay.estimate == report.estimate

    def test_replay_of_an_empty_store_raises(self):
        with Session(SETTINGS) as session:
            with pytest.raises(RuntimeError, match="no results"):
                replay_report(session, SPEC)
