"""The event wire codec: every campaign event survives JSON transit.

``event_to_dict``/``event_from_dict`` are the campaign server's NDJSON
wire format, so the round-trip property is the API contract: any event a
``Session.run`` can yield must decode to an equal event on the far side.
Schema epoch 2 closed the one lossy edge epoch 1 had: group signatures
now cross the wire as stable content-hash digests instead of being
dropped, and epoch-1 payloads (no ``"signature"`` key) still decode.
Hypothesis drives the spec/plan shapes; explicit cases pin every member
of the union and the failure modes (foreign schema epoch, unknown type,
non-event input).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.events import (
    EVENT_SCHEMA_VERSION,
    READABLE_EVENT_SCHEMAS,
    BatchProposed,
    Converged,
    PlanReady,
    PointResult,
    Progress,
    StoreCorruption,
    StoreRecovered,
    SurrogateFit,
    TaskFailed,
    TaskRetried,
    WorkerCrashed,
    event_from_dict,
    event_to_dict,
    signature_digest,
)
from repro.campaign.plan import Plan, PlanGroup, WorkItem
from repro.campaign.resilience import Quarantined
from repro.campaign.spec import CampaignSpec
from repro.cpu.pipeline import SimResult
from repro.experiments.configs import ALL_CONFIGS, HV_BASELINE, LV_BLOCK
from repro.store.base import StoreHealth
from repro.workloads.spec2000 import ALL_BENCHMARKS


def roundtrip(event):
    """Encode -> JSON text -> decode (the full wire path)."""
    wire = json.loads(json.dumps(event_to_dict(event)))
    return event_from_dict(wire)


RESULT = SimResult(
    benchmark="gzip",
    instructions=1000,
    cycles=1700,
    branch_mispredictions=12,
    branch_predictions=240,
    hierarchy_stats={"l1d": {"hits": 900, "misses": 33}},
)

QUARANTINED = Quarantined(
    task=("gzip", LV_BLOCK, 3),
    key="deadbeef" * 8,
    attempts=3,
    error="ChaosWorkerCrash(...)",
    replay_error="ValueError('poison')",
)


class TestExplicitRoundTrips:
    def test_point_result(self):
        event = PointResult("gzip", LV_BLOCK, 3, "ab" * 32, RESULT)
        assert roundtrip(event) == event

    def test_point_result_fault_independent(self):
        event = PointResult("gzip", HV_BASELINE, None, "cd" * 32, RESULT)
        assert roundtrip(event) == event

    def test_progress(self):
        event = Progress(done=7, total=12, simulations_executed=5, schedule_passes=3)
        assert roundtrip(event) == event

    def test_task_retried(self):
        event = TaskRetried(
            tasks=(("gzip", LV_BLOCK, 0), ("gzip", HV_BASELINE, None)),
            attempt=2,
            delay=0.125,
            error="TimeoutError()",
        )
        assert roundtrip(event) == event

    def test_worker_crashed(self):
        event = WorkerCrashed(error="BrokenProcessPool", resubmitted=4)
        assert roundtrip(event) == event

    def test_task_failed(self):
        event = TaskFailed(QUARANTINED)
        assert roundtrip(event) == event

    def test_task_failed_without_replay_error(self):
        event = TaskFailed(
            Quarantined(("gzip", LV_BLOCK, 0), "ef" * 32, 1, "boom")
        )
        assert roundtrip(event) == event

    def test_store_corruption(self):
        event = StoreCorruption(
            store="sharded:/tmp/x",
            health=StoreHealth(
                records=90, duplicates=2, corrupt=1, stale=3, malformed=4, legacy=5
            ),
        )
        assert roundtrip(event) == event

    def test_store_recovered(self):
        event = StoreRecovered(key="12" * 32, attempts=2, error="OSError(28)")
        assert roundtrip(event) == event

    def test_plan_ready_carries_signature_digests(self):
        spec = CampaignSpec(
            configs=(HV_BASELINE, LV_BLOCK),
            benchmarks=("gzip",),
            n_instructions=1000,
            n_fault_maps=2,
            pfail=0.001,
            seed=7,
            warmup_instructions=100,
            figure="fig8",
        )
        items = tuple(
            WorkItem("gzip", LV_BLOCK, m, f"{m:02d}" * 32) for m in range(2)
        )
        plan = Plan(
            spec=spec,
            groups=(PlanGroup("gzip", items=items, signature=("sig", 1)),),
            total_points=3,
            dedup_hits=1,
        )
        decoded = roundtrip(PlanReady(plan)).plan
        assert decoded.spec == spec
        assert decoded.total_points == 3
        assert decoded.dedup_hits == 1
        assert decoded.predicted_passes == 1
        assert len(decoded.groups) == 1
        group = decoded.groups[0]
        assert group.items == items
        # since epoch 2: the signature crosses the wire as a stable digest
        assert group.signature == signature_digest(("sig", 1))
        # and the digest survives a second transit unchanged
        assert roundtrip(PlanReady(decoded)).plan.groups[0].signature == (
            group.signature
        )

    def test_surrogate_fit(self):
        event = SurrogateFit(round_index=2, training=40, members=8, delta=0.013)
        assert roundtrip(event) == event

    def test_surrogate_fit_first_round_has_no_delta(self):
        event = SurrogateFit(round_index=0, training=12, members=8, delta=None)
        assert roundtrip(event) == event

    def test_batch_proposed(self):
        spec = CampaignSpec(
            configs=(LV_BLOCK,),
            benchmarks=("gzip", "mcf"),
            n_instructions=1000,
            n_fault_maps=6,
            pfail=0.001,
            seed=7,
            warmup_instructions=100,
            figure="fig8",
        )
        event = BatchProposed(
            round_index=1,
            strategy="figure-error",
            proposed=8,
            simulated=20,
            total=66,
            specs=(spec,),
        )
        assert roundtrip(event) == event

    def test_converged(self):
        event = Converged(
            rounds=4, simulated=30, total=66, delta=0.004, reason="tolerance"
        )
        decoded = roundtrip(event)
        assert decoded == event
        assert decoded.coverage == pytest.approx(30 / 66)


class TestWireHygiene:
    def test_every_payload_is_json_native(self):
        payload = event_to_dict(PointResult("gzip", LV_BLOCK, 1, "ab" * 32, RESULT))
        assert payload["event"] == "PointResult"
        assert payload["schema"] == EVENT_SCHEMA_VERSION
        json.dumps(payload)  # would raise on live objects

    def test_non_event_rejected(self):
        with pytest.raises(TypeError, match="not a campaign event"):
            event_to_dict(object())

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign event"):
            event_from_dict({"event": "Nonsense", "schema": EVENT_SCHEMA_VERSION})

    def test_foreign_schema_rejected(self):
        payload = event_to_dict(Progress(1, 2, 3, 4))
        payload["schema"] = EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported event schema"):
            event_from_dict(payload)

    def test_every_prior_epoch_is_still_readable(self):
        assert EVENT_SCHEMA_VERSION in READABLE_EVENT_SCHEMAS
        for epoch in range(1, EVENT_SCHEMA_VERSION + 1):
            assert epoch in READABLE_EVENT_SCHEMAS

    @staticmethod
    def _plan_payload() -> dict:
        return event_to_dict(
            PlanReady(
                Plan(
                    spec=CampaignSpec(
                        configs=(LV_BLOCK,),
                        benchmarks=("gzip",),
                        n_instructions=1000,
                        n_fault_maps=1,
                        pfail=0.001,
                        seed=7,
                        warmup_instructions=100,
                        figure=None,
                    ),
                    groups=(
                        PlanGroup(
                            "gzip",
                            items=(WorkItem("gzip", LV_BLOCK, 0, "ab" * 32),),
                            signature=("sig", 1),
                        ),
                    ),
                    total_points=1,
                    dedup_hits=0,
                )
            )
        )

    def test_epoch_three_plans_carry_no_derived_fields(self):
        plan = self._plan_payload()["plan"]
        assert "predicted_passes" not in plan
        assert all("merged" not in group for group in plan["groups"])

    def test_epoch_one_plan_payload_decodes_without_signatures(self):
        # An epoch-1 peer dropped signatures entirely: its group dicts
        # have no "signature" key at all.  That payload must still decode,
        # with the signature honestly absent.
        payload = self._plan_payload()
        payload["schema"] = 1
        payload["plan"]["predicted_passes"] = 1
        for group in payload["plan"]["groups"]:
            del group["signature"]
            group["merged"] = False
        decoded = event_from_dict(json.loads(json.dumps(payload)))
        assert decoded.plan.groups[0].signature is None

    def test_epoch_two_derived_fields_are_ignored(self):
        # Epoch 2 still sent each group's merged flag and the plan's
        # predicted passes; any values decode, and the plan derives its
        # passes from its groups.
        payload = self._plan_payload()
        payload["schema"] = 2
        payload["plan"]["predicted_passes"] = 7
        for group in payload["plan"]["groups"]:
            group["merged"] = False
        decoded = event_from_dict(json.loads(json.dumps(payload)))
        assert decoded.plan.predicted_passes == len(decoded.plan.groups) == 1
        assert decoded.plan == event_from_dict(self._plan_payload()).plan


class TestSignatureDigest:
    def test_none_passes_through(self):
        assert signature_digest(None) is None

    def test_idempotent_on_digest_strings(self):
        digest = signature_digest(("sig", 1))
        assert signature_digest(digest) == digest

    def test_stable_and_content_addressed(self):
        a = signature_digest(("gzip", (0, 1, 2), 0.001))
        b = signature_digest(("gzip", (0, 1, 2), 0.001))
        c = signature_digest(("gzip", (0, 1, 3), 0.001))
        assert a == b
        assert a != c
        assert isinstance(a, str) and len(a) == 16
        int(a, 16)  # hex digest

    def test_lists_and_tuples_digest_identically(self):
        # the canonical form flattens tuple/list so schedule signatures
        # rebuilt from JSON keep the same digest
        assert signature_digest(("sig", (1, 2))) == signature_digest(
            ["sig", [1, 2]]
        )


# ---------------------------------------------------------------------------
# Property: arbitrary events round-trip
# ---------------------------------------------------------------------------

configs = st.sampled_from(ALL_CONFIGS)
benchmarks = st.sampled_from(ALL_BENCHMARKS)
keys = st.text("0123456789abcdef", min_size=64, max_size=64)
map_indices = st.one_of(st.none(), st.integers(min_value=0, max_value=63))

tasks = st.tuples(benchmarks, configs, map_indices)

results = st.builds(
    SimResult,
    benchmark=benchmarks,
    instructions=st.integers(min_value=1, max_value=10**7),
    cycles=st.integers(min_value=1, max_value=10**8),
    branch_mispredictions=st.integers(min_value=0, max_value=10**6),
    branch_predictions=st.integers(min_value=0, max_value=10**7),
    hierarchy_stats=st.dictionaries(
        st.sampled_from(["l1i", "l1d", "l2"]),
        st.dictionaries(
            st.sampled_from(["hits", "misses"]),
            st.integers(min_value=0, max_value=10**6),
            max_size=2,
        ),
        max_size=3,
    ),
)

quarantined = st.builds(
    Quarantined,
    task=tasks,
    key=keys,
    attempts=st.integers(min_value=1, max_value=5),
    error=st.text(max_size=40),
    replay_error=st.one_of(st.none(), st.text(max_size=40)),
)

specs = st.builds(
    CampaignSpec,
    configs=st.lists(configs, min_size=1, max_size=3).map(tuple),
    benchmarks=st.lists(benchmarks, min_size=1, max_size=2, unique=True).map(tuple),
    n_instructions=st.integers(min_value=1, max_value=10**7),
    n_fault_maps=st.integers(min_value=1, max_value=64),
    pfail=st.floats(min_value=0.0, max_value=0.01, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    warmup_instructions=st.integers(min_value=0, max_value=10**6),
    figure=st.one_of(st.none(), st.sampled_from(["fig8", "custom"])),
)

work_items = st.builds(
    WorkItem, benchmark=benchmarks, config=configs, map_index=map_indices, key=keys
)

# Digest strings pass through signature_digest unchanged, so generating
# string-or-None signatures makes the property exact equality; the
# live-tuple -> digest edge is pinned in TestExplicitRoundTrips.
plan_groups = st.builds(
    PlanGroup,
    benchmark=benchmarks,
    items=st.lists(work_items, min_size=1, max_size=3).map(tuple),
    signature=st.one_of(
        st.none(), st.text("0123456789abcdef", min_size=16, max_size=16)
    ),
)

plans = st.builds(
    Plan,
    spec=specs,
    groups=st.lists(plan_groups, max_size=3).map(tuple),
    total_points=st.integers(min_value=0, max_value=100),
    dedup_hits=st.integers(min_value=0, max_value=100),
)

events = st.one_of(
    st.builds(PlanReady, plan=plans),
    st.builds(
        PointResult,
        benchmark=benchmarks,
        config=configs,
        map_index=map_indices,
        key=keys,
        result=results,
    ),
    st.builds(
        Progress,
        done=st.integers(min_value=0, max_value=10**4),
        total=st.integers(min_value=0, max_value=10**4),
        simulations_executed=st.integers(min_value=0, max_value=10**4),
        schedule_passes=st.integers(min_value=0, max_value=10**4),
    ),
    st.builds(
        TaskRetried,
        tasks=st.lists(tasks, min_size=1, max_size=3).map(tuple),
        attempt=st.integers(min_value=1, max_value=5),
        delay=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        error=st.text(max_size=40),
    ),
    st.builds(
        WorkerCrashed,
        error=st.text(max_size=40),
        resubmitted=st.integers(min_value=0, max_value=64),
    ),
    st.builds(TaskFailed, quarantined=quarantined),
    st.builds(
        StoreCorruption,
        store=st.text(max_size=40),
        health=st.builds(
            StoreHealth,
            records=st.integers(min_value=0, max_value=10**4),
            duplicates=st.integers(min_value=0, max_value=100),
            corrupt=st.integers(min_value=0, max_value=100),
            stale=st.integers(min_value=0, max_value=100),
            malformed=st.integers(min_value=0, max_value=100),
            legacy=st.integers(min_value=0, max_value=100),
        ),
    ),
    st.builds(
        StoreRecovered,
        key=keys,
        attempts=st.integers(min_value=1, max_value=5),
        error=st.text(max_size=40),
    ),
    st.builds(
        SurrogateFit,
        round_index=st.integers(min_value=0, max_value=50),
        training=st.integers(min_value=0, max_value=10**4),
        members=st.integers(min_value=2, max_value=32),
        delta=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        ),
    ),
    st.builds(
        BatchProposed,
        round_index=st.integers(min_value=0, max_value=50),
        strategy=st.sampled_from(["seed", "uncertainty", "figure-error", "random"]),
        proposed=st.integers(min_value=0, max_value=10**3),
        simulated=st.integers(min_value=0, max_value=10**4),
        total=st.integers(min_value=0, max_value=10**4),
        specs=st.lists(specs, max_size=2).map(tuple),
    ),
    st.builds(
        Converged,
        rounds=st.integers(min_value=0, max_value=50),
        simulated=st.integers(min_value=0, max_value=10**4),
        total=st.integers(min_value=1, max_value=10**4),
        delta=st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
        ),
        reason=st.sampled_from(["tolerance", "budget", "exhausted", "stalled"]),
    ),
)


@settings(max_examples=120, deadline=None)
@given(event=events)
def test_any_event_round_trips_through_the_wire(event):
    assert roundtrip(event) == event
