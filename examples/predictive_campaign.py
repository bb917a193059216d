#!/usr/bin/env python3
"""Predictive campaigns: reproduce a figure from a fraction of its grid.

Walks the ``repro.predict`` subsystem end to end:

1. describe the target grid as an ordinary :class:`CampaignSpec` and the
   loop's knobs as a frozen, JSON-round-trippable
   :class:`PredictSettings`;
2. run an :class:`ActiveCampaign` against a **local** session — watch it
   seed the mandatory skeleton, retrain its surrogate, propose per-cell
   fault-map extensions (partial-depth specs that dedup against the full
   grid), and converge with most of the grid never simulated;
3. verify the economics: a follow-up *full* campaign over the same store
   is pure dedup for everything the loop simulated;
4. run the same loop against a **remote** campaign server via
   ``Session.connect`` — the driver only speaks the Session surface —
   and read the server's dedup counters off ``GET /healthz``.

Run:  PYTHONPATH=src python examples/predictive_campaign.py
"""

import json
import urllib.request

from repro.campaign import (
    BatchProposed,
    CampaignSpec,
    Converged,
    RunnerSettings,
    Session,
    SurrogateFit,
)
from repro.experiments import LV_BASELINE, LV_BLOCK, LV_BLOCK_V10, LV_WORD
from repro.predict import ActiveCampaign, PredictSettings
from repro.service.server import ServerThread

# --- 1. the target grid and the loop's knobs are both data --------------------
settings = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=8,
    benchmarks=("gzip", "crafty"),
)
spec = CampaignSpec.from_settings(
    settings,
    configs=(LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10),
    figure="fig8",
)
predict = PredictSettings(
    budget=0.7, batch=8, tolerance=0.05, patience=2, initial_maps=2, seed=7
)
assert PredictSettings.from_json(predict.to_json()) == predict
print(spec.describe())
print(f"predict: {predict.to_json()}\n")

# --- 2. the active loop against a local session -------------------------------
with Session(settings) as session:
    loop = ActiveCampaign(session, spec, predict, baseline=LV_BASELINE)
    print("active loop (local session):")
    for event in loop.run():
        if isinstance(event, BatchProposed):
            print(
                f"  round {event.round_index}: {event.strategy} proposed "
                f"{event.proposed} point(s) across {len(event.specs)} spec(s)"
            )
        elif isinstance(event, SurrogateFit):
            delta = "n/a" if event.delta is None else f"{event.delta:.4f}"
            print(f"  fit on {event.training} label(s), delta={delta}")
        elif isinstance(event, Converged):
            print(
                f"  converged ({event.reason}): {event.simulated}/"
                f"{event.total} simulated ({event.coverage:.0%})"
            )
    report = loop.report()
    print()
    print(report.figure_result().to_text())

    # --- 3. everything simulated is durable: a full run is pure dedup ---------
    followup = session.plan(spec)
    assert followup.dedup_hits == report.labeled
    print(
        f"\nfollow-up full campaign: {followup.dedup_hits} store hits, "
        f"{followup.pending} still pending — nothing re-simulates\n"
    )

# --- 4. the same loop against a campaign server -------------------------------
with Session(settings) as backing:
    with ServerThread(backing) as server:
        with Session.connect(server.url) as remote:
            loop = ActiveCampaign(remote, spec, predict, baseline=LV_BASELINE)
            remote_report = loop.run_all()
        with urllib.request.urlopen(f"{server.url}/healthz") as response:
            health = json.load(response)
    print("active loop (remote session):")
    print(
        f"  converged ({remote_report.reason}): "
        f"{remote_report.labeled}/{remote_report.total} labeled"
    )
    print(
        "  server counters: "
        f"campaigns={health['campaigns']} store_hits={health['store_hits']} "
        f"simulations={health['simulations_executed']}"
    )
    # The server's estimate matches the local loop's byte for byte: same
    # store contents, same spec, same seed => same figure.
    assert remote_report.estimate == report.estimate
    print("  local and remote estimates are byte-identical")
