"""Content-hash task keys: the identity of one simulation point.

Keys are about *experiments* — what a simulation computes — not about
storage, so they live beside the config and provider modules rather
than inside the persistence package (:mod:`repro.store`).

:func:`task_key` hashes the *fidelity* fields of
:class:`~repro.campaign.spec.RunnerSettings` (trace length, warmup,
pfail, master seed) plus the benchmark, the physical content of the
:class:`~repro.experiments.configs.RunConfig` (scheme, voltage, victim
entries — not the cosmetic label), and the fault-map index.  Fields that
do not change the simulated bits stay out of the key on purpose:
``benchmarks`` only scopes the campaign, and ``n_fault_maps`` is excluded
because :func:`~repro.faults.fault_map.fault_map_pair` derives pair *i*
from an independent seed stream, identical regardless of how many pairs
are drawn.  A quick ``--maps 6`` campaign therefore seeds the first six
map columns of a later ``--maps 50`` one.

That makes :func:`fidelity_fingerprint` the one rule for which session
runs a spec: a spec's task keys are a session's exactly when their
fingerprints are equal, whatever the benchmarks and map count
(:meth:`~repro.campaign.session.Session.derived`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import TYPE_CHECKING

from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.experiments.configs import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us)
    from repro.campaign.spec import RunnerSettings

#: Bump when the simulator's bits change incompatibly (invalidates keys —
#: every stored result keys off this, so old stores simply stop matching).
#: Distinct from :data:`repro.store.RECORD_SCHEMA_VERSION`, which versions
#: the on-disk *record format*.
STORE_SCHEMA_VERSION = 1


def fidelity_fingerprint(settings: "RunnerSettings") -> dict:
    """The RunnerSettings fields that determine simulated bits.

    Everything else (``benchmarks`` scope, ``n_fault_maps`` count) only
    selects *which* simulations run, not what each one computes, so two
    settings with equal fingerprints share task keys — the only test of
    whether a session can run a spec.
    """
    return {
        "n_instructions": settings.n_instructions,
        "warmup_instructions": settings.warmup_instructions,
        "pfail": settings.pfail,
        "seed": settings.seed,
        "schema": STORE_SCHEMA_VERSION,
    }


@functools.lru_cache(maxsize=16)
def _pipeline_fields(pipeline_config: PipelineConfig) -> dict:
    """``dataclasses.asdict`` of a (frozen) pipeline config, computed once
    per config: a campaign keys thousands of points under one pipeline.
    The dict is shared between calls, so :func:`task_key` only
    serialises it."""
    return dataclasses.asdict(pipeline_config)


def task_key(
    settings: "RunnerSettings",
    benchmark: str,
    config: RunConfig,
    map_index: int | None,
    pipeline_config: PipelineConfig | None = None,
) -> str:
    """Stable content hash of one simulation point.

    Identical across processes, interpreter restarts, and config *labels*
    (two RunConfigs that build the same simulator share a key).
    ``pipeline_config`` defaults to the paper's Table II pipeline, the one
    every session simulates; another pipeline gets disjoint keys, so its
    results can share a store without cross-contamination.
    """
    payload = {
        "fidelity": fidelity_fingerprint(settings),
        "pipeline": _pipeline_fields(pipeline_config or PAPER_PIPELINE),
        "benchmark": benchmark,
        "scheme": config.scheme,
        "voltage": config.voltage.name,
        "victim_entries": config.victim_entries,
        "map_index": map_index,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
