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
import hashlib
import json
from typing import TYPE_CHECKING, Callable

from repro.cpu.config import PAPER_PIPELINE, PipelineConfig
from repro.experiments.configs import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (campaign imports us)
    from repro.campaign.spec import RunnerSettings

#: Bump when the simulator's bits change incompatibly (invalidates keys —
#: every stored result keys off this, so old stores simply stop matching).
#: Distinct from :data:`repro.store.RECORD_SCHEMA_VERSION`, which versions
#: the on-disk *record format*.
STORE_SCHEMA_VERSION = 1


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with one
#: encoder for every call instead of one per call.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


def _per_object(encode: Callable[[object], str]) -> Callable[[object], str]:
    """``encode`` memoised per argument *object*, by identity.  Equality
    would let values that JSON encodes differently share an entry (``1``,
    ``1.0`` and ``True``; ``0.0`` and ``-0.0``), and none of the frozen
    dataclasses keyed here checks its field types.  An entry holds its
    object, so its id is not reused while the entry lives."""
    memo: dict[int, tuple[object, str]] = {}

    def encoded(obj: object) -> str:
        entry = memo.get(id(obj))
        if entry is None:
            if len(memo) >= 64:
                memo.clear()
            entry = memo[id(obj)] = (obj, encode(obj))
        return entry[1]

    return encoded


@_per_object
def _fidelity_json(settings: "RunnerSettings") -> str:
    return _canonical(fidelity_fingerprint(settings))


@_per_object
def _pipeline_json(pipeline_config: PipelineConfig) -> str:
    return _canonical(dataclasses.asdict(pipeline_config))


@_per_object
def config_members(config: RunConfig) -> str:
    """The config's three key members (scheme, victim entries, voltage)
    as :func:`task_key` encodes them: equal exactly when they put the
    same bytes into a key, unlike ``RunConfig`` equality, under which
    ``victim_entries=0`` and ``victim_entries=0.0`` are one config."""
    return (
        f'"scheme":{_canonical(config.scheme)},'
        f'"victim_entries":{_canonical(config.victim_entries)},'
        f'"voltage":{_canonical(config.voltage.name)}'
    )


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

    The key is the sha256 of the canonical JSON (sorted keys, no
    whitespace) of ``{"fidelity": fidelity_fingerprint(settings),
    "pipeline": dataclasses.asdict(pipeline_config), "benchmark",
    "scheme", "voltage": config.voltage.name, "victim_entries",
    "map_index"}``.  Sorted, its members run benchmark, fidelity,
    map_index, pipeline, then the config's three, so it is assembled
    from parts each encoded once per settings, pipeline and config
    object; only the benchmark and the map index are encoded per key.
    """
    canonical = (
        f'{{"benchmark":{_canonical(benchmark)},'
        f'"fidelity":{_fidelity_json(settings)},'
        f'"map_index":{_canonical(map_index)},'
        f'"pipeline":{_pipeline_json(pipeline_config or PAPER_PIPELINE)},'
        f"{config_members(config)}}}"
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
