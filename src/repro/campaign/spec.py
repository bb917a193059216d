"""Declarative campaign descriptions: settings and specs as data.

A campaign — the paper's Section V sweep, one figure's slice of it, or an
ad-hoc study — is fully determined by *data*: which benchmarks, which
Table III configurations, how many fault-map pairs, and the fidelity
knobs (trace length, warmup, pfail, master seed).  This module makes
that data first-class:

* :class:`RunnerSettings` — fidelity and scope of a campaign.
* :class:`CampaignSpec` — a frozen, JSON-round-trippable description of
  one campaign: settings fields plus the configurations to sweep and an
  optional figure tag.  Figures, CLI invocations, tests, and benches all
  build specs; the :class:`~repro.campaign.plan.Planner` resolves a spec
  against a result store into an executable
  :class:`~repro.campaign.plan.Plan`.

Specs are *values*: two specs built from the same JSON compare equal,
hash equal, and resolve to the same store task keys — the property that
lets a spec travel between processes, machines, and sessions while
naming exactly one set of simulations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Iterator

from repro.core.schemes import VoltageMode
from repro.experiments.configs import RunConfig
from repro.experiments.keys import task_key
from repro.workloads.spec2000 import ALL_BENCHMARKS

#: Bump when the spec's JSON shape changes incompatibly.
SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunnerSettings:
    """Fidelity and scope of an experiment campaign."""

    n_instructions: int = 40_000
    n_fault_maps: int = 6
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    pfail: float = 0.001
    seed: int = 2010  # ISPASS 2010
    #: SimPoint-style warmup prefix: these instructions execute (warming
    #: predictors and caches) before the measured region begins.
    warmup_instructions: int = 10_000

    def __post_init__(self) -> None:
        if self.n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        if self.n_fault_maps <= 0:
            raise ValueError("n_fault_maps must be positive")
        if self.warmup_instructions < 0:
            raise ValueError("warmup_instructions must be non-negative")
        unknown = set(self.benchmarks) - set(ALL_BENCHMARKS)
        if unknown:
            raise ValueError(f"unknown benchmarks: {sorted(unknown)}")

    @classmethod
    def quick(cls) -> "RunnerSettings":
        """CI-scale defaults (minutes for the whole figure set)."""
        return cls()

    @classmethod
    def paper(cls) -> "RunnerSettings":
        """The paper's statistical setup: 50 fault-map pairs.  Trace length
        stays simulator-scale (the paper's 100M-instruction SimPoints are
        out of reach for a pure-Python model), and the comparisons have
        not converged by then: over a fixed 40k measured window, the
        Fig. 8 word-disabling penalty reads 13.6% after 10k warmup
        instructions, 16.1% after 200k and 16.8% after 1M, still rising
        as the window moves deeper into the trace (ROADMAP item 1)."""
        return cls(n_instructions=200_000, n_fault_maps=50, warmup_instructions=40_000)

    @classmethod
    def from_env(cls) -> "RunnerSettings":
        """Quick defaults overridden by ``REPRO_*`` environment variables
        (an empty one counts as unset).  A value that does not parse, or
        that the settings reject, raises ``ValueError`` naming the
        variable."""
        settings = cls.quick()
        for name, (field, parse) in _ENV_FIELDS.items():
            raw = os.environ.get(name)
            if raw:
                try:
                    settings = replace(settings, **{field: parse(raw)})
                except ValueError as exc:
                    raise ValueError(f"{name}={raw!r}: {exc}") from None
        return settings


#: ``REPRO_*`` variable -> (RunnerSettings field, parser) for
#: :meth:`RunnerSettings.from_env`.
_ENV_FIELDS = {
    "REPRO_INSTR": ("n_instructions", int),
    "REPRO_MAPS": ("n_fault_maps", int),
    "REPRO_BENCHMARKS": (
        "benchmarks",
        lambda raw: tuple(name.strip() for name in raw.split(",") if name.strip()),
    ),
    "REPRO_SEED": ("seed", int),
    "REPRO_WARMUP": ("warmup_instructions", int),
}


# --------------------------------------------------------------------------
# RunConfig (de)serialization
# --------------------------------------------------------------------------

def config_to_dict(config: RunConfig) -> dict:
    """JSON-native rendering of a :class:`RunConfig`."""
    return {
        "label": config.label,
        "scheme": config.scheme,
        "voltage": config.voltage.name,
        "victim_entries": config.victim_entries,
    }


def config_from_dict(data: dict) -> RunConfig:
    """Inverse of :func:`config_to_dict` (raises on malformed input)."""
    return RunConfig(
        label=str(data["label"]),
        scheme=str(data["scheme"]),
        voltage=VoltageMode[str(data["voltage"])],
        victim_entries=int(data.get("victim_entries", 0)),
    )


# --------------------------------------------------------------------------
# CampaignSpec
# --------------------------------------------------------------------------

#: The RunnerSettings fidelity/scope fields a spec carries verbatim.
_SETTINGS_FIELDS = tuple(f.name for f in fields(RunnerSettings))


@dataclass(frozen=True)
class CampaignSpec:
    """A frozen, JSON-round-trippable description of one campaign.

    The spec is the single source of truth for *what* a campaign
    simulates: the configurations to sweep, the benchmarks, and every
    fidelity field of :class:`RunnerSettings`.  It deliberately says
    nothing about *how* — stores, executors, and worker counts belong
    to the :class:`~repro.campaign.session.Session` that runs it, so the
    same spec file drives a laptop smoke and a paper-scale process-pool
    campaign identically.
    """

    configs: tuple[RunConfig, ...]
    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    n_instructions: int = 40_000
    n_fault_maps: int = 6
    pfail: float = 0.001
    seed: int = 2010
    warmup_instructions: int = 10_000
    #: Optional figure tag ("fig8", ...) naming the post-processing this
    #: campaign feeds; purely descriptive, never part of task keys.
    figure: str | None = None

    def __post_init__(self) -> None:
        # Tolerate lists (JSON round-trips, ad-hoc callers) by freezing.
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if not self.configs:
            raise ValueError("a campaign needs at least one configuration")
        if not self.benchmarks:
            raise ValueError("a campaign needs at least one benchmark")
        self.settings()  # reuse RunnerSettings' fidelity validation

    # ----- settings bridge ----------------------------------------------------

    @classmethod
    def from_settings(
        cls,
        settings: RunnerSettings,
        configs: "tuple[RunConfig, ...] | list[RunConfig]",
        benchmarks: "tuple[str, ...] | None" = None,
        figure: str | None = None,
    ) -> "CampaignSpec":
        """A spec sweeping ``configs`` at ``settings`` fidelity/scope."""
        return cls(
            configs=tuple(configs),
            benchmarks=benchmarks if benchmarks is not None else settings.benchmarks,
            n_instructions=settings.n_instructions,
            n_fault_maps=settings.n_fault_maps,
            pfail=settings.pfail,
            seed=settings.seed,
            warmup_instructions=settings.warmup_instructions,
            figure=figure,
        )

    def settings(self) -> RunnerSettings:
        """The :class:`RunnerSettings` this spec implies."""
        return RunnerSettings(
            **{name: getattr(self, name) for name in _SETTINGS_FIELDS}
        )

    # ----- JSON round-trip ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-native rendering (inverse: :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "configs": [config_to_dict(c) for c in self.configs],
            "benchmarks": list(self.benchmarks),
            "n_instructions": self.n_instructions,
            "n_fault_maps": self.n_fault_maps,
            "pfail": self.pfail,
            "seed": self.seed,
            "warmup_instructions": self.warmup_instructions,
            "figure": self.figure,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict` (raises on malformed input)."""
        schema = data.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported campaign spec schema {schema!r} "
                f"(this build reads {SPEC_SCHEMA_VERSION})"
            )
        return cls(
            configs=tuple(config_from_dict(c) for c in data["configs"]),
            benchmarks=tuple(str(b) for b in data["benchmarks"]),
            n_instructions=int(data["n_instructions"]),
            n_fault_maps=int(data["n_fault_maps"]),
            pfail=float(data["pfail"]),
            seed=int(data["seed"]),
            warmup_instructions=int(data["warmup_instructions"]),
            figure=data.get("figure"),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    # ----- work enumeration -----------------------------------------------------

    def work_items(self) -> Iterator[tuple[str, RunConfig, "int | None"]]:
        """Every (benchmark, config, map_index) point the campaign needs,
        in plan order.  Fault-independent configurations canonicalise to
        a single ``None``-indexed point; duplicate configurations are
        enumerated once."""
        for benchmark in self.benchmarks:
            for config in dict.fromkeys(self.configs):
                if config.needs_fault_map:
                    for m in range(self.n_fault_maps):
                        yield benchmark, config, m
                else:
                    yield benchmark, config, None

    def task_keys(self) -> tuple[str, ...]:
        """Content-hash store keys of every work item, deduplicated in
        plan order.  Equal specs produce equal task keys — the identity
        the store, planner, and cross-process executors rely on."""
        settings = self.settings()
        keys = dict.fromkeys(
            task_key(settings, benchmark, config, m)
            for benchmark, config, m in self.work_items()
        )
        return tuple(keys)

    def describe(self) -> str:
        """One-line human summary (CLI dry-run header)."""
        tag = f" figure={self.figure}" if self.figure else ""
        return (
            f"campaign{tag}: {len(dict.fromkeys(self.configs))} config(s) x "
            f"{len(self.benchmarks)} benchmark(s), maps={self.n_fault_maps}, "
            f"instructions={self.n_instructions}+{self.warmup_instructions} warmup, "
            f"pfail={self.pfail}, seed={self.seed}"
        )
