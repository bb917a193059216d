"""Experiment harness: regenerates every table and figure of the paper.

The campaign API lives in :mod:`repro.campaign` (``CampaignSpec`` /
``Planner`` / ``Session`` and the executors); this package keeps the
figure registries, the Table III configurations, the content-hash task
keys, the ablation studies, and the CLI.  The persistence layer is
:mod:`repro.store`.

Import layering: the campaign layer depends on this package's *leaf*
modules (``configs``, ``keys``, ``providers``), while ``figures`` and
``report`` depend on the campaign layer.  Only the leaves are imported
eagerly here; the campaign-backed names resolve lazily on first
attribute access (PEP 562), so ``import repro.experiments.configs`` from
inside :mod:`repro.campaign` never re-enters a half-initialised module.
"""

import importlib

from repro.experiments.configs import (
    ALL_CONFIGS,
    HV_BASELINE,
    HV_BASELINE_V,
    HV_BLOCK,
    HV_BLOCK_V,
    HV_WORD,
    HV_WORD_V,
    LV_BASELINE,
    LV_BASELINE_V,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
    LV_WORD_V,
    RunConfig,
)
from repro.experiments.providers import FaultMapProvider, TraceProvider
from repro.experiments.results import FigureResult
from repro.experiments.keys import task_key
from repro.store import (
    DiskStore,
    MemoryStore,
    ResultStore,
    ShardedDiskStore,
    SqliteStore,
    StoreHealth,
    open_store,
)

#: Lazily-resolved exports: name -> providing module (everything here
#: transitively imports repro.campaign, which imports our leaf modules).
_LAZY = {
    "CampaignSpec": "repro.campaign.spec",
    "Session": "repro.campaign.session",
    "RunnerSettings": "repro.campaign",
    "NormalizedSeries": "repro.campaign",
    "run_studies": "repro.experiments.ablation",
    "ANALYTICAL_FIGURES": "repro.experiments.figures",
    "PERFORMANCE_FIGURES": "repro.experiments.figures",
    "figure_spec": "repro.experiments.figures",
    "fig1_data": "repro.experiments.figures",
    "table1_data": "repro.experiments.figures",
    "fig3_data": "repro.experiments.figures",
    "fig4_data": "repro.experiments.figures",
    "fig5_data": "repro.experiments.figures",
    "fig6_data": "repro.experiments.figures",
    "fig7_data": "repro.experiments.figures",
    "fig8_data": "repro.experiments.figures",
    "fig9_data": "repro.experiments.figures",
    "fig10_data": "repro.experiments.figures",
    "fig11_data": "repro.experiments.figures",
    "fig12_data": "repro.experiments.figures",
    "extension_incremental_performance": "repro.experiments.figures",
}

__all__ = [
    "RunConfig",
    "ALL_CONFIGS",
    "LV_BASELINE",
    "LV_BASELINE_V",
    "LV_WORD",
    "LV_WORD_V",
    "LV_BLOCK",
    "LV_BLOCK_V10",
    "LV_BLOCK_V6",
    "LV_INCREMENTAL",
    "HV_BASELINE",
    "HV_BASELINE_V",
    "HV_WORD",
    "HV_WORD_V",
    "HV_BLOCK",
    "HV_BLOCK_V",
    "FigureResult",
    "ResultStore",
    "MemoryStore",
    "DiskStore",
    "ShardedDiskStore",
    "SqliteStore",
    "StoreHealth",
    "open_store",
    "task_key",
    "TraceProvider",
    "FaultMapProvider",
    *_LAZY,
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
