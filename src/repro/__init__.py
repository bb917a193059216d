"""repro — reproduction of "Performance-Effective Operation below Vcc-min"
(Ladas, Sazeides, Desmet; ISPASS 2010).

The package implements, from scratch, everything the paper builds on:

* :mod:`repro.faults` — cache geometry, 6T/10T SRAM cells, low-voltage
  fault maps;
* :mod:`repro.analysis` — the Section IV probability analysis (Eqs. 1-6)
  plus Monte Carlo validation and future-work extensions;
* :mod:`repro.cache` — a behavioural cache simulator with per-set disabled
  ways, victim caches, and a two-level hierarchy;
* :mod:`repro.core` — the low-voltage operation schemes: block-disabling
  (the paper's proposal), word-disabling (the comparator), and incremental
  word-disabling;
* :mod:`repro.cpu` — a trace-driven out-of-order timing model standing in
  for sim-alpha;
* :mod:`repro.workloads` — a synthetic 26-benchmark SPEC CPU 2000 suite;
* :mod:`repro.power` / :mod:`repro.overhead` — DVS and transistor-cost
  models (Fig. 1, Table I);
* :mod:`repro.experiments` — the harness that regenerates every table and
  figure.

Quickstart::

    from repro import Session, fig8_data

    with Session() as session:
        print(fig8_data(session).to_text())
"""

from repro.analysis import (
    CapacityDistribution,
    expected_capacity_fraction,
    expected_faulty_blocks,
    expected_faulty_blocks_exact,
    incremental_word_disable_capacity,
    pfail_for_capacity,
    whole_cache_failure_probability,
)
from repro.cache import (
    LatencyConfig,
    MemoryHierarchy,
    SetAssociativeCache,
    VictimCache,
)
from repro.core import (
    SCHEMES,
    BaselineScheme,
    BlockDisableScheme,
    CacheConfiguration,
    IncrementalWordDisableScheme,
    LowVoltageScheme,
    VoltageMode,
    WordDisableScheme,
)
from repro.cpu import (
    HIGH_VOLTAGE,
    LOW_VOLTAGE,
    PAPER_PIPELINE,
    OutOfOrderPipeline,
    PipelineConfig,
    SimResult,
    Trace,
)
from repro.campaign import CampaignSpec, Session
from repro.campaign.spec import RunnerSettings
from repro.experiments import FigureResult
from repro.experiments.figures import (
    fig1_data,
    fig3_data,
    fig4_data,
    fig5_data,
    fig6_data,
    fig7_data,
    fig8_data,
    fig9_data,
    fig10_data,
    fig11_data,
    fig12_data,
    table1_data,
)
from repro.faults import (
    PAPER_L1_GEOMETRY,
    PAPER_L2_GEOMETRY,
    CacheGeometry,
    CellType,
    FaultMap,
    FaultMapPair,
    sample_fault_map_pairs,
)
from repro.overhead import OverheadModel
from repro.power import DVSModel, VccMinModel, scaling_curves
from repro.workloads import (
    ALL_BENCHMARKS,
    SPEC2000_PROFILES,
    TraceGenerator,
    WorkloadProfile,
    generate_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CacheGeometry",
    "CellType",
    "FaultMap",
    "FaultMapPair",
    "sample_fault_map_pairs",
    "PAPER_L1_GEOMETRY",
    "PAPER_L2_GEOMETRY",
    "expected_faulty_blocks_exact",
    "expected_faulty_blocks",
    "expected_capacity_fraction",
    "pfail_for_capacity",
    "CapacityDistribution",
    "whole_cache_failure_probability",
    "incremental_word_disable_capacity",
    "SetAssociativeCache",
    "VictimCache",
    "MemoryHierarchy",
    "LatencyConfig",
    "SCHEMES",
    "LowVoltageScheme",
    "CacheConfiguration",
    "VoltageMode",
    "BaselineScheme",
    "BlockDisableScheme",
    "WordDisableScheme",
    "IncrementalWordDisableScheme",
    "Trace",
    "OutOfOrderPipeline",
    "SimResult",
    "PipelineConfig",
    "PAPER_PIPELINE",
    "HIGH_VOLTAGE",
    "LOW_VOLTAGE",
    "WorkloadProfile",
    "TraceGenerator",
    "generate_trace",
    "SPEC2000_PROFILES",
    "ALL_BENCHMARKS",
    "DVSModel",
    "VccMinModel",
    "scaling_curves",
    "OverheadModel",
    "CampaignSpec",
    "Session",
    "RunnerSettings",
    "FigureResult",
    "fig1_data",
    "table1_data",
    "fig3_data",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig10_data",
    "fig11_data",
    "fig12_data",
]
