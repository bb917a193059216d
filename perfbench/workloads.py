"""The benchmark's four campaign workloads.

Each workload has an optional untimed ``prep`` (run once per benchmark run,
in its own process, so its memory never counts toward the measured
process), an untimed per-iteration ``before``, and the timed ``op``.  All
of them take the run's work directory and the workload seed; the program
only ever sees the settings generated from that seed.

Sizes are scaled so that every run fits the benchmark's time budget (see
README.md); what each workload stresses is unchanged.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: The paper's Fig. 8 mean penalties: word, block, block+V$ (10T).
FIG8_PAPER_PENALTIES = (0.112, 0.083, 0.053)
FIG8_SERIES = ("word disabling", "block disabling avg", "block disabling avg+V$ 10T")

RESUME_FIGURES = ("fig8", "fig9", "fig10", "fig11", "fig12")


@dataclass
class Outcome:
    """What one timed operation produced, for the correctness gate."""

    figures: list = field(default_factory=list)
    #: (label, SimResult) pairs produced outside any store.
    results: list = field(default_factory=list)
    #: The result store the campaign wrote or read; every record counts.
    store: object = None
    #: Simulated instructions, every lane, warmup included.
    instructions: int = 0
    #: Tasks the campaign layer quarantined.
    quarantined: int = 0

    def digest(self) -> str:
        """sha256 over every figure CSV and every SimResult."""
        from repro.store import result_to_dict

        h = hashlib.sha256()
        for figure in self.figures:
            h.update(f"figure {figure.figure_id}\n{figure.to_csv()}".encode())
        results = list(self.results)
        if self.store is not None:
            results += sorted((key, self.store.get(key)) for key in self.store.keys())
        for label, result in results:
            payload = json.dumps(result_to_dict(result), sort_keys=True)
            h.update(f"{label} {payload}\n".encode())
        return h.hexdigest()

    def fig8_penalty_err_pp(self) -> float | None:
        """Mean absolute error of the Fig. 8 mean penalties against the
        paper, in percentage points (``None`` without a Fig. 8)."""
        for figure in self.figures:
            if figure.figure_id == "fig8":
                errors = [
                    abs((1.0 - figure.mean(series)) - paper)
                    for series, paper in zip(FIG8_SERIES, FIG8_PAPER_PENALTIES)
                ]
                return 100.0 * sum(errors) / len(errors)
        return None


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (README.md says why each exists)."""

    name: str
    #: ``op(work, iteration_dir, seed)``: the timed operation.
    op: Callable[[Path, Path, int], Outcome]
    #: ``prep(work, seed)``: untimed, once per run, in its own process.
    prep: Callable[[Path, int], None] | None = None
    #: ``before(work, iteration_dir, seed)``: untimed, before every op.
    before: Callable[[Path, Path, int], None] | None = None
    #: Modules the operation calls: what set-up time imports.
    modules: tuple = ("repro.campaign.session", "repro.experiments.figures", "repro.store")
    #: Designed layer contrasts, checked on every traced iteration:
    #: metric -> "zero" or "positive".
    expect: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# shared figure-campaign operation
# --------------------------------------------------------------------------

def _settings(seed: int, **fields):
    from repro.campaign.spec import RunnerSettings

    return RunnerSettings(seed=seed, **fields)


def _render(settings, figures, store_dir=None, trace_cache=None) -> Outcome:
    """Render ``figures`` through one Session; the on-disk store (when
    given) is opened and closed inside the operation."""
    import repro.store
    from repro.campaign.session import Session
    from repro.experiments.figures import PERFORMANCE_FIGURES

    # Looked up on the module at call time so a traced run's wrapper applies.
    store = repro.store.open_store(store_dir) if store_dir else None
    with Session(settings, store=store, trace_cache=trace_cache) as session:
        rendered = [PERFORMANCE_FIGURES[name](session) for name in figures]
    if store is not None:
        store.close()
    return Outcome(
        figures=rendered,
        store=session.store,
        instructions=session.simulations_executed
        * (settings.n_instructions + settings.warmup_instructions),
        quarantined=len(session.failures),
    )


# --------------------------------------------------------------------------
# lanes50_warm
# --------------------------------------------------------------------------

def _lanes50_settings(seed: int, n_fault_maps: int = 50):
    return _settings(
        seed,
        n_instructions=20_000,
        warmup_instructions=5_000,
        n_fault_maps=n_fault_maps,
        benchmarks=("gzip", "mcf"),
    )


def _lanes50_prep(work: Path, seed: int) -> None:
    # Two maps are enough to generate every trace and compile every
    # schedule the 50-map campaign loads (neither depends on the map count).
    _render(_lanes50_settings(seed, n_fault_maps=2), ("fig8",),
            trace_cache=work / "lanes50-cache")


def _lanes50_op(work: Path, iteration_dir: Path, seed: int) -> Outcome:
    return _render(_lanes50_settings(seed), ("fig8",),
                   trace_cache=work / "lanes50-cache")


# --------------------------------------------------------------------------
# suite_cold
# --------------------------------------------------------------------------

def _suite_op(work: Path, iteration_dir: Path, seed: int) -> Outcome:
    settings = _settings(
        seed, n_instructions=5_000, warmup_instructions=1_250, n_fault_maps=2
    )
    return _render(settings, ("fig8",), store_dir=iteration_dir / "store",
                   trace_cache=iteration_dir / "traces")


# --------------------------------------------------------------------------
# ablation_prefetch
# --------------------------------------------------------------------------

def _ablation_op(work: Path, iteration_dir: Path, seed: int) -> Outcome:
    from repro.cpu.pipeline import OutOfOrderPipeline
    from repro.experiments.ablation import blocksize_prefetch_study

    produced = []
    instructions = 0
    run = OutOfOrderPipeline.run

    def collect(pipeline, trace, *args, **kwargs):
        nonlocal instructions
        result = run(pipeline, trace, *args, **kwargs)
        produced.append((f"run{len(produced):03d}", result))
        instructions += len(trace)
        return result

    OutOfOrderPipeline.run = collect
    try:
        figure = blocksize_prefetch_study(seed=seed)
    finally:
        OutOfOrderPipeline.run = run
    return Outcome(figures=[figure], results=produced, instructions=instructions)


# --------------------------------------------------------------------------
# resume_figs
# --------------------------------------------------------------------------

def _resume_settings(seed: int):
    return _settings(
        seed, n_instructions=2_000, warmup_instructions=500, n_fault_maps=25
    )


def _resume_prep(work: Path, seed: int) -> None:
    _render(_resume_settings(seed), RESUME_FIGURES, store_dir=work / "resume-store")


def _resume_before(work: Path, iteration_dir: Path, seed: int) -> None:
    shutil.copytree(work / "resume-store", iteration_dir / "store")


def _resume_op(work: Path, iteration_dir: Path, seed: int) -> Outcome:
    return _render(
        _resume_settings(seed), RESUME_FIGURES, store_dir=iteration_dir / "store"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lanes50_warm",
            op=_lanes50_op,
            prep=_lanes50_prep,
            expect={
                "workloads.traces_generated": "zero",
                "frontend.schedules_built": "zero",
                "pipeline.lane_passes": "positive",
                "campaign.simulations_executed": "positive",
            },
        ),
        Workload(
            name="suite_cold",
            op=_suite_op,
            expect={
                "workloads.traces_generated": "positive",
                "frontend.schedules_built": "positive",
                "store.puts": "positive",
            },
        ),
        Workload(
            name="ablation_prefetch",
            op=_ablation_op,
            modules=("repro.experiments.ablation",),
            expect={
                "pipeline.lane_passes": "zero",
                "workloads.traces_generated": "positive",
            },
        ),
        Workload(
            name="resume_figs",
            op=_resume_op,
            prep=_resume_prep,
            before=_resume_before,
            expect={
                "campaign.simulations_executed": "zero",
                "pipeline.lane_passes": "zero",
                "workloads.traces_generated": "zero",
                "store.lookups": "positive",
            },
        ),
    )
}
