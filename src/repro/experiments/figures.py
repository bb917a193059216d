"""Per-figure data generation: one function per paper figure/table.

Every figure entry point — analytical (1, 3-7) or simulation-backed
(8-12) — has one signature::

    figN_data(session=None) -> FigureResult

Analytical figures evaluate the Section IV closed forms directly and
ignore the argument (accepted for registry uniformity).  Performance
figures are a declarative :class:`~repro.campaign.spec.CampaignSpec`
(:func:`figure_spec`, at the session's settings) plus a *pure
post-processing function*: the spec is streamed through the campaign
:class:`~repro.campaign.session.Session` (filling the result store),
after which the series are computed from pure store hits.  ``session``
is a :class:`~repro.campaign.session.Session` or ``None`` (a fresh
environment-configured session).  Another fidelity or benchmark scope
is another session's figure.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.blocksize import capacity_vs_blocksize
from repro.analysis.capacity_dist import capacity_distribution_for_geometry
from repro.analysis.incremental import incremental_capacity_curve
from repro.analysis.urn import expected_capacity_fraction, faulty_block_fraction_curve
from repro.analysis.word_disable import whole_cache_failure_curve
from repro.campaign.session import NormalizedSeries, Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.configs import (
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
)
from repro.experiments.results import FigureResult
from repro.faults.geometry import PAPER_L1_GEOMETRY
from repro.overhead.transistors import OverheadModel
from repro.power.dvs import DVSModel, scaling_curves
from repro.power.vccmin import DEFAULT_VCCMIN_MODEL


#: Configurations each performance figure simulates — the data each
#: figure's CampaignSpec sweeps; also what the CLI's prefill unions.
FIGURE_CONFIGS = {
    "fig8": (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10),
    "fig9": (LV_BASELINE_V, LV_WORD_V, LV_BLOCK_V10),
    "fig10": (LV_BASELINE, LV_WORD, LV_BLOCK_V10, LV_BLOCK_V6),
    "fig11": (HV_BASELINE, HV_WORD, HV_BLOCK, HV_BLOCK_V),
    "fig12": (HV_BASELINE_V, HV_WORD_V, HV_BLOCK_V),
    "ext-incremental": (LV_BASELINE, LV_WORD, LV_INCREMENTAL),
}


#: The configuration each performance figure normalizes against (always
#: fault-independent and always a member of the figure's config tuple) —
#: what the predict CLI hands ActiveCampaign as its baseline.
FIGURE_BASELINES = {
    "fig8": LV_BASELINE,
    "fig9": LV_BASELINE_V,
    "fig10": LV_BASELINE,
    "fig11": HV_BASELINE,
    "fig12": HV_BASELINE_V,
    "ext-incremental": LV_BASELINE,
}


def figure_spec(
    target: str, settings: RunnerSettings | None = None
) -> CampaignSpec:
    """The declarative campaign one performance figure needs: its Table
    III configurations at the given (default: environment) fidelity,
    tagged with the figure id."""
    if target not in FIGURE_CONFIGS:
        raise KeyError(
            f"unknown performance figure {target!r} "
            f"(have: {', '.join(FIGURE_CONFIGS)})"
        )
    settings = settings or RunnerSettings.from_env()
    return CampaignSpec.from_settings(
        settings, FIGURE_CONFIGS[target], figure=target
    )


def configs_for_targets(targets) -> tuple:
    """Union of the run configurations the given figure targets need, in
    first-seen order — what the CLI prefills in one campaign (store-level
    dedup collapses the heavy overlap between figures)."""
    needed = []
    seen = set()
    for target in targets:
        for config in FIGURE_CONFIGS.get(target, ()):
            if config not in seen:
                seen.add(config)
                needed.append(config)
    return tuple(needed)


def _prepare(session: "Session | None", target: str) -> Session:
    """Fill the store with the figure's campaign: stream its spec through
    the session (grouped into lane passes, store-deduped; a re-render is
    pure store hits and zero schedule passes), then hand back the session
    the post-processing reads from (a fresh environment-configured one
    when ``session`` is ``None``)."""
    session = Session() if session is None else session
    for _event in session.run(figure_spec(target, session.settings)):
        pass
    return session


def _series(session: Session, configs: "tuple", baseline) -> "list[NormalizedSeries]":
    """Pure post-processing: normalized series per config, reading the
    results :func:`_prepare` just made durable."""
    return [session.normalized_series(config, baseline) for config in configs]


# --------------------------------------------------------------------------
# Fig. 1 — voltage scaling motivation
# --------------------------------------------------------------------------

def fig1_data(session=None) -> FigureResult:
    """Fig. 1a/1b: normalized voltage vs frequency, power, and performance,
    with and without sub-Vcc-min operation.

    The 1b performance series models the low-voltage zone's sub-linear
    degradation by scaling frequency with the block-disabling IPC ratio at
    the pfail the voltage implies (IPC penalty ≈ 0.2 x capacity loss,
    calibrated against the Fig. 8 average)."""
    points = 23  # curve resolution
    model = DVSModel()
    vccmin = DEFAULT_VCCMIN_MODEL
    k = PAPER_L1_GEOMETRY.cells_per_block

    def block_disable_ipc(voltage: float) -> float:
        pfail = vccmin.pfail(voltage)
        if pfail == 0.0:
            return 1.0
        capacity = expected_capacity_fraction(k, pfail)
        return max(0.0, 1.0 - 0.2 * (1.0 - capacity))

    conventional = scaling_curves(model, points=points)
    below = scaling_curves(model, points=points, relative_ipc=block_disable_ipc)
    result = FigureResult(
        figure_id="fig1",
        title="Voltage scaling vs power and performance (a: conventional, "
        "b: operation below Vcc-min)",
        index_label="voltage",
        index=[float(v) for v in conventional.voltages],
        notes=f"Vcc-min = {conventional.vcc_min:.2f}V; cubic power zone ends there",
    )
    result.add_series("frequency", conventional.frequency)
    result.add_series("power", conventional.power)
    result.add_series("perf_conventional(1a)", conventional.performance)
    result.add_series("perf_below_vccmin(1b)", below.performance)
    return result


# --------------------------------------------------------------------------
# Table I — transistor overhead
# --------------------------------------------------------------------------

def table1_data(session=None) -> FigureResult:
    """Table I: storage-cell transistor cost of each scheme."""
    model = OverheadModel(PAPER_L1_GEOMETRY)
    rows = model.all_rows()
    baseline = rows[0]
    result = FigureResult(
        figure_id="table1",
        title="Overhead comparison of the disabling schemes (transistors)",
        index_label="scheme",
        index=[row.scheme for row in rows],
        paper_reference={
            "baseline": 76800,
            "baseline+V$": 126138,
            "word-disable": 209920,
            "block-disable": 81920,
            "block-disable+V$ 10T": 164150,
            "block-disable+V$ 6T": 131418,
        },
    )
    result.add_series("total_transistors", [row.total_transistors for row in rows])
    result.add_series(
        "overhead_vs_baseline", [row.overhead_vs(baseline) for row in rows]
    )
    result.add_series(
        "alignment_network", [float(row.needs_alignment_network) for row in rows]
    )
    return result


# --------------------------------------------------------------------------
# Figs. 3-7 — Section IV analysis
# --------------------------------------------------------------------------

def fig3_data(session=None) -> FigureResult:
    """Fig. 3: mean fraction of faulty blocks vs pfail (Eq. 2, k = 537)."""
    pfails = np.linspace(0.0, 0.010, 21)
    k = PAPER_L1_GEOMETRY.cells_per_block
    fractions = faulty_block_fraction_curve(k, pfails)
    result = FigureResult(
        figure_id="fig3",
        title="Fraction of faulty blocks as a function of pfail",
        index_label="pfail",
        index=[float(p) for p in pfails],
        notes="capacity crosses 50% at pfail ~ 0.0013 (paper Sec. IV-A)",
        paper_reference={"faulty_fraction_at_0.001": 0.416},
    )
    result.add_series("faulty_blocks", fractions)
    result.add_series("capacity", 1.0 - fractions)
    return result


def fig4_data(session=None) -> FigureResult:
    """Fig. 4: probability distribution of cache capacity at pfail = 0.001
    (Eq. 3) for the 32KB/64B running example."""
    pfail = 0.001
    dist = capacity_distribution_for_geometry(PAPER_L1_GEOMETRY, pfail)
    pmf = dist.pmf()
    fractions = dist.capacity_fractions()
    # The paper plots ~2% capacity bins; aggregate the block-grain PMF.
    bins = np.arange(0.0, 1.0001, 0.02)
    binned = np.zeros(len(bins) - 1)
    for frac, p in zip(fractions, pmf):
        index = min(int(frac / 0.02), len(binned) - 1)
        binned[index] += p
    result = FigureResult(
        figure_id="fig4",
        title=f"Probability distribution of cache capacity (pfail={pfail})",
        index_label="capacity",
        index=[float(b) for b in bins[:-1]],
        notes=(
            f"mean={dist.mean_capacity:.3f}, std={dist.std_capacity:.4f}, "
            f"P[capacity>50%]={dist.prob_capacity_above(0.5):.5f}"
        ),
        paper_reference={"mean": 0.58, "std_pct": 2.02, "P[>50%]": 0.999},
    )
    result.add_series("probability", binned)
    return result


def fig5_data(session=None) -> FigureResult:
    """Fig. 5: probability of whole-cache failure for word-disabling
    (Eqs. 4-5; 32KB cache, 64B blocks, 8-word subblocks)."""
    pfails = np.linspace(0.0, 0.002, 21)
    curve = whole_cache_failure_curve(pfails, num_blocks=PAPER_L1_GEOMETRY.num_blocks)
    result = FigureResult(
        figure_id="fig5",
        title="Probability of whole-cache failure vs pfail (word-disabling)",
        index_label="pfail",
        index=[float(p) for p in pfails],
        notes="paper: ~1e-3 at pfail 0.001, tenfold to ~1e-2 at pfail 0.0015",
        paper_reference={"pwcf_at_0.001": 1e-3, "pwcf_at_0.0015": 1e-2},
    )
    result.add_series("whole_cache_failure", curve)
    return result


def fig6_data(session=None) -> FigureResult:
    """Fig. 6: block-disabling capacity vs pfail for 32/64/128B blocks at
    constant cache size and associativity."""
    pfails = np.linspace(0.0, 0.0048, 25)
    series = capacity_vs_blocksize(
        PAPER_L1_GEOMETRY, block_sizes=(32, 64, 128), pfails=pfails
    )
    result = FigureResult(
        figure_id="fig6",
        title="Capacity for different block sizes (block-disabling)",
        index_label="pfail",
        index=[float(p) for p in pfails],
        notes="smaller blocks retain more capacity (Sec. IV-B)",
    )
    for entry in series:
        result.add_series(f"{entry.block_bytes}B", entry.capacities)
    return result


def fig7_data(session=None) -> FigureResult:
    """Fig. 7: capacity of the incremental word-disabling scheme (Eq. 6)."""
    pfails = np.linspace(0.0, 0.010, 21)
    capacity = incremental_capacity_curve(
        pfails, data_bits=PAPER_L1_GEOMETRY.data_bits_per_block
    )
    result = FigureResult(
        figure_id="fig7",
        title="Capacity vs pfail for incremental word-disabling",
        index_label="pfail",
        index=[float(p) for p in pfails],
        notes="starts >50%, saturates toward 50%, then degrades below (Sec. IV-C)",
    )
    result.add_series("capacity", capacity)
    return result


# --------------------------------------------------------------------------
# Figs. 8-12 — performance evaluation
# --------------------------------------------------------------------------

def fig8_data(session=None) -> FigureResult:
    """Fig. 8: below-Vcc-min performance normalized to the baseline
    *without* victim cache."""
    session = _prepare(session, "fig8")
    word, block, block_v = _series(
        session, (LV_WORD, LV_BLOCK, LV_BLOCK_V10), LV_BASELINE
    )
    result = FigureResult(
        figure_id="fig8",
        title="Below Vcc-min results normalized to baseline without victim cache",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean penalty: word={word.mean_penalty:.1%}, "
            f"block={block.mean_penalty:.1%}, block+V$={block_v.mean_penalty:.1%}"
        ),
        paper_reference={
            "word_penalty": 0.112,
            "block_penalty": 0.083,
            "block_v$_penalty": 0.053,
            "block_v$_improvement_over_word": 0.066,
        },
    )
    result.add_series("word disabling", word.average)
    result.add_series("block disabling avg", block.average)
    result.add_series("block disabling avg+V$ 10T", block_v.average)
    result.add_series("block disabling min", block.minimum)
    result.add_series("block disabling min+V$ 10T", block_v.minimum)
    return result


def fig9_data(session=None) -> FigureResult:
    """Fig. 9: below-Vcc-min performance when *every* configuration,
    including the baseline, has a 10T victim cache."""
    session = _prepare(session, "fig9")
    word, block = _series(session, (LV_WORD_V, LV_BLOCK_V10), LV_BASELINE_V)
    result = FigureResult(
        figure_id="fig9",
        title="Below Vcc-min results normalized to baseline with victim cache (10T)",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean penalty: word={word.mean_penalty:.1%}, "
            f"block={block.mean_penalty:.1%}"
        ),
        paper_reference={"word_penalty": 0.10, "block_penalty": 0.058},
    )
    result.add_series("word disabling", word.average)
    result.add_series("block disabling avg", block.average)
    result.add_series("block disabling min", block.minimum)
    return result


def fig10_data(session=None) -> FigureResult:
    """Fig. 10: 10T vs 6T victim-cache cells for block-disabling at low
    voltage (the 6T victim keeps only 8 usable entries)."""
    session = _prepare(session, "fig10")
    word, block_v10, block_v6 = _series(
        session, (LV_WORD, LV_BLOCK_V10, LV_BLOCK_V6), LV_BASELINE
    )
    result = FigureResult(
        figure_id="fig10",
        title="16-entry victim cache: 10T vs 6T cells (below Vcc-min)",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean: word={word.mean_average:.3f}, "
            f"block+V$10T={block_v10.mean_average:.3f}, "
            f"block+V$6T={block_v6.mean_average:.3f} "
            "(6T stays better than word-disabling on average)"
        ),
    )
    result.add_series("word disabling", word.average)
    result.add_series("block disabling avg+V$ 10T", block_v10.average)
    result.add_series("block disabling avg+V$ 6T", block_v6.average)
    result.add_series("block disabling min+V$ 10T", block_v10.minimum)
    result.add_series("block disabling min+V$ 6T", block_v6.minimum)
    return result


def fig11_data(session=None) -> FigureResult:
    """Fig. 11: high-voltage performance normalized to baseline without a
    victim cache — word-disabling pays its alignment cycle; block-disabling
    matches the baseline exactly."""
    session = _prepare(session, "fig11")
    word, block, block_v = _series(
        session, (HV_WORD, HV_BLOCK, HV_BLOCK_V), HV_BASELINE
    )
    result = FigureResult(
        figure_id="fig11",
        title="High-voltage results normalized to baseline without victim cache",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean: word={word.mean_average:.3f}, block={block.mean_average:.3f} "
            "(block-disabling adds no overhead at high voltage)"
        ),
    )
    result.add_series("word disabling", word.average)
    result.add_series("block disabling", block.average)
    result.add_series("block disabling+V$ 10T", block_v.average)
    return result


def fig12_data(session=None) -> FigureResult:
    """Fig. 12: high-voltage performance with victim caches everywhere,
    normalized to the baseline with victim cache."""
    session = _prepare(session, "fig12")
    word, block = _series(session, (HV_WORD_V, HV_BLOCK_V), HV_BASELINE_V)
    result = FigureResult(
        figure_id="fig12",
        title="High-voltage results normalized to baseline with victim cache",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean: word={word.mean_average:.3f}, block={block.mean_average:.3f}"
        ),
    )
    result.add_series("word disabling", word.average)
    result.add_series("block disabling", block.average)
    return result


def extension_incremental_performance(session=None) -> FigureResult:
    """Beyond the paper: incremental word-disabling evaluated in the
    performance simulator (the paper stops at the Fig. 7 capacity analysis)."""
    session = _prepare(session, "ext-incremental")
    word, incremental = _series(session, (LV_WORD, LV_INCREMENTAL), LV_BASELINE)
    result = FigureResult(
        figure_id="ext-incremental",
        title="Extension: incremental word-disabling performance below Vcc-min",
        index_label="benchmark",
        index=list(word.benchmarks),
        notes=(
            f"mean: word={word.mean_average:.3f}, "
            f"incremental avg={incremental.mean_average:.3f}"
        ),
    )
    result.add_series("word disabling", word.average)
    result.add_series("incremental avg", incremental.average)
    result.add_series("incremental min", incremental.minimum)
    return result


#: Figure registry for the CLI and the bench harness.  Every entry has
#: the same shape: ``fn(session=None) -> FigureResult``.
ANALYTICAL_FIGURES = {
    "fig1": fig1_data,
    "table1": table1_data,
    "fig3": fig3_data,
    "fig4": fig4_data,
    "fig5": fig5_data,
    "fig6": fig6_data,
    "fig7": fig7_data,
}

PERFORMANCE_FIGURES = {
    "fig8": fig8_data,
    "fig9": fig9_data,
    "fig10": fig10_data,
    "fig11": fig11_data,
    "fig12": fig12_data,
    "ext-incremental": extension_incremental_performance,
}
