"""Reproduction report: every paper headline vs this build's measurement.

:func:`reproduction_report` runs the analytical checks instantly and, given
a campaign :class:`~repro.campaign.session.Session`, the simulation-based
ones, then renders a pass/fail scorecard —
the programmatic version of EXPERIMENTS.md.  Used by the CLI target
``report`` and by release checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.capacity_dist import CapacityDistribution
from repro.analysis.urn import expected_faulty_blocks_exact, pfail_for_capacity
from repro.analysis.victim import paper_victim_analysis
from repro.analysis.word_disable import whole_cache_failure_probability
from repro.campaign.session import Session
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BASELINE_V,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
    LV_WORD_V,
)
from repro.faults.geometry import PAPER_L1_GEOMETRY
from repro.overhead.transistors import OverheadModel


#: Configurations :func:`simulation_lines` runs — exported so the CLI's
#: parallel prefill covers the report target, not just the figures.
REPORT_CONFIGS = (
    LV_BASELINE,
    LV_BASELINE_V,
    LV_WORD,
    LV_WORD_V,
    LV_BLOCK,
    LV_BLOCK_V10,
)


@dataclass(frozen=True)
class ReportLine:
    """One claim: where it comes from, what the paper says, what we got."""

    source: str
    claim: str
    paper_value: float
    measured_value: float
    tolerance: float  # relative tolerance for PASS

    @property
    def passed(self) -> bool:
        if self.paper_value == 0:
            return abs(self.measured_value) <= self.tolerance
        return (
            abs(self.measured_value - self.paper_value)
            <= self.tolerance * abs(self.paper_value)
        )

    def render(self) -> str:
        status = "PASS" if self.passed else "MISS"
        return (
            f"[{status}] {self.source:12s} {self.claim:58s} "
            f"paper={self.paper_value:<10.4g} measured={self.measured_value:<10.4g}"
        )


def analytical_lines() -> list[ReportLine]:
    """The exactly-reproducible claims (Sections III-IV, Table I)."""
    dist = CapacityDistribution(512, 537, 0.001)
    overhead = OverheadModel(PAPER_L1_GEOMETRY)
    rows = {row.scheme: row.total_transistors for row in overhead.all_rows()}
    return [
        ReportLine(
            "Sec IV-A", "275 faults land in 213 distinct blocks (Eq. 1)",
            213, expected_faulty_blocks_exact(512, 537, 275), 0.005,
        ),
        ReportLine(
            "Sec IV-A", ">50% capacity iff pfail < 0.0013 (Eq. 2)",
            0.0013, pfail_for_capacity(537, 0.5), 0.05,
        ),
        ReportLine(
            "Fig 4", "mean capacity 58% at pfail = 0.001 (Eq. 3)",
            0.58, dist.mean_capacity, 0.02,
        ),
        ReportLine(
            "Fig 4", "P[capacity > 50%] = 99.9%",
            0.999, dist.prob_capacity_above(0.5), 0.002,
        ),
        ReportLine(
            "Fig 5", "whole-cache failure ~1e-3 at pfail = 0.001 (Eq. 4)",
            1.0e-3, whole_cache_failure_probability(0.001), 0.9,
        ),
        ReportLine(
            "Fig 5", "x10 failure growth from pfail 0.001 to 0.0015",
            10.0,
            whole_cache_failure_probability(0.0015)
            / whole_cache_failure_probability(0.001),
            0.4,
        ),
        ReportLine(
            "Sec V", "mean faulty victim entries 6.5 of 16",
            6.5, paper_victim_analysis(0.001).mean_faulty_entries, 0.05,
        ),
        ReportLine(
            "Table I", "word-disabling transistors",
            209_920, rows["word-disable"], 0.0,
        ),
        ReportLine(
            "Table I", "block-disabling transistors",
            81_920, rows["block-disable"], 0.0,
        ),
        ReportLine(
            "Table I", "block-disabling+V$ 10T transistors",
            164_150, rows["block-disable+V$ 10T"], 0.0,
        ),
    ]


def simulation_lines(session: Session) -> list[ReportLine]:
    """The simulation-shape claims (Section VI).  Tolerances are generous:
    the substrate is a different simulator over synthetic workloads."""
    word8 = session.normalized_series(LV_WORD, LV_BASELINE)
    block8 = session.normalized_series(LV_BLOCK, LV_BASELINE)
    block_v8 = session.normalized_series(LV_BLOCK_V10, LV_BASELINE)
    word9 = session.normalized_series(LV_WORD_V, LV_BASELINE_V)
    block9 = session.normalized_series(LV_BLOCK_V10, LV_BASELINE_V)
    lines = [
        ReportLine(
            "Fig 8", "word-disabling average penalty 11.2%",
            0.112, word8.mean_penalty, 0.45,
        ),
        ReportLine(
            "Fig 8", "block-disabling average penalty 8.3%",
            0.083, block8.mean_penalty, 0.45,
        ),
        ReportLine(
            "Fig 8", "block-disabling + V$ average penalty 5.3%",
            0.053, block_v8.mean_penalty, 0.45,
        ),
        ReportLine(
            "Fig 8", "block+V$ improvement over word-disabling 6.6%",
            0.066, block_v8.mean_average / word8.mean_average - 1.0, 0.6,
        ),
        ReportLine(
            "Fig 9", "word-disabling penalty (V$ baseline) 10%",
            0.10, word9.mean_penalty, 0.45,
        ),
        ReportLine(
            "Fig 9", "block-disabling penalty (V$ baseline) 5.8%",
            0.058, block9.mean_penalty, 0.45,
        ),
    ]
    if "crafty" in word8.benchmarks:
        i = word8.benchmarks.index("crafty")
        lines.append(
            ReportLine(
                "Fig 8", "crafty: block+V$ improves ~29% over word-disabling",
                0.29, block_v8.average[i] / word8.average[i] - 1.0, 0.5,
            )
        )
    return lines


def reproduction_report(session: Session | None = None) -> str:
    """Render the scorecard; simulation lines only when a session is given."""
    lines = analytical_lines()
    header = ["Reproduction scorecard — ISPASS 2010 'Performance-Effective "
              "Operation below Vcc-min'", "=" * 100]
    body = [line.render() for line in lines]
    if session is not None:
        sim = simulation_lines(session)
        body.append("-" * 100)
        body.extend(line.render() for line in sim)
        lines = lines + sim
    passed = sum(line.passed for line in lines)
    footer = ["-" * 100, f"{passed}/{len(lines)} claims reproduced within tolerance"]
    return "\n".join(header + body + footer)
