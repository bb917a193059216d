#!/usr/bin/env python3
"""Low-voltage scheme comparison on a benchmark subset (mini Fig. 8/9).

Runs one campaign through a :class:`~repro.campaign.session.Session`
exactly as the figures do, on a configurable benchmark subset, then
prints the per-benchmark normalized performance of every Table III
low-voltage configuration — including the incremental word-disabling
extension the paper only analyses.

Run:  python examples/low_voltage_sweep.py [bench1,bench2,...]
"""

import sys

from repro.campaign import RunnerSettings, Session
from repro.experiments import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
    LV_WORD_V,
)

benchmarks = ("crafty", "gzip", "mcf", "swim", "wupwise", "galgel")
if len(sys.argv) > 1:
    benchmarks = tuple(sys.argv[1].split(","))

settings = RunnerSettings(
    n_instructions=30_000, n_fault_maps=4, benchmarks=benchmarks
)
session = Session(settings)
print(
    f"low-voltage sweep: {len(benchmarks)} benchmarks, "
    f"{settings.n_fault_maps} fault maps, {settings.n_instructions} instructions"
)

configs = [LV_WORD, LV_WORD_V, LV_BLOCK, LV_BLOCK_V10, LV_BLOCK_V6, LV_INCREMENTAL]
# One campaign, merged into lane passes, fills the store; the series are
# store reads.
session.run_all(session.spec([LV_BASELINE, *configs]))
series = {c.label: session.normalized_series(c, LV_BASELINE) for c in configs}

header = f"{'benchmark':12s}" + "".join(f"{c.label[:18]:>20s}" for c in configs)
print("\n" + header)
for i, bench in enumerate(benchmarks):
    row = f"{bench:12s}"
    for config in configs:
        row += f"{series[config.label].average[i]:20.3f}"
    print(row)

print(f"\n{'MEAN':12s}" + "".join(
    f"{series[c.label].mean_average:20.3f}" for c in configs
))
print(f"{'PENALTY':12s}" + "".join(
    f"{series[c.label].mean_penalty:20.1%}" for c in configs
))

best = max(configs, key=lambda c: series[c.label].mean_average)
print(f"\nbest low-voltage configuration on this subset: {best.label}")
print("the paper's full-suite result: block disabling + 10T victim cache "
      "(5.3% average penalty vs 11.2% for word disabling)")
