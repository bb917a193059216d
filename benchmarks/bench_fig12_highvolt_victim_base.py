"""Fig. 12: high-voltage performance when every configuration (including
the baseline) has a victim cache, normalized to baseline+V$.

Paper conclusion: same story as Fig. 11 — word-disabling pays its latency
cycle; block-disabling performs exactly as the baseline.
"""

import pytest
from _bench_utils import emit, series_mean

from repro.experiments.figures import fig12_data


def test_fig12_high_voltage_victim_baseline(benchmark, session):
    result = benchmark.pedantic(fig12_data, args=(session,), rounds=1, iterations=1)
    emit(result)

    for value in result.series["block disabling"]:
        assert value == pytest.approx(1.0, abs=1e-9)
    for value in result.series["word disabling"]:
        assert value < 1.0

    benchmark.extra_info["word_mean"] = round(series_mean(result, "word disabling"), 4)
