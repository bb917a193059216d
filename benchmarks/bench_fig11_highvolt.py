"""Fig. 11: high-voltage performance normalized to the baseline without a
victim cache.

Paper conclusion: block-disabling adds *no* overhead at high voltage (it is
the baseline); word-disabling degrades everywhere because its alignment
network costs one cycle of cache latency even above Vcc-min.
"""

import pytest
from _bench_utils import emit, series_mean

from repro.experiments.figures import fig11_data


def test_fig11_high_voltage(benchmark, session):
    result = benchmark.pedantic(fig11_data, args=(session,), rounds=1, iterations=1)
    emit(result)

    # Block-disabling == baseline, exactly, benchmark by benchmark.
    for value in result.series["block disabling"]:
        assert value == pytest.approx(1.0, abs=1e-9)
    # Word-disabling strictly below baseline on every benchmark.
    for value in result.series["word disabling"]:
        assert value < 1.0

    benchmark.extra_info["word_mean"] = round(series_mean(result, "word disabling"), 4)
