"""Fig. 8: below-Vcc-min performance normalized to the baseline without a
victim cache — the paper's headline comparison.

Paper numbers: word-disabling loses 11.2% on average, block-disabling 8.3%,
block-disabling + 16-entry 10T victim cache 5.3% (a 6.6% average
improvement over word-disabling, up to 29% on crafty).
"""

from _bench_utils import emit, series_mean

from repro.experiments.figures import fig8_data


def test_fig8_low_voltage_normalized(benchmark, session):
    result = benchmark.pedantic(fig8_data, args=(session,), rounds=1, iterations=1)
    emit(result)

    word = series_mean(result, "word disabling")
    block = series_mean(result, "block disabling avg")
    block_v = series_mean(result, "block disabling avg+V$ 10T")

    # The paper's ordering must hold: word < block < block+V$.
    assert word < block < block_v
    # Magnitudes in the paper's neighbourhood (generous bands: different
    # simulator, reduced trace scale).
    assert 0.03 < 1 - word < 0.25
    assert 0.02 < 1 - block < 0.20
    assert 0.01 < 1 - block_v < 0.15

    benchmark.extra_info["mean_penalty"] = {
        "word": round(1 - word, 4),
        "block": round(1 - block, 4),
        "block+V$": round(1 - block_v, 4),
        "paper": {"word": 0.112, "block": 0.083, "block+V$": 0.053},
    }
