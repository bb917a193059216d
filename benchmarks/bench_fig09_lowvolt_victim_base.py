"""Fig. 9: below-Vcc-min performance with a 10T victim cache everywhere,
normalized to the baseline + victim cache.

Paper numbers: word-disabling degradation 10%, block-disabling 5.8%; the
block-disabling minimum is consistently at or above word-disabling.
"""

from _bench_utils import emit, series_mean

from repro.experiments.figures import fig9_data


def test_fig9_low_voltage_victim_baseline(benchmark, session):
    result = benchmark.pedantic(fig9_data, args=(session,), rounds=1, iterations=1)
    emit(result)

    word = series_mean(result, "word disabling")
    block = series_mean(result, "block disabling avg")
    block_min = series_mean(result, "block disabling min")

    assert block > word  # block-disabling wins on average
    assert 1 - word < 0.25
    assert 1 - block < 0.15
    # Averages close to minima => the paper's 'more predictable
    # performance' claim.
    assert block - block_min < 0.06

    benchmark.extra_info["mean_penalty"] = {
        "word": round(1 - word, 4),
        "block": round(1 - block, 4),
        "paper": {"word": 0.10, "block": 0.058},
    }
