"""Fig. 10: 16-entry victim cache built from 10T vs 6T cells at low voltage
(the 6T option keeps only 8 usable entries, Section V).

Paper conclusion: a few benchmarks dip with the 6T victim cache, but both
average and minimum stay better than word-disabling.
"""

from _bench_utils import emit, series_mean

from repro.experiments.figures import fig10_data


def test_fig10_victim_cell_choice(benchmark, session):
    result = benchmark.pedantic(fig10_data, args=(session,), rounds=1, iterations=1)
    emit(result)

    word = series_mean(result, "word disabling")
    v10 = series_mean(result, "block disabling avg+V$ 10T")
    v6 = series_mean(result, "block disabling avg+V$ 6T")

    # 10T (16 usable entries) >= 6T (8 usable entries) > word-disabling.
    assert v10 >= v6 - 1e-6
    assert v6 > word

    benchmark.extra_info["means"] = {
        "word": round(word, 4),
        "block+V$10T": round(v10, 4),
        "block+V$6T": round(v6, 4),
    }
