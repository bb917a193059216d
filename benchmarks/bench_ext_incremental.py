"""Extension bench (beyond the paper): incremental word-disabling in the
performance simulator.

The paper evaluates this scheme analytically only (Fig. 7).  Here it runs
through the same Table III low-voltage setup as the other schemes.  Its
capacity advantage over plain word-disabling (>50% at pfail = 0.001) is
partly eaten by the +1-cycle shifting network it keeps from word-disabling.
"""

from _bench_utils import emit, series_mean

from repro.experiments.figures import extension_incremental_performance


def test_ext_incremental_performance(benchmark, session):
    result = benchmark.pedantic(
        extension_incremental_performance, args=(session,), rounds=1, iterations=1
    )
    emit(result)

    word = series_mean(result, "word disabling")
    incremental = series_mean(result, "incremental avg")
    # More capacity at the same latency adder => at least as good as plain
    # word-disabling on average.
    assert incremental >= word - 0.01

    benchmark.extra_info["means"] = {
        "word": round(word, 4),
        "incremental": round(incremental, 4),
    }
