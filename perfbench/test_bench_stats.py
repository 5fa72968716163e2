"""Tests of the benchmark's own arithmetic and of the tracer's wrapping."""

import math
import statistics

import pytest

from bench_stats import fail_ratio, percentile, pooled_mean_var, span_table, tail
from bench_trace import Tracer


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("b", 11.0, 12.5, -1),
    ]
    table, top_level_s = span_table(spans)
    assert table["a"] == [1, 10.0, 3.0]  # 10 - (3 + 4)
    assert table["b"] == [2, 4.5, 3.5]  # (3 - 1) + 1.5
    assert table["c"] == [1, 1.0, 1.0]
    assert table["d"] == [1, 4.0, 4.0]
    assert top_level_s == 11.5
    assert sum(row[2] for row in table.values()) == pytest.approx(top_level_s)


def test_tracer_records_nested_spans_with_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x + 1)
    outer = tracer.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s[0] for s in tracer.spans] == ["m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    rows = tracer.table()["rows"]
    # outer spans ticks 0..5, each inner one tick
    assert rows["m.outer"] == [1, 5.0, 3.0]
    assert rows["m.inner"] == [2, 2.0, 2.0]


def test_tracer_closes_span_when_the_call_raises():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("m.boom", boom)()
    assert tracer.table()["rows"]["m.boom"] == [1, 1.0, 1.0]
    assert tracer.wrap("m.ok", lambda: 7)() == 7
    assert tracer.spans[-1][3] == -1  # the stack unwound


def test_tracer_wraps_names_imported_into_other_modules():
    from dirmusic import experiments, pipeline, signal

    original = signal.add_awgn
    tracer = Tracer()
    tracer.install()
    try:
        # experiments binds add_awgn by name; both bindings are wrapped
        assert experiments.add_awgn is signal.add_awgn
        assert experiments.add_awgn.__wrapped__ is original
        assert pipeline.FilterSpec.kernel.__name__ == "kernel"
        cfg = experiments.TrialConfig(n_trials=2, seed=5)
        experiments.run_batch(cfg)
    finally:
        tracer.uninstall()
    assert experiments.add_awgn is original and signal.add_awgn is original
    rows = tracer.table()["rows"]
    assert rows["signal.add_awgn"][0] == 2
    assert rows["estimator.eig_sym"][0] == 2
    assert tracer.counts["signal.noise_draws"] == 2 * 6 * cfg.sampling.n_samples


@pytest.mark.parametrize(
    "n, level",
    [(1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.0)],
)
def test_tail_is_highest_level_with_ten_samples_beyond(n, level):
    values = [float(i) for i in range(n)]
    got_level, value, count = tail(values)
    assert (got_level, count) == (level, n)
    assert value == pytest.approx(percentile(values, level))
    if n >= 20:
        assert sum(v > value for v in values) >= 10


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 90.0) == pytest.approx(4.6)
    assert percentile([7.0], 99.0) == 7.0
    data = [float(i * i) for i in range(37)]
    assert percentile(data, 50.0) == statistics.median(data)


def test_fail_ratio_counts_failed_operations():
    assert fail_ratio(10, 3) == 0.3
    assert fail_ratio(4, 0) == 0.0
    assert fail_ratio(2, 2) == 1.0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(3, 4)


def test_pooled_variance_equals_variance_of_concatenation():
    a, b = [1.0, 2.0, 4.0], [0.0, 7.0]
    groups = [(len(g), statistics.fmean(g), statistics.pvariance(g)) for g in (a, b)]
    n, mean, var = pooled_mean_var(groups)
    assert n == 5
    assert mean == pytest.approx(statistics.fmean(a + b))
    assert var == pytest.approx(statistics.pvariance(a + b))
    assert math.isfinite(var)
