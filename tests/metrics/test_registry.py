"""Instrument semantics: counters, gauges, histograms, series, families."""

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SampleTable,
    log_buckets,
)


def test_log_buckets_geometric():
    b = log_buckets(1e-6, 10.0, per_decade=3)
    assert b[0] == 1e-6
    assert b[-1] >= 10.0
    # geometric: constant ratio of 10^(1/3)
    ratios = [b[i + 1] / b[i] for i in range(len(b) - 1)]
    assert all(r == pytest.approx(10 ** (1 / 3)) for r in ratios)
    assert DEFAULT_LATENCY_BUCKETS == b


def test_log_buckets_validation():
    with pytest.raises(ValueError):
        log_buckets(0, 1)
    with pytest.raises(ValueError):
        log_buckets(1.0, 0.5)


def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_up_and_down():
    g = Gauge()
    g.inc(10)
    g.inc(-4)
    assert g.value == 6
    g.inc(-8.0)
    assert g.value == -2.0


def test_histogram_bucketing_and_sum():
    h = Histogram(bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 100.0):
        h.observe(v)
    # bisect_left: an observation equal to a bound lands in that bucket
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(106.0)
    assert h.cumulative() == [2, 3, 4, 5]


def test_histogram_bounds_validation():
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=())


def test_histogram_quantiles():
    h = Histogram(bounds=(1.0, 2.0, 4.0))
    assert h.quantile(0.5) == 0.0  # empty
    for _ in range(100):
        h.observe(1.5)  # all in the (1, 2] bucket
    # interpolation stays within the containing bucket
    assert 1.0 <= h.quantile(0.5) <= 2.0
    assert h.quantile(1.0) == 2.0
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_quantile_overflow_clamps_to_last_bound():
    h = Histogram(bounds=(1.0, 2.0))
    h.observe(50.0)
    assert h.quantile(0.99) == 2.0


def test_series_integral_and_last():
    # sampled as the metrics hub does: one row per tick of its table
    table = SampleTable()
    s = MetricsRegistry().series("util", "", table, node="cn0")
    assert s.last == 0.0 and len(s) == 0
    table.append(1.0, 1.0, (0.5,))
    table.append(1.5, 0.5, (1.0,))
    assert s.integral() == pytest.approx(1.0)
    assert s.last == 1.0
    assert len(s) == 2


def test_series_are_columns_of_a_shared_clock_table():
    reg = MetricsRegistry()
    table = SampleTable()
    a = reg.series("depth", "", table, server="iod0")
    b = reg.series("depth", "", table, server="iod1")
    # a hit ignores the table
    assert reg.series("depth", "", SampleTable(), server="iod0") is a
    table.append(1.0, 1.0, (3.0, 4.0))
    table.append(1.5, 0.5, (5.0, 6.0))
    assert a.t is b.t and a.dt is b.dt
    assert list(a.values) == [3.0, 5.0] and list(b.values) == [4.0, 6.0]
    assert (a.last, b.last, len(a)) == (5.0, 6.0, 2)
    assert b.integral() == pytest.approx(7.0)
    with pytest.raises(ValueError, match="already has rows"):
        reg.series("depth", "", table, server="iod2")


def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    a = reg.counter("x_total_things", server="iod0")
    b = reg.counter("x_total_things", server="iod0")
    c = reg.counter("x_total_things", server="iod1")
    assert a is b and a is not c
    assert len(reg) == 2
    fam = reg.families["x_total_things"]
    assert [lab for lab, _ in fam.labeled()] == [
        {"server": "iod0"},
        {"server": "iod1"},
    ]


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="is a counter"):
        reg.gauge("x")


def test_registry_name_and_label_validation():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("9starts_with_digit")
    with pytest.raises(ValueError):
        reg.counter("ok", **{"bad-label": "v"})
    with pytest.raises(TypeError):
        reg.counter("ok", server=3)
    # names are checked where a family or a child is created, so an
    # invalid label on an *existing* family (a miss in it) still raises
    reg.counter("ok", server="iod0")
    with pytest.raises(ValueError):
        reg.counter("ok", **{"bad-label": "v"})
    with pytest.raises(TypeError):
        reg.counter("ok", server=0)
    assert list(reg.families["ok"].children) == [(("server", "iod0"),)]


def test_registry_histogram_custom_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(0.1, 1.0))
    assert h.bounds == (0.1, 1.0)
    h2 = reg.histogram("lat_default")
    assert h2.bounds == DEFAULT_LATENCY_BUCKETS
