"""Exposition formats: OpenMetrics grammar, JSON dump, imbalance report."""

import json

import pytest

from repro.metrics import (
    MetricsHub,
    SampleTable,
    imbalance_report,
    metrics_json,
    openmetrics,
    validate_openmetrics,
)
from repro.simulation import Environment


@pytest.fixture
def hub():
    """A hub with one instrument of every kind, hand-populated."""
    h = MetricsHub(Environment(), 1e-3)
    h.observe_stage("decode", 0.002)
    h.observe_stage("decode", 0.004)
    h.observe_request(0.01)
    h.observe_rpc(0.005, "read")
    h.observe_op(0.02, "datatype_io", False)
    h.registry.counter("repro_net_messages").inc()
    h.registry.counter("repro_net_bytes").inc(4096)
    h.inflight(100)
    table = SampleTable()
    h.registry.series("repro_test_series", "a series", table, node="n0")
    table.append(0.001, 0.001, (0.5,))
    return h


def test_openmetrics_renders_every_kind(hub):
    text = openmetrics(hub)
    assert text.endswith("# EOF\n")
    assert "# TYPE repro_stage_seconds histogram" in text
    assert 'repro_stage_seconds_bucket{stage="decode",le="+Inf"} 2' in text
    assert 'repro_stage_seconds_count{stage="decode"} 2' in text
    assert "repro_net_messages_total 1" in text
    assert "repro_net_bytes_total 4096" in text
    assert "# TYPE repro_net_inflight_bytes gauge" in text
    assert "repro_net_inflight_bytes 100" in text
    # series render as gauges carrying their last sampled value
    assert "# TYPE repro_test_series gauge" in text
    assert 'repro_test_series{node="n0"} 0.5' in text


def test_openmetrics_validates(hub):
    assert validate_openmetrics(openmetrics(hub)) == []


def test_validator_rejects_missing_eof():
    assert any(
        "EOF" in p for p in validate_openmetrics("# TYPE x counter\nx_total 1\n")
    )


def test_validator_rejects_sample_without_type():
    text = "orphan_metric 1\n# EOF\n"
    assert any("no preceding TYPE" in p for p in validate_openmetrics(text))


def test_validator_rejects_wrong_suffix():
    # a counter sample must use the _total suffix
    text = "# TYPE x counter\nx 1\n# EOF\n"
    assert any("no preceding TYPE" in p for p in validate_openmetrics(text))


def test_validator_rejects_bad_value_and_labels():
    text = '# TYPE x gauge\nx{node="n0"} notanumber\n# EOF\n'
    assert any("bad sample value" in p for p in validate_openmetrics(text))
    text = "# TYPE x gauge\nx{node=unquoted} 1\n# EOF\n"
    assert any("bad label pair" in p for p in validate_openmetrics(text))


def test_validator_rejects_noncumulative_buckets():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="2"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_sum 1.0\n"
        "h_count 5\n"
        "# EOF\n"
    )
    assert any("not cumulative" in p for p in validate_openmetrics(text))


def test_validator_rejects_inf_count_mismatch():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 2\n'
        'h_bucket{le="+Inf"} 2\n'
        "h_sum 1.0\n"
        "h_count 3\n"
        "# EOF\n"
    )
    assert any("!= count" in p for p in validate_openmetrics(text))


def test_validator_rejects_missing_inf_bucket():
    text = "# TYPE h histogram\n" 'h_bucket{le="1"} 2\n' "h_count 2\n# EOF\n"
    assert any("+Inf" in p for p in validate_openmetrics(text))


def test_metrics_json_round_trips(hub):
    doc = metrics_json(hub)
    assert doc["schema"] == 1
    assert doc["interval_s"] == 1e-3
    # must be JSON-serializable as-is
    parsed = json.loads(json.dumps(doc))
    by_name = {f["name"]: f for f in parsed["families"]}
    stage = by_name["repro_stage_seconds"]
    decode = next(
        m
        for m in stage["metrics"]
        if m["labels"] == {"stage": "decode"}
    )
    assert decode["count"] == 2
    assert decode["sum"] == pytest.approx(0.006)
    assert set(decode) >= {"bounds", "counts", "p50", "p95", "p99"}
    series = by_name["repro_test_series"]["metrics"][0]
    assert series["t"] == [0.001]
    assert series["integral"] == pytest.approx(0.0005)


class _FakeServer:
    def __init__(self, index, busy, nbytes):
        from repro.simulation.stats import StageTimes

        self.index = index
        self.stage_times = StageTimes(storage=busy, requests=1)
        self.bytes_read = nbytes
        self.bytes_written = 0


def test_imbalance_report_flags_hotspot():
    servers = [_FakeServer(0, 3.0, 300), _FakeServer(1, 1.0, 100)]
    rep = imbalance_report(servers)
    assert [r["server"] for r in rep["servers"]] == [0, 1]
    assert rep["busy"]["mean"] == pytest.approx(2.0)
    assert rep["busy"]["max"] == pytest.approx(3.0)
    assert rep["busy"]["max_over_mean"] == pytest.approx(1.5)
    assert rep["busy"]["hottest_server"] == 0
    assert rep["bytes"]["max_over_mean"] == pytest.approx(1.5)


def test_imbalance_report_balanced_and_empty():
    servers = [_FakeServer(i, 1.0, 10) for i in range(4)]
    rep = imbalance_report(servers)
    assert rep["busy"]["max_over_mean"] == pytest.approx(1.0)
    empty = imbalance_report([])
    assert empty["servers"] == []
    assert empty["busy"]["max_over_mean"] == 1.0
    assert empty["busy"]["hottest_server"] is None
