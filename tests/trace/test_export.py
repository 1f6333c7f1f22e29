"""Chrome ``trace_event`` export, schema validation and summaries."""

import json

import numpy as np
import pytest

from repro.trace import (
    SERVER_STAGE_SPANS,
    TraceRecorder,
    chrome_trace,
    reconcile,
    summarize_trace,
    validate_chrome,
    write_chrome_trace,
)


class FakeEnv:
    def __init__(self):
        self.now = 0.0


def small_recorder():
    """A hand-built recorder spanning three actors and two traces."""
    rec = TraceRecorder(FakeEnv())
    t1, t2 = rec.new_trace(), rec.new_trace()
    root = rec.add("mpiio.read", "mpiio", "rank0", 0.0, 1.0, trace_id=t1)
    rec.add(
        "net.xfer", "net", "net", 0.1, 0.2, trace_id=t1, parent=root,
        nbytes=np.int64(4096),
    )
    rec.add("server.plan", "server", "iod0", 0.3, 0.4, trace_id=t1)
    rec.add("mpiio.write", "mpiio", "rank1", 0.0, 0.5, trace_id=t2)
    return rec


class TestChromeTrace:
    def test_refuses_open_spans(self):
        rec = TraceRecorder(FakeEnv())
        rec.begin("dangling", "c", "x")
        with pytest.raises(ValueError, match="dangling"):
            chrome_trace(rec)

    def test_actor_and_lane_mapping(self):
        rec = small_recorder()
        doc = chrome_trace(rec)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        # ranks before net before iods, one metadata event per actor
        assert [e["args"]["name"] for e in meta] == ["rank0", "rank1", "net", "iod0"]
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(rec.spans)
        by_name = {e["name"]: e for e in xs}
        # trace id is the thread lane
        assert by_name["mpiio.read"]["tid"] == rec.spans[0].trace_id
        assert by_name["mpiio.write"]["tid"] == rec.spans[3].trace_id
        # same actor -> same pid; different actors -> different pids
        assert by_name["mpiio.read"]["pid"] != by_name["mpiio.write"]["pid"]

    def test_microsecond_conversion_and_args(self):
        doc = chrome_trace(small_recorder())
        xfer = next(
            e for e in doc["traceEvents"] if e.get("name") == "net.xfer"
        )
        assert xfer["ts"] == pytest.approx(0.1e6)
        assert xfer["dur"] == pytest.approx(0.1e6)
        assert xfer["args"]["parent_span_id"] == xfer["args"]["trace_id"] == 1
        # numpy attribute values are coerced to plain JSON scalars
        assert type(xfer["args"]["nbytes"]) is int
        json.dumps(doc)  # must be serializable as-is

    def test_write_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(small_recorder(), path)
        assert json.loads(path.read_text()) == doc
        assert validate_chrome(doc) == []


class TestValidateChrome:
    def test_accepts_exporter_output(self):
        assert validate_chrome(chrome_trace(small_recorder())) == []

    def test_rejects_missing_event_list(self):
        assert validate_chrome({}) == ["traceEvents missing or not a list"]

    @pytest.mark.parametrize(
        "event, expect",
        [
            ({"ph": "Q", "name": "x", "pid": 1, "tid": 1}, "phase"),
            ({"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 0, "cat": "c"}, "name"),
            ({"ph": "X", "name": "x", "pid": "a", "tid": 1, "ts": 0, "dur": 0, "cat": "c"}, "integers"),
            ({"ph": "X", "name": "x", "pid": 1, "tid": 1, "dur": 0, "cat": "c"}, "ts"),
            ({"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -1, "cat": "c"}, "negative dur"),
            ({"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": 0, "cat": "c", "args": 3}, "args"),
        ],
    )
    def test_rejects_malformed_events(self, event, expect):
        problems = validate_chrome({"traceEvents": [event]})
        assert problems and expect in problems[0]


class TestSummaries:
    def test_summarize_counts_and_categories(self):
        s = summarize_trace(small_recorder())
        assert s["spans"] == 4 and s["traces"] == 2
        assert s["by_category_s"]["mpiio"] == pytest.approx(1.5)
        assert s["by_category_s"]["net"] == pytest.approx(0.1)
        assert s["by_name"]["mpiio.read"] == {
            "count": 1,
            "seconds": pytest.approx(1.0),
        }
        assert s["server_stages_s"]["plan"] == pytest.approx(0.1)
        assert s["server_stages_s"]["storage"] == 0.0

    def test_summarize_counts_fault_spans_per_family(self):
        rec = small_recorder()
        t = rec.spans[0].trace_id
        rec.add("fault.disk.slow", "fault", "iod0", 0.3, 0.35, trace_id=t)
        rec.add("fault.disk.slow", "fault", "iod0", 0.4, 0.45, trace_id=t)
        rec.add("fault.net.drop", "fault", "net", 0.5, 0.5, trace_id=t)
        s = summarize_trace(rec)
        assert s["fault_spans"] == {"disk.slow": 2, "net.drop": 1}

    def test_fault_spans_empty_without_faults(self):
        assert summarize_trace(small_recorder())["fault_spans"] == {}

    def test_reconcile_flags_divergence(self):
        rec = small_recorder()

        class Stages:
            decode = 0.0
            plan = 0.1
            cache = 0.0
            storage = 0.0
            respond = 0.0

        assert reconcile(rec, Stages) == []
        Stages.storage = 0.5
        bad = reconcile(rec, Stages)
        assert len(bad) == 1 and bad[0].startswith("storage")

    def test_stage_map_covers_pipeline(self):
        assert set(SERVER_STAGE_SPANS.values()) == {
            "decode",
            "plan",
            "cache",
            "storage",
            "respond",
        }
