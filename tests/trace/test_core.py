"""Unit tests of the span recorder (``repro.trace.core``)."""

import tracemalloc

import pytest

from repro.trace import NULL_TRACER, NullTracer, Span, TraceRecorder


class FakeEnv:
    """Just enough of an Environment: a settable clock."""

    def __init__(self):
        self.now = 0.0


class TestRecorder:
    def test_begin_end_records_interval(self):
        env = FakeEnv()
        rec = TraceRecorder(env)
        env.now = 1.5
        sid = rec.begin("pvfs.read", "client", "client0", op_kind="contig")
        span = rec.span(sid)
        assert span.start == 1.5 and span.end is None
        assert span.attrs == {"op_kind": "contig"}
        env.now = 2.0
        rec.end(sid, nbytes=64)
        span = rec.span(sid)
        assert span.end == 2.0
        assert span.duration == 0.5
        assert span.attrs == {"op_kind": "contig", "nbytes": 64}
        assert rec.spans == [span]

    def test_trace_ids_allocated_when_negative(self):
        rec = TraceRecorder(FakeEnv())
        a = rec.begin("a", "c", "x")
        b = rec.begin("b", "c", "x")
        c = rec.begin("c", "c", "x", trace_id=rec.trace_of(a))
        d = rec.begin("d", "c", "x", parent=b)  # inherits its parent's
        assert rec.trace_of(a) != rec.trace_of(b)
        assert rec.trace_of(c) == rec.trace_of(a)
        assert rec.trace_of(d) == rec.trace_of(b)
        assert rec.traces() == {rec.trace_of(a), rec.trace_of(b)}

    def test_span_ids_unique_and_parent_links(self):
        rec = TraceRecorder(FakeEnv())
        parent = rec.begin("p", "c", "x")
        child = rec.begin("c1", "c", "x", parent=parent)
        root = rec.begin("r", "c", "x")
        ids = [s.span_id for s in rec.spans]
        assert ids == [1, 2, 3]  # span id = row + 1
        assert (parent, child, root) == (1, 2, 3)
        assert rec.span(child).parent_id == parent
        assert rec.span(root).parent_id == -1

    def test_add_records_closed_span(self):
        env = FakeEnv()
        rec = TraceRecorder(env)
        env.now = 9.0  # clock irrelevant: boundaries are explicit
        s = rec.span(
            rec.add("net.xfer", "net", "net", 1.0, 2.5, trace_id=7, nbytes=10)
        )
        assert (s.start, s.end, s.trace_id) == (1.0, 2.5, 7)
        assert s.attrs == {"nbytes": 10}
        assert rec.open_spans() == []

    def test_open_spans_and_len(self):
        rec = TraceRecorder(FakeEnv())
        a = rec.begin("a", "c", "x")
        b = rec.begin("b", "c", "x")
        rec.end(b)
        assert rec.open_spans() == [rec.span(a)]
        assert len(rec) == 2

    def test_duration_raises_while_open(self):
        rec = TraceRecorder(FakeEnv())
        span = rec.span(rec.begin("a", "c", "x"))
        with pytest.raises(ValueError):
            span.duration

    def test_span_slots_reject_new_attributes(self):
        s = Span("a", "c", "x", 1, 1, -1, 0.0)
        with pytest.raises(AttributeError):
            s.color = "red"
        with pytest.raises(AttributeError):
            s.end = 1.0  # a snapshot, not the row

    def test_attrs_keep_insertion_order_across_annotation(self):
        """begin attrs, then annotations, then end attrs — the order the
        Chrome export writes ``args`` in; a re-set key keeps its place."""
        rec = TraceRecorder(FakeEnv())
        sid = rec.begin("rpc", "client", "c0", server=1, op_kind="list")
        rec.attrs(sid)["retries"] = 1
        rec.attrs(sid)["server"] = 2
        rec.end(sid, nbytes=8)
        assert list(rec.attrs(sid).items()) == [
            ("server", 2), ("op_kind", "list"), ("retries", 1), ("nbytes", 8),
        ]
        with pytest.raises(TypeError):
            rec.attrs(sid)["late"] = True  # closed rows are read-only
        rec.end(sid, error="again")  # closing twice merges, as before
        assert rec.span(sid).attrs["error"] == "again"
        assert rec.span(sid).attrs["nbytes"] == 8

    def test_rows_are_columns_of_interned_strings(self):
        rec = TraceRecorder(FakeEnv())
        for i in range(3):
            # fresh strings each time, as operation spans' f-strings make
            name, actor = "".join(["pvfs.", "list"]), "".join(["client", "0"])
            rec.end(rec.begin(name, "client", actor, nbytes=1000 + i))
        assert len({id(n) for n in rec.names}) == 1
        assert len({id(a) for a in rec.actors}) == 1
        assert len({id(k) for k in rec.attr_keys}) == 1
        assert list(rec.attr_values) == [1000, 1001, 1002]
        assert rec.trace_ids.typecode == "q" and rec.ends.typecode == "d"


class TestNullTracer:
    def test_disabled_and_inert(self):
        nt = NullTracer()
        assert nt.enabled is False
        assert len(nt) == 0
        assert nt.spans == ()

    def test_singleton_shared(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False


def record_requests(rec, env, n_requests):
    """Record ``n_requests`` traced list I/O requests the way a run
    does: eight closed spans each (two transfers, the client rpc, the
    server request and its four stages) with fresh attribute values."""
    servers = [f"ios{i}" for i in range(4)]  # node names, stored once
    iods = [f"iod{i}" for i in range(4)]  # each daemon's actor name
    for i in range(n_requests):
        env.now = i * 1e-3
        nbytes = 65536 + i
        rpc = rec.begin(
            "rpc", "client", "client0", parent=1, server=i % 4,
            op_kind="list", desc_bytes=1024 + i,
        )
        rec.add(
            "net.xfer", "net", "net", env.now, env.now + 1e-4, parent=rpc,
            src="cn0", dst=servers[i % 4], nbytes=1024 + i,
        )
        req = rec.begin(
            "server.request", "server", iods[i % 4], parent=rpc,
            op_kind="list", is_write=False, op_count=64,
            queue_wait=i * 1e-6,
        )
        t = env.now
        rec.add("server.decode", "server", iods[i % 4], t, t + 1e-6,
                parent=req)
        rec.add("server.plan", "server", iods[i % 4], t, t + 2e-6,
                parent=req, built=64 + i, scanned=128 + i)
        rec.add("server.storage", "server", iods[i % 4], t, t + 3e-6,
                parent=req, nbytes=nbytes, regions=64)
        rec.add("server.respond", "server", iods[i % 4], t, t + 4e-6,
                parent=req, nbytes=nbytes)
        env.now += 1e-5
        rec.end(req)
        rec.add(
            "net.xfer", "net", "net", env.now, env.now + 1e-4, parent=rpc,
            src=servers[i % 4], dst="cn0", nbytes=nbytes,
        )
        rec.end(rpc, nbytes=nbytes)


def test_closed_span_costs_at_most_160_bytes():
    """The span table holds a typical closed span in ≤ 160 B — names,
    ids, interval and attribute values included — where one object +
    attribute dict per span cost ≈ 350 B."""
    env = FakeEnv()
    rec = TraceRecorder(env)
    rec.begin("pvfs.list", "client", "client0", is_write=False)
    record_requests(rec, env, 16)  # interned names, attribute tuples
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        n0 = len(rec)
        record_requests(rec, env, 1250)
        per_span = (tracemalloc.get_traced_memory()[0] - before) / (
            len(rec) - n0
        )
    finally:
        tracemalloc.stop()
    assert len(rec) - n0 == 10_000
    assert per_span <= 160, f"{per_span:.0f} B per span"
