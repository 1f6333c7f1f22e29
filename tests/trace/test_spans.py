"""End-to-end span-tree well-formedness on traced benchmark runs.

These are the acceptance tests for the tracing tentpole: every traced
run must produce a closed, orphan-free span forest whose child
intervals nest inside their parents, whose server stages appear in
pipeline order, and whose per-stage sums reconcile with the scheduler's
own ``StageTimes`` accounting within 1e-9 seconds.
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.dataloops import build_dataloop
from repro.datatypes import INT, subarray
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment
from repro.trace import reconcile

EPS = 1e-12

METHODS = ["posix", "list_io", "datatype_io", "two_phase"]

STAGE_ORDER = ["server.decode", "server.plan", "server.cache",
               "server.storage", "server.respond"]


def traced_run(method):
    wl = TileWorkload.reduced(frames=2)
    r = run_workload(wl, method, config=PVFSConfig(trace=True))
    assert r.supported
    return r


def assert_well_formed(rec):
    """No open spans, no orphans, children nested, clocks monotone."""
    assert rec.open_spans() == []
    by_id = {s.span_id: s for s in rec.spans}
    for s in rec.spans:
        assert s.end is not None
        assert 0.0 <= s.start <= s.end, s
        if s.parent_id >= 0:
            parent = by_id.get(s.parent_id)
            assert parent is not None, f"orphan span {s}"
            assert parent.trace_id == s.trace_id, s
            assert parent.start - EPS <= s.start, (parent, s)
            assert s.end <= parent.end + EPS, (parent, s)


@pytest.mark.parametrize("method", METHODS)
class TestSpanForest:
    def test_well_formed(self, method):
        assert_well_formed(traced_run(method).tracer)

    def test_roots_are_mpiio_jobs(self, method):
        rec = traced_run(method).tracer
        roots = [s for s in rec.spans if s.parent_id < 0]
        assert roots and all(s.name.startswith("mpiio.") for s in roots)
        # one trace per end-to-end I/O job, and no id is reused
        assert len({s.trace_id for s in roots}) == len(roots)
        assert {s.trace_id for s in rec.spans} == {s.trace_id for s in roots}

    def test_server_stages_in_pipeline_order(self, method):
        rec = traced_run(method).tracer
        requests = [s for s in rec.spans if s.name == "server.request"]
        assert requests
        for req_span in requests:
            children = [
                s for s in rec.spans if s.parent_id == req_span.span_id
            ]
            stages = sorted(
                (s for s in children if s.name in STAGE_ORDER),
                key=lambda s: (s.start, s.end),
            )
            names = [s.name for s in stages]
            # each stage at most once, in pipeline order
            expected = [n for n in STAGE_ORDER if n in names]
            assert names == expected
            # mandatory stages always present
            assert {"server.decode", "server.plan", "server.respond"} <= set(
                names
            )
            # stages do not overlap
            for a, b in zip(stages, stages[1:]):
                assert a.end <= b.start + EPS

    def test_stage_sums_reconcile_with_stagetimes(self, method):
        r = traced_run(method)
        assert reconcile(r.tracer, r.pipeline.total, tol=1e-9) == []


class TestTaxonomy:
    def test_expected_span_names_present(self):
        rec = traced_run("datatype_io").tracer
        names = {s.name for s in rec.spans}
        assert {
            "mpiio.read",
            "pvfs.dtype",
            "rpc",
            "net.xfer",
            "server.request",
            "server.decode",
            "server.plan",
            "server.storage",
            "server.respond",
        } <= names

    def test_dataloop_fingerprint_attr(self):
        rec = traced_run("datatype_io").tracer
        plans = [s for s in rec.spans if s.name == "server.plan"]
        fps = {s.attrs.get("dataloop") for s in plans}
        assert fps and all(
            isinstance(fp, str) and fp for fp in fps
        ), "plan spans must carry the dataloop fingerprint"

    def test_rpc_and_storage_attrs(self):
        rec = traced_run("list_io").tracer
        for s in rec.spans:
            if s.name == "rpc":
                assert "server" in s.attrs and "desc_bytes" in s.attrs
            elif s.name == "server.storage":
                assert "nbytes" in s.attrs and "regions" in s.attrs
            elif s.name == "net.xfer":
                assert s.attrs["nbytes"] >= 0

    def test_queue_wait_recorded(self):
        rec = traced_run("posix").tracer
        reqs = [s for s in rec.spans if s.name == "server.request"]
        assert reqs
        assert all("queue_wait" in s.attrs for s in reqs)
        # the tile reader hammers each iod; some request must have waited
        assert any(s.attrs["queue_wait"] > 0 for s in reqs)


class TestThreadedScheduler:
    def run_threaded(self):
        env = Environment()
        fs = PVFS(
            env,
            config=PVFSConfig(
                n_servers=2,
                strip_size=64,
                trace=True,
                server_threads=2,
                server_queue_depth=8,
            ),
        )
        loop = build_dataloop(subarray([16, 16], [8, 8], [4, 4], INT))

        def main(c):
            fh = yield from c.open("/f")
            for _ in range(4):
                yield from c.read_dtype(fh, loop, phantom=True)

        for i in range(3):
            env.process(main(fs.client(f"cn{i}")), name=f"m{i}")
        env.run()
        return fs

    def test_threaded_spans_well_formed(self):
        fs = self.run_threaded()
        assert_well_formed(fs.tracer)
        assert reconcile(fs.tracer, fs.pipeline_summary().total) == []

    def test_thread_wait_attr(self):
        fs = self.run_threaded()
        reqs = [s for s in fs.tracer.spans if s.name == "server.request"]
        assert reqs and all("thread_wait" in s.attrs for s in reqs)
