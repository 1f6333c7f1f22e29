"""Critical-path attribution: conservation, taxonomy, reconciliation."""

import pytest

from repro.bench.runner import Spec, run, run_workload
from repro.bench.workloads import reduced
from repro.faults import severity_config
from repro.pvfs import PVFSConfig, TenantConfig
from repro.simulation.costs import CostModel
from repro.trace import TraceRecorder
from repro.trace.critical import (
    RESOURCE_ORDER,
    classify_span,
    critical_path,
    reconcile_blame,
)

TOL = 1e-9


class _Env:
    now = 0.0


def _recorder() -> TraceRecorder:
    return TraceRecorder(_Env())


def _traced(workload="tile", method="datatype_io", **cfg_kw):
    cfg = PVFSConfig(trace=True, **cfg_kw)
    result = run_workload(
        reduced(workload), method, config=cfg
    )
    assert result.supported
    return result, cfg


def _reconcile(result) -> list[str]:
    """``reconcile_blame`` on a traced run, the metadata host loose."""
    return reconcile_blame(
        result.tracer,
        result.pipeline.total,
        result.network,
        nic_bandwidth=CostModel().nic_bandwidth,
        loose_nodes=(result.fs.metadata.mailbox.node.name,),
    )


# ----------------------------------------------------------------------
# hand-built span trees: the walk's mechanics
# ----------------------------------------------------------------------
class TestWalk:
    def test_single_root_is_all_self_time(self):
        rec = _recorder()
        rec.add("pvfs.read", "client", "c0", 0.0, 2.0, trace_id=1)
        report = critical_path(rec)
        assert report.total == 2.0
        assert report.seconds["client_cpu"] == 2.0
        assert sum(report.shares().values()) == pytest.approx(1.0, abs=TOL)

    def test_child_carves_parent_self_time(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "rpc", "client", "c0", 2.0, 7.0, trace_id=1, parent=root
        )
        report = critical_path(rec)
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.total == 10.0

    def test_backward_walk_picks_latest_determining_child(self):
        # the later-ending child owns the path back to its start; the
        # earlier child overlaps the already-attributed chain (its end
        # is after the cursor) so it is skipped, not double-counted
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add("rpc", "client", "c0", 0.0, 6.0, trace_id=1, parent=root)
        rec.add("rpc", "client", "c0", 4.0, 9.0, trace_id=1, parent=root)
        report = critical_path(rec)
        # [9,10] root self, [4,9] child2, [0,4] root self again
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.total == 10.0

    def test_segments_partition_the_root_interval(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 8.0, trace_id=1)
        mid = rec.add(
            "rpc", "client", "c0", 1.0, 7.0, trace_id=1, parent=root
        )
        rec.add(
            "server.request", "server", "iod0", 2.0, 6.0,
            trace_id=1, parent=mid,
        )
        report = critical_path(rec)
        segs = report.trace_segments(1)
        assert segs[0].start == 0.0
        assert segs[-1].end == 8.0
        for a, b in zip(segs[:-1], segs[1:]):
            assert a.end == pytest.approx(b.start, abs=TOL)

    def test_queue_wait_synthesized_from_attrs(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "server.request", "server", "iod0", 4.0, 9.0,
            trace_id=1, parent=root, queue_wait=3.0,
        )
        report = critical_path(rec)
        assert report.seconds["queue_wait"] == pytest.approx(3.0, abs=TOL)
        assert report.seconds["server_wait"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["client_cpu"] == pytest.approx(2.0, abs=TOL)

    def test_net_xfer_splits_queue_from_wire(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        rec.add(
            "net.xfer", "net", "net", 0.0, 10.0,
            trace_id=1, parent=root, nbytes=50, src="cn0", dst="ios1",
        )
        report = critical_path(rec, nic_bandwidth=10.0)
        # wire time = 50/10 = 5 s, the tail of the span
        assert report.seconds["net_wire"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["net_queue"] == pytest.approx(5.0, abs=TOL)

    def test_fault_stall_carved_out_of_storage(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 10.0, trace_id=1)
        req = rec.add(
            "server.request", "server", "iod0", 0.0, 10.0,
            trace_id=1, parent=root,
        )
        rec.add(
            "server.storage", "server", "iod0", 2.0, 9.0,
            trace_id=1, parent=req,
        )
        # recorded as a sibling of storage (both parent = request), but
        # contained in the storage interval → re-parented underneath
        rec.add(
            "fault.disk.stall", "fault", "iod0", 6.0, 9.0,
            trace_id=1, parent=req,
        )
        report = critical_path(rec)
        assert report.seconds["fault_stall"] == pytest.approx(3.0, abs=TOL)
        assert report.seconds["disk"] == pytest.approx(4.0, abs=TOL)

    def test_out_of_range_child_is_ignored(self):
        rec = _recorder()
        root = rec.add("pvfs.read", "client", "c0", 0.0, 5.0, trace_id=1)
        # ends before the root starts: off the critical path entirely
        rec.add(
            "rpc", "client", "c0", -2.0, -1.0, trace_id=1, parent=root
        )
        report = critical_path(rec)
        assert report.total == 5.0
        assert report.seconds["client_cpu"] == pytest.approx(5.0, abs=TOL)
        assert report.seconds["rpc_wait"] == 0.0

    def test_conservation_violation_raises(self):
        rec = _recorder()
        # a negative-duration root cannot be partitioned: the walk
        # emits nothing but the trace total is negative
        rec.add("pvfs.read", "client", "c0", 5.0, 0.0, trace_id=1)
        with pytest.raises(ValueError, match="residual"):
            critical_path(rec)

    def test_open_spans_are_skipped(self):
        rec = _recorder()
        rec.begin("pvfs.read", "client", "c0", trace_id=1)
        rec.add("pvfs.write", "client", "c0", 0.0, 1.0, trace_id=2)
        report = critical_path(rec)
        assert report.traces == 1
        assert report.total == 1.0

    def test_classify_covers_taxonomy(self):
        assert classify_span("mpiio.read") == "client_cpu"
        assert classify_span("pvfs.write") == "client_cpu"
        assert classify_span("rpc") == "rpc_wait"
        assert classify_span("server.storage") == "disk"
        assert classify_span("server.scatter") == "respond"
        assert classify_span("fault.disk.slow") == "fault_stall"
        assert classify_span("mystery") == "other"
        for r in ("client_cpu", "disk", "fault_stall", "other"):
            assert r in RESOURCE_ORDER


# ----------------------------------------------------------------------
# real traced runs: conservation + reconciliation per cell
# ----------------------------------------------------------------------
#: (workload, method, server threads, strip size or None for the
#: default).  At the default 64 KiB strip every reduced file sits in
#: iod0's first strip, and iod0 is the metadata host, whose NIC is only
#: checked loosely; the 4 KiB rows spread the I/O over other servers,
#: so the exact per-node NIC reconciliation runs.
MATRIX = [
    ("tile", "list_io", 1, None),
    ("tile", "datatype_io", 4, None),
    ("block3d-read", "datatype_io", 1, None),
    ("block3d-read", "two_phase", 4, None),
    ("block3d-read", "collective_dtype", 1, None),
    ("flash", "collective_dtype", 4, None),
    ("tile", "posix", 1, 4096),
    ("tile", "datatype_io", 1, 4096),
    ("block3d-read", "data_sieving", 4, 4096),
    ("block3d-read", "two_phase", 1, 4096),
    ("flash", "collective_dtype", 1, 4096),
]


class TestRealRuns:
    @pytest.mark.parametrize(
        "workload,method,threads,strip",
        MATRIX,
        ids=["-".join(str(v) for v in row if v) for row in MATRIX],
    )
    def test_blame_reconciles(self, workload, method, threads, strip):
        strip_kw = {"strip_size": strip} if strip else {}
        result, cfg = _traced(
            workload, method, server_threads=threads, **strip_kw
        )
        assert _reconcile(result) == []
        if strip:
            meta = result.fs.metadata.mailbox.node.name
            exact = [
                node for node in result.network.nodes
                if node.name.startswith("ios") and node.name != meta
                and node.bytes_sent + node.bytes_received
            ]
            assert exact, "no I/O server is reconciled exactly"
        report = critical_path(
            result.tracer, nic_bandwidth=CostModel().nic_bandwidth, config=cfg
        )
        assert sum(report.shares().values()) == pytest.approx(1.0, abs=TOL)
        assert max(report.residuals.values()) <= TOL

    def test_faulted_run_reconciles_and_attributes_stalls(self):
        result, cfg = _traced(
            "block3d-read", "datatype_io", faults=severity_config("heavy")
        )
        assert _reconcile(result) == []
        report = critical_path(
            result.tracer, nic_bandwidth=CostModel().nic_bandwidth, config=cfg
        )
        assert result.faults is not None and result.faults.armed
        assert report.seconds["fault_stall"] > 0

    def test_tenanted_run_reconciles(self):
        """Two equal-weight tenants, ranks dealt round-robin: weighted-fair
        admission reorders requests, and the books still agree."""
        tenants = (TenantConfig(name="t0"), TenantConfig(name="t1"))
        cfg = PVFSConfig(trace=True, strip_size=4096, tenants=tenants)
        result = run(Spec(reduced("tile"), "datatype_io", config=cfg))
        assert _reconcile(result) == []

    def test_attribution_does_not_mutate_the_recorder(self):
        result, cfg = _traced("tile", "datatype_io")
        rec = result.tracer
        before = [
            (s.name, s.start, s.end, s.parent_id, dict(s.attrs))
            for s in rec.spans
        ]
        costs = CostModel()
        first = critical_path(rec, nic_bandwidth=costs.nic_bandwidth)
        second = critical_path(rec, nic_bandwidth=costs.nic_bandwidth)
        after = [
            (s.name, s.start, s.end, s.parent_id, dict(s.attrs))
            for s in rec.spans
        ]
        assert before == after
        assert first.seconds == second.seconds
        assert first.total == second.total

    def test_reconcile_catches_a_cooked_stage(self):
        result, _cfg = _traced("tile", "datatype_io")

        class Cooked:
            decode = result.pipeline.total.decode + 1.0
            plan = result.pipeline.total.plan
            cache = result.pipeline.total.cache
            storage = result.pipeline.total.storage
            respond = result.pipeline.total.respond

        problems = reconcile_blame(result.tracer, Cooked())
        assert any("decode" in p for p in problems)
