"""Staged server pipeline: registry dispatch, paper-mode identity,
multi-threaded scheduling, admission control, and error containment."""

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import Block3DWorkload, TileWorkload
from repro.dataloops import build_dataloop
from repro.datatypes import BYTE, contiguous
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.errors import ProtocolError, PVFSError
from repro.pvfs.pipeline import (
    HANDLER_REGISTRY,
    ContiguousHandler,
    DatatypeHandler,
    DirectDataloopHandler,
    ListIOHandler,
    RequestHandler,
    register_handler,
    resolve_handler,
)
from repro.pvfs.protocol import (
    OP_COLL,
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    CollOp,
    CollPart,
    IORequest,
)
from repro.simulation import Environment

from ..conftest import SCHEDULERS


def make_fs(**kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64)
    defaults.update(kw)
    return PVFS(env, **defaults)


def run_client(fs, fn):
    p = fs.env.process(fn(fs.client("cl0")))
    return fs.env.run(p)


# ----------------------------------------------------------------------
# handler registry
# ----------------------------------------------------------------------
class TestHandlerRegistry:
    def test_kinds_resolve_to_their_handlers(self):
        cfg = PVFSConfig()
        assert isinstance(resolve_handler(OP_CONTIG, cfg), ContiguousHandler)
        assert isinstance(resolve_handler(OP_LIST, cfg), ListIOHandler)
        h = resolve_handler(OP_DTYPE, cfg)
        assert isinstance(h, DatatypeHandler)
        assert not isinstance(h, DirectDataloopHandler)

    def test_direct_dataloop_selects_streaming_variant(self):
        cfg = PVFSConfig(direct_dataloop=True)
        assert isinstance(
            resolve_handler(OP_DTYPE, cfg), DirectDataloopHandler
        )

    def test_unknown_kind_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="no handler"):
            resolve_handler("bogus", PVFSConfig())

    def test_custom_handler_plugs_in(self):
        class NullHandler(RequestHandler):
            registry_key = "null"

        try:
            register_handler(NullHandler)
            assert isinstance(
                resolve_handler("null", PVFSConfig()), NullHandler
            )
            # handlers are stateless singletons
            assert resolve_handler("null", PVFSConfig()) is resolve_handler(
                "null", PVFSConfig()
            )
        finally:
            del HANDLER_REGISTRY["null"]

    def test_handlers_are_singletons_per_class(self):
        a = resolve_handler(OP_CONTIG, PVFSConfig())
        b = resolve_handler(OP_CONTIG, PVFSConfig())
        assert a is b
        assert a is not resolve_handler(OP_LIST, PVFSConfig())


# ----------------------------------------------------------------------
# paper-mode identity: the refactor must be observationally identical
# ----------------------------------------------------------------------
#: (workload, method) -> (elapsed seed seconds, seed server counters),
#: captured from the pre-pipeline implementation at commit a9153f4.
SEED_BASELINE = {
    ("tile", "posix"): (
        1.07289649,
        dict(requests=12, ops=288, accesses_built=288, regions_scanned=0,
             bytes_read=27648, bytes_written=0, disk_seeks=288),
    ),
    ("tile", "list_io"): (
        0.054101049999999984,
        dict(requests=12, ops=12, accesses_built=288, regions_scanned=0,
             bytes_read=27648, bytes_written=0, disk_seeks=288),
    ),
    ("tile", "datatype_io"): (
        0.05422901000000002,
        dict(requests=12, ops=12, accesses_built=288, regions_scanned=288,
             bytes_read=27648, bytes_written=0, disk_seeks=287),
    ),
    ("block3d", "posix"): (
        4.399173729999999,
        dict(requests=8, ops=1152, accesses_built=1152, regions_scanned=0,
             bytes_read=55296, bytes_written=0, disk_seeks=1151),
    ),
    ("block3d", "list_io"): (
        0.12751573000000002,
        dict(requests=8, ops=24, accesses_built=1152, regions_scanned=0,
             bytes_read=55296, bytes_written=0, disk_seeks=1151),
    ),
    ("block3d", "datatype_io"): (
        0.06720480999999999,
        dict(requests=8, ops=8, accesses_built=1152, regions_scanned=1152,
             bytes_read=55296, bytes_written=0, disk_seeks=1150),
    ),
}


def _workload(name):
    if name == "tile":
        return TileWorkload.reduced(frames=2)
    return Block3DWorkload.reduced(2, is_write=False)


class TestPaperModeIdentity:
    """``server_threads=1`` (default) must reproduce the seed exactly."""

    @pytest.mark.parametrize("key", sorted(SEED_BASELINE))
    def test_seed_counters_and_times_exact(self, key):
        name, method = key
        elapsed, counters = SEED_BASELINE[key]
        r = run_workload(_workload(name), method, phantom=True)
        assert r.elapsed == elapsed, (
            f"{name}/{method}: simulated time drifted from the seed"
        )
        for field, want in counters.items():
            assert r.server_stats[field] == want, (name, method, field)

    def test_direct_dataloop_seed_time_exact(self):
        r = run_workload(
            TileWorkload.reduced(frames=2),
            "datatype_io",
            phantom=True,
            config=PVFSConfig(direct_dataloop=True),
        )
        assert r.elapsed == 0.04699841000000003

    def test_stage_times_recorded_without_perturbing_clock(self):
        r = run_workload(
            _workload("tile"), "datatype_io", phantom=True
        )
        total = r.pipeline.total
        assert total.requests == r.server_stats["requests"]
        assert total.decode > 0
        assert total.plan > 0
        assert total.storage > 0
        assert total.rejected == 0  # no admission control in paper mode


# ----------------------------------------------------------------------
# multi-threaded scheduler
# ----------------------------------------------------------------------
class TestThreadedScheduler:
    def test_threads4_beats_threads1_on_64_client_block_read(self):
        """The acceptance benchmark: 64-client 3-D block read, bounded
        queue, server_threads=4 strictly faster than 1."""
        wl = Block3DWorkload.reduced(4, is_write=False)  # 4³ = 64 clients
        assert wl.n_clients == 64
        bw = {}
        stages = {}
        for threads in (1, 4):
            cfg = PVFSConfig(server_threads=threads, server_queue_depth=64)
            r = run_workload(wl, "datatype_io", phantom=True, config=cfg)
            bw[threads] = r.bandwidth_mbps
            stages[threads] = r.pipeline.total
        assert bw[4] > bw[1], (
            f"expected concurrency win, got {bw[4]:.3f} <= {bw[1]:.3f} MiB/s"
        )
        # per-stage stats are reported in both modes
        for threads, st in stages.items():
            assert st.requests > 0, threads
            assert st.decode > 0 and st.plan > 0 and st.storage > 0, threads

    def test_threaded_roundtrip_matches_data(self, rng):
        fs = make_fs(server_threads=3)
        data = rng.integers(0, 255, 1000, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 7, data)
            return (yield from c.read(fh, 7, 1000))

        assert np.array_equal(run_client(fs, main), data)

    def test_bounded_queue_rejects_and_clients_retry(self, rng):
        """Overload a tiny admission queue: rejections must occur, every
        client must retry through them, and no byte may be lost."""
        fs = make_fs(
            n_servers=2, server_threads=2, server_queue_depth=2
        )
        env = fs.env
        n = 8
        datas = [
            rng.integers(0, 255, 300, dtype=np.uint8) for _ in range(n)
        ]

        def worker(c, i):
            fh = yield from c.open("/f")
            yield from c.write(fh, i * 300, datas[i])
            out = yield from c.read(fh, i * 300, 300)
            assert np.array_equal(out, datas[i]), i
            return fh.handle

        procs = [
            env.process(worker(fs.client(f"c{i}"), i)) for i in range(n)
        ]
        env.run(env.all_of(procs))
        summary = fs.pipeline_summary()
        retries = sum(c.counters.retries for c in fs.clients)
        assert summary.total.rejected > 0
        assert retries == summary.total.rejected
        assert summary.total.peak_queue <= 2
        # all bytes landed despite the backpressure
        whole = fs.read_back(procs[0].value, 0, n * 300)
        for i in range(n):
            assert np.array_equal(
                whole[i * 300 : (i + 1) * 300], datas[i]
            ), i

    def test_queue_depth_must_cover_threads(self):
        with pytest.raises(ValueError, match="server_queue_depth"):
            PVFSConfig(server_threads=8, server_queue_depth=4)

    def test_server_threads_validation(self):
        with pytest.raises(ValueError, match="server_threads"):
            PVFSConfig(server_threads=0)

    def test_dataloop_batch_regions_validation(self):
        # unchecked, a zero bound only fails later, inside a daemon's
        # DataloopStream ("max_regions must be positive")
        with pytest.raises(ValueError, match="dataloop_batch_regions"):
            PVFSConfig(dataloop_batch_regions=0)
        assert PVFSConfig(dataloop_batch_regions=1).dataloop_batch_regions == 1


# ----------------------------------------------------------------------
# error containment
# ----------------------------------------------------------------------
def assert_server_clean(fs):
    """Nothing of a failed request stays behind on any daemon."""
    for server in fs.servers:
        sched = server.scheduler
        assert sched.inflight == 0
        assert server.queue_depth() == 0
        for pool in ("threads", "disk_arm"):
            if hasattr(sched, pool):
                assert getattr(sched, pool).in_use == 0, pool
        assert not server.coll._rounds  # no parked / half-filled round
    assert not fs.tracer.open_spans()


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
class TestMalformedRequests:
    """A request the daemon cannot serve becomes an error response —
    whichever stage finds out, on whichever scheduler — and the daemon
    keeps serving."""

    def _probe(self, scheduler, build_req):
        """Send a hand-crafted request, expect an error response, then
        prove the daemon still serves normal traffic."""
        fs = make_fs(trace=True, **SCHEDULERS[scheduler])

        def main(c):
            fh = yield from c.open("/alive")
            req = build_req(c, fh.handle)
            req.trace_id = fs.tracer.new_trace()
            yield from c._send_io(req)
            resp = yield from c._await_response(req.req_id)
            assert resp.error is not None
            # the daemon survived: a normal operation still works
            yield from c.write(fh, 0, np.arange(16, dtype=np.uint8))
            out = yield from c.read(fh, 0, 16)
            return resp.error, out

        error, out = run_client(fs, main)
        assert np.array_equal(out, np.arange(16, dtype=np.uint8))
        assert_server_clean(fs)
        errors = [
            s.attrs["error"]
            for s in fs.tracer.spans
            if s.name == "server.request" and "error" in s.attrs
        ]
        return error, errors

    @staticmethod
    def _request(c, handle, **kw):
        return IORequest(
            handle=handle,
            req_id=c._req_id(),
            reply_to=c.mailbox,
            client=c.name,
            server=0,
            **kw,
        )

    def test_contig_request_without_regions(self, scheduler):
        error, errors = self._probe(
            scheduler,
            lambda c, handle: self._request(
                c, handle, is_write=False, op_kind=OP_CONTIG, regions=None
            ),
        )
        assert "ProtocolError" in error
        assert "region" in error
        assert errors == [error]

    def test_dtype_request_without_window(self, scheduler):
        error, errors = self._probe(
            scheduler,
            lambda c, handle: self._request(
                c,
                handle,
                is_write=False,
                op_kind=OP_DTYPE,
                window=None,
                cached_dtype=True,  # descriptor size w/o a window
            ),
        )
        assert "ProtocolError" in error and "window" in error
        assert errors == [error]

    def test_unknown_op_kind(self, scheduler):
        error, errors = self._probe(
            scheduler,
            lambda c, handle: self._request(
                c, handle, is_write=False, op_kind="gibberish"
            ),
        )
        assert "ProtocolError" in error
        assert errors == [error]

    @pytest.mark.parametrize(
        "fault,expect",
        [
            ("handle", "KeyError"),  # no such file
            ("view", "IndexError"),  # view index outside coll.views
        ],
    )
    def test_collective_write_failing_before_its_data(
        self, scheduler, fault, expect
    ):
        """The round is parked and pre-planned while its segments are
        still in flight, so the failure surfaces outside any
        ``server.request``: it must still be answered, and the round
        must not stay parked."""

        def build(c, handle):
            part = CollPart(
                client=c.name,
                reply_to=c.mailbox,
                view=7 if fault == "view" else 0,
                displacement=0,
                first=0,
                last=64,
                nbytes=64,
            )
            coll = CollOp(
                coll_id=(1, 0, True),
                round_no=0,
                rounds=1,
                views=(build_dataloop(contiguous(64, BYTE)),),
                parts=(part,),
            )
            return self._request(
                c,
                handle + 98 if fault == "handle" else handle,
                is_write=True,
                op_kind=OP_COLL,
                coll=coll,
                payload_nbytes=64,
            )

        error, errors = self._probe(scheduler, build)
        assert expect in error
        assert errors == []  # it never became a server.request

    def test_client_surface_is_pvfs_error(self, scheduler):
        """Through the normal client path a server error surfaces as
        PVFSError (daemon alive, clock still advancing)."""
        fs = make_fs(**SCHEDULERS[scheduler])

        def main(c):
            req = self._request(
                c, 1, is_write=False, op_kind=OP_LIST, regions=None
            )
            responses = yield from c._io_round([(req, None, None)])
            return responses

        with pytest.raises(PVFSError, match="ProtocolError"):
            run_client(fs, main)
        assert_server_clean(fs)
