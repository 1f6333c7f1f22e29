"""Metadata server details and protocol wire-size accounting."""

import numpy as np
import pytest

from repro.datatypes import INT, vector
from repro.dataloops import build_dataloop, wire_size
from repro.pvfs import PVFS
from repro.pvfs.protocol import (
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    DataloopWindow,
    IORequest,
    MetaRequest,
)
from repro.regions import Regions
from repro.simulation import CostModel, Environment


def make_fs(**kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64)
    defaults.update(kw)
    return PVFS(env, **defaults)


class TestMetadataServer:
    def test_create_now_is_idempotent(self):
        fs = make_fs()
        a = fs.metadata.create_now("/x")
        b = fs.metadata.create_now("/x")
        assert a is b

    def test_lookup(self):
        fs = make_fs()
        meta = fs.metadata.create_now("/x")
        assert fs.metadata.lookup(meta.handle) is meta
        with pytest.raises(KeyError):
            fs.metadata.lookup(999999)

    def test_handles_unique(self):
        fs = make_fs()
        handles = {fs.metadata.create_now(f"/f{i}").handle for i in range(10)}
        assert len(handles) == 10

    def test_stat_queries_servers_over_wire(self):
        fs = make_fs()
        env = fs.env
        msgs_before = fs.net.message_count

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, np.ones(100, np.uint8))
            yield from c.stat(fh)
            return True

        p = env.process(main(fs.client("c")))
        env.run(p)
        # stat alone exchanges 2 messages with each of 4 servers
        assert fs.net.message_count - msgs_before >= 8

    def test_concurrent_meta_ops_during_stat(self):
        """Meta requests arriving mid-stat are backlogged, not lost."""
        fs = make_fs()
        env = fs.env
        results = {}

        def stat_client(c):
            fh = yield from c.open("/big")
            yield from c.write(fh, 0, nbytes=1000)
            results["size"] = yield from c.stat(fh)

        def open_client(c):
            # fire opens while the stat's server queries are in flight
            for i in range(3):
                fh = yield from c.open(f"/other{i}")
                results[f"open{i}"] = fh.handle

        p1 = env.process(stat_client(fs.client("a")))
        p2 = env.process(open_client(fs.client("b")))
        env.run(env.all_of([p1, p2]))
        assert results["size"] == 1000
        assert all(f"open{i}" in results for i in range(3))

    def test_unlink_frees_server_storage(self):
        fs = make_fs()
        env = fs.env

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, np.ones(500, np.uint8))
            yield from c.unlink("/f")
            return fh.handle

        handle = env.run(env.process(main(fs.client("c"))))
        assert all(s.store.local_size(handle) == 0 for s in fs.servers)

    def test_logical_size_direct(self):
        fs = make_fs()
        meta = fs.metadata.create_now("/f")
        fs.write_direct(meta.handle, 1000, np.ones(24, np.uint8))
        assert fs.logical_size(meta.handle) == 1024
        assert fs.logical_size(424242) == 0


class TestProtocolWireSizes:
    def setup_method(self):
        self.costs = CostModel()

    def test_contig_request_small(self):
        req = IORequest(
            handle=1,
            is_write=False,
            op_kind=OP_CONTIG,
            regions=Regions.single(0, 100),
        )
        assert req.descriptor_bytes(self.costs) == self.costs.header_bytes + 16

    def test_list_request_scales_with_pairs(self):
        req = IORequest(
            handle=1,
            is_write=False,
            op_kind=OP_LIST,
            regions=Regions.from_pairs([(i * 10, 4) for i in range(64)]),
            listio_pairs=64,
        )
        assert (
            req.descriptor_bytes(self.costs)
            == self.costs.header_bytes + 64 * self.costs.listio_pair_bytes
        )

    def test_dtype_request_is_dataloop_size(self):
        loop = build_dataloop(vector(1000, 1, 2, INT))
        win = DataloopWindow(loop, 0, 0, loop.data_size)
        req = IORequest(
            handle=1, is_write=False, op_kind=OP_DTYPE, window=win
        )
        assert (
            req.descriptor_bytes(self.costs)
            == self.costs.header_bytes + wire_size(loop) + 24
        )

    def test_write_payload_counted_on_wire(self):
        req = IORequest(
            handle=1,
            is_write=True,
            op_kind=OP_CONTIG,
            regions=Regions.single(0, 100),
            payload_nbytes=100,
        )
        assert (
            req.wire_bytes(self.costs)
            == req.descriptor_bytes(self.costs) + 100
        )

    def test_batched_request_charges_per_op_headers(self):
        req = IORequest(
            handle=1,
            is_write=False,
            op_kind=OP_CONTIG,
            regions=Regions.single(0, 100),
            op_count=5,
        )
        assert req.descriptor_bytes(self.costs) == 5 * (
            self.costs.header_bytes + 16
        )

    def test_window_helpers(self):
        loop = build_dataloop(vector(4, 1, 2, INT))
        win = DataloopWindow(loop, 100, 3, 13)
        assert win.stream_bytes == 10
        assert win.tile_count() == 1
        win2 = DataloopWindow(loop, 0, 0, 3 * loop.data_size)
        assert win2.tile_count() == 3

    def test_meta_request_wire(self):
        req = MetaRequest("open", path="/some/path")
        assert req.wire_bytes(64) == 64 + len("/some/path")

