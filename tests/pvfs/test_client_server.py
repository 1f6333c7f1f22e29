"""End-to-end PVFS operations over the simulated cluster."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.datatypes import INT, subarray, vector
from repro.dataloops import build_dataloop
from repro.pvfs import PVFS
from repro.pvfs.errors import PVFSError
from repro.pvfs.protocol import OP_CONTIG
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists, write_read_per_piece


def run_client(fs, fn):
    """Drive a single-client coroutine to completion."""
    p = fs.env.process(fn(fs.client("cl0")))
    return fs.env.run(p)


def make_fs(**kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64)
    defaults.update(kw)
    return PVFS(env, **defaults)


class TestMetadata:
    def test_open_creates(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/a")
            assert fh.handle >= 1000
            assert fh.dist.n_servers == 4
            return fh.path

        assert run_client(fs, main) == "/a"

    def test_open_existing_same_handle(self):
        fs = make_fs()

        def main(c):
            fh1 = yield from c.open("/a")
            fh2 = yield from c.open("/a")
            return fh1.handle, fh2.handle

        h1, h2 = run_client(fs, main)
        assert h1 == h2

    def test_open_nocreate_missing_raises(self):
        fs = make_fs()

        def main(c):
            yield from c.open("/missing", create=False)

        with pytest.raises(PVFSError):
            run_client(fs, main)

    def test_stat_after_write(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 100, np.ones(50, np.uint8))
            return (yield from c.stat(fh))

        assert run_client(fs, main) == 150

    def test_unlink(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, np.ones(10, np.uint8))
            yield from c.unlink("/f")
            fh2 = yield from c.open("/f")
            return (yield from c.stat(fh2))

        assert run_client(fs, main) == 0

    def test_unlink_missing_raises(self):
        fs = make_fs()

        def main(c):
            yield from c.unlink("/nope")

        with pytest.raises(PVFSError):
            run_client(fs, main)


class TestContiguous:
    def test_roundtrip(self, rng):
        fs = make_fs()
        data = rng.integers(0, 255, 1000, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 7, data)
            return (yield from c.read(fh, 7, 1000))

        assert np.array_equal(run_client(fs, main), data)

    def test_read_hole_zeros(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 100, np.full(10, 5, np.uint8))
            return (yield from c.read(fh, 0, 120))

        out = run_client(fs, main)
        assert out[:100].sum() == 0
        assert (out[100:110] == 5).all()

    def test_phantom_write_tracks_size(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, nbytes=500)
            return (yield from c.stat(fh))

        assert run_client(fs, main) == 500

    def test_phantom_read(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, nbytes=100)
            return (yield from c.read(fh, 0, 100, phantom=True))

        assert run_client(fs, main) is None

    def test_counters(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write(fh, 0, np.zeros(200, np.uint8))
            yield from c.read(fh, 0, 200)
            return c.counters

        counters = run_client(fs, main)
        assert counters.io_ops == 2
        assert counters.bytes_written == 200
        assert counters.bytes_read == 200


class TestListIO:
    def test_roundtrip_scattered(self, rng):
        fs = make_fs()
        ops = [
            Regions.from_pairs([(i * 13, 5) for i in range(10)]),
            Regions.from_pairs([(500 + i * 9, 4) for i in range(8)]),
        ]
        bounds = np.cumsum([0] + [o.total_bytes for o in ops])
        pieces = Regions.concat(ops)
        data = rng.integers(0, 255, pieces.total_bytes, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_list(fh, pieces, data, bounds=bounds)
            return (yield from c.read_list(fh, pieces, bounds=bounds))

        assert np.array_equal(run_client(fs, main), data)

    def test_region_bound_enforced(self):
        fs = make_fs(list_io_max_regions=4)
        pieces = Regions.from_pairs([(i * 10, 2) for i in range(5)])

        def main(c):
            fh = yield from c.open("/f")
            yield from c.read_list(fh, pieces)

        with pytest.raises(PVFSError, match="request bound"):
            run_client(fs, main)

    def test_op_counting(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            pieces = Regions.from_pairs([(i * 100, 10) for i in range(7)])
            bounds = np.arange(0, 80, 10)
            yield from c.write_list(fh, pieces, np.zeros(70, np.uint8), bounds=bounds)
            return c.counters.io_ops

        assert run_client(fs, main) == 7

    def test_pairs_shipped_counted(self):
        fs = make_fs()

        def main(c):
            fh = yield from c.open("/f")
            pieces = Regions.from_pairs([(0, 4), (10, 4), (20, 4)])
            yield from c.read_list(fh, pieces, phantom=True)
            return c.counters.regions_shipped

        # 3 logical pairs (possibly split at strip boundaries)
        assert run_client(fs, main) >= 3


class TestDatatypeIO:
    def test_roundtrip_vector(self, rng):
        fs = make_fs()
        t = vector(20, 3, 7, INT)
        loop = build_dataloop(t)
        data = rng.integers(0, 255, t.size, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_dtype(fh, loop, displacement=33, data=data)
            return (yield from c.read_dtype(fh, loop, displacement=33))

        assert np.array_equal(run_client(fs, main), data)

    def test_window_read(self, rng):
        fs = make_fs()
        t = subarray([16, 16], [8, 8], [4, 4], INT)
        loop = build_dataloop(t)
        data = rng.integers(0, 255, t.size, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_dtype(fh, loop, data=data)
            part = yield from c.read_dtype(fh, loop, first=40, last=200)
            return part

        assert np.array_equal(run_client(fs, main), data[40:200])

    def test_tiled_window_spans_instances(self, rng):
        fs = make_fs()
        t = vector(3, 1, 2, INT)
        loop = build_dataloop(t)
        data = rng.integers(0, 255, 3 * t.size, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_dtype(fh, loop, last=3 * t.size, data=data)
            return (
                yield from c.read_dtype(
                    fh, loop, first=t.size - 2, last=2 * t.size + 2
                )
            )

        out = run_client(fs, main)
        assert np.array_equal(out, data[t.size - 2 : 2 * t.size + 2])

    def test_single_op_counted(self):
        fs = make_fs()
        t = vector(50, 1, 3, INT)
        loop = build_dataloop(t)

        def main(c):
            fh = yield from c.open("/f")
            yield from c.write_dtype(fh, loop, data=None)
            return c.counters.io_ops

        assert run_client(fs, main) == 1

    def test_direct_dataloop_same_results(self, rng):
        t = subarray([12, 12], [5, 5], [3, 3], INT)
        loop = build_dataloop(t)
        data = rng.integers(0, 255, t.size, dtype=np.uint8)
        results = {}
        for direct in (False, True):
            fs = make_fs(direct_dataloop=direct)

            def main(c):
                fh = yield from c.open("/f")
                yield from c.write_dtype(fh, loop, data=data)
                return (yield from c.read_dtype(fh, loop))

            results[direct] = run_client(fs, main)
        assert np.array_equal(results[False], results[True])
        assert np.array_equal(results[False], data)

    def test_direct_dataloop_is_faster(self):
        t = subarray([64, 64], [32, 32], [16, 16], INT)
        loop = build_dataloop(t)
        times = {}
        for direct in (False, True):
            fs = make_fs(direct_dataloop=direct, strip_size=256)

            def main(c):
                fh = yield from c.open("/f")
                yield from c.read_dtype(fh, loop, phantom=True)

            run_client(fs, main)
            times[direct] = fs.env.now
        assert times[True] < times[False]


class TestBatchingEquivalence:
    """Batching collapses timing, never results: a POSIX sequence stores
    and reads back what one ``write``/``read`` call per piece does."""

    @given(sorted_region_lists(max_regions=12))
    @settings(max_examples=25, deadline=None)
    def test_posix_sequence_equivalence(self, pairs):
        r = Regions.from_pairs(pairs)
        if not r.count:
            return
        rng = np.random.default_rng(3)
        data = rng.integers(0, 255, r.total_bytes, dtype=np.uint8)
        seen = {}
        for batched in (False, True):
            fs = make_fs(strip_size=16)

            def main(c):
                fh = yield from c.open("/f")
                if batched:
                    yield from c.write_sequence(fh, r, OP_CONTIG, data)
                    out = yield from c.read_sequence(fh, r, OP_CONTIG)
                else:
                    out = yield from write_read_per_piece(c, fh, r, True, data)
                return fh.handle, out, c.counters

            handle, out, counters = run_client(fs, main)
            assert counters.io_ops == 2 * r.count
            stored = [
                s.store.read_regions(
                    handle, Regions.single(0, s.store.local_size(handle))
                ).tobytes()
                for s in fs.servers
            ]
            seen[batched] = (
                out.tobytes(),
                stored,
                [(s.ops, s.bytes_read, s.bytes_written) for s in fs.servers],
                (counters.io_ops, counters.bytes_read, counters.bytes_written),
            )
        assert seen[False] == seen[True]
        assert seen[True][0] == data.tobytes()


class TestServerRobustness:
    def test_bad_handle_dtype_request_reports_error(self):
        """A datatype request for an unknown handle must not kill the
        daemon; the client gets a PVFSError and the server keeps
        serving."""
        from repro.datatypes import INT, vector
        from repro.dataloops import build_dataloop
        from repro.pvfs.client import FileHandle
        from repro.pvfs.distribution import Distribution

        fs = make_fs()
        loop = build_dataloop(vector(4, 1, 2, INT))

        def main(c):
            bogus = FileHandle(
                handle=999_999, path="/bogus", dist=Distribution(4, 64)
            )
            try:
                yield from c.read_dtype(bogus, loop, phantom=True)
                raise AssertionError("expected PVFSError")
            except PVFSError:
                pass
            # the daemon survived: a normal operation still works
            fh = yield from c.open("/ok")
            yield from c.write(fh, 0, np.ones(10, np.uint8))
            return (yield from c.read(fh, 0, 10))

        out = run_client(fs, main)
        assert (out == 1).all()
