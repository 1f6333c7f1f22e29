"""Concurrent clients, multiple files, and edge semantics."""

import numpy as np
from repro.pvfs import PVFS
from repro.pvfs.protocol import OP_CONTIG
from repro.regions import Regions
from repro.simulation import Environment


def make_fs(**kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64)
    defaults.update(kw)
    return PVFS(env, **defaults)


class TestConcurrentClients:
    def test_disjoint_writers_no_corruption(self, rng):
        """Many clients writing disjoint stripes concurrently."""
        fs = make_fs()
        env = fs.env
        n = 6
        chunk = 500
        datas = [
            rng.integers(0, 255, chunk, dtype=np.uint8) for _ in range(n)
        ]

        def writer(c, i):
            fh = yield from c.open("/shared")
            yield from c.write(fh, i * chunk, datas[i])
            return fh.handle

        procs = [
            env.process(writer(fs.client(f"n{i}"), i)) for i in range(n)
        ]
        env.run(env.all_of(procs))
        handle = procs[0].value
        whole = fs.read_back(handle, 0, n * chunk)
        for i in range(n):
            assert np.array_equal(
                whole[i * chunk : (i + 1) * chunk], datas[i]
            ), i

    def test_interleaved_strided_writers(self, rng):
        """Clients writing interleaved 8-byte pieces (FLASH-like)."""
        fs = make_fs(strip_size=32)
        env = fs.env
        n = 4
        pieces = 50
        datas = [
            rng.integers(0, 255, 8 * pieces, dtype=np.uint8)
            for _ in range(n)
        ]

        def writer(c, i):
            fh = yield from c.open("/interleave")
            regions = Regions.from_pairs(
                [(8 * (k * n + i), 8) for k in range(pieces)]
            )
            yield from c.write_sequence(fh, regions, OP_CONTIG, datas[i])
            return fh.handle

        procs = [
            env.process(writer(fs.client(f"m{i}"), i)) for i in range(n)
        ]
        env.run(env.all_of(procs))
        handle = procs[0].value
        whole = fs.read_back(handle, 0, 8 * pieces * n)
        for i in range(n):
            got = np.concatenate(
                [
                    whole[8 * (k * n + i) : 8 * (k * n + i) + 8]
                    for k in range(pieces)
                ]
            )
            assert np.array_equal(got, datas[i]), i

    def test_reader_sees_completed_writes(self, rng):
        """A read issued after a write completes returns the new data."""
        fs = make_fs()
        env = fs.env
        data = rng.integers(0, 255, 300, dtype=np.uint8)

        def writer(c):
            fh = yield from c.open("/wr")
            yield from c.write(fh, 0, data)
            return env.now

        def reader(c, after):
            fh = yield from c.open("/wr")
            yield after  # wait for the writer
            out = yield from c.read(fh, 0, 300)
            return out

        wp = env.process(writer(fs.client("w")))
        rp = env.process(reader(fs.client("r"), wp))
        env.run(env.all_of([wp, rp]))
        assert np.array_equal(rp.value, data)

    def test_many_files_isolated(self, rng):
        fs = make_fs()
        env = fs.env
        payloads = {}

        def worker(c, i):
            fh = yield from c.open(f"/file{i}")
            data = rng.integers(0, 255, 100 + i, dtype=np.uint8)
            payloads[i] = data
            yield from c.write(fh, 0, data)
            back = yield from c.read(fh, 0, 100 + i)
            assert np.array_equal(back, data)
            return (yield from c.stat(fh))

        procs = [
            env.process(worker(fs.client(f"f{i}"), i)) for i in range(5)
        ]
        sizes = env.run(env.all_of(procs))
        assert sizes == [100 + i for i in range(5)]

    def test_server_fifo_fairness(self):
        """A server interleaves different clients' batched sequences
        rather than starving one (requests queue in arrival order)."""
        fs = make_fs(n_servers=1)
        env = fs.env
        finish = {}

        def client_proc(c, i):
            fh = yield from c.open("/fair")
            for k in range(5):
                yield from c.read(fh, 0, 1024, phantom=True)
            finish[i] = env.now

        procs = [
            env.process(client_proc(fs.client(f"c{i}"), i))
            for i in range(3)
        ]
        env.run(env.all_of(procs))
        times = sorted(finish.values())
        # finish times are close: no starvation
        assert times[-1] < times[0] * 2


class TestEdgeSemantics:
    def test_read_beyond_eof_returns_zeros(self):
        fs = make_fs()
        env = fs.env

        def main(c):
            fh = yield from c.open("/eof")
            yield from c.write(fh, 0, np.full(10, 3, np.uint8))
            return (yield from c.read(fh, 0, 100))

        out = env.run(env.process(main(fs.client("c"))))
        assert (out[:10] == 3).all()
        assert out[10:].sum() == 0

    def test_empty_read_write(self):
        fs = make_fs()
        env = fs.env

        def main(c):
            fh = yield from c.open("/empty")
            yield from c.write(fh, 0, np.zeros(0, np.uint8))
            out = yield from c.read(fh, 0, 0)
            return out.size

        assert env.run(env.process(main(fs.client("c")))) == 0

    def test_sparse_file_size(self):
        fs = make_fs()
        env = fs.env

        def main(c):
            fh = yield from c.open("/sparse")
            yield from c.write(fh, 10_000_000, np.ones(1, np.uint8))
            return (yield from c.stat(fh))

        assert env.run(env.process(main(fs.client("c")))) == 10_000_001

    def test_rewrite_overwrites(self, rng):
        fs = make_fs()
        env = fs.env
        a = rng.integers(0, 255, 200, dtype=np.uint8)
        b = rng.integers(0, 255, 200, dtype=np.uint8)

        def main(c):
            fh = yield from c.open("/rw")
            yield from c.write(fh, 0, a)
            yield from c.write(fh, 50, b)
            return (yield from c.read(fh, 0, 250))

        out = env.run(env.process(main(fs.client("c"))))
        assert np.array_equal(out[:50], a[:50])
        assert np.array_equal(out[50:250], b)
