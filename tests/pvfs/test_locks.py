"""Byte-range lock manager."""

import pytest

from repro.pvfs import PVFS
from repro.pvfs.errors import LockUnsupported
from repro.simulation import Environment


def make_fs(locking=True):
    return PVFS(Environment(), n_servers=2, supports_locking=locking)


class TestLockManager:
    def test_unsupported_raises(self):
        fs = make_fs(locking=False)

        def main():
            yield from fs.locks.acquire(1, 0, 10, "c")

        p = fs.env.process(main())
        with pytest.raises(LockUnsupported):
            fs.env.run(p)

    def test_grant_free_range(self):
        fs = make_fs()

        def main():
            tok = yield from fs.locks.acquire(1, 0, 10, "c")
            assert len(fs.locks._held) == 1
            fs.locks.release(tok)
            assert len(fs.locks._held) == 0
            return True

        assert fs.env.run(fs.env.process(main()))

    def test_conflicting_waits(self):
        fs = make_fs()
        env = fs.env
        order = []

        def holder():
            tok = yield from fs.locks.acquire(1, 0, 10, "a")
            order.append(("a", env.now))
            yield env.timeout(5)
            fs.locks.release(tok)

        def waiter():
            yield env.timeout(1)
            tok = yield from fs.locks.acquire(1, 5, 15, "b")
            order.append(("b", env.now))
            fs.locks.release(tok)

        env.process(holder())
        p = env.process(waiter())
        env.run(p)
        assert order == [("a", 0), ("b", 5)]
        assert fs.locks.contentions == 1

    def test_disjoint_ranges_concurrent(self):
        fs = make_fs()
        env = fs.env
        granted = []

        def w(name, lo, hi):
            tok = yield from fs.locks.acquire(1, lo, hi, name)
            granted.append((name, env.now))
            yield env.timeout(3)
            fs.locks.release(tok)

        env.process(w("a", 0, 10))
        env.process(w("b", 10, 20))
        env.run()
        assert granted == [("a", 0), ("b", 0)]

    def test_different_handles_no_conflict(self):
        fs = make_fs()
        env = fs.env
        granted = []

        def w(handle):
            tok = yield from fs.locks.acquire(handle, 0, 10, "x")
            granted.append(env.now)
            yield env.timeout(2)
            fs.locks.release(tok)

        env.process(w(1))
        env.process(w(2))
        env.run()
        assert granted == [0, 0]

    def test_fifo_fairness(self):
        """A waiter queued first is granted first even if a later
        request could be satisfied immediately."""
        fs = make_fs()
        env = fs.env
        order = []

        def holder():
            tok = yield from fs.locks.acquire(1, 0, 10, "h")
            yield env.timeout(10)
            fs.locks.release(tok)

        def w1():  # conflicts, queues at t=1
            yield env.timeout(1)
            tok = yield from fs.locks.acquire(1, 5, 15, "w1")
            order.append(("w1", env.now))
            fs.locks.release(tok)

        def w2():  # would be free at t=2, but must queue behind w1
            yield env.timeout(2)
            tok = yield from fs.locks.acquire(1, 20, 30, "w2")
            order.append(("w2", env.now))
            fs.locks.release(tok)

        env.process(holder())
        env.process(w1())
        env.process(w2())
        env.run()
        # both drain at t=10 when the holder releases, in FIFO order
        assert order == [("w1", 10), ("w2", 10)]

    def test_double_release_raises(self):
        fs = make_fs()

        def main():
            tok = yield from fs.locks.acquire(1, 0, 4, "c")
            fs.locks.release(tok)
            fs.locks.release(tok)

        p = fs.env.process(main())
        with pytest.raises(RuntimeError):
            fs.env.run(p)

    def test_empty_range_rejected(self):
        fs = make_fs()

        def main():
            yield from fs.locks.acquire(1, 5, 5, "c")

        p = fs.env.process(main())
        with pytest.raises(ValueError):
            fs.env.run(p)

    def test_inverted_range_rejected(self):
        fs = make_fs()

        def main():
            yield from fs.locks.acquire(1, 10, 5, "c")

        p = fs.env.process(main())
        with pytest.raises(ValueError):
            fs.env.run(p)

    def test_adjacent_ranges_do_not_conflict(self):
        """Half-open ranges: [0,10) and [10,20) touch but never overlap."""
        from repro.pvfs.locks import LockToken

        held = LockToken(1, 0, 10, "a")
        assert not held.overlaps(1, 10, 20)
        assert held.overlaps(1, 9, 10)
        assert not held.overlaps(2, 0, 10)  # other handle

    def test_release_drains_only_nonconflicting_waiters(self):
        """One release grants every FIFO waiter it can — but a waiter
        conflicting with a just-granted earlier waiter stays queued."""
        fs = make_fs()
        env = fs.env
        order = []

        def holder():
            tok = yield from fs.locks.acquire(1, 0, 10, "h")
            yield env.timeout(10)
            fs.locks.release(tok)

        def w(name, lo, hi, t):
            yield env.timeout(t)
            tok = yield from fs.locks.acquire(1, lo, hi, name)
            order.append((name, env.now))
            yield env.timeout(5)
            fs.locks.release(tok)

        env.process(holder())
        env.process(w("w1", 5, 15, 1))   # conflicts with holder
        env.process(w("w2", 12, 18, 2))  # conflicts with w1, not holder
        env.process(w("w3", 20, 30, 3))  # conflicts with nobody
        env.run()
        # at t=10 the holder releases: w1 and w3 drain, w2 must wait
        # for w1's release at t=15
        assert order == [("w1", 10), ("w3", 10), ("w2", 15)]

    def test_acquisitions_counts_queued_grants_too(self):
        fs = make_fs()
        env = fs.env

        def holder():
            tok = yield from fs.locks.acquire(1, 0, 10, "h")
            yield env.timeout(2)
            fs.locks.release(tok)

        def waiter():
            yield env.timeout(1)
            tok = yield from fs.locks.acquire(1, 0, 10, "w")
            fs.locks.release(tok)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert fs.locks.acquisitions == 2
        assert fs.locks.contentions == 1
        assert len(fs.locks._held) == 0


class TestSievingWritesWithLocking:
    """The extension path: sieving writes on a locking file system."""

    def test_sieving_write_roundtrip(self, rng):
        import numpy as np

        from repro.datatypes import INT, contiguous, subarray
        from repro.mpiio import File, SimMPI
        from repro.pvfs import PVFSConfig

        env = Environment()
        fs = PVFS(
            env, config=PVFSConfig(n_servers=4, strip_size=128, supports_locking=True)
        )
        mpi = SimMPI(fs, 2)
        N = 16

        def rank_main(ctx):
            f = yield from File.open(ctx, "/arr")
            ft = subarray(
                [N, N], [N, N // 2], [0, ctx.rank * N // 2], INT
            )
            f.set_view(0, INT, ft)
            n = N * N // 2
            buf = (
                np.full(n, ctx.rank + 1, dtype=np.int32).view(np.uint8)
            )
            yield from f.write_at(
                0, contiguous(n, INT), 1, buf, method="data_sieving"
            )
            out = np.zeros(n * 4, np.uint8)
            yield from f.read_at(
                0, contiguous(n, INT), 1, out, method="datatype_io"
            )
            assert np.array_equal(out, buf), ctx.rank
            return True

        assert all(mpi.run(rank_main))
        assert fs.locks.acquisitions >= 2
