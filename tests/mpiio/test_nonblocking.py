"""Nonblocking MPI-IO operations (iread_at / iwrite_at)."""

import numpy as np
import pytest

from repro.datatypes import BYTE, contiguous, vector
from repro.mpiio import File, Hints, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment


def run_one(rank_main, **kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=128)
    defaults.update(kw)
    fs = PVFS(env, **defaults)
    mpi = SimMPI(fs, 1)
    return env, fs, mpi.run(rank_main)[0]


class TestNonblocking:
    def test_iwrite_then_wait(self, rng):
        data = rng.integers(0, 255, 512, dtype=np.uint8)

        def main(ctx):
            f = yield from File.open(ctx, "/nb")
            req = f.iwrite_at(0, contiguous(512, BYTE), 1, data,
                              method="datatype_io")
            yield req  # MPI_Wait
            out = np.zeros(512, np.uint8)
            yield from f.read_at(0, contiguous(512, BYTE), 1, out)
            return out

        _, _, out = run_one(main)
        assert np.array_equal(out, data)

    def test_overlapping_requests_complete(self, rng):
        """Two outstanding operations to disjoint ranges both land."""
        a = rng.integers(0, 255, 400, dtype=np.uint8)
        b = rng.integers(0, 255, 400, dtype=np.uint8)

        def main(ctx):
            f = yield from File.open(ctx, "/ovl")
            r1 = f.iwrite_at(0, contiguous(400, BYTE), 1, a,
                             method="posix")
            r2 = f.iwrite_at(1000, contiguous(400, BYTE), 1, b,
                             method="datatype_io")
            yield ctx.env.all_of([r1, r2])
            out = np.zeros(1400, np.uint8)
            yield from f.read_at(0, contiguous(1400, BYTE), 1, out)
            return out

        _, _, out = run_one(main)
        assert np.array_equal(out[:400], a)
        assert np.array_equal(out[1000:1400], b)

    def test_overlap_gives_concurrency(self):
        """Two overlapped phantom reads finish faster than serialized."""

        def overlapped(ctx):
            f = yield from File.open(ctx, "/c")
            t0 = ctx.env.now
            r1 = f.iread_at(0, contiguous(200_000, BYTE), 1, None,
                            method="datatype_io")
            r2 = f.iread_at(300_000, contiguous(200_000, BYTE), 1, None,
                            method="datatype_io")
            yield ctx.env.all_of([r1, r2])
            return ctx.env.now - t0

        def serialized(ctx):
            f = yield from File.open(ctx, "/c")
            t0 = ctx.env.now
            yield from f.read_at(0, contiguous(200_000, BYTE), 1, None,
                                 method="datatype_io")
            yield from f.read_at(300_000, contiguous(200_000, BYTE), 1,
                                 None, method="datatype_io")
            return ctx.env.now - t0

        _, _, t_ovl = run_one(overlapped)
        _, _, t_ser = run_one(serialized)
        assert t_ovl < t_ser

    def test_iread_noncontiguous(self, rng):
        t = vector(32, 2, 5, BYTE)
        data = rng.integers(0, 255, t.size, dtype=np.uint8)

        def main(ctx):
            f = yield from File.open(ctx, "/v")
            f.set_view(0, BYTE, t)
            mt = contiguous(t.size, BYTE)
            yield from f.write_at(0, mt, 1, data, method="list_io")
            out = np.zeros(t.size, np.uint8)
            req = f.iread_at(0, mt, 1, out, method="datatype_io")
            yield req
            return out

        _, _, out = run_one(main)
        assert np.array_equal(out, data)

    def test_collective_method_rejected(self):
        def main(ctx):
            f = yield from File.open(ctx, "/x")
            req = f.iwrite_at(0, contiguous(4, BYTE), 1, None,
                              method="two_phase")
            yield req

        with pytest.raises(ValueError, match="collective"):
            run_one(main)


@pytest.mark.parametrize("side", ["iwrite_at", "iread_at"])
def test_outstanding_independent_op_across_a_collective(side, rng):
    """A nonblocking operation reads the client mailbox while the same
    rank runs a multi-round collective write.  The collective's
    responses that it files while the collective is not waiting (still
    streaming segments, or backing off a rejected round) must still
    complete the collective — unarmed, there is no deadline to recover
    a response nobody claims."""
    per_rank = 128 * 1024
    side_bytes = 1 << 20
    side_data = rng.integers(0, 255, side_bytes, dtype=np.uint8)
    hints = Hints(cb_nodes=2, coll_round_bytes=4096)
    mt = contiguous(per_rank, BYTE)

    def main(ctx):
        g = None
        if ctx.rank == 0:
            g = yield from File.open(ctx, "/side")
            side_mt = contiguous(side_bytes, BYTE)
            if side == "iwrite_at":
                nb = g.iwrite_at(0, side_mt, 1, side_data, method="posix")
            else:
                yield from g.write_at(0, side_mt, 1, side_data,
                                      method="posix")
                got = np.zeros(side_bytes, np.uint8)
                nb = g.iread_at(0, side_mt, 1, got, method="posix")
        f = yield from File.open(ctx, "/coll", hints)
        f.set_view(ctx.rank * per_rank, BYTE, mt)
        buf = np.full(per_rank, ctx.rank + 1, np.uint8)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        ok = True
        if g is not None:
            yield nb
            if side == "iread_at":
                ok = np.array_equal(got, side_data)
        out = np.zeros(per_rank, np.uint8)
        yield from f.read_at(0, mt, 1, out, method="datatype_io")
        return ok and np.array_equal(out, buf)

    env = Environment()
    fs = PVFS(env, config=PVFSConfig(
        n_servers=4, strip_size=256, server_threads=2, server_queue_depth=2
    ))
    assert all(SimMPI(fs, 4, procs_per_node=2).run(main))
    assert fs.pipeline_summary().total.rejected > 0
