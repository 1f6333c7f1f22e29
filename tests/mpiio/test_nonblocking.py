"""Nonblocking MPI-IO operations (iread_at / iwrite_at)."""

import numpy as np
import pytest

from repro.datatypes import BYTE, contiguous, vector
from repro.faults import FaultConfig, severity_config
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


@pytest.mark.parametrize(
    "side, faults, side_ranks",
    [
        pytest.param(side, None, (0,), id=side)
        for side in ("iwrite_at", "iread_at")
    ] + [
        pytest.param(side, seed, (0, 1), id=f"{side}-moderate{seed}")
        for seed in range(3)
        for side in ("iwrite_at", "iread_at")
    ],
)
def test_outstanding_independent_op_across_a_collective(
    side, faults, side_ranks, rng
):
    """A nonblocking operation reads the client mailbox while the same
    rank runs a multi-round collective write.  The collective's
    responses that it files while the collective is not waiting (still
    streaming segments, or backing off a rejected round) must still
    complete the collective — unarmed, there is no deadline to recover
    a response nobody claims.  Armed under the ``moderate`` preset, the
    side operations run on an aggregator (rank 0) and a non-aggregator
    (rank 1), and nothing may be left posted at any client."""
    per_rank = 128 * 1024
    side_bytes = 1 << 20
    side_data = rng.integers(0, 255, side_bytes, dtype=np.uint8)
    side_mt = contiguous(side_bytes, BYTE)
    hints = Hints(cb_nodes=2, coll_round_bytes=4096)
    mt = contiguous(per_rank, BYTE)

    def main(ctx):
        g = None
        if ctx.rank in side_ranks:
            g = yield from File.open(ctx, f"/side{ctx.rank}")
            got = np.zeros(side_bytes, np.uint8)
            if side == "iwrite_at":
                nb = g.iwrite_at(0, side_mt, 1, side_data, method="posix")
            else:
                yield from g.write_at(0, side_mt, 1, side_data,
                                      method="posix")
                nb = g.iread_at(0, side_mt, 1, got, method="posix")
        f = yield from File.open(ctx, "/coll", hints)
        f.set_view(ctx.rank * per_rank, BYTE, mt)
        buf = np.full(per_rank, ctx.rank + 1, np.uint8)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        ok = True
        if g is not None:
            yield nb
            if side == "iwrite_at":
                yield from g.read_at(0, side_mt, 1, got, method="posix")
            ok = np.array_equal(got, side_data)
        out = np.zeros(per_rank, np.uint8)
        yield from f.read_at(0, mt, 1, out, method="datatype_io")
        return ok and np.array_equal(out, buf)

    env = Environment()
    fs = PVFS(env, config=PVFSConfig(
        n_servers=4, strip_size=256, server_threads=2, server_queue_depth=2,
        faults=None if faults is None else severity_config("moderate", faults),
    ))
    assert all(SimMPI(fs, 4, procs_per_node=2).run(main))
    assert fs.pipeline_summary().total.rejected > 0
    for c in fs.clients:
        assert not c._posted, c.name


#: Armed with no fault ever drawn.  The 1 s deadline stays: a 4 MiB side
#: write keeps every server busy for another client, progress no
#: connection timer of the other ranks can see, so at the default 50 ms
#: ranks 2 and 3 resend 18 write segments (ROADMAP 7's RTT estimator).
ARMED_INERT = FaultConfig(seed=1, net_drop_prob=1e-12, rpc_timeout=1.0)


@pytest.mark.parametrize("side_rank", [1, 3])
def test_non_aggregator_acks_read_by_a_concurrent_wait_are_kept(side_rank):
    """Armed, a rank's write segments are acked to its mailbox, and an
    ack can arrive while the rank is still streaming — before its
    collective engine starts.  A concurrent wait on the same client (a
    large ``iwrite_at``) that reads such an ack files it for the
    collective, so a non-aggregator rank resends nothing: an injector
    armed with no fault ever drawn costs no resend and no timeout."""
    per_rank = 128 * 1024
    side_bytes = 4 << 20
    side_data = np.arange(side_bytes, dtype=np.uint32).astype(np.uint8)
    hints = Hints(cb_nodes=2, coll_round_bytes=4096)
    mt = contiguous(per_rank, BYTE)

    def main(ctx):
        g = nb = None
        if ctx.rank == side_rank:
            g = yield from File.open(ctx, "/side")
            nb = g.iwrite_at(0, contiguous(side_bytes, BYTE), 1, side_data,
                             method="posix")
        f = yield from File.open(ctx, "/coll", hints)
        f.set_view(ctx.rank * per_rank, BYTE, mt)
        buf = np.full(per_rank, ctx.rank + 1, np.uint8)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        if nb is not None:
            yield nb
            return f.fh.handle, g.fh.handle

    env = Environment()
    fs = PVFS(env, config=PVFSConfig(
        n_servers=4, strip_size=256, faults=ARMED_INERT
    ))
    coll, side = SimMPI(fs, 4).run(main)[side_rank]
    assert fs.faults.summary()["coll_resends"] == 0
    assert sum(c.counters.timeouts for c in fs.clients) == 0
    assert np.array_equal(
        fs.read_back(coll, 0, 4 * per_rank),
        np.repeat(np.arange(1, 5, dtype=np.uint8), per_rank),
    )
    assert np.array_equal(fs.read_back(side, 0, side_bytes), side_data)


def test_gate_release_leaves_no_wake_behind():
    """The rank whose arrival releases the completion gate is running,
    not waiting: it drops no wake into its own mailbox, where nothing
    would ever read it."""
    per_rank = 16 * 1024
    hints = Hints(cb_nodes=2, coll_round_bytes=4096)
    mt = contiguous(per_rank, BYTE)

    def main(ctx):
        f = yield from File.open(ctx, "/coll", hints)
        f.set_view(ctx.rank * per_rank, BYTE, mt)
        buf = np.full(per_rank, ctx.rank + 1, np.uint8)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        return f.fh.handle

    env = Environment()
    fs = PVFS(env, config=PVFSConfig(
        n_servers=4, strip_size=256, faults=ARMED_INERT
    ))
    handle = SimMPI(fs, 4).run(main)[0]
    assert np.array_equal(
        fs.read_back(handle, 0, 4 * per_rank),
        np.repeat(np.arange(1, 5, dtype=np.uint8), per_rank),
    )
    env.run()
    fs.assert_quiescent()
