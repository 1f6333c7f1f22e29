"""Two-phase internals: domains, rounds, hole handling, accounting."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import BYTE, contiguous, hindexed, hvector, subarray
from repro.mpiio import File, Hints, SimMPI
from repro.mpiio.methods.twophase import _Plan
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.client import PVFSClient
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import region_lists, sorted_region_lists
from ..reference import core as reference


def run_ranks(n, rank_main, hints=None, **cfg):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=256)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, n)
    return fs, mpi.run(rank_main)


class TestRounds:
    def test_ops_match_buffer_rounds(self):
        """FS ops per aggregator = ceil(domain / cb_buffer)."""
        total = 64 * 1024  # 16 KiB per rank x 4 ranks
        hints = Hints(cb_buffer_size=8 * 1024)

        def rank_main(ctx):
            f = yield from File.open(ctx, "/r", hints)
            per = total // ctx.size
            f.set_view(ctx.rank * per, BYTE, contiguous(per, BYTE))
            yield from f.write_at_all(0, contiguous(per, BYTE), 1, None)
            return f.counters.io_ops

        _, ops = run_ranks(4, rank_main)
        # domain = 16 KiB, buffer = 8 KiB -> 2 write ops per aggregator
        assert ops == [2, 2, 2, 2]

    def test_cb_nodes_limits_aggregators(self):
        hints = Hints(cb_buffer_size=1 << 20, cb_nodes=2)

        def rank_main(ctx):
            f = yield from File.open(ctx, "/r", hints)
            per = 4096
            f.set_view(ctx.rank * per, BYTE, contiguous(per, BYTE))
            yield from f.write_at_all(0, contiguous(per, BYTE), 1, None)
            return f.counters.io_ops

        _, ops = run_ranks(4, rank_main)
        # only ranks 0 and 1 aggregate (and thus do FS ops)
        assert ops[0] > 0 and ops[1] > 0
        assert ops[2] == 0 and ops[3] == 0

    def test_dense_write_no_read_modify_write(self):
        """When ranks cover the domain densely, no RMW reads happen."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/dense")
            per = 1024
            f.set_view(ctx.rank * per, BYTE, contiguous(per, BYTE))
            yield from f.write_at_all(0, contiguous(per, BYTE), 1, None)
            return f.counters

        fs, counters = run_ranks(4, rank_main)
        stats = fs.total_server_stats()
        assert stats["bytes_read"] == 0  # pure writes

    def test_sparse_write_triggers_rmw(self):
        """Holes inside an aggregator's round trigger a read first."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/sparse")
            # every rank writes 8 bytes every 64: union has holes
            ft = hvector(16, 8, 64 * ctx.size, BYTE)
            f.set_view(ctx.rank * 64, BYTE, ft)
            yield from f.write_at_all(0, contiguous(128, BYTE), 1, None)
            return f.counters

        fs, counters = run_ranks(2, rank_main)
        stats = fs.total_server_stats()
        assert stats["bytes_read"] > 0  # RMW happened

    def test_sparse_rmw_preserves_existing_bytes(self):
        """The read-modify-write must not clobber old file contents."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/keep")
            ft = hvector(4, 4, 16 * ctx.size, BYTE)
            f.set_view(ctx.rank * 16, BYTE, ft)
            buf = np.full(16, 100 + ctx.rank, dtype=np.uint8)
            yield from f.write_at_all(0, contiguous(16, BYTE), 1, buf)
            return True

        env = Environment()
        fs = PVFS(env, config=PVFSConfig(n_servers=2, strip_size=32))
        meta = fs.metadata.create_now("/keep")
        old = np.full(128, 7, dtype=np.uint8)
        fs.write_direct(meta.handle, 0, old)
        mpi = SimMPI(fs, 2)
        mpi.run(rank_main)
        got = fs.read_back(meta.handle, 0, 128)
        # written positions: rank r writes 4B at r*16 + k*32
        expect = old.copy()
        for r in range(2):
            for k in range(4):
                expect[r * 16 + k * 32 : r * 16 + k * 32 + 4] = 100 + r
        assert np.array_equal(got, expect)


class TestAccounting:
    def test_resent_excludes_self(self):
        """A single rank collective resends nothing."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/solo")
            f.set_view(0, BYTE, contiguous(4096, BYTE))
            yield from f.write_at_all(0, contiguous(4096, BYTE), 1, None)
            return f.counters.resent_bytes

        _, resent = run_ranks(1, rank_main)
        assert resent == [0]

    def test_resent_symmetric_read_write(self):
        """Interleaved pattern: read and write resend the same volume."""

        def make(is_write):
            def rank_main(ctx):
                f = yield from File.open(ctx, "/sym")
                ft = hvector(32, 16, 16 * ctx.size, BYTE)
                f.set_view(ctx.rank * 16, BYTE, ft)
                mt = contiguous(512, BYTE)
                if is_write:
                    yield from f.write_at_all(0, mt, 1, None)
                else:
                    yield from f.read_at_all(0, mt, 1, None)
                return f.counters.resent_bytes

            return rank_main

        _, w = run_ranks(4, make(True))
        _, r = run_ranks(4, make(False))
        assert sum(w) == sum(r) > 0

    def test_aggregator_accessed_is_domain_not_desired(self):
        def rank_main(ctx):
            f = yield from File.open(ctx, "/dom")
            # columns: each rank's data spreads over the whole file
            N = 64
            cols = N // ctx.size
            ft = subarray([N, N], [N, cols], [0, ctx.rank * cols], BYTE)
            f.set_view(0, BYTE, ft)
            yield from f.write_at_all(
                0, contiguous(N * cols, BYTE), 1, None
            )
            return (f.counters.desired_bytes, f.counters.accessed_bytes)

        _, results = run_ranks(4, rank_main)
        for desired, accessed in results:
            # all ranks aggregate an equal contiguous domain
            assert accessed == pytest.approx(desired, rel=0.05)

    def test_empty_participation(self):
        """Ranks with no data still complete the collective."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/empty")
            if ctx.rank == 0:
                f.set_view(0, BYTE, contiguous(1024, BYTE))
                yield from f.write_at_all(
                    0, contiguous(1024, BYTE), 1, None
                )
            else:
                f.set_view(0, BYTE, contiguous(1024, BYTE))
                yield from f.write_at_all(
                    0, contiguous(0, BYTE), 0, None
                )
            return True

        _, results = run_ranks(3, rank_main)
        assert all(results)

    def test_all_empty_collective(self):
        def rank_main(ctx):
            f = yield from File.open(ctx, "/void")
            yield from f.write_at_all(0, contiguous(0, BYTE), 0, None)
            return True

        _, results = run_ranks(2, rank_main)
        assert all(results)


class TestOverlappingWriters:
    """Pieces that overlap cover some bytes twice, so their byte total
    can reach the span while the union still has a gap."""

    @pytest.mark.parametrize("sparse", ["rmw", "datatype_io"])
    def test_gap_hidden_by_overlap_keeps_file_bytes(self, sparse):
        """Rank 0 writes [0, 8) + [12, 16), rank 1 writes [0, 8) again:
        20 bytes over a 16-byte span, and nobody writes [8, 12)."""
        hints = Hints(cb_nodes=1, tp_sparse_method=sparse)

        def rank_main(ctx):
            f = yield from File.open(ctx, "/gap", hints)
            blocks = [[8, 4], [0, 12]] if ctx.rank == 0 else [[8], [0]]
            ft = hindexed(*blocks, BYTE)
            f.set_view(0, BYTE, ft)
            buf = np.full(ft.size, 10 + ctx.rank, dtype=np.uint8)
            yield from f.write_at_all(
                0, contiguous(ft.size, BYTE), 1, buf, method="two_phase"
            )
            return True

        env = Environment()
        fs = PVFS(env, config=PVFSConfig(n_servers=2, strip_size=32))
        meta = fs.metadata.create_now("/gap")
        fs.write_direct(meta.handle, 0, np.full(32, 0xFF, dtype=np.uint8))
        assert all(SimMPI(fs, 2).run(rank_main))
        got = fs.read_back(meta.handle, 0, 32)
        assert got[:8].tolist() in ([10] * 8, [11] * 8)
        assert got[8:12].tolist() == [0xFF] * 4  # the gap: never written
        assert got[12:16].tolist() == [10] * 4
        assert got[16:].tolist() == [0xFF] * 16


class TestCollectiveBuffer:
    def test_round_buffer_is_the_size_of_its_round(self, monkeypatch):
        """``cb_buffer_size`` (4 MiB) bounds a round; it is not what an
        aggregator allocates: while a 64 KiB file is written with real
        bytes, no array two-phase holds is larger than the file."""
        total = 64 * 1024
        held = []
        only_twophase = [tracemalloc.Filter(True, "*/mpiio/methods/twophase.py")]
        fs_write = PVFSClient.write

        def spying_write(self, *args, **kwargs):
            # called from _aggregate_write with the round's buffer alive
            snap = tracemalloc.take_snapshot().filter_traces(only_twophase)
            held.append(max(t.size for t in snap.traces))
            return fs_write(self, *args, **kwargs)

        monkeypatch.setattr(PVFSClient, "write", spying_write)

        def rank_main(ctx):
            f = yield from File.open(ctx, "/small")
            per = total // ctx.size
            f.set_view(ctx.rank * per, BYTE, contiguous(per, BYTE))
            buf = np.full(per, ctx.rank, dtype=np.uint8)
            yield from f.write_at_all(
                0, contiguous(per, BYTE), 1, buf, method="two_phase"
            )
            return True

        tracemalloc.start()
        try:
            fs, done = run_ranks(4, rank_main)
        finally:
            tracemalloc.stop()
        assert all(done)
        assert fs.total_server_stats()["bytes_written"] == total
        assert len(held) == 4 and max(held) <= total


class TestRoundPartition:
    """Two-phase cuts file ranges only with ``partition_with_stream``:
    my regions at every domain × round bound, each source's regions at
    the aggregator's own round bounds."""

    @given(
        st.one_of(region_lists(max_regions=12, max_offset=3000), sorted_region_lists()),
        st.integers(2, 6),
        st.integers(1, 5),
        st.integers(1, 900),
        st.integers(0, 200),
    )
    @settings(max_examples=200, deadline=None)
    def test_domain_round_partition_equals_round_clip(
        self, pairs, size, cb_nodes, bufsize, pad
    ):
        regions = Regions.from_pairs(pairs)
        lo, hi = regions.extent()
        op = SimpleNamespace(
            ctx=SimpleNamespace(size=size),
            hints=Hints(cb_nodes=cb_nodes, cb_buffer_size=bufsize),
        )
        # the collective's range reaches past my regions on both sides
        plan = _Plan(op, [(lo - pad, hi)] + [None] * (size - 2) + [(lo, hi + pad)])
        grid = plan.grid
        assert grid[0, 0] == plan.lo and grid[-1, -1] == plan.hi
        # domains tile the range: each ends where the next begins
        assert (grid[1:, 0] == grid[:-1, -1]).all()
        assert [(row[0], row[-1]) for row in grid.tolist()] == plan.domains
        rounds = plan.rounds
        parts = regions.partition_with_stream(np.append(grid[:, :-1], plan.hi))
        for i, row in enumerate(grid.tolist()):
            for r in range(rounds):
                got, got_pos = parts[i * rounds + r]
                want, want_pos = reference.clip_with_stream(regions, row[r], row[r + 1])
                assert got == want
                assert np.array_equal(got_pos, want_pos)
