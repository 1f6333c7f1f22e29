"""MPI_Type_create_darray."""

import numpy as np
import pytest

from repro.datatypes import (
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    DISTRIBUTE_DFLT_DARG,
    DISTRIBUTE_NONE,
    INT,
    BYTE,
    darray,
    subarray,
)
from repro.dataloops import build_dataloop, stream_regions
from repro.regions import Regions

from ..reference import oracle

D = DISTRIBUTE_DFLT_DARG


def brute_force_regions(size, rank, gsizes, distribs, dargs, psizes, elsize):
    """Ground truth by enumerating every global element."""
    n = len(gsizes)
    coords = []
    rem = rank
    for p in reversed(psizes):
        coords.append(rem % p)
        rem //= p
    coords.reverse()

    def owner(dim, idx):
        dist, darg, p = distribs[dim], dargs[dim], psizes[dim]
        if dist == DISTRIBUTE_NONE:
            return 0
        if dist == DISTRIBUTE_BLOCK:
            b = -(-gsizes[dim] // p) if darg == D else darg
            return min(idx // b, p - 1)
        b = 1 if darg == D else darg
        return (idx // b) % p

    pairs = []
    total = 1
    for g in gsizes:
        total *= g
    for lin in range(total):
        idx = []
        rem2 = lin
        for g in reversed(gsizes):
            idx.append(rem2 % g)
            rem2 //= g
        idx.reverse()
        if all(owner(d, idx[d]) == coords[d] for d in range(n)):
            pairs.append((lin * elsize, elsize))
    return Regions.from_pairs(pairs).coalesce()


class TestBlockDistribution:
    def test_equivalent_to_subarray(self):
        """Default BLOCK darray == the corresponding subarray."""
        g = 12
        for rank in range(8):
            da = darray(
                8, rank, [g, g, g], [DISTRIBUTE_BLOCK] * 3, [D] * 3,
                [2, 2, 2], INT,
            )
            i, rest = divmod(rank, 4)
            j, k = divmod(rest, 2)
            sa = subarray(
                [g, g, g], [g // 2] * 3,
                [i * g // 2, j * g // 2, k * g // 2], INT,
            )
            assert da.flatten() == sa.flatten(), rank
            assert da.extent == sa.extent

    def test_uneven_block(self):
        # gsize 10 over 3 procs: blocks of 4, 4, 2
        sizes = []
        for rank in range(3):
            da = darray(3, rank, [10], [DISTRIBUTE_BLOCK], [D], [3], BYTE)
            sizes.append(da.size)
        assert sizes == [4, 4, 2]

    def test_explicit_block_darg(self):
        da = darray(2, 1, [10], [DISTRIBUTE_BLOCK], [7], [2], BYTE)
        assert da.flatten().to_pairs() == [(7, 3)]

    def test_block_darg_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            darray(2, 0, [10], [DISTRIBUTE_BLOCK], [3], [2], BYTE)


class TestCyclicDistribution:
    @pytest.mark.parametrize("rank", range(3))
    def test_cyclic_unit(self, rank):
        da = darray(3, rank, [10], [DISTRIBUTE_CYCLIC], [D], [3], BYTE)
        expect = brute_force_regions(
            3, rank, [10], [DISTRIBUTE_CYCLIC], [D], [3], 1
        )
        assert da.flatten() == expect

    @pytest.mark.parametrize("rank", range(2))
    def test_cyclic_blocks(self, rank):
        da = darray(2, rank, [11], [DISTRIBUTE_CYCLIC], [3], [2], BYTE)
        expect = brute_force_regions(
            2, rank, [11], [DISTRIBUTE_CYCLIC], [3], [2], 1
        )
        assert da.flatten() == expect

    def test_mixed_2d(self):
        gsizes = [6, 8]
        for rank in range(4):
            da = darray(
                4, rank, gsizes,
                [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK],
                [2, D], [2, 2], INT,
            )
            expect = brute_force_regions(
                4, rank, gsizes,
                [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK],
                [2, D], [2, 2], 4,
            )
            assert da.flatten() == expect, rank


class TestPartition:
    @pytest.mark.parametrize(
        "distribs,dargs",
        [
            ([DISTRIBUTE_BLOCK] * 2, [D, D]),
            ([DISTRIBUTE_CYCLIC] * 2, [D, 3]),
            ([DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC], [D, 2]),
            ([DISTRIBUTE_NONE, DISTRIBUTE_BLOCK], [D, D]),
        ],
    )
    def test_ranks_partition_array(self, distribs, dargs):
        """All ranks' types tile the global array exactly once."""
        gsizes = [7, 9]
        psizes = [1, 4] if distribs[0] == DISTRIBUTE_NONE else [2, 2]
        size = psizes[0] * psizes[1]
        union = Regions.concat(
            [
                darray(size, r, gsizes, distribs, dargs, psizes, BYTE)
                .flatten()
                for r in range(size)
            ]
        )
        total = gsizes[0] * gsizes[1]
        assert union.total_bytes == total  # disjoint
        assert union.normalized().to_pairs() == [(0, total)]

    def test_extent_is_full_array(self):
        da = darray(4, 2, [8, 8], [DISTRIBUTE_BLOCK] * 2, [D, D], [2, 2], INT)
        assert da.extent == 8 * 8 * 4


class TestOrderAndValidation:
    def test_fortran_order(self):
        c = darray(2, 1, [4, 6], [DISTRIBUTE_BLOCK] * 2, [D, D], [2, 1], BYTE)
        f = darray(2, 1, [6, 4], [DISTRIBUTE_BLOCK] * 2, [D, D], [1, 2],
                   BYTE, order="F")
        assert f.flatten() == c.flatten()

    def test_grid_size_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            darray(4, 0, [8], [DISTRIBUTE_BLOCK], [D], [2], BYTE)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="rank"):
            darray(2, 2, [8], [DISTRIBUTE_BLOCK], [D], [2], BYTE)

    def test_none_requires_psize_one(self):
        with pytest.raises(ValueError, match="psize"):
            darray(2, 0, [8], [DISTRIBUTE_NONE], [D], [2], BYTE)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            darray(1, 0, [4], [DISTRIBUTE_BLOCK], [D], [1], BYTE, order="Z")

    def test_envelope_roundtrip(self):
        da = darray(4, 1, [6, 6], [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK],
                    [2, D], [2, 2], INT)
        ni, na, nt, comb = da.envelope()
        assert comb == "darray"
        ints, addrs, types = da.contents()
        assert len(ints) == ni and types == (INT,)
        assert ints[0] == 4 and ints[1] == 1 and ints[2] == 2

    def test_describe(self):
        da = darray(1, 0, [4], [DISTRIBUTE_BLOCK], [D], [1], BYTE)
        assert "darray" in da.describe()


class TestDataloopEquivalence:
    @pytest.mark.parametrize("rank", range(4))
    def test_builder_matches_flatten(self, rank):
        da = darray(
            4, rank, [6, 10],
            [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK], [D, D], [2, 2], INT,
        )
        loop = build_dataloop(da)
        assert loop.extent == da.extent
        assert loop.data_size == da.size
        assert stream_regions(loop).to_pairs() == oracle.runs(da)
        assert stream_regions(loop, count=2).to_pairs() == oracle.runs(da, 2)

    def test_through_the_file_system(self, rng):
        """darray as a file view, written and read back."""
        from repro.datatypes import contiguous
        from repro.mpiio import File, SimMPI
        from repro.pvfs import PVFS
        from repro.simulation import Environment

        env = Environment()
        fs = PVFS(env, n_servers=3, strip_size=64)
        mpi = SimMPI(fs, 4)
        g = 8

        def rank_main(ctx):
            f = yield from File.open(ctx, "/da")
            ft = darray(
                4, ctx.rank, [g, g],
                [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK], [D, D], [2, 2], INT,
            )
            f.set_view(0, INT, ft)
            n = ft.size // 4
            buf = (np.arange(n, dtype=np.int32) + ctx.rank * 1000).view(
                np.uint8
            )
            yield from f.write_at(0, contiguous(n, INT), 1, buf,
                                  method="datatype_io")
            out = np.zeros_like(buf)
            yield from f.read_at(0, contiguous(n, INT), 1, out,
                                 method="list_io")
            assert np.array_equal(out, buf)
            return True

        assert all(mpi.run(rank_main))
