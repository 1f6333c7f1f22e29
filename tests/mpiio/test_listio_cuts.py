"""List I/O operation splitting (the dual 64-region bound)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.datatypes import BYTE, hindexed, hvector
from repro.mpiio import File, SimMPI
from repro.mpiio.methods.listio import list_io_cuts
from repro.pvfs import PVFS, PVFSConfig
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists


def contiguous_regions(total):
    return Regions.single(0, total)


def n_ops(mem, fil, limit=64):
    _, bounds = list_io_cuts(mem, fil, limit)
    return bounds.size - 1


def assert_bounded(mem, fil, limit):
    """Every operation holds at most ``limit`` pairs on either side, and
    the operations are consecutive slices that rebuild the file list."""
    pieces, bounds = list_io_cuts(mem, fil, limit)
    cuts = np.concatenate(([0], pieces.stream_ends[bounds[1:] - 1]))
    mem_bounds = np.searchsorted(
        mem.split_at_stream(cuts).stream_ends, cuts, side="right"
    )
    assert (np.diff(bounds) > 0).all()
    assert (np.diff(bounds) <= limit).all()
    assert (np.diff(mem_bounds) <= limit).all()
    assert bounds[0] == 0 and bounds[-1] == pieces.count
    assert pieces.coalesce() == fil.coalesce()
    return bounds.size - 1


class TestDualBoundedCuts:
    def test_contiguous_mem_cuts_by_file(self):
        mem = contiguous_regions(768 * 10)
        fil = Regions.from_pairs([(i * 20, 10) for i in range(768)])
        assert n_ops(mem, fil) == 12  # 768/64, the paper's tile count

    def test_mem_denser_than_file(self):
        """FLASH shape: tiny memory pieces drive the operation count."""
        mem = Regions.from_pairs([(i * 16, 8) for i in range(1024)])
        fil = contiguous_regions(8 * 1024)
        assert n_ops(mem, fil) == 1024 // 64

    def test_both_sides_bounded(self):
        mem = Regions.from_pairs([(i * 10, 5) for i in range(300)])
        fil = Regions.from_pairs([(i * 7, 3) for i in range(500)])
        assert_bounded(mem, fil, 64)

    def test_no_cuts_when_small(self):
        mem = contiguous_regions(100)
        fil = Regions.from_pairs([(0, 50), (60, 50)])
        pieces, bounds = list_io_cuts(mem, fil, 64)
        assert pieces == fil
        assert bounds.tolist() == [0, 2]

    def test_stream_sizes_must_agree(self):
        with pytest.raises(ValueError, match="sizes differ"):
            list_io_cuts(contiguous_regions(10), contiguous_regions(11), 64)

    @given(
        sorted_region_lists(max_regions=30),
        st.lists(st.integers(1, 40), max_size=30),
        st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_cut_invariants(self, pairs, mem_lens, limit):
        fil = Regions.from_pairs(pairs)
        if not fil.count:
            return
        # memory pieces of the drawn lengths, the last one stretched or
        # trimmed to the file stream's size (none drawn: contiguous)
        ends = np.minimum(np.cumsum(mem_lens, dtype=np.int64), fil.total_bytes)
        ends = np.unique(np.append(ends, fil.total_bytes))
        lens = np.diff(ends, prepend=0)
        mem = Regions(np.arange(lens.size) * 64, lens)
        assert_bounded(mem, fil, limit)


def _regions(n, stride):
    return Regions.from_pairs([(i * stride, 8) for i in range(n)])


class TestOpCounts:
    """Operation counts for the paper's workload shapes (E7)."""

    def test_factor_of_exactly_64(self):
        # 640 equal file regions, contiguous memory -> exactly 10 ops
        fil = Regions.from_pairs([(i * 10, 4) for i in range(640)])
        mem = contiguous_regions(fil.total_bytes)
        assert n_ops(mem, fil) == 10

    def test_remainder_rounds_up(self):
        fil = Regions.from_pairs([(i * 10, 4) for i in range(65)])
        mem = contiguous_regions(fil.total_bytes)
        assert n_ops(mem, fil) == 2

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("side", ["file", "memory", "both"])
    def test_bound_edges(self, n, side):
        """``n`` regions on one side (the other contiguous) or on both
        (aligned) take ``ceil(n / 64)`` operations of at most 64."""
        many = _regions(n, 16)
        one = contiguous_regions(8 * n)
        mem, fil = {
            "file": (one, many),
            "memory": (many, one),
            "both": (_regions(n, 24), many),
        }[side]
        assert assert_bounded(mem, fil, 64) == -(-n // 64)


def test_65_pairs_on_both_sides_end_to_end(rng):
    """65 file regions written from 65 memory regions through
    ``list_io``: two operations, each within the client's 64-pair check
    (which raises on a 65-pair operation), and the bytes land."""
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=3, strip_size=64))
    mpi = SimMPI(fs, 1)
    filetype = hindexed([8] * 65, [i * 16 for i in range(65)], BYTE)
    memtype = hvector(65, 8, 24, BYTE)
    buf = rng.integers(0, 256, 65 * 24, dtype=np.uint8)

    def main(ctx):
        f = yield from File.open(ctx, "/l65")
        f.set_view(0, BYTE, filetype)
        yield from f.write_at(0, memtype, 1, buf, method="list_io")
        ops = f.counters.io_ops
        out = np.zeros_like(buf)
        yield from f.read_at(0, memtype, 1, out, method="list_io")
        return ops, f.counters.io_ops - ops, out

    (written, read, out), = mpi.run(main)
    assert (written, read) == (2, 2)
    want = memtype.flatten()
    assert np.array_equal(want.gather(out), want.gather(buf))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=300),
    st.lists(st.integers(1, 40), min_size=1, max_size=300),
    st.integers(1, 70),
)
def test_cuts_are_the_sorted_distinct_operation_ends(mem_lens, fil_lens, limit):
    """The cut points are exactly ``np.unique`` of every operation end
    on either side plus the stream's two ends."""
    total = min(sum(mem_lens), sum(fil_lens))
    mem = Regions.single(0, total).split_at_stream(np.cumsum(mem_lens)[:-1])
    fil = Regions.single(0, total).split_at_stream(np.cumsum(fil_lens)[:-1])
    pieces, bounds = list_io_cuts(mem, fil, limit)
    want = np.unique(np.concatenate(
        [[0, total]]
        + [r.stream_ends[limit - 1 :: limit] for r in (mem, fil)
           if r.count > limit]
    ))
    got = np.concatenate(([0], pieces.stream_ends[bounds[1:] - 1]))
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_list_io_leaves_numpy_ma_unimported():
    """A list I/O run must not import ``numpy.ma`` (≈ 1.2 MiB resident,
    pulled in by ``np.unique`` and the other set routines) in a fresh
    interpreter."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from repro.bench.runner import run_workload\n"
        "from repro.bench.workloads import TileWorkload\n"
        "r = run_workload(TileWorkload.reduced(frames=1), 'list_io')\n"
        "assert r.supported\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "False"
