"""Vectorized indexed/struct dataloop walks vs the per-block walk.

The reference is the same stream with ``cache_threshold=0``: no run
table, no cached flattening, one Python iteration per block down to the
final loops.  Fresh loop clones (via the wire codec) are used per pass
so per-instance memoization (`_run_table`, `_block_stream_cum`) cannot
leak results from one into the other.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataloops import Dataloop, DataloopStream, build_dataloop
from repro.dataloops import serialize as ser

from ..conftest import small_datatypes
from ..reference import core as reference

_I64 = np.int64


def _window_regions(loop, count, first, last, cache_threshold):
    return DataloopStream(
        loop,
        count=count,
        first=first,
        last=last,
        cache_threshold=cache_threshold,
    ).regions()


def _both_modes(loop, count, first, last, cache_threshold=4096):
    """Stream the same window with the run table and block by block."""
    fast = _window_regions(
        ser.loads(ser.dumps(loop)), count, first, last, cache_threshold
    )
    ref = _window_regions(ser.loads(ser.dumps(loop)), count, first, last, 0)
    return fast, ref


@st.composite
def indexed_loops(draw):
    n = draw(st.integers(1, 8))
    bls = [draw(st.integers(0, 3)) for _ in range(n)]
    cursor = 0
    offs = []
    for bl in bls:
        offs.append(cursor + draw(st.integers(0, 20)))
        cursor = offs[-1] + draw(st.integers(0, 60))
    child = Dataloop.final_vector(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        draw(st.integers(4, 10)),
        draw(st.integers(1, 3)),
        extent=draw(st.integers(30, 40)),
    )
    extent = offs[-1] + 4 * 40 + draw(st.integers(0, 16))
    return Dataloop.indexed(bls, offs, child, extent)


@st.composite
def struct_loops(draw, homogeneous=True):
    n = draw(st.integers(1, 6))
    bls = [draw(st.integers(0, 2)) for _ in range(n)]
    offs = sorted(draw(st.integers(0, 200)) for _ in range(n))
    mk = lambda: Dataloop.final_vector(  # noqa: E731
        draw(st.integers(1, 3)),
        1,
        draw(st.integers(3, 8)),
        draw(st.integers(1, 2)),
        extent=draw(st.integers(20, 30)),
    )
    one = mk()
    children = [one] * n if homogeneous else [mk() for _ in range(n)]
    extent = max(offs, default=0) + 3 * 30 + 8
    return Dataloop.struct(bls, offs, children, extent)


class TestIndexedWalk:
    @given(indexed_loops(), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_matches_scalar(self, loop, count, data):
        total = count * loop.data_size
        first = data.draw(st.integers(0, total))
        last = data.draw(st.integers(first, total))
        fast, ref = _both_modes(loop, count, first, last)
        assert fast == ref

    @given(indexed_loops(), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_full_stream_matches_scalar(self, loop, count):
        total = count * loop.data_size
        fast, ref = _both_modes(loop, count, 0, total)
        assert fast == ref

    @given(indexed_loops(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_gate_equivalence(self, loop, data):
        """Run-table on/off (cache_threshold) changes nothing."""
        total = loop.data_size
        first = data.draw(st.integers(0, total))
        with_table = _window_regions(
            ser.loads(ser.dumps(loop)), 1, first, total, 1 << 30
        )
        without = _window_regions(
            ser.loads(ser.dumps(loop)), 1, first, total, 0
        )
        assert with_table == without


class TestStructWalk:
    @given(struct_loops(), st.integers(1, 2), st.data())
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_window_matches_scalar(self, loop, count, data):
        total = count * loop.data_size
        first = data.draw(st.integers(0, total))
        last = data.draw(st.integers(first, total))
        fast, ref = _both_modes(loop, count, first, last)
        assert fast == ref

    @given(struct_loops(homogeneous=False), st.data())
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_window_matches_scalar(self, loop, data):
        total = loop.data_size
        first = data.draw(st.integers(0, total))
        last = data.draw(st.integers(first, total))
        fast, ref = _both_modes(loop, 1, first, last)
        assert fast == ref


class TestBuiltLoops:
    @given(small_datatypes(), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_datatype_stream_matches_scalar(self, t, count, data):
        """End-to-end: build_dataloop over random datatypes, both modes."""
        loop = build_dataloop(t)
        total = count * loop.data_size
        first = data.draw(st.integers(0, total))
        last = data.draw(st.integers(first, total))
        fast, ref = _both_modes(loop, count, first, last)
        assert fast == ref


class TestFlattenFull:
    """The interior per-block kinds against ``tests/reference/core.py``
    (the bodies the end-to-end identity tests substitute)."""

    @given(indexed_loops())
    @settings(max_examples=60, deadline=None)
    def test_indexed_matches_reference(self, loop):
        assert loop._flatten_one() == reference.flatten_one(loop)

    @given(indexed_loops(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_blockindexed_matches_reference(self, loop, blocksize):
        loop = Dataloop.blockindexed(
            blocksize, loop.offsets, loop.children[0], loop.extent
        )
        fast = loop._flatten_one().coalesce()
        assert fast == reference.flatten_one(loop).coalesce()


class TestRunTable:
    def test_rows_match_per_block_expansion(self):
        child = Dataloop.final_vector(2, 1, 6, 2, extent=16)
        loop = Dataloop.indexed([2, 0, 3], [0, 50, 100], child, 200)
        offs, lens, cum = loop._block_run_table()
        assert cum[0] == 0 and cum[-1] == offs.size == lens.size
        # block 1 is empty: zero rows
        assert cum[1] == cum[2]
        # rebuild block 2's rows by hand from the child flattening
        flat = child.flatten_full()
        want = []
        for i in range(3):
            base = 100 + i * child.extent
            want.extend(
                (int(base + o), int(ln))
                for o, ln in zip(flat.offsets, flat.lengths)
            )
        got = list(
            zip(
                (int(v) for v in offs[int(cum[2]):]),
                (int(v) for v in lens[int(cum[2]):]),
            )
        )
        assert got == want

    def test_memoized(self):
        child = Dataloop.final_vector(2, 1, 6, 2, extent=16)
        loop = Dataloop.indexed([1, 1], [0, 40], child, 100)
        assert loop._block_run_table() is loop._block_run_table()

    def test_unsupported_kind_raises(self):
        child = Dataloop.final_vector(2, 1, 6, 2, extent=16)
        loop = Dataloop.contig(3, child)
        with pytest.raises(ValueError):
            loop._block_run_table()
