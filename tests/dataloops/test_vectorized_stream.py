"""Indexed/struct dataloop streams against the typemap walker.

Every window is checked against ``tests/reference/oracle.py`` (through
``test_segment.reference_window``), a scalar walker that visits one
element at a time and shares no code with ``src/``.  ``max_regions`` is
drawn from ``[1, 2 * region_count]``, so the properties meet both arms
of the stream's rule: an instance that fits in a batch is cut from its
memoised flattening, a bigger one is descended block by block.
"""

from hypothesis import given, settings, strategies as st

from repro.datatypes import BYTE, contiguous, hindexed, hvector, resized, struct
from repro.dataloops import Dataloop, DataloopStream, build_dataloop
from repro.regions import Regions

from ..conftest import small_datatypes, stream_window
from ..reference import core as reference
from .test_segment import reference_window


def check_window(t, count, data):
    """A random window of ``count`` instances of ``t`` at a random batch
    bound: the batches and ``regions()`` both equal the oracle's."""
    loop = build_dataloop(t)
    total = count * loop.data_size
    first = data.draw(st.integers(0, total))
    last = data.draw(st.integers(first, total))
    max_regions = data.draw(st.integers(1, max(1, 2 * loop.region_count)))
    stream = DataloopStream(
        loop, count=count, first=first, last=last, max_regions=max_regions
    )
    batches = list(stream)
    assert all(b.count <= max_regions for b in batches)
    want = reference_window(t, count, 0, first, last)
    assert Regions.concat(batches) == want
    assert stream.regions() == want


@st.composite
def field_types(draw):
    """A strided field of 1–3 blocks, resized to a 30–40 byte extent."""
    el = contiguous(draw(st.integers(1, 3)), BYTE)
    vec = hvector(
        draw(st.integers(1, 3)),
        draw(st.integers(1, 2)),
        draw(st.integers(4, 10)),
        el,
    )
    return resized(vec, 0, draw(st.integers(30, 40)))


@st.composite
def indexed_types(draw):
    """Blocks of a strided field at increasing byte offsets: an indexed
    (or blockindexed) loop over an interior child."""
    n = draw(st.integers(1, 8))
    bls = [draw(st.integers(0, 3)) for _ in range(n)]
    cursor = 0
    offs = []
    for _ in bls:
        offs.append(cursor + draw(st.integers(0, 20)))
        cursor = offs[-1] + draw(st.integers(0, 60))
    extent = offs[-1] + 4 * 40 + draw(st.integers(0, 16))
    return resized(hindexed(bls, offs, draw(field_types())), 0, extent)


@st.composite
def struct_types(draw, homogeneous=True):
    n = draw(st.integers(1, 6))
    bls = [draw(st.integers(0, 2)) for _ in range(n)]
    offs = sorted(draw(st.integers(0, 200)) for _ in range(n))
    one = draw(field_types())
    fields = [one] * n if homogeneous else [draw(field_types()) for _ in range(n)]
    extent = max(offs, default=0) + 3 * 40 + 8
    return resized(struct(bls, offs, fields), 0, extent)


class TestIndexedWalk:
    @given(indexed_types(), st.integers(1, 3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_matches_scalar(self, t, count, data):
        check_window(t, count, data)

    @given(indexed_types(), st.integers(1, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_stream_matches_scalar(self, t, count, data):
        loop = build_dataloop(t)
        max_regions = data.draw(st.integers(1, max(1, 2 * loop.region_count)))
        got = DataloopStream(loop, count=count, max_regions=max_regions)
        assert got.regions() == reference_window(t, count, 0, 0, count * t.size)


class TestStructWalk:
    @given(struct_types(), st.integers(1, 2), st.data())
    @settings(max_examples=80, deadline=None)
    def test_homogeneous_window_matches_scalar(self, t, count, data):
        check_window(t, count, data)

    @given(struct_types(homogeneous=False), st.data())
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_window_matches_scalar(self, t, data):
        check_window(t, 1, data)


class TestBuiltLoops:
    @given(small_datatypes(), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_datatype_stream_matches_scalar(self, t, count, data):
        """End-to-end: build_dataloop over random datatypes."""
        check_window(t, count, data)


@st.composite
def indexed_loops(draw):
    """An indexed loop built directly, so zero-size blocks (which the
    builder drops) give runs of equal block stream starts."""
    n = draw(st.integers(1, 8))
    bls = [draw(st.integers(0, 3)) for _ in range(n)]
    cursor = 0
    offs = []
    for _ in bls:
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
def struct_loops(draw):
    """A struct loop built directly, zero-size fields included."""
    n = draw(st.integers(1, 6))
    bls = [draw(st.integers(0, 2)) for _ in range(n)]
    offs = sorted(draw(st.integers(0, 200)) for _ in range(n))
    children = [
        Dataloop.final_vector(
            draw(st.integers(1, 3)),
            1,
            draw(st.integers(3, 8)),
            draw(st.integers(1, 2)),
            extent=draw(st.integers(20, 30)),
        )
        for _ in range(n)
    ]
    extent = max(offs, default=0) + 3 * 30 + 8
    return Dataloop.struct(bls, offs, children, extent)


def blockwise(loop):
    """One instance of an indexed/struct loop, one block at a time."""
    if loop.kind == "struct":
        children = loop.children
    else:
        children = [loop.children[0]] * loop.count
    return Regions.concat(
        [
            ch.flatten_full().tile(int(bl), ch.extent).shift(int(off))
            for ch, bl, off in zip(children, loop.blocksizes, loop.offsets)
        ]
    )


class TestZeroBlocks:
    @given(
        st.one_of(indexed_loops(), struct_loops()), st.integers(1, 3), st.data()
    )
    @settings(max_examples=100, deadline=None)
    def test_window_matches_blockwise(self, loop, count, data):
        """Both arms over blocks of size zero: the descent's block
        search meets repeated stream starts."""
        total = count * loop.data_size
        first = data.draw(st.integers(0, total))
        last = data.draw(st.integers(first, total))
        max_regions = data.draw(st.integers(1, max(1, 2 * loop.region_count)))
        stream = DataloopStream(
            loop, count=count, first=first, last=last, max_regions=max_regions
        )
        batches = list(stream)
        assert all(b.count <= max_regions for b in batches)
        full = blockwise(loop).tile(count, loop.extent)
        want = stream_window(full, first, last).coalesce()
        assert Regions.concat(batches) == want
        assert stream.regions() == want


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
