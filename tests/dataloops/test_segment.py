"""Partial processing: arbitrary stream windows, bounded batches."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datatypes import BYTE, DOUBLE, INT, struct, subarray, vector
from repro.dataloops import (
    Dataloop,
    DataloopStream,
    build_dataloop,
    byte_at,
    stream_regions,
)
from repro.pvfs import Distribution
from repro.pvfs.expand_cache import expand_window
from repro.regions import Regions

from ..conftest import small_datatypes, stream_window
from ..reference import oracle


def walker_regions(t, count=1, base=0) -> Regions:
    return Regions.from_pairs(oracle.runs(t, count, base))


def reference_window(t, count, base, first, last):
    """Window regions via the typemap walker + cut and select (ground
    truth)."""
    return stream_window(walker_regions(t, count, base), first, last)


CASES = [
    vector(5, 3, 7, INT),
    subarray([8, 8, 8], [3, 3, 3], [2, 2, 2], INT),
    struct([2, 1], [0, 40], [INT, DOUBLE]),
    struct([1, 2], [30, 0], [DOUBLE, vector(2, 1, 3, INT)]),
]


class TestWindows:
    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.combiner)
    def test_full_window(self, t):
        dl = build_dataloop(t)
        assert stream_regions(dl) == walker_regions(t)

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.combiner)
    def test_every_subwindow_one_instance(self, t):
        dl = build_dataloop(t)
        size = t.size
        for first in range(0, size, max(size // 7, 1)):
            for last in range(first + 1, size + 1, max(size // 5, 1)):
                got = stream_regions(dl, first=first, last=last)
                want = reference_window(t, 1, 0, first, last)
                assert got == want, (first, last)

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.combiner)
    def test_windows_across_instances(self, t):
        dl = build_dataloop(t)
        count = 3
        size = t.size * count
        for first, last in [
            (0, size),
            (1, size - 1),
            (t.size - 1, t.size + 1),
            (t.size, 2 * t.size),
            (size // 3, 2 * size // 3),
        ]:
            got = stream_regions(dl, count=count, first=first, last=last)
            want = reference_window(t, count, 0, first, last)
            assert got == want, (first, last)

    def test_base_offset(self):
        t = vector(3, 1, 2, INT)
        dl = build_dataloop(t)
        got = stream_regions(dl, base_offset=1000, first=2, last=10)
        want = reference_window(t, 1, 1000, 2, 10)
        assert got == want

    def test_empty_window(self):
        dl = build_dataloop(INT)
        assert stream_regions(dl, first=2, last=2).count == 0
        assert stream_regions(dl, first=10, last=5).count == 0

    def test_window_clamped_to_stream(self):
        t = vector(2, 1, 2, INT)
        dl = build_dataloop(t)
        got = stream_regions(dl, first=0, last=10_000)
        assert got == walker_regions(t)


class TestBatching:
    def test_batches_respect_max_regions(self):
        t = vector(1000, 1, 2, INT)
        dl = build_dataloop(t)
        stream = DataloopStream(dl, max_regions=64)
        batches = list(stream)
        assert all(b.count <= 64 for b in batches)
        assert Regions.concat(batches) == walker_regions(t)
        assert len(batches) >= 1000 // 64

    def test_single_batch_when_small(self):
        t = vector(10, 1, 2, INT)
        dl = build_dataloop(t)
        assert len(list(DataloopStream(dl, max_regions=64))) == 1

    def test_batch_boundary_coalescing(self):
        # dense type must coalesce to one region even over many batches
        t = vector(100, 2, 2, INT)  # dense
        dl = build_dataloop(t)
        out = DataloopStream(dl, max_regions=8).regions()
        assert out.to_pairs() == [(0, 800)]

    def test_invalid_params(self):
        dl = build_dataloop(INT)
        with pytest.raises(ValueError):
            DataloopStream(dl, max_regions=0)
        with pytest.raises(ValueError):
            DataloopStream(dl, count=-1)

class TestPropertyWindows:
    @given(
        small_datatypes(),
        st.integers(1, 3),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_windows(self, t, count, data):
        size = t.size * count
        if size == 0:
            return
        first = data.draw(st.integers(0, size))
        last = data.draw(st.integers(first, size))
        dl = build_dataloop(t)
        got = stream_regions(dl, count=count, first=first, last=last)
        want = reference_window(t, count, 0, first, last)
        assert got == want
        assert got.total_bytes == last - first

    @given(
        small_datatypes(),
        st.integers(1, 3),
        st.integers(1, 40),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    )
    @example(BYTE, 8, 1, 0, 8)  # eight dense instances, one-pair batches
    @settings(max_examples=120, deadline=None)
    def test_batch_bound_property(self, t, count, max_regions, a, b):
        """Batches hold at most ``max_regions`` and never split a region
        that coalesces: they concatenate, pair for pair, to
        ``regions()``, and the server's ``scanned`` is that count."""
        size = t.size * count
        first = a % (size + 1)
        last = first + b % (size - first + 1)
        loop = build_dataloop(t)
        stream = DataloopStream(
            loop, count=count, first=first, last=last, max_regions=max_regions
        )
        want = stream.regions()
        batches = list(stream)
        assert all(0 < b.count <= max_regions for b in batches)
        assert Regions.concat(batches).to_pairs() == want.to_pairs()
        assert want.total_bytes == last - first
        _, scanned = expand_window(
            loop, count, 0, first, last, Distribution(2, 64), 0, max_regions
        )
        assert scanned == want.count


HOSTILE = {
    "vector": Dataloop.vector(2**40, 1, 16, Dataloop.final_contig(1, 8)),
    "final": Dataloop.final_vector(2**40, 1, 16, 8),
    "nested": Dataloop.contig(
        2**20, Dataloop.final_vector(2**20, 1, 16, 8, extent=2**24)
    ),
}


class TestHostileDescriptor:
    """One instance with 2**40 regions: a 4 KiB window costs the window
    and a batch, never the instance (the §3.2 defence)."""

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_window_is_bounded(self, name):
        loop = HOSTILE[name]
        assert loop.region_count == 2**40
        first = loop.data_size // 2 + 3
        max_regions = 64
        tracemalloc.start()
        got = DataloopStream(
            loop, first=first, last=first + 4096, max_regions=max_regions
        ).regions()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # the 513 pairs returned plus a few batches of max_regions
        assert peak < 64 * 1024
        assert got.total_bytes == 4096
        assert got.count == 513
        assert got.to_pairs()[:2] == [
            (2**39 * 16 + 3, 5),
            (2**39 * 16 + 16, 8),
        ]

    def test_dense_instances_coalesce_batch_by_batch(self):
        """Instances that join up merge as the batches go: 2**20 one-byte
        instances hold a batch at a time, never one region per instance."""
        tracemalloc.start()
        got = DataloopStream(
            build_dataloop(BYTE), count=1 << 20, max_regions=1024
        ).regions()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got.to_pairs() == [(0, 1 << 20)]
        assert peak < 64 * 1024


@given(small_datatypes(), st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_byte_at_is_the_typemap_walk(t, count, data):
    """``byte_at`` descends one block per level to the byte a stream
    position names: the typemap walker's byte, for any type and any
    instance of a tiling."""
    walk = oracle.typemap(t, count)
    if not walk:
        return
    pos = data.draw(st.integers(0, t.size * count - 1))
    offsets = [off + i for off, n in walk for i in range(n)]
    assert byte_at(build_dataloop(t), pos) == offsets[pos]
