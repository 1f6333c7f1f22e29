"""Partial processing: arbitrary stream windows, bounded batches."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import DOUBLE, INT, struct, subarray, vector
from repro.dataloops import DataloopStream, build_dataloop, stream_regions
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

    def test_stream_bytes_property(self):
        dl = build_dataloop(vector(4, 1, 2, INT))
        s = DataloopStream(dl, first=3, last=11)
        assert s.stream_bytes == 8

    def test_cache_threshold_equivalence(self):
        t = subarray([20, 20], [10, 10], [5, 5], INT)
        dl = build_dataloop(t)
        a = DataloopStream(dl, count=2, cache_threshold=0).regions()
        b = DataloopStream(dl, count=2, cache_threshold=10**6).regions()
        assert a == b == walker_regions(t, 2)


class TestInstanceAlignedBatches:
    """Periodicity metadata: batches cut at whole-instance boundaries."""

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.combiner)
    def test_union_matches_window(self, t):
        dl = build_dataloop(t)
        size = 3 * t.size
        stream = DataloopStream(
            dl, count=3, first=5, last=size - 3, max_regions=16
        )
        parts = [b for _, _, b in stream.instance_aligned_batches()]
        got = Regions.concat(parts).coalesce()
        assert got == reference_window(t, 3, 0, 5, size - 3)

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.combiner)
    def test_boundaries_are_instance_multiples(self, t):
        dl = build_dataloop(t)
        unit = dl.data_size
        stream = DataloopStream(dl, count=4, max_regions=16)
        prev_end = 0
        for c0, c1, batch in stream.instance_aligned_batches():
            assert c0 == prev_end  # contiguous instance ranges
            assert c0 < c1
            assert batch.total_bytes == (c1 - c0) * unit
            prev_end = c1
        assert prev_end == 4

    def test_batch_bound_still_holds(self):
        t = vector(30, 1, 2, INT)
        dl = build_dataloop(t)
        stream = DataloopStream(dl, count=8, max_regions=64)
        for _, _, batch in stream.instance_aligned_batches():
            assert batch.count <= max(64, dl.region_count)

    def test_empty_window(self):
        dl = build_dataloop(INT)
        s = DataloopStream(dl, first=2, last=2)
        assert list(s.instance_aligned_batches()) == []

    @given(small_datatypes(), st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_property_union_and_alignment(self, t, count, data):
        size = t.size * count
        if size == 0:
            return
        first = data.draw(st.integers(0, size - 1))
        last = data.draw(st.integers(first + 1, size))
        dl = build_dataloop(t)
        unit = dl.data_size
        stream = DataloopStream(
            dl, count=count, first=first, last=last, max_regions=8
        )
        parts = []
        for c0, c1, batch in stream.instance_aligned_batches():
            # batch covers the window clamped to instances [c0, c1)
            lo = max(first, c0 * unit)
            hi = min(last, c1 * unit)
            assert batch.total_bytes == hi - lo
            parts.append(batch)
        got = Regions.concat(parts).coalesce() if parts else Regions.empty()
        assert got == reference_window(t, count, 0, first, last)


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

    @given(small_datatypes(), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_batch_bound_property(self, t, max_regions):
        dl = build_dataloop(t)
        batches = list(DataloopStream(dl, count=2, max_regions=max_regions))
        assert all(b.count <= max_regions for b in batches)
        total = sum(b.total_bytes for b in batches)
        assert total == 2 * t.size
