"""Unit tests for Regions construction and basic properties."""

import numpy as np
import pytest

from repro.mpiio.methods.listio import list_io_cuts
from repro.pvfs import PVFSConfig
from repro.regions import Regions

from ..conftest import stream_window


class TestConstruction:
    def test_empty(self):
        r = Regions.empty()
        assert r.count == 0
        assert r.total_bytes == 0
        assert r.extent() == (0, 0)
        assert list(r) == []

    def test_single(self):
        r = Regions.single(10, 5)
        assert r.count == 1
        assert r.total_bytes == 5
        assert r.to_pairs() == [(10, 5)]

    def test_single_zero_length_is_empty(self):
        assert Regions.single(10, 0).count == 0

    def test_from_pairs(self):
        r = Regions.from_pairs([(0, 4), (10, 2)])
        assert r.to_pairs() == [(0, 4), (10, 2)]

    def test_zero_length_regions_dropped(self):
        r = Regions([0, 5, 9], [4, 0, 1])
        assert r.to_pairs() == [(0, 4), (9, 1)]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Regions([0], [-1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Regions([0, 1], [1])

    def test_concat_preserves_order(self):
        a = Regions.from_pairs([(10, 2)])
        b = Regions.from_pairs([(0, 3)])
        c = Regions.concat([a, b])
        assert c.to_pairs() == [(10, 2), (0, 3)]

    def test_concat_empty_parts(self):
        assert Regions.concat([]).count == 0
        a = Regions.from_pairs([(1, 1)])
        assert Regions.concat([Regions.empty(), a]) == a

    def test_equality(self):
        a = Regions.from_pairs([(0, 4), (8, 4)])
        b = Regions.from_pairs([(0, 4), (8, 4)])
        c = Regions.from_pairs([(0, 4), (8, 5)])
        assert a == b
        assert a != c
        assert (a == 3) is NotImplemented or not (a == 3)

    def test_content_hash(self):
        a = Regions.from_pairs([(0, 4), (8, 4)])
        b = Regions.from_pairs([(0, 4), (8, 4)])
        c = Regions.from_pairs([(0, 4), (8, 5)])
        assert hash(a) == hash(b)  # equal content -> equal hash
        assert a == b
        # distinct content *may* collide, but these two must not be
        # forced equal through a dict
        assert len({a: 1, c: 2}) == 2
        assert {a: "x"}[b] == "x"
        assert hash(Regions.empty()) == hash(Regions.empty())

    def test_getitem_slice(self):
        r = Regions.from_pairs([(0, 1), (2, 1), (4, 1)])
        assert r[1:].to_pairs() == [(2, 1), (4, 1)]
        assert r[0].to_pairs() == [(0, 1)]

    def test_repr_small_and_large(self):
        small = Regions.from_pairs([(0, 1)])
        assert "0, 1" in repr(small)
        big = Regions.from_pairs([(i, 1) for i in range(0, 40, 2)])
        assert "..." in repr(big)

    def test_extent(self):
        r = Regions.from_pairs([(10, 5), (2, 3)])
        assert r.extent() == (2, 15)

    def test_is_sorted(self):
        assert Regions.from_pairs([(0, 1), (5, 1)]).is_sorted
        assert not Regions.from_pairs([(5, 1), (0, 1)]).is_sorted


class TestTransforms:
    def test_shift(self):
        r = Regions.from_pairs([(0, 4), (8, 2)]).shift(100)
        assert r.to_pairs() == [(100, 4), (108, 2)]

    def test_shift_zero_is_identity(self):
        r = Regions.from_pairs([(0, 4)])
        assert r.shift(0) is r

    def test_shift_negative(self):
        r = Regions.from_pairs([(10, 4)]).shift(-10)
        assert r.to_pairs() == [(0, 4)]

    def test_tile(self):
        r = Regions.from_pairs([(0, 2)]).tile(3, 10)
        assert r.to_pairs() == [(0, 2), (10, 2), (20, 2)]

    def test_tile_multi_region(self):
        r = Regions.from_pairs([(0, 1), (4, 1)]).tile(2, 8)
        assert r.to_pairs() == [(0, 1), (4, 1), (8, 1), (12, 1)]

    def test_tile_zero(self):
        assert Regions.from_pairs([(0, 2)]).tile(0, 10).count == 0

    def test_tile_one_is_identity(self):
        r = Regions.from_pairs([(0, 2)])
        assert r.tile(1, 10) is r

    def test_tile_negative_count(self):
        with pytest.raises(ValueError):
            Regions.from_pairs([(0, 2)]).tile(-1, 10)

    def test_coalesce_adjacent(self):
        r = Regions.from_pairs([(0, 4), (4, 4), (10, 2)]).coalesce()
        assert r.to_pairs() == [(0, 8), (10, 2)]

    def test_coalesce_only_sequence_adjacent(self):
        # spatially adjacent but out of sequence order: must NOT merge
        r = Regions.from_pairs([(4, 4), (0, 4)]).coalesce()
        assert r.to_pairs() == [(4, 4), (0, 4)]

    def test_coalesce_long_run(self):
        r = Regions.from_pairs([(i, 1) for i in range(100)]).coalesce()
        assert r.to_pairs() == [(0, 100)]

    def test_coalesce_no_merge_is_identity(self):
        r = Regions.from_pairs([(0, 1), (2, 1)])
        assert r.coalesce() is r

    def test_normalized_sorts_and_merges(self):
        r = Regions.from_pairs([(8, 4), (0, 4), (4, 4)]).normalized()
        assert r.to_pairs() == [(0, 12)]


class TestClip:
    """Clipping to a file range is one interval of
    ``partition_with_stream``."""

    def test_clip_basic(self):
        r = Regions.from_pairs([(0, 10), (20, 10)])
        ((clipped, _),) = r.partition_with_stream([5, 25])
        assert clipped.to_pairs() == [(5, 5), (20, 5)]

    def test_clip_empty_range(self):
        r = Regions.from_pairs([(0, 10)])
        assert [c.count for c, _ in r.partition_with_stream([5, 5, 5])] == [0, 0]
        assert [c.count for c, _ in r.partition_with_stream([3, 3, 7])] == [0, 1]

    def test_clip_no_overlap(self):
        r = Regions.from_pairs([(0, 10)])
        ((clipped, spos),) = r.partition_with_stream([100, 200])
        assert clipped.count == 0 and spos.size == 0

    def test_clip_with_stream_positions(self):
        r = Regions.from_pairs([(0, 10), (20, 10)])
        ((clipped, spos),) = r.partition_with_stream([25, 100])
        assert clipped.to_pairs() == [(25, 5)]
        # bytes 25..30 of the file are stream bytes 15..20
        assert spos.tolist() == [15]

    def test_clip_with_stream_spanning(self):
        r = Regions.from_pairs([(0, 4), (10, 4), (20, 4)])
        ((clipped, spos),) = r.partition_with_stream([2, 22])
        assert clipped.to_pairs() == [(2, 2), (10, 4), (20, 2)]
        assert spos.tolist() == [2, 4, 8]

    def test_intersect(self):
        a = Regions.from_pairs([(0, 10), (20, 10)])
        b = Regions.from_pairs([(5, 20)])
        assert a.intersect(b).to_pairs() == [(5, 5), (20, 5)]
        assert a.overlap_bytes(b) == 10

    def test_intersect_empty(self):
        a = Regions.from_pairs([(0, 10)])
        assert a.intersect(Regions.empty()).count == 0
        assert Regions.empty().intersect(a).count == 0


class TestStreamOps:
    def test_slice_stream(self):
        """A stream window is a cut at both ends plus one slice."""
        r = Regions.from_pairs([(0, 4), (10, 4), (20, 4)])
        assert stream_window(r, 0, 4).to_pairs() == [(0, 4)]
        assert stream_window(r, 2, 6).to_pairs() == [(2, 2), (10, 2)]
        assert stream_window(r, 4, 12).to_pairs() == [(10, 4), (20, 4)]
        assert stream_window(r, 5, 7).to_pairs() == [(11, 2)]

    def test_slice_stream_out_of_range(self):
        r = Regions.from_pairs([(0, 4)])
        assert stream_window(r, 10, 20).count == 0
        assert stream_window(r, -5, 2).to_pairs() == [(0, 2)]

    def test_split_at_stream(self):
        r = Regions.from_pairs([(0, 10)])
        out = r.split_at_stream([3, 7])
        assert out.to_pairs() == [(0, 3), (3, 4), (7, 3)]

    def test_split_at_stream_boundary_cuts_noop(self):
        r = Regions.from_pairs([(0, 4), (10, 4)])
        out = r.split_at_stream([4])  # already a region boundary
        assert out == r

    def test_split_at_stream_multiple_regions(self):
        r = Regions.from_pairs([(0, 4), (10, 4)])
        out = r.split_at_stream([2, 6])
        assert out.to_pairs() == [(0, 2), (2, 2), (10, 2), (12, 2)]

    def test_split_chunks(self):
        """Against a contiguous memory side, list I/O's bound cuts the
        file list into consecutive runs of at most ``limit`` regions."""
        r = Regions.from_pairs([(i * 2, 1) for i in range(10)])
        pieces, bounds = list_io_cuts(Regions.single(0, r.total_bytes), r, 4)
        assert pieces == r
        assert bounds.tolist() == [0, 4, 8, 10]

    def test_split_chunks_invalid(self):
        with pytest.raises(ValueError):
            PVFSConfig(list_io_max_regions=0)


class TestGatherScatter:
    def test_gather(self):
        buf = np.arange(20, dtype=np.uint8)
        r = Regions.from_pairs([(2, 3), (10, 2)])
        assert r.gather(buf).tolist() == [2, 3, 4, 10, 11]

    def test_gather_preserves_sequence_order(self):
        buf = np.arange(20, dtype=np.uint8)
        r = Regions.from_pairs([(10, 2), (0, 2)])
        assert r.gather(buf).tolist() == [10, 11, 0, 1]

    def test_gather_empty(self):
        assert Regions.empty().gather(np.zeros(4, np.uint8)).size == 0

    def test_gather_bounds_check(self):
        buf = np.zeros(4, np.uint8)
        with pytest.raises(IndexError):
            Regions.from_pairs([(2, 5)]).gather(buf)

    def test_scatter(self):
        buf = np.zeros(10, dtype=np.uint8)
        r = Regions.from_pairs([(1, 2), (6, 3)])
        r.scatter(buf, np.array([9, 8, 7, 6, 5], dtype=np.uint8))
        assert buf.tolist() == [0, 9, 8, 0, 0, 0, 7, 6, 5, 0]

    def test_scatter_size_mismatch(self):
        buf = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            Regions.from_pairs([(0, 4)]).scatter(buf, np.zeros(3, np.uint8))

    def test_scatter_bounds_check(self):
        buf = np.zeros(4, np.uint8)
        with pytest.raises(IndexError):
            Regions.from_pairs([(2, 5)]).scatter(buf, np.zeros(5, np.uint8))

    def test_gather_scatter_roundtrip(self, rng):
        buf = rng.integers(0, 255, 1000, dtype=np.uint8)
        r = Regions.from_pairs([(i * 7, 3) for i in range(100)])
        data = r.gather(buf)
        out = np.zeros_like(buf)
        r.scatter(out, data)
        assert np.array_equal(r.gather(out), data)

    def test_gather_accepts_other_dtypes(self):
        buf = np.arange(5, dtype=np.int32)
        r = Regions.from_pairs([(0, 4)])
        assert r.gather(buf).tolist() == [0, 0, 0, 0]
