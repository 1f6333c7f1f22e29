"""Vectorized region algebra vs its per-region references.

Every numpy fast path introduced for the hot-path vectorization is
pinned byte-exact over random region sets against the plain loop it
replaced, ``tests/reference/core.py``: ``intersect`` for the
intersection, the per-region ``clip_with_stream`` for each interval of
the partition (whose sorted path is two ``searchsorted`` probes and
whose fallback is one masked clip per interval).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.regions import Regions

from ..conftest import region_lists, sorted_region_lists
from ..reference import core as reference


class TestIntersect:
    @given(region_lists(), region_lists())
    @settings(max_examples=150, deadline=None)
    def test_vector_matches_scalar(self, pa, pb):
        a = Regions.from_pairs(pa)
        b = Regions.from_pairs(pb)
        assert a.intersect(b) == reference.intersect(a, b)

    @given(region_lists(), region_lists())
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_reference_directly(self, pa, pb):
        a = Regions.from_pairs(pa).normalized()
        b = Regions.from_pairs(pb).normalized()
        assert a.intersect(b) == reference.intersect(a, b)

    def test_output_is_a_major_ordered(self):
        a = Regions.from_pairs([(0, 10), (20, 10)])
        b = Regions.from_pairs([(5, 3), (9, 1), (22, 4)])
        out = a.intersect(b)
        assert list(out.offsets) == [5, 9, 22]
        assert list(out.lengths) == [3, 1, 4]


class TestPartitionWithStream:
    @given(sorted_region_lists(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_clip_with_stream(self, pairs, data):
        r = Regions.from_pairs(pairs)
        lo, hi = r.extent() if r.count else (0, 100)
        k = data.draw(st.integers(1, 6))
        cuts = sorted(
            data.draw(st.integers(lo - 5, hi + 5)) for _ in range(k + 1)
        )
        # drawn cuts, and k = 4 even steps running one byte past the end
        for bounds in (
            np.asarray(cuts, dtype=np.int64),
            np.linspace(lo, hi + 1, 5).astype(np.int64),
        ):
            parts = r.partition_with_stream(bounds)
            assert len(parts) == bounds.size - 1
            for (got, got_pos), a, b in zip(parts, bounds[:-1], bounds[1:]):
                want, want_pos = reference.clip_with_stream(r, int(a), int(b))
                assert got == want
                assert np.array_equal(got_pos, want_pos)

    @given(region_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_unsorted_input_matches_clip(self, pairs, data):
        """Overlapping/unsorted sets take the per-interval fallback."""
        r = Regions.from_pairs(pairs)
        lo, hi = r.extent() if r.count else (0, 100)
        mid = data.draw(st.integers(lo, hi))
        bounds = np.asarray([lo, mid, hi], dtype=np.int64)
        for (got, got_pos), (a, b) in zip(
            r.partition_with_stream(bounds), [(lo, mid), (mid, hi)]
        ):
            want, want_pos = reference.clip_with_stream(r, a, b)
            assert got == want
            assert np.array_equal(got_pos, want_pos)

    def test_partition_covers_stream_exactly(self):
        r = Regions.from_pairs([(0, 4), (10, 4), (20, 4)])
        bounds = np.asarray([0, 12, 24], dtype=np.int64)
        parts = r.partition_with_stream(bounds)
        assert sum(c.total_bytes for c, _ in parts) == r.total_bytes
        # stream positions are disjoint and ascending across intervals
        allpos = np.concatenate([p for _, p in parts])
        assert (np.diff(allpos) > 0).all()


class TestMemoization:
    def test_gather_retains_nothing_per_byte(self):
        """Moving bytes leaves no per-byte state behind on the instance."""
        r = Regions(np.arange(0, 1 << 20, 4096), np.full(256, 2048))
        ragged = Regions(np.arange(0, 1 << 20, 4096), np.arange(1, 257))
        buf = np.zeros(1 << 20, dtype=np.uint8)
        for regions in (r, ragged):
            regions.scatter(buf, regions.gather(buf))
            held = sum(
                getattr(regions, slot).nbytes
                for slot in Regions.__slots__
                if isinstance(getattr(regions, slot), np.ndarray)
            )
            assert held == 16 * regions.count

    def test_gather_scatter_roundtrip_after_memo(self):
        r = Regions.from_pairs([(0, 4), (10, 4)])
        buf = np.arange(20, dtype=np.uint8)
        packed = r.gather(buf)
        out = np.zeros(20, dtype=np.uint8)
        r.scatter(out, packed)
        assert out.tolist() == [0, 1, 2, 3] + [0] * 6 + [10, 11, 12, 13] + [0] * 6


class TestScalarModeKnob:
    """The ``reference_core`` substitution the end-to-end identity
    tests run under must not outlive its ``with`` block."""

    def test_context_manager_restores(self, reference_core):
        live = Regions.intersect
        with reference_core():
            assert Regions.intersect is reference.intersect
        assert Regions.intersect is live

    def test_nested(self, reference_core):
        live = Regions.intersect
        with reference_core():
            with reference_core():
                assert Regions.intersect is reference.intersect
            assert Regions.intersect is reference.intersect
        assert Regions.intersect is live
