"""Property-based tests of region-set invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.regions import Regions

from ..conftest import region_lists, sorted_region_lists


def _split_reference(pairs, cuts):
    """Brute-force ``split_at_stream``: walk the regions one at a time,
    cutting each at the stream positions that fall strictly inside it."""
    out = []
    pos = 0
    for off, ln in pairs:
        prev = 0
        for c in sorted({c - pos for c in cuts if pos < c < pos + ln}) + [ln]:
            out.append((off + prev, c - prev))
            prev = c
        pos += ln
    return out


class TestStreamInvariants:
    @given(region_lists(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_slice_stream_returns_exact_bytes(self, pairs, data):
        r = Regions.from_pairs(pairs)
        total = r.total_bytes
        s0 = data.draw(st.integers(0, total))
        s1 = data.draw(st.integers(s0, total))
        piece = r.slice_stream(s0, s1)
        assert piece.total_bytes == s1 - s0

    @given(region_lists(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_slice_stream_matches_gather(self, pairs, data):
        """Gathering the slice equals slicing the gathered stream."""
        r = Regions.from_pairs(pairs)
        total = r.total_bytes
        if total == 0:
            return
        s0 = data.draw(st.integers(0, total))
        s1 = data.draw(st.integers(s0, total))
        _, hi = r.extent()
        rng = np.random.default_rng(0)
        buf = rng.integers(0, 255, max(hi, 1), dtype=np.uint8)
        assert np.array_equal(
            r.slice_stream(s0, s1).gather(buf), r.gather(buf)[s0:s1]
        )

    @given(region_lists(), st.lists(st.integers(0, 10_000), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_split_at_stream_preserves_bytes(self, pairs, cuts):
        r = Regions.from_pairs(pairs)
        out = r.split_at_stream(cuts)
        assert out.total_bytes == r.total_bytes
        # coalescing the split recovers the original region structure
        assert out.coalesce() == r.coalesce()

    @given(region_lists(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_split_at_stream_equals_per_region_reference(self, pairs, data):
        """Offsets *and* lengths, in order, against a splitter that
        shares no code with the sorted-run merge — a split that kept the
        byte set but reordered or misplaced pieces would still coalesce
        back to the input."""
        r = Regions.from_pairs(pairs)
        total = r.total_bytes
        boundaries = [0, total, *np.cumsum(r.lengths).tolist()]
        cuts = data.draw(
            st.lists(
                st.one_of(
                    st.integers(-50, total + 50), st.sampled_from(boundaries)
                ),
                max_size=12,
            )
        )
        cuts = cuts + data.draw(st.lists(st.sampled_from(cuts or [0]), max_size=3))
        out = r.split_at_stream(cuts)
        assert out.to_pairs() == _split_reference(pairs, cuts)

    def test_split_at_stream_flash_shape_equals_union1d(self):
        """FLASH: 8-byte memory pieces cut 24 variables' file regions.
        The ``np.union1d`` formulation this replaced is the oracle."""
        nvar, nblocks, chunk = 24, 10, 4096
        v, b = np.divmod(np.arange(nvar * nblocks), nblocks)
        r = Regions(b * (nvar * chunk + 512) + v * chunk + 64, np.full(v.size, chunk))
        cuts = np.arange(0, r.total_bytes + 8, 8, dtype=np.int64)
        assert cuts.size > 10**5
        ends = np.cumsum(r.lengths)
        starts = ends - r.lengths
        inner = cuts[(cuts > 0) & (cuts < ends[-1])]
        bounds = np.union1d(np.concatenate((starts, ends)), inner)
        ridx = np.searchsorted(ends, bounds[:-1], side="right")
        out = r.split_at_stream(cuts)
        assert np.array_equal(
            out.offsets, r.offsets[ridx] + (bounds[:-1] - starts[ridx])
        )
        assert np.array_equal(out.lengths, np.diff(bounds))
        assert out.count == cuts.size - 1  # every piece is one 8-byte value

    @given(region_lists(), sorted_region_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_total_bytes_memo_never_crosses_a_transformation(
        self, pairs, sorted_pairs, data
    ):
        """``total_bytes`` is memoised on the instance; every public
        transformation of a set whose memo is already filled must answer
        with its *own* lengths' sum."""
        for r in (Regions.from_pairs(pairs), Regions.from_pairs(sorted_pairs)):
            total = r.total_bytes  # fill the source's memo
            lo, hi = r.extent()
            s0 = data.draw(st.integers(0, total))
            s1 = data.draw(st.integers(s0, total))
            i = data.draw(st.integers(0, max(r.count - 1, 0)))
            results = [
                r.shift(data.draw(st.integers(-100, 100))),
                r.tile(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2000))),
                r.coalesce(),
                r.clip(lo + (hi - lo) // 4, hi - (hi - lo) // 4),
                r.slice_stream(s0, s1),
                r.split_at_stream([s0, s1]),
                Regions.concat([r, r.shift(7)]),
                r[i : i + 2],
                *[p for p, _ in r.partition_with_stream([lo, (lo + hi) // 2, hi])],
            ]
            if r.count:
                results.append(r[i])
            for out in results:
                assert out.total_bytes == int(out.lengths.sum())
                assert out.total_bytes == int(out.lengths.sum())  # memoised now

    @given(region_lists(), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_split_chunks_partition(self, pairs, k):
        r = Regions.from_pairs(pairs)
        chunks = list(r.split_chunks(k))
        assert all(c.count <= k for c in chunks)
        assert Regions.concat(chunks) == r

    @given(region_lists(), st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_split_stream_partition(self, pairs, max_bytes):
        r = Regions.from_pairs(pairs)
        chunks = list(r.split_stream(max_bytes))
        assert all(c.total_bytes <= max_bytes for c in chunks)
        assert sum(c.total_bytes for c in chunks) == r.total_bytes

    @given(region_lists())
    @settings(max_examples=100, deadline=None)
    def test_clip_with_stream_consistent(self, pairs):
        r = Regions.from_pairs(pairs)
        lo, hi = r.extent()
        mid = (lo + hi) // 2
        clipped, spos = r.clip_with_stream(lo, mid)
        assert clipped == r.clip(lo, mid)
        assert spos.size == clipped.count
        if clipped.count:
            assert (spos >= 0).all()
            assert (spos + clipped.lengths <= r.total_bytes).all()


class TestSetAlgebra:
    @given(region_lists())
    @settings(max_examples=100, deadline=None)
    def test_normalized_is_canonical(self, pairs):
        r = Regions.from_pairs(pairs)
        n = r.normalized()
        assert n.is_sorted
        if n.count > 1:
            # strictly separated (no touching or overlapping runs)
            ends = n.offsets + n.lengths
            assert (n.offsets[1:] > ends[:-1]).all()
        assert n.normalized() == n

    @given(region_lists())
    @settings(max_examples=60, deadline=None)
    def test_normalized_preserves_byte_set(self, pairs):
        r = Regions.from_pairs(pairs)
        lo, hi = r.extent()
        width = max(hi, 1)
        mask = np.zeros(width, dtype=bool)
        for o, l in r:
            mask[o : o + l] = True
        n = r.normalized()
        mask2 = np.zeros(width, dtype=bool)
        for o, l in n:
            mask2[o : o + l] = True
        assert np.array_equal(mask, mask2)

    @given(sorted_region_lists(), sorted_region_lists())
    @settings(max_examples=80, deadline=None)
    def test_intersect_commutative(self, a_pairs, b_pairs):
        a = Regions.from_pairs(a_pairs)
        b = Regions.from_pairs(b_pairs)
        assert a.intersect(b) == b.intersect(a)
        assert a.overlap_bytes(b) == b.overlap_bytes(a)

    @given(sorted_region_lists())
    @settings(max_examples=60, deadline=None)
    def test_intersect_idempotent(self, pairs):
        a = Regions.from_pairs(pairs)
        assert a.intersect(a) == a.normalized()

    @given(region_lists(), st.integers(-100, 100))
    @settings(max_examples=80, deadline=None)
    def test_shift_roundtrip(self, pairs, delta):
        r = Regions.from_pairs(pairs)
        assert r.shift(delta).shift(-delta) == r

    @given(region_lists(), st.integers(0, 5), st.integers(0, 2000))
    @settings(max_examples=80, deadline=None)
    def test_tile_total_bytes(self, pairs, count, stride):
        r = Regions.from_pairs(pairs)
        t = r.tile(count, stride)
        assert t.total_bytes == count * r.total_bytes
