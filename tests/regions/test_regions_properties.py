"""Property-based tests of region-set invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpiio.methods.listio import list_io_cuts
from repro.regions import Regions

from ..conftest import region_lists, sorted_region_lists, stream_window, traced_peak
from ..reference import core as reference


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
        piece = stream_window(r, s0, s1)
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
            stream_window(r, s0, s1).gather(buf), r.gather(buf)[s0:s1]
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
                stream_window(r, s0, s1),
                r.split_at_stream([s0, s1]),
                Regions.concat([r, r.shift(7)]),
                r[i : i + 2],
                *[p for p, _ in r.partition_with_stream([lo, (lo + hi) // 2, hi])],
                r.partition_with_stream([lo + (hi - lo) // 4, hi - (hi - lo) // 4])[0][0],
            ]
            if r.count:
                results.append(r[i])
            for out in results:
                assert out.total_bytes == int(out.lengths.sum())
                assert out.total_bytes == int(out.lengths.sum())  # memoised now

    @given(region_lists(), st.integers(1, 7))
    @settings(max_examples=80, deadline=None)
    def test_split_chunks_partition(self, pairs, k):
        """List I/O's bound against a contiguous memory side: runs of at
        most ``k`` regions that concatenate back to the set."""
        r = Regions.from_pairs(pairs)
        pieces, bounds = list_io_cuts(Regions.single(0, r.total_bytes), r, k)
        chunks = [pieces[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        assert all(0 < c.count <= k for c in chunks)
        assert Regions.concat(chunks) == r

    @given(region_lists())
    @settings(max_examples=100, deadline=None)
    def test_clip_with_stream_consistent(self, pairs):
        r = Regions.from_pairs(pairs)
        lo, hi = r.extent()
        mid = (lo + hi) // 2
        ((clipped, spos),) = r.partition_with_stream([lo, mid])
        assert clipped == reference.clip_with_stream(r, lo, mid)[0]
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


def _coalesce_reference(pairs):
    """From-scratch coalesce over Python pairs: merge a region into its
    predecessor when it starts where the predecessor ends."""
    out = []
    for off, ln in pairs:
        if out and out[-1][0] + out[-1][1] == off:
            out[-1] = (out[-1][0], out[-1][1] + ln)
        else:
            out.append((off, ln))
    return out


@st.composite
def seam_lists(draw, max_regions=8):
    """Region lists in which sequence neighbours often abut (so that
    ``coalesce`` has something to merge) and otherwise land anywhere —
    unsorted and overlapping included."""
    pairs = []
    for _ in range(draw(st.integers(0, max_regions))):
        ln = draw(st.integers(1, 40))
        if pairs and draw(st.booleans()):
            # the end of the predecessor, or of any earlier region: the
            # latter abuts only once what lies between is clipped away
            prev = pairs[-1] if draw(st.booleans()) else draw(st.sampled_from(pairs))
            off = prev[0] + prev[1]
        else:
            off = draw(st.integers(0, 400))
        pairs.append((off, ln))
    return pairs


@st.composite
def repeat_cases(draw):
    """``(pairs, stride)`` over the shapes ``repeat`` distinguishes."""
    shape = draw(
        st.sampled_from(
            ["empty", "dense", "one_run", "seam_abuts", "overlap", "any"]
        )
    )
    if shape == "empty":
        return [], draw(st.integers(-5, 50))
    if shape in ("dense", "one_run"):
        off, ln = draw(st.integers(0, 400)), draw(st.integers(1, 40))
        if shape == "dense":
            return [(off, ln)], ln
        stride = draw(st.integers(-60, 60).filter(lambda s: s != ln))
        return [(off, ln)], stride
    pairs = draw(seam_lists().filter(bool))
    first, (last_off, last_len) = pairs[0][0], pairs[-1]
    if shape == "seam_abuts":
        # replica i+1 starts where replica i ends (may be <= 0: unsorted)
        return pairs, last_off + last_len - first
    if shape == "overlap":
        lo = min(o for o, _ in pairs)
        hi = max(o + l for o, l in pairs)
        return pairs, draw(st.integers(0, hi - lo - 1))
    return pairs, draw(st.integers(-60, 600))


class TestRunGranularity:
    """``repeat`` and the "known coalesced" memo (architecture §1)."""

    @given(repeat_cases(), st.sampled_from([0, 1, 2, 17]))
    @settings(max_examples=400, deadline=None)
    def test_repeat_equals_tile_then_coalesce(self, case, count):
        pairs, stride = case
        r = Regions.from_pairs(pairs)
        got = r.repeat(count, stride)
        want = r.tile(count, stride).coalesce()
        assert np.array_equal(got.offsets, want.offsets)
        assert np.array_equal(got.lengths, want.lengths)
        assert got.offsets.dtype == got.lengths.dtype == np.int64
        assert got.offsets.ndim == got.lengths.ndim == 1
        assert got.total_bytes == want.total_bytes == count * r.total_bytes
        # and both equal a coalesce that shares no code with either
        tiled = [(o + i * stride, l) for i in range(count) for o, l in pairs]
        assert got.to_pairs() == _coalesce_reference(tiled)
        assert got.coalesce() is got

    @given(repeat_cases(), st.integers(-5, -1))
    @settings(max_examples=30, deadline=None)
    def test_repeat_negative_count_raises(self, case, count):
        pairs, stride = case
        with pytest.raises(ValueError):
            Regions.from_pairs(pairs).repeat(count, stride)

    @pytest.mark.parametrize("pairs", [[(24, 8)], [(24, 3), (27, 5)]])
    def test_dense_repeat_builds_no_replica(self, pairs):
        r = Regions.from_pairs(pairs)
        out, peak = traced_peak(lambda: r.repeat(10**6, 8))
        assert out.to_pairs() == [(24, 8 * 10**6)]
        assert peak < 64 * 1024  # a tiling is 16 MB of offsets and lengths

    @given(seam_lists(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_coalesced_memo_is_sound(self, pairs, data):
        """Whatever chain of transformations a set came through, a set
        flag means a from-scratch coalesce changes nothing."""
        r = Regions.from_pairs(pairs)
        seen = [r]
        for _ in range(data.draw(st.integers(1, 6))):
            op = data.draw(
                st.sampled_from(
                    [
                        "coalesce", "repeat", "shift", "tile", "clip", "concat",
                        "slice", "index",
                    ]
                )
            )
            if op == "coalesce":
                r = r.coalesce()
                assert r._coalesced or r.count < 2
            elif op == "repeat":
                r = r.repeat(
                    data.draw(st.integers(0, 3)),
                    data.draw(st.one_of(st.integers(-40, 80), st.just(r.total_bytes))),
                )
                assert r._coalesced or r.count < 2
            elif op == "shift":
                r = r.shift(data.draw(st.integers(-20, 20)))
            elif op == "tile":
                lo, hi = r.extent()
                r = r.tile(
                    data.draw(st.integers(0, 3)),
                    data.draw(st.one_of(st.integers(-40, 80), st.just(hi - lo))),
                )
            elif op == "clip":
                lo, hi = r.extent()
                bounds = sorted(
                    data.draw(st.integers(lo - 5, hi + 5)) for _ in range(2)
                )
                r = r.partition_with_stream(bounds)[0][0]
            elif op == "concat":
                other = data.draw(st.sampled_from(seen))
                r = Regions.concat(
                    [r, other.shift(data.draw(st.integers(-20, 20)))]
                )
            elif op == "slice":
                i = data.draw(st.integers(0, r.count))
                r = r[i : data.draw(st.integers(i, r.count))]
            elif r.count:
                r = r[data.draw(st.integers(0, r.count - 1))]
            seen.append(r)
        for s in seen:
            if s._coalesced:
                assert s.to_pairs() == _coalesce_reference(s.to_pairs())

    def test_flag_is_dropped_where_runs_can_meet(self):
        """Dropping or appending runs can bring two abutting ones
        together, so only ``shift`` may carry the flag over."""
        c = Regions.from_pairs([(0, 5), (100, 3), (5, 5)]).coalesce()
        assert c._coalesced and c.shift(7)._coalesced
        for out in (
            c.partition_with_stream([0, 50])[0][0],
            c[::2],
            Regions.concat([c[:1], c[2:]]),
            c[:1].tile(2, 5),
        ):
            assert out.to_pairs() == [(0, 5), (5, 5)]
            assert not out._coalesced
            assert out.coalesce().to_pairs() == [(0, 10)]

    @given(seam_lists())
    @settings(max_examples=100, deadline=None)
    def test_coalesce_twice_is_the_same_object(self, pairs):
        once = Regions.from_pairs(pairs).coalesce()
        assert once.to_pairs() == _coalesce_reference(pairs)
        assert once.coalesce() is once
        assert once.shift(3).coalesce().to_pairs() == [
            (o + 3, l) for o, l in once.to_pairs()
        ]
