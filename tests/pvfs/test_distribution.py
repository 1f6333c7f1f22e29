"""Round-robin striping arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pvfs.distribution import Distribution
from repro.pvfs.jobs import build_jobs, split_ops
from repro.regions import Regions

from ..conftest import region_lists, sorted_region_lists, stream_window


class TestScalarMaps:
    def test_server_of(self):
        d = Distribution(4, 10)
        assert [d.server_of(x) for x in (0, 9, 10, 39, 40)] == [0, 0, 1, 3, 0]

    def test_logical_physical_roundtrip(self):
        d = Distribution(4, 10)
        for x in [0, 1, 9, 10, 25, 39, 40, 99, 1234]:
            s = d.server_of(x)
            p = d.logical_to_physical(x)
            assert d.physical_to_logical(s, p) == x

    def test_paper_layout(self):
        """16 servers, 64 KiB strips → 1 MiB stripe (§4.1)."""
        d = Distribution(16, 65536)
        assert d.server_of(65536 * 16) == 0
        assert d.logical_to_physical(65536 * 16) == 65536

    def test_logical_size_from_local(self):
        d = Distribution(4, 10)
        assert d.logical_size_from_local(0, 0) == 0
        # one byte on server 0 at physical 0 -> logical size 1
        assert d.logical_size_from_local(0, 1) == 1
        # full first strip of server 2 -> logical size ends at strip 2
        assert d.logical_size_from_local(2, 10) == 30

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Distribution(0, 10)
        with pytest.raises(ValueError):
            Distribution(4, 0)


class TestSplit:
    def test_single_strip_region(self):
        d = Distribution(4, 10)
        split = d.split(Regions.single(12, 5))
        assert list(split) == [1]
        assert split[1].regions.to_pairs() == [(2, 5)]
        assert split[1].stream_pos.tolist() == [0]

    def test_strip_crossing(self):
        d = Distribution(4, 10)
        split = d.split(Regions.single(5, 22))  # bytes 5..27 over strips 0,1,2
        assert sorted(split) == [0, 1, 2]
        assert split[0].regions.to_pairs() == [(5, 5)]
        assert split[1].regions.to_pairs() == [(0, 10)]
        assert split[2].regions.to_pairs() == [(0, 7)]
        assert split[0].stream_pos.tolist() == [0]
        assert split[1].stream_pos.tolist() == [5]
        assert split[2].stream_pos.tolist() == [15]

    def test_wraparound_physical_offsets(self):
        d = Distribution(2, 10)
        # strips: 0->s0, 1->s1, 2->s0(phys 10..20), ...
        split = d.split(Regions.single(20, 10))
        assert split[0].regions.to_pairs() == [(10, 10)]

    def test_stream_coverage_complete(self):
        d = Distribution(4, 7)
        r = Regions.from_pairs([(3, 20), (50, 13), (30, 5)])
        split = d.split(r)
        cover = np.zeros(r.total_bytes, dtype=int)
        for sp in split.values():
            for pos, ln in zip(sp.stream_pos, sp.regions.lengths):
                cover[pos : pos + ln] += 1
        assert (cover == 1).all()

    def test_negative_offset_rejected(self):
        d = Distribution(4, 10)
        with pytest.raises(ValueError):
            d.split(Regions.single(-5, 10))

    def test_empty(self):
        d = Distribution(4, 10)
        assert d.split(Regions.empty()) == {}

    def test_server_regions_matches_split(self):
        d = Distribution(5, 8)
        r = Regions.from_pairs([(0, 100), (200, 31), (150, 3)])
        split = d.split(r)
        for s in range(5):
            share = d.server_regions(r, s)
            if s in split:
                assert share.regions == split[s].regions
                assert np.array_equal(share.stream_pos, split[s].stream_pos)
            else:
                assert share.regions.count == 0

    def test_unchecked_split_floor_divides_negative_offsets(self):
        # a negative-stride vector expanded at the expansion cache's
        # ``displacement mod P`` basis reaches below 0 (and is shifted
        # back up afterwards): the server path must carry on
        d = Distribution(1, 8)
        r = Regions.from_pairs([(8, 1), (7, 1), (-1, 1)])
        with pytest.raises(ValueError):
            d.split(r)
        got = d.split(r, check=False)
        assert got[0] == d.server_regions(r, 0)
        assert got[0].regions.offsets.tolist() == [8, 7, -1]

    @given(
        st.lists(
            st.tuples(st.integers(-300, 300), st.integers(1, 80)), max_size=12
        ),
        st.integers(1, 6),
        st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_unchecked_split_is_server_regions_for_every_server(
        self, pairs, n_servers, strip
    ):
        """One all-server pass == N single-server passes, in regions and
        stream positions, negative offsets and any order included; a
        server has no key exactly when its share is empty."""
        d = Distribution(n_servers, strip)
        r = Regions.from_pairs(pairs)
        split = d.split(r, check=False)
        assert set(split) <= set(range(n_servers))
        for s in range(n_servers):
            share = d.server_regions(r, s)
            assert (s in split) == bool(share.regions.count)
            if s in split:
                assert split[s] == share
        if r.count and int(r.offsets.min()) >= 0:
            checked = d.split(r)
            assert checked.keys() == split.keys()
            assert all(checked[s] == split[s] for s in split)

    @given(
        st.integers(-300, 3000),
        st.integers(1, 700),
        st.integers(1, 6),
        st.integers(1, 64),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_region_split_equals_the_vector_path(
        self, offset, length, n_servers, strip, check
    ):
        """A one-region access takes a strip walk instead of the array
        pass: its answer must be, array for array, that region's share
        of a two-region call (which cannot take the walk) whose other
        region sits on a distant strip — pieces longer than a whole
        stripe and, unchecked, negative offsets included."""
        d = Distribution(n_servers, strip)
        one = Regions.single(offset, length)
        two = Regions.from_pairs([(offset, length), (10**9, 1)])
        if check and offset < 0:
            for r in (one, two):
                with pytest.raises(ValueError, match="negative file offset"):
                    d.split(r)
            return
        got = d.split(one, check=check)
        assert list(got) == sorted(got)  # built in server order
        want = {}
        for s, share in d.split(two, check=check).items():
            mine = share.stream_pos < length
            if mine.any():
                want[s] = share.regions[: int(mine.sum())], share.stream_pos[mine]
        assert got.keys() == want.keys()
        for s, (regions, spos) in want.items():
            assert got[s].server == s
            for a, b in (
                (got[s].regions.offsets, regions.offsets),
                (got[s].regions.lengths, regions.lengths),
                (got[s].stream_pos, spos),
            ):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)
        assert got == {s: d.server_regions(one, s) for s in got}

    @given(sorted_region_lists(), st.integers(1, 8), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_split_properties(self, pairs, n_servers, strip):
        d = Distribution(n_servers, strip)
        r = Regions.from_pairs(pairs)
        split = d.split(r)
        # total bytes preserved
        assert sum(sp.nbytes for sp in split.values()) == r.total_bytes
        # every piece maps back into the original byte set
        orig = r.normalized()
        for s, sp in split.items():
            for off, ln in sp.regions:
                lo = d.physical_to_logical(s, off)
                assert orig.intersect(
                    Regions.single(lo, ln)
                ).total_bytes == ln
        # per-server view agrees with full split
        for s in range(n_servers):
            share = d.server_regions(r, s)
            if s in split:
                assert share.regions == split[s].regions
            else:
                assert share.regions.count == 0

    @given(sorted_region_lists(), st.integers(1, 8), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_gather_scatter_through_split(self, pairs, n_servers, strip):
        """Writing via the split then reading back returns the stream."""
        r = Regions.from_pairs(pairs)
        if not r.count:
            return
        d = Distribution(n_servers, strip)
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 255, r.total_bytes, dtype=np.uint8)
        # simulate per-server stores
        stores = {s: {} for s in range(n_servers)}
        split = d.split(r)
        for s, sp in split.items():
            payload = Regions(
                sp.stream_pos, sp.regions.lengths, _trusted=True
            ).gather(stream)
            pos = 0
            for off, ln in sp.regions:
                for i in range(ln):
                    stores[s][off + i] = payload[pos]
                    pos += 1
        # read back
        out = np.zeros_like(stream)
        for s, sp in split.items():
            vals = []
            for off, ln in sp.regions:
                vals.extend(stores[s][off + i] for i in range(ln))
            Regions(
                sp.stream_pos, sp.regions.lengths, _trusted=True
            ).scatter(out, np.array(vals, dtype=np.uint8))
        assert np.array_equal(out, stream)


def _split_ops(ops, dist):
    """``split_ops`` of a call's operations, as the client makes it."""
    bounds = np.cumsum([0] + [op.total_bytes for op in ops])
    return (bounds, *split_ops(Regions.concat(ops), bounds, dist))


class TestSplitOps:
    """The client splits a whole call's operations in one pass
    (``split_ops``); per operation that must be, array for array, what
    ``build_jobs`` computes for the operation alone."""

    @given(
        st.lists(region_lists(max_regions=4, max_offset=400, max_len=90), max_size=9),
        st.integers(1, 5),
        st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_split_equals_per_operation_build_jobs(
        self, op_pairs, n_servers, strip
    ):
        # lengths to 90 against strips of 1..64 cross strips; offsets to
        # 400 over up to 5 servers leave servers without a share of some
        # operation; empty and single-region operations are drawn too
        dist = Distribution(n_servers, strip)
        ops = [Regions.from_pairs(pairs) for pairs in op_pairs]
        bounds, shares, cut = _split_ops(ops, dist)
        assert [s for s, _ in shares] == sorted(s for s, _ in shares)
        assert cut.shape == (len(shares), len(ops) + 1)
        assert bounds.tolist() == [
            sum(op.total_bytes for op in ops[:i]) for i in range(len(ops) + 1)
        ]
        for i, op in enumerate(ops):
            jobs = build_jobs("cn0", 7, False, op, dist)
            present = []
            for (server, share), row in zip(shares, cut):
                lo, hi = row[i], row[i + 1]
                if hi == lo:
                    continue
                present.append(server)
                job = jobs[server]
                assert share.regions[lo:hi] == job.accesses
                assert np.array_equal(
                    share.stream_pos[lo:hi], job.stream_pos + bounds[i]
                )
            assert present == sorted(jobs)
        for (_, share), row in zip(shares, cut):
            assert row[0] == 0 and row[-1] == share.regions.count

    @given(
        region_lists(max_regions=8, max_offset=400, max_len=90),
        st.lists(st.integers(-20, 900), max_size=6),
        st.integers(1, 5),
        st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_cut_one_split_equals_per_window_split(
        self, pairs, inner, n_servers, strip
    ):
        """The collective's rounds: one ``split_at_stream`` and one
        ``split_ops`` over the whole access give each stream window
        exactly what splitting that window alone gives, at absolute
        stream positions."""
        dist = Distribution(n_servers, strip)
        r = Regions.from_pairs(pairs)
        total = r.total_bytes
        cuts = sorted({0, total, *(c for c in inner if 0 < c < total)})
        shares, cut = split_ops(r.split_at_stream(cuts), cuts, dist)
        for i, (c0, c1) in enumerate(zip(cuts[:-1], cuts[1:])):
            alone = dist.split(stream_window(r, c0, c1))
            got = {}
            for (server, share), row in zip(shares, cut):
                lo, hi = row[i], row[i + 1]
                if lo < hi:
                    got[server] = (
                        share.regions[lo:hi], share.stream_pos[lo:hi]
                    )
            assert sorted(got) == sorted(alone)
            for server, sp in alone.items():
                assert got[server][0] == sp.regions
                assert np.array_equal(got[server][1], sp.stream_pos + c0)

    def test_single_region_operations_on_one_server(self):
        dist = Distribution(4, 10)
        ops = [Regions.single(12, 5), Regions.single(52, 3), Regions.single(3, 4)]
        bounds, shares, cut = _split_ops(ops, dist)
        assert bounds.tolist() == [0, 5, 8, 12]
        assert [s for s, _ in shares] == [0, 1]
        assert cut.tolist() == [[0, 0, 0, 1], [0, 1, 2, 2]]
        assert shares[1][1].regions.to_pairs() == [(2, 5), (12, 3)]
        assert shares[1][1].stream_pos.tolist() == [0, 5]

    def test_no_operations(self):
        bounds, shares, cut = _split_ops([], Distribution(4, 10))
        assert bounds.tolist() == [0] and shares == [] and cut.shape == (0, 1)
