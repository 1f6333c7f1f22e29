"""``Regions.gather``/``scatter`` over the run-copy kernel.

The reference below moves one run at a time with plain slices and
shares no code with :func:`repro.regions.core.copy_runs`; every shape
the kernel treats differently (single run, uniform list, one interior
length plus clipped edges, fully ragged, unsorted, overlapping) must
agree with it byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.regions import Regions
from repro.regions.core import as_u8

BUF = 4096


def ref_gather(pairs, buf):
    out = bytearray()
    for off, ln in pairs:
        out += bytes(buf[off : off + ln])
    return np.frombuffer(bytes(out), dtype=np.uint8)


def ref_scatter(pairs, buf, data):
    pos = 0
    for off, ln in pairs:
        buf[off : off + ln] = data[pos : pos + ln]
        pos += ln


def _disjoint_offsets(draw, lengths):
    """Ascending non-overlapping offsets for the given run lengths."""
    pairs, cursor = [], 0
    for ln in lengths:
        cursor += draw(st.integers(0, 40))
        pairs.append((cursor, ln))
        cursor += ln
    return pairs


@st.composite
def run_lists(draw, overlapping):
    """Run lists of every shape the kernel distinguishes.

    ``overlapping=False`` keeps the runs pairwise disjoint (any order);
    ``True`` places them anywhere, so they may overlap and repeat.
    """
    shape = draw(st.sampled_from(
        ["empty", "single", "uniform", "edges", "two_spans", "ragged"]
    ))
    if shape == "empty":
        return []
    if shape == "single":
        lengths = [draw(st.integers(1, 300))]
    elif shape == "uniform":
        lengths = [draw(st.integers(1, 48))] * draw(st.integers(2, 40))
    elif shape == "edges":
        # one interior length, a clipped run at either end or mid-list
        inner = draw(st.integers(2, 48))
        lengths = [inner] * draw(st.integers(2, 30))
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(lengths)))
            lengths.insert(at, draw(st.integers(1, inner)))
    elif shape == "two_spans":
        lengths = [draw(st.integers(1, 32))] * draw(st.integers(2, 12))
        lengths += [draw(st.integers(1, 32))] * draw(st.integers(2, 12))
    else:
        # short spans: a few move as slices, past about 20 of them the
        # per-byte index takes over
        n = draw(st.one_of(st.integers(2, 12), st.integers(24, 80)))
        lengths = [draw(st.integers(1, 8)) for _ in range(n)]
    if overlapping:
        return [(draw(st.integers(0, BUF - ln)), ln) for ln in lengths]
    pairs = _disjoint_offsets(draw, lengths)
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    return pairs


def _buffer(seed, size=BUF):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8)


class TestAgainstSlicingReference:
    @given(run_lists(overlapping=False), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_gather_disjoint(self, pairs, seed):
        buf = _buffer(seed)
        got = Regions.from_pairs(pairs).gather(buf)
        assert got.dtype == np.uint8
        assert np.array_equal(got, ref_gather(pairs, buf))

    @given(run_lists(overlapping=True), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_gather_overlapping_sources(self, pairs, seed):
        """Sources may overlap, repeat and come unsorted."""
        buf = _buffer(seed)
        got = Regions.from_pairs(pairs).gather(buf)
        assert np.array_equal(got, ref_gather(pairs, buf))

    @given(run_lists(overlapping=False), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_scatter_disjoint(self, pairs, seed):
        r = Regions.from_pairs(pairs)
        data = _buffer(seed + 10, r.total_bytes)
        got = _buffer(seed)
        want = got.copy()
        r.scatter(got, data)
        ref_scatter(pairs, want, data)
        assert np.array_equal(got, want)

    @given(run_lists(overlapping=True), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_scatter_overlapping_later_run_wins(self, pairs, seed):
        """The overlap contract: destinations are written in sequence
        order, so the reference's plain loop is the specification."""
        r = Regions.from_pairs(pairs)
        data = _buffer(seed + 10, r.total_bytes)
        got = _buffer(seed)
        want = got.copy()
        r.scatter(got, data)
        ref_scatter(pairs, want, data)
        assert np.array_equal(got, want)

    @given(run_lists(overlapping=False), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_scatter_then_gather_roundtrip(self, pairs, seed):
        r = Regions.from_pairs(pairs)
        data = _buffer(seed, r.total_bytes)
        buf = np.zeros(BUF, dtype=np.uint8)
        r.scatter(buf, data)
        assert np.array_equal(r.gather(buf), data)


class TestIsDisjoint:
    @given(st.one_of(run_lists(overlapping=True), run_lists(overlapping=False)))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_check(self, pairs):
        want = all(
            a + la <= b or b + lb <= a
            for i, (a, la) in enumerate(pairs)
            for b, lb in pairs[i + 1 :]
        )
        assert Regions.from_pairs(pairs).is_disjoint is want


class TestFixedShapes:
    def test_later_run_wins_across_lengths(self):
        """A short run after a long one it overlaps: grouping runs by
        length would write the long one last."""
        r = Regions.from_pairs([(0, 4), (8, 4), (2, 2), (16, 4), (20, 4)])
        buf = np.zeros(24, dtype=np.uint8)
        r.scatter(buf, np.arange(1, 19, dtype=np.uint8))
        assert buf[:4].tolist() == [1, 2, 9, 10]
        r = Regions.from_pairs([(2, 2), (0, 4), (8, 4)])
        buf = np.zeros(12, dtype=np.uint8)
        r.scatter(buf, np.arange(1, 11, dtype=np.uint8))
        assert buf[:4].tolist() == [3, 4, 5, 6]

    def test_repeated_destination_takes_last_value(self):
        r = Regions.from_pairs([(4, 4)] * 5)
        buf = np.zeros(12, dtype=np.uint8)
        r.scatter(buf, np.arange(20, dtype=np.uint8))
        assert buf.tolist() == [0] * 4 + [16, 17, 18, 19] + [0] * 4

    def test_one_byte_runs(self):
        buf = _buffer(1)
        pairs = [(o, 1) for o in range(0, 2000, 3)]
        assert np.array_equal(
            Regions.from_pairs(pairs).gather(buf), ref_gather(pairs, buf)
        )

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_runs_of_64k_and_more(self, n):
        big = 1 << 16
        buf = _buffer(2, n * (big + 100) + 7)
        pairs = [(7 + i * (big + 100), big) for i in range(n)]
        pairs.append((3, 4))  # a clipped edge after the big interior
        r = Regions.from_pairs(pairs)
        data = r.gather(buf)
        assert np.array_equal(data, ref_gather(pairs, buf))
        out = np.zeros_like(buf)
        r.scatter(out, data)
        want = np.zeros_like(buf)
        ref_scatter(pairs, want, data)
        assert np.array_equal(out, want)

    def test_run_ending_on_the_last_byte(self):
        buf = _buffer(3, 64)
        pairs = [(0, 8), (24, 8), (56, 8)]
        assert np.array_equal(
            Regions.from_pairs(pairs).gather(buf), ref_gather(pairs, buf)
        )

    def test_source_view_with_an_offset(self):
        """A source that is itself a slice of a larger array."""
        whole = _buffer(4)
        part = whole[100:900]
        pairs = [(0, 16), (50, 16), (784, 16)]
        assert np.array_equal(
            Regions.from_pairs(pairs).gather(part), ref_gather(pairs, part)
        )


class TestChecksPreserved:
    @pytest.mark.parametrize("pairs", [
        [(0, 8), (57, 8)],            # one byte past the end, uniform
        [(0, 8), (60, 5)],            # one byte past the end, mixed
        [(-1, 8), (16, 8)],           # negative: must not wrap to the tail
        [(16, 8), (-8, 8)],
        [(-64, 8), (0, 8), (8, 8)],
        [(64, 1)],
    ])
    def test_out_of_range_raises_index_error(self, pairs):
        r = Regions(*np.array(pairs, dtype=np.int64).T)
        buf = np.arange(64, dtype=np.uint8)
        with pytest.raises(IndexError):
            r.gather(buf)
        before = buf.copy()
        with pytest.raises(IndexError):
            r.scatter(buf, np.zeros(r.total_bytes, dtype=np.uint8))
        assert np.array_equal(buf, before)

    def test_extent_exactly_fills_the_buffer(self):
        buf = np.arange(64, dtype=np.uint8)
        r = Regions.from_pairs([(0, 8), (56, 8)])
        assert r.gather(buf).tolist() == [*range(8), *range(56, 64)]

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_stream_size_mismatch_raises_value_error(self, delta):
        r = Regions.from_pairs([(0, 8), (16, 8), (32, 8)])
        buf = np.zeros(64, dtype=np.uint8)
        with pytest.raises(ValueError):
            r.scatter(buf, np.ones(24 + delta, dtype=np.uint8))
        assert not buf.any()


class TestBuffers:
    """What a buffer may look like: ``as_u8`` is the one place it is
    normalised, for ``Regions``, ``datatypes.pack`` and the block store."""

    def test_typed_and_multidimensional_contiguous_destination(self):
        buf = np.zeros((4, 2), dtype=np.float64)
        Regions.from_pairs([(8, 8), (48, 8)]).scatter(
            buf, np.array([1.5, 2.5]).view(np.uint8)
        )
        assert buf.reshape(-1).tolist() == [0, 1.5, 0, 0, 0, 0, 2.5, 0]

    def test_non_contiguous_2d_destination_raises(self):
        """Used to write into a flattened copy and lose every byte."""
        whole = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            Regions.from_pairs([(0, 4), (8, 4)]).scatter(
                whole[:, :4], np.arange(1, 9, dtype=np.uint8)
            )
        assert not whole.any()

    def test_fortran_ordered_destination_raises(self):
        buf = np.zeros((4, 8), dtype=np.uint8, order="F")
        with pytest.raises(ValueError):
            Regions.single(0, 4).scatter(buf, np.ones(4, dtype=np.uint8))

    def test_strided_1d_destination_raises(self):
        """The row view needs contiguous memory; a strided destination
        is refused rather than served by a second, per-byte kernel."""
        whole = np.zeros(32, dtype=np.uint8)
        with pytest.raises(ValueError):
            Regions.from_pairs([(0, 4), (8, 4)]).scatter(
                whole[::2], np.arange(1, 9, dtype=np.uint8)
            )
        assert not whole.any()

    def test_unpack_into_non_contiguous_destination_raises(self):
        from repro.datatypes import BYTE, contiguous, unpack

        whole = np.zeros((4, 8), dtype=np.uint8)
        with pytest.raises(ValueError):
            unpack(np.ones(8, np.uint8), whole[:, :2], contiguous(8, BYTE))
        assert not whole.any()

    def test_non_contiguous_sources_are_read_in_c_order(self):
        whole = np.arange(64, dtype=np.uint8).reshape(4, 16)
        r = Regions.from_pairs([(0, 4), (8, 4), (16, 4)])
        for src in (whole[:, :8], np.asfortranarray(whole), whole.reshape(-1)[::2]):
            want = ref_gather(r.to_pairs(), np.ascontiguousarray(src).reshape(-1))
            assert np.array_equal(r.gather(src), want)

    def test_as_u8_returns_a_view_of_a_contiguous_destination(self):
        buf = np.zeros((3, 5), dtype=np.int32)
        flat = as_u8(buf, dest=True)
        assert flat.shape == (60,) and np.shares_memory(flat, buf)
