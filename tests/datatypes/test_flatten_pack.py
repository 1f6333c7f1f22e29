"""Flattening and pack/unpack, cross-checked against the typemap walker
of ``tests/reference/oracle.py``."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    contiguous,
    hvector,
    indexed,
    pack,
    resized,
    struct,
    subarray,
    unpack,
    vector,
)

from ..conftest import small_datatypes, traced_peak
from ..reference import oracle


class TestFlatten:
    def test_flatten_count_tiles_at_extent(self):
        t = vector(2, 1, 2, INT)  # extent 12? blocks at 0 and 8
        one = t.flatten()
        two = t.flatten(2)
        assert two.total_bytes == 2 * t.size
        # instance 1 shifted by extent
        shift = t.extent
        expected = one.to_pairs() + [(o + shift, l) for o, l in one]
        # adjacent runs may coalesce at the seam; compare as byte sets
        assert two.normalized() == t.flatten(2).normalized()
        assert sum(l for _, l in expected) == two.total_bytes

    def test_flatten_base_offset(self):
        t = contiguous(2, INT)
        assert t.flatten(1, 100).to_pairs() == [(100, 8)]

    def test_flatten_negative_count(self):
        with pytest.raises(ValueError):
            INT.flatten(-1)

    def test_flatten_caches(self):
        t = vector(3, 1, 2, INT)
        assert t.flatten() == t.flatten()

    def test_flatten_matches_typemap_runs(self):
        cases = [
            contiguous(4, INT),
            vector(3, 2, 4, INT),
            hvector(3, 2, 40, DOUBLE),
            indexed([2, 0, 1], [5, 0, 0], INT),
            struct([1, 2], [16, 0], [DOUBLE, INT]),
            subarray([5, 5], [2, 2], [1, 1], INT),
            resized(vector(2, 1, 3, INT), -4, 40),
        ]
        for t in cases:
            for count in (1, 2, 3):
                assert (
                    t.flatten(count).to_pairs()
                    == oracle.runs(t, count)
                ), t.describe()

    @given(small_datatypes())
    @settings(max_examples=150, deadline=None)
    def test_flatten_matches_typemap_property(self, t):
        assert t.flatten().to_pairs() == oracle.runs(t)

    @given(small_datatypes())
    @settings(max_examples=80, deadline=None)
    def test_flatten_two_instances_property(self, t):
        assert t.flatten(2).to_pairs() == oracle.runs(t, 2)

    @given(small_datatypes())
    @settings(max_examples=100, deadline=None)
    def test_size_is_typemap_sum(self, t):
        assert t.size == oracle.size(t)

    @given(small_datatypes())
    @settings(max_examples=100, deadline=None)
    def test_bounds_cover_typemap(self, t):
        if not oracle.typemap(t):
            return
        lo, hi = oracle.true_bounds(t)
        assert t.true_lb == lo
        assert t.true_ub == hi
        # lb/ub cover the data unless a type anywhere in the tree set
        # them itself and left data outside (legal in MPI)
        if not _sets_its_bounds(t):
            assert t.lb <= lo and t.ub >= hi


#: name -> (n -> (type, count, base_offset), runs): dense interiors of
#: ``n`` elements whose flattening is ``runs`` pairs whatever ``n`` is
DENSE_CASES = {
    "contiguous_bytes": (lambda n: (contiguous(n, BYTE), 1, 0), 1),
    "count_of_byte": (lambda n: (BYTE, n, 0), 1),
    "count_of_int_at_offset": (lambda n: (INT, n, 8), 1),
    "contiguous_of_contiguous": (
        lambda n: (contiguous(n, contiguous(4, INT)), 1, 0),
        1,
    ),
    "vector_of_dense_blocks": (lambda n: (vector(4, n, 2 * n, BYTE), 1, 0), 4),
    "heterogeneous_struct": (
        lambda n: (struct([n, 1], [0, 2 * n], [BYTE, INT]), 1, 0),
        2,
    ),
    "contiguous_of_struct": (
        lambda n: (contiguous(n, struct([1, 1], [0, 4], [INT, INT])), 1, 0),
        1,
    ),
}


class TestRunGranularity:
    """Dense runs are flattened as runs, never element by element."""

    @pytest.mark.parametrize("name", DENSE_CASES)
    def test_dense_flatten_is_constant_space(self, name):
        make, runs = DENSE_CASES[name]
        t, count, base = make(5)
        small = t.flatten(count, base)
        assert small.to_pairs() == [
            (o + base, l) for o, l in oracle.runs(t, count)
        ]
        assert small.count == runs
        # the tile reader's memory type is contiguous(2 359 296, BYTE)
        t, count, base = make(2_359_296)
        big, peak = traced_peak(lambda: t.flatten(count, base))
        assert peak < 64 * 1024, f"{peak} bytes traced for {runs} run(s)"
        assert big.count == runs
        assert big.total_bytes == t.size * count
        assert int(big.offsets[0]) == int(small.offsets[0])
        assert big.offsets.dtype == big.lengths.dtype == np.int64

    def test_flatten_cache_is_read_only(self):
        """``flatten()`` hands out the type's own cached flattening; an
        in-place edit used to move it for every later caller."""
        t = vector(3, 2, 5, BYTE)
        r = t.flatten()
        with pytest.raises(ValueError):
            r.offsets += 100
        with pytest.raises(ValueError):
            r.lengths[0] = 1
        assert t.flatten().to_pairs() == [(0, 2), (5, 2), (10, 2)]
        # the same object reached through a wrapper and through no-ops
        for alias in (resized(t, 0, 40).flatten(), r.tile(1, 7), r.shift(0), r[1:]):
            with pytest.raises(ValueError):
                alias.offsets += 1

    @given(small_datatypes())
    @settings(max_examples=60, deadline=None)
    def test_no_writable_alias_of_the_cache(self, t):
        cache = t.flatten()
        before = cache.to_pairs()
        lo, hi = cache.extent()
        outs = [
            t.flatten(2),
            t.flatten(3, 16),
            t.flatten(1, 8),
            cache.shift(4),
            cache.tile(2, t.extent),
            cache.tile(1, t.extent),
            *[part for part, _ in cache.partition_with_stream([lo, lo + 1, hi])],
            cache.partition_with_stream([lo, hi])[0][0],
            cache.coalesce(),
            cache.repeat(2, t.extent),
        ]
        for out in outs:
            for arr in (out.offsets, out.lengths):
                if arr.flags.writeable:
                    assert not np.shares_memory(arr, cache.offsets)
                    assert not np.shares_memory(arr, cache.lengths)
                    arr += 1
        assert t.flatten().to_pairs() == before


def _sets_its_bounds(t):
    """``resized`` sets lb/ub, and subarray/darray span their array."""
    if t.combiner in ("resized", "subarray", "darray"):
        return True
    return any(_sets_its_bounds(c) for c in t.iter_children())


class TestPack:
    def test_pack_contiguous(self):
        buf = np.arange(16, dtype=np.uint8)
        assert pack(buf, contiguous(4, INT)).tolist() == list(range(16))

    def test_pack_strided(self):
        buf = np.arange(24, dtype=np.uint8)
        t = vector(2, 1, 2, INT)
        assert pack(buf, t).tolist() == [0, 1, 2, 3, 8, 9, 10, 11]

    def test_pack_with_base_offset(self):
        buf = np.arange(24, dtype=np.uint8)
        t = contiguous(1, INT)
        assert pack(buf, t, base_offset=10).tolist() == [10, 11, 12, 13]

    def test_unpack_roundtrip(self, rng):
        t = struct([2, 3], [0, 32], [INT, DOUBLE])
        buf = rng.integers(0, 255, t.true_ub, dtype=np.uint8)
        stream = pack(buf, t)
        assert stream.size == t.size
        out = np.zeros_like(buf)
        unpack(stream, out, t)
        assert np.array_equal(pack(out, t), stream)

    def test_pack_multiple_instances(self, rng):
        t = vector(2, 1, 3, INT)
        buf = rng.integers(0, 255, t.extent * 3 + 16, dtype=np.uint8)
        stream = pack(buf, t, count=3)
        assert stream.size == 3 * t.size

    @given(small_datatypes())
    @settings(max_examples=80, deadline=None)
    def test_pack_matches_typemap_property(self, t):
        tm = oracle.typemap(t)
        lo = min((d for d, _ in tm), default=0)
        hi = max((d + s for d, s in tm), default=0)
        base = max(0, -lo)
        buf = np.arange(base + max(hi, 0) + 1, dtype=np.int64).astype(
            np.uint8
        )
        stream = pack(buf, t, base_offset=base)
        expected = np.concatenate(
            [buf[base + d : base + d + s] for d, s in tm]
        ) if tm else np.zeros(0, np.uint8)
        assert np.array_equal(stream, expected)
