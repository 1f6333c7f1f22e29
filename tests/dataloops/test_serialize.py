"""Wire encoding of dataloops."""

import pytest
from hypothesis import given, settings

from repro.datatypes import (
    DOUBLE,
    INT,
    contiguous,
    indexed,
    struct,
    subarray,
    vector,
)
from repro.dataloops import (
    build_dataloop,
    dumps,
    loads,
    stream_regions,
    wire_size,
)

from ..conftest import small_datatypes
from ..reference import oracle


def _equivalent(a, b) -> bool:
    return (
        a.data_size == b.data_size
        and a.extent == b.extent
        and stream_regions(a, count=2) == stream_regions(b, count=2)
    )


class TestRoundtrip:
    CASES = [
        INT,
        contiguous(5, INT),
        vector(4, 2, 5, INT),
        indexed([1, 2], [0, 5], INT),
        struct([2, 1], [0, 24], [INT, DOUBLE]),
        subarray([10, 10, 10], [4, 4, 4], [1, 2, 3], INT),
    ]

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.describe()[:40])
    def test_roundtrip(self, t):
        dl = build_dataloop(t)
        data = dumps(dl)
        back = loads(data)
        assert _equivalent(dl, back)

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.describe()[:40])
    def test_wire_size_matches_encoding(self, t):
        dl = build_dataloop(t)
        assert wire_size(dl) == len(dumps(dl))

    @given(small_datatypes())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, t):
        dl = build_dataloop(t)
        back = loads(dumps(dl))
        assert _equivalent(dl, back)
        assert wire_size(dl) == len(dumps(dl))


class TestConciseness:
    def test_regular_pattern_size_independent_of_count(self):
        """The paper's point: requests stay small for regular patterns."""
        small = build_dataloop(vector(10, 1, 2, INT))
        huge = build_dataloop(vector(1_000_000, 1, 2, INT))
        assert wire_size(small) == wire_size(huge)
        assert wire_size(huge) < 100

    def test_subarray_size_independent_of_dims(self):
        a = build_dataloop(subarray([10, 10, 10], [5, 5, 5], [0, 0, 0], INT))
        b = build_dataloop(
            subarray([600, 600, 600], [300, 300, 300], [0, 0, 0], INT)
        )
        assert wire_size(a) == wire_size(b)

    def test_irregular_pattern_grows(self):
        few = build_dataloop(indexed([1, 2], [0, 5], INT))
        many = build_dataloop(
            indexed([1, 2] * 50, [i * 7 for i in range(100)], INT)
        )
        assert wire_size(many) > wire_size(few)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            loads(b"XXXX" + b"\x00" * 50)

    def test_trailing_garbage(self):
        data = dumps(build_dataloop(INT)) + b"\x00"
        with pytest.raises(ValueError):
            loads(data)


class TestEmptyAndDegenerate:
    def test_empty_loop_roundtrip(self):
        from repro.datatypes import contiguous, INT

        dl = build_dataloop(contiguous(0, INT))
        back = loads(dumps(dl))
        assert back.data_size == 0

    def test_deep_nesting_roundtrip(self):
        from repro.datatypes import INT, vector

        t = vector(2, 1, 3, vector(2, 1, 3, vector(2, 1, 3, INT)))
        dl = build_dataloop(t)
        back = loads(dumps(dl))
        assert stream_regions(back).to_pairs() == oracle.runs(t)
        assert back.depth == dl.depth
