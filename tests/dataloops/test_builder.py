"""Datatype → dataloop conversion, including the collapse rules."""

import pytest
from hypothesis import given, settings

from repro.datatypes import (
    BYTE,
    DOUBLE,
    INT,
    contiguous,
    dup,
    hindexed,
    hvector,
    indexed,
    indexed_block,
    resized,
    struct,
    subarray,
    vector,
)
from repro.dataloops import build_dataloop, stream_regions

from ..conftest import small_datatypes
from ..reference import oracle


class TestCollapses:
    def test_primitive(self):
        dl = build_dataloop(INT)
        assert dl.is_final and dl.kind == "contig"
        assert dl.data_size == 4

    def test_contig_of_primitive_merges(self):
        dl = build_dataloop(contiguous(8, INT))
        assert dl.is_final and dl.kind == "contig"
        assert dl.count == 8 and dl.el_size == 4
        assert dl.node_count() == 1

    def test_nested_contig_merges(self):
        dl = build_dataloop(contiguous(3, contiguous(4, INT)))
        assert dl.is_final and dl.count == 12

    def test_vector_of_primitive_is_final_vector(self):
        dl = build_dataloop(vector(10, 3, 7, INT))
        assert dl.kind == "vector" and dl.is_final
        assert dl.count == 10 and dl.blocksize == 3
        assert dl.stride == 28
        assert dl.node_count() == 1

    def test_dense_vector_degenerates_to_contig(self):
        dl = build_dataloop(vector(10, 3, 3, INT))
        assert dl.kind == "contig" and dl.is_final
        assert dl.count == 30

    def test_vector_count_one_collapses(self):
        dl = build_dataloop(vector(1, 5, 9, INT))
        assert dl.is_final and dl.kind == "contig"
        assert dl.count == 5

    def test_indexed_block_of_primitive(self):
        dl = build_dataloop(indexed_block(2, [0, 5, 10], INT))
        assert dl.kind == "blockindexed" and dl.is_final
        assert dl.count == 3 and dl.blocksize == 2

    def test_indexed_varying_blocks(self):
        dl = build_dataloop(indexed([1, 2, 3], [0, 4, 10], INT))
        assert dl.kind == "indexed" and dl.is_final

    def test_uniform_indexed_becomes_blockindexed(self):
        dl = build_dataloop(indexed([2, 2], [0, 8], INT))
        assert dl.kind == "blockindexed"

    def test_struct_single_field_at_zero_collapses(self):
        dl = build_dataloop(struct([3], [0], [INT]))
        assert dl.is_final and dl.kind == "contig" and dl.count == 3

    def test_struct_general(self):
        dl = build_dataloop(struct([1, 1], [0, 8], [INT, DOUBLE]))
        assert dl.kind == "struct"
        assert dl.count == 2

    def test_struct_drops_empty_fields(self):
        dl = build_dataloop(struct([0, 1], [0, 8], [DOUBLE, INT]))
        assert dl.data_size == 4

    def test_resized_only_changes_extent(self):
        base = build_dataloop(vector(2, 1, 3, INT))
        r = build_dataloop(resized(vector(2, 1, 3, INT), 0, 1000))
        assert r.extent == 1000
        assert r.kind == base.kind
        assert r.node_count() == base.node_count()

    def test_dup_passthrough(self):
        dl = build_dataloop(dup(vector(2, 1, 3, INT)))
        assert dl.kind == "vector"

    def test_subarray_nested_vectors(self):
        t = subarray([100, 100, 100], [10, 10, 10], [5, 5, 5], INT)
        dl = build_dataloop(t)
        # concise: a handful of nodes regardless of array size
        assert dl.node_count() <= 4
        assert dl.extent == t.extent
        assert dl.data_size == t.size

    def test_subarray_full_extent_kept(self):
        t = subarray([8, 8], [2, 2], [0, 0], INT)
        dl = build_dataloop(t)
        assert dl.extent == 8 * 8 * 4

    def test_shared_child_type_is_one_loop(self):
        """Fields of one type convert once per build, so the struct's
        expansion broadcasts them (the FLASH memory type's shape)."""
        field = hvector(4, 1, 64, DOUBLE)
        dl = build_dataloop(struct([1] * 20, [8 * i for i in range(20)], [field] * 20))
        assert dl.kind == "struct"
        assert all(c is dl.children[0] for c in dl.children)

    def test_extent_always_matches(self):
        cases = [
            INT,
            contiguous(3, INT),
            vector(2, 1, 5, INT),
            resized(INT, -4, 20),
            struct([1, 1], [0, 10], [INT, BYTE]),
            subarray([4, 4], [2, 2], [1, 1], INT),
        ]
        for t in cases:
            dl = build_dataloop(t)
            assert dl.extent == t.extent, t.describe()
            assert dl.data_size == t.size, t.describe()


class TestEquivalence:
    """build → stream must equal the typemap walker's runs."""

    CASES = [
        contiguous(6, INT),
        vector(4, 2, 5, INT),
        hvector(3, 2, 50, DOUBLE),
        indexed([2, 1, 3], [0, 4, 9], INT),
        hindexed([1, 2], [3, 40], INT),
        indexed_block(2, [0, 4, 8], INT),
        struct([2, 1], [0, 24], [INT, DOUBLE]),
        struct([1, 1], [16, 0], [INT, INT]),  # out-of-order fields
        resized(vector(2, 1, 3, INT), -8, 64),
        subarray([6, 6, 6], [2, 3, 4], [1, 0, 2], INT),
        subarray([9, 9], [3, 3], [3, 3], BYTE, order="F"),
        contiguous(2, struct([1, 1], [0, 12], [INT, DOUBLE])),
        vector(3, 2, 4, vector(2, 1, 3, INT)),
    ]

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.describe()[:50])
    def test_stream_matches_flatten(self, t):
        dl = build_dataloop(t)
        assert stream_regions(dl).to_pairs() == oracle.runs(t)

    @pytest.mark.parametrize("t", CASES, ids=lambda t: t.describe()[:50])
    def test_tiled_stream_matches(self, t):
        dl = build_dataloop(t)
        assert stream_regions(dl, count=3).to_pairs() == oracle.runs(t, 3)

    @given(small_datatypes())
    @settings(max_examples=150, deadline=None)
    def test_equivalence_property(self, t):
        dl = build_dataloop(t)
        assert dl.data_size == t.size
        assert dl.extent == t.extent
        assert stream_regions(dl).to_pairs() == oracle.runs(t)

    @given(small_datatypes())
    @settings(max_examples=60, deadline=None)
    def test_tiled_equivalence_property(self, t):
        dl = build_dataloop(t)
        assert stream_regions(dl, count=2).to_pairs() == oracle.runs(t, 2)
