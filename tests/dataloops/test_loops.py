"""Dataloop node validation and metrics."""

import pytest

from repro.dataloops import Dataloop, build_dataloop
from repro.datatypes import INT, contiguous, struct

from ..conftest import traced_peak
from ..reference import oracle


def _pair_loop():
    """Two abutting ints: one 8-byte run covering its whole extent."""
    return Dataloop.final_indexed([1, 1], [0, 4], 4, 8)


class TestConstruction:
    def test_final_contig(self):
        dl = Dataloop.final_contig(10, 4)
        assert dl.kind == "contig"
        assert dl.is_final
        assert dl.data_size == 40
        assert dl.extent == 40
        assert dl.region_count == 1
        assert dl.depth == 1

    def test_final_vector(self):
        dl = Dataloop.final_vector(5, 2, 16, 4)
        assert dl.data_size == 40
        assert dl.region_count == 5
        assert dl.extent == 4 * 16 + 8

    def test_contig_of_vector(self):
        inner = Dataloop.final_vector(3, 1, 8, 4)
        dl = Dataloop.contig(2, inner)
        assert dl.data_size == 24
        assert dl.region_count == 6
        assert dl.depth == 2

    def test_blockindexed(self):
        dl = Dataloop.final_blockindexed(2, [0, 20, 40], 4, 48)
        assert dl.data_size == 24
        assert dl.region_count == 3

    def test_indexed(self):
        dl = Dataloop.final_indexed([1, 3], [0, 10], 4, 24)
        assert dl.data_size == 16
        assert dl.region_count == 2
        assert dl._block_stream_cum.tolist() == [0, 4, 16]

    def test_struct(self):
        a = Dataloop.final_contig(1, 4)
        b = Dataloop.final_contig(1, 8)
        dl = Dataloop.struct([2, 1], [0, 16], [a, b], 24)
        assert dl.data_size == 16
        assert dl.region_count == 3
        assert dl._block_stream_cum.tolist() == [0, 8, 16]

    def test_resized_copy(self):
        dl = Dataloop.final_contig(2, 4)
        r = Dataloop.resized(dl, 100)
        assert r.extent == 100
        assert r.data_size == dl.data_size
        assert Dataloop.resized(dl, dl.extent) is dl


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            Dataloop("funky", 1, 0)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            Dataloop.final_contig(-1, 4)

    def test_final_needs_el_size(self):
        with pytest.raises(ValueError):
            Dataloop("contig", 1, 4, is_final=True, el_size=0)

    def test_struct_cannot_be_final(self):
        with pytest.raises(ValueError):
            Dataloop("struct", 0, 0, is_final=True, el_size=1)

    def test_nonfinal_needs_child(self):
        with pytest.raises(ValueError):
            Dataloop("contig", 1, 4)

    def test_indexed_needs_offsets(self):
        with pytest.raises(ValueError):
            Dataloop("indexed", 2, 8, is_final=True, el_size=1)

    def test_struct_shape_mismatch(self):
        a = Dataloop.final_contig(1, 4)
        with pytest.raises(ValueError):
            Dataloop.struct([1, 1], [0], [a], 8)


class TestFlattenFull:
    def test_final_kinds(self):
        assert Dataloop.final_contig(3, 4).flatten_full().to_pairs() == [
            (0, 12)
        ]
        assert Dataloop.final_vector(3, 1, 8, 4).flatten_full().to_pairs() == [
            (0, 4),
            (8, 4),
            (16, 4),
        ]
        assert Dataloop.final_blockindexed(
            1, [0, 10], 4, 16
        ).flatten_full().to_pairs() == [(0, 4), (10, 4)]
        assert Dataloop.final_indexed(
            [2, 1], [0, 10], 4, 16
        ).flatten_full().to_pairs() == [(0, 8), (10, 4)]

    def test_nested(self):
        inner = Dataloop.final_vector(2, 1, 8, 4)  # (0,4),(8,4); extent 12
        outer = Dataloop.vector(2, 1, 100, inner)
        assert outer.flatten_full().to_pairs() == [
            (0, 4),
            (8, 4),
            (100, 4),
            (108, 4),
        ]

    def test_struct_traversal_order(self):
        a = Dataloop.final_contig(1, 4)
        dl = Dataloop.struct([1, 1], [8, 0], [a, a], 12)
        assert dl.flatten_full().to_pairs() == [(8, 4), (0, 4)]

    def test_cached(self):
        dl = Dataloop.final_vector(3, 1, 8, 4)
        assert dl.flatten_full() is dl.flatten_full()

    def test_only_the_flattened_loop_keeps_a_memo(self, monkeypatch):
        """A flatten keeps the loop's own regions, not its children's
        (a Block3D view was held at two levels at once), and a child
        repeated in the tree is still flattened once per call."""
        leaf = Dataloop.final_vector(2, 1, 8, 4)  # (0,4),(8,4); extent 12
        mid = Dataloop.vector(2, 1, 100, leaf)
        root = Dataloop.struct([1, 1], [0, 1000], [mid, leaf], 2000)
        calls = []
        live = Dataloop._flatten_one

        def counted(loop, memo=None):
            calls.append(loop)
            return live(loop, memo)

        monkeypatch.setattr(Dataloop, "_flatten_one", counted)
        flat = root.flatten_full()
        assert flat.to_pairs() == [
            (0, 4), (8, 4), (100, 4), (108, 4), (1000, 4), (1008, 4)
        ]
        assert root._flat_cache is flat
        assert mid._flat_cache is None and leaf._flat_cache is None
        assert [id(loop) for loop in calls] == [id(root), id(mid), id(leaf)]
        # a loop asked for itself keeps its memo, and the next flatten
        # above it reads that memo instead of flattening it again
        assert leaf.flatten_full() is leaf._flat_cache
        calls.clear()
        Dataloop.contig(2, mid).flatten_full()
        assert [loop.kind for loop in calls] == ["contig", "vector"]

    def test_cache_is_read_only(self):
        """``flatten_full()`` returns the loop's own cache; an in-place
        edit must raise instead of moving it for every later caller."""
        inner = Dataloop.final_vector(3, 1, 8, 4)
        for dl in (inner, Dataloop.contig(2, inner)):
            flat = dl.flatten_full()
            before = flat.to_pairs()
            with pytest.raises(ValueError):
                flat.offsets += 100
            with pytest.raises(ValueError):
                flat.lengths[0] = 1
            with pytest.raises(ValueError):
                flat.shift(0).offsets[0] = 1
            shifted = flat.shift(4)
            shifted.offsets += 1  # a fresh array, not the cache
            assert dl.flatten_full().to_pairs() == before

    @pytest.mark.parametrize(
        "make, pairs",
        [
            (lambda n, ch: Dataloop.contig(n, ch), lambda n: [(0, 8 * n)]),
            (
                lambda n, ch: Dataloop.vector(4, n, 16 * n, ch),
                lambda n: [(i * 16 * n, 8 * n) for i in range(4)],
            ),
            (
                lambda n, ch: Dataloop.blockindexed(n, [0, 16 * n], ch, 32 * n),
                lambda n: [(0, 8 * n), (16 * n, 8 * n)],
            ),
            (
                lambda n, ch: Dataloop.struct(
                    [n, 1], [0, 16 * n], [ch, Dataloop.final_contig(1, 4)], 16 * n + 4
                ),
                lambda n: [(0, 8 * n), (16 * n, 4)],
            ),
        ],
        ids=["contig", "vector", "blockindexed", "struct"],
    )
    def test_dense_interior_is_constant_space(self, make, pairs):
        """``n`` dense child instances are one run, not ``n`` pairs."""
        n = 10**6
        dl = make(n, _pair_loop())
        flat, peak = traced_peak(dl.flatten_full)
        assert flat.to_pairs() == pairs(n)
        assert make(3, _pair_loop()).flatten_full().to_pairs() == pairs(3)
        assert peak < 64 * 1024, f"{peak} bytes traced for {flat.count} run(s)"

    def test_built_dense_contig_of_struct_is_constant_space(self):
        make = lambda n: contiguous(n, struct([1, 1], [0, 4], [INT, INT]))
        assert build_dataloop(make(5)).flatten_full().to_pairs() == (
            oracle.runs(make(5))
        )
        t = make(10**6)
        flat, peak = traced_peak(lambda: build_dataloop(t).flatten_full())
        assert flat.to_pairs() == [(0, 8 * 10**6)]
        assert peak < 64 * 1024, f"{peak} bytes traced for one run"

    def test_node_count_and_describe(self):
        inner = Dataloop.final_contig(4, 1)
        outer = Dataloop.vector(2, 2, 10, inner)
        assert outer.node_count() == 2
        assert "vector" in outer.describe()
        assert "contig" in outer.describe()
        assert "Dataloop" in repr(outer)
