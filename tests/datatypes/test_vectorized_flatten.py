"""Vectorized flattening of the indexed family and of structs, against
the per-entry typemap walker of ``tests/reference/oracle.py``.

A type's regions are its dataloop's: these shapes reach the loop's
per-block broadcasts (``blockindexed``/``indexed`` interiors, a struct
whose fields share one child loop).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import BYTE, darray, hindexed, struct, vector

from ..reference import oracle


def assert_matches_walker(t, count):
    assert t.flatten(count).to_pairs() == oracle.runs(t, count)


class TestIndexedFlatten:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sparse_oldtype_matches_scalar(self, data):
        """Non-dense oldtype forces the general broadcast path."""
        n = data.draw(st.integers(1, 12))
        old = vector(2, 1, 3, BYTE)
        bls = [data.draw(st.integers(0, 3)) for _ in range(n)]
        disps = sorted(data.draw(st.integers(0, 300)) for _ in range(n))
        assert_matches_walker(hindexed(bls, disps, old), data.draw(st.integers(1, 2)))

    def test_overlapping_blocks_match_scalar(self):
        """Unsorted, overlapping displacements (legal in MPI)."""
        old = vector(2, 1, 3, BYTE)
        assert_matches_walker(hindexed([2, 1, 2], [40, 0, 38], old), 2)


class TestStructFlatten:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_fast_path_matches_scalar(self, data):
        """One shared field type: the fields share one child loop and
        expand in one broadcast."""
        n = data.draw(st.integers(1, 10))
        old = vector(2, 1, 3, BYTE)
        bls = [data.draw(st.integers(0, 2)) for _ in range(n)]
        disps = sorted(data.draw(st.integers(0, 200)) for _ in range(n))
        assert_matches_walker(struct(bls, disps, [old] * n), 1)


@pytest.mark.parametrize("dist", ["block", "cyclic"])
@pytest.mark.parametrize("rank", [0, 2])
def test_darray_matches_scalar(dist, rank):
    old = vector(2, 1, 3, BYTE)
    darg = 2 if dist == "cyclic" else -1
    assert_matches_walker(darray(4, rank, [97], [dist], [darg], [4], old), 1)
