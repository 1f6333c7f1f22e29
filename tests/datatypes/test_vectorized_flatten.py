"""Vectorized client-side flattening vs the per-block reference.

The reference pass runs under the ``reference_core`` fixture
(``tests/reference/core.py`` substituted for the broadcasts); the
per-instance ``_flat_cache`` is cleared between the two so it cannot
simply return the vectorized pass's memoized result.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import BYTE, darray, hindexed, struct, vector
from repro.datatypes.base import Datatype
from repro.regions import Regions

from ..conftest import small_datatypes


def _clear_flat_caches(t, seen=None):
    if seen is None:
        seen = set()
    if id(t) in seen:
        return
    seen.add(id(t))
    t._flat_cache = None
    try:
        children = t.contents()[2]
    except ValueError:  # predefined named type: no children
        return
    for child in children:
        if isinstance(child, Datatype):
            _clear_flat_caches(child, seen)


def _both_modes(t, count, reference_core):
    fast = t.flatten(count)
    _clear_flat_caches(t)
    with reference_core():
        ref = t.flatten(count)
    _clear_flat_caches(t)
    return fast, ref


class TestFlattenProperty:
    @given(small_datatypes(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_random_types_match_scalar(self, reference_core, t, count):
        fast, ref = _both_modes(t, count, reference_core)
        assert fast == ref


class TestIndexedFlatten:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sparse_oldtype_matches_scalar(self, reference_core, data):
        """Non-dense oldtype forces the general broadcast path."""
        n = data.draw(st.integers(1, 12))
        old = vector(2, 1, 3, BYTE)
        bls = [data.draw(st.integers(0, 3)) for _ in range(n)]
        disps = sorted(data.draw(st.integers(0, 300)) for _ in range(n))
        t = hindexed(bls, disps, old)
        fast, ref = _both_modes(
            t, data.draw(st.integers(1, 2)), reference_core
        )
        assert fast == ref

    def test_overlapping_blocks_match_scalar(self, reference_core):
        """Unsorted, overlapping displacements (legal in MPI)."""
        old = vector(2, 1, 3, BYTE)
        t = hindexed([2, 1, 2], [40, 0, 38], old)
        fast, ref = _both_modes(t, 2, reference_core)
        assert fast == ref


class TestStructFlatten:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_homogeneous_fast_path_matches_scalar(self, data):
        """One shared field type takes the indexed broadcast; the
        reference is what a struct of differing types does — each
        field flattened on its own."""
        n = data.draw(st.integers(1, 10))
        old = vector(2, 1, 3, BYTE)
        bls = [data.draw(st.integers(0, 2)) for _ in range(n)]
        disps = sorted(data.draw(st.integers(0, 200)) for _ in range(n))
        t = struct(bls, disps, [old] * n)
        ref = Regions.concat(
            [old.flatten(bl, d) for bl, d in zip(bls, disps) if bl]
        ).coalesce()
        assert t.flatten() == ref


@pytest.mark.parametrize("dist", ["block", "cyclic"])
@pytest.mark.parametrize("rank", [0, 2])
def test_darray_matches_scalar(reference_core, dist, rank):
    old = vector(2, 1, 3, BYTE)
    darg = 2 if dist == "cyclic" else -1
    t = darray(4, rank, [97], [dist], [darg], [4], old)
    fast, ref = _both_modes(t, 1, reference_core)
    assert fast == ref
