"""Every datatype against the typemap walker of ``tests/reference/oracle.py``.

The walker reads a type only through ``envelope()``/``contents()``/
``extent`` and shares no code with ``repro.datatypes`` or
``repro.dataloops``.  The hand-worked typemaps below pin the walker
itself to the MPI-3.1 definitions, one per combiner; the properties then
hold the live flattening, pack/unpack, size, bounds and run summary to
it.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import (
    BYTE,
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    DISTRIBUTE_DFLT_DARG as D,
    DISTRIBUTE_NONE,
    DOUBLE,
    INT,
    SHORT,
    contiguous,
    darray,
    dup,
    hindexed,
    hindexed_block,
    hvector,
    indexed,
    indexed_block,
    pack,
    resized,
    struct,
    subarray,
    unpack,
    vector,
)

from ..conftest import small_datatypes
from ..reference import bytes as reference_bytes, distribution, oracle


def _bytes_at(*offsets, n=1):
    return [(o, n) for o in offsets]


#: name -> (type, its typemap worked by hand from MPI-3.1 §4.1, (lb, ub))
BY_HAND = {
    "named": (INT, [(0, 4)], (0, 4)),
    "contiguous": (contiguous(3, INT), [(0, 4), (4, 4), (8, 4)], (0, 12)),
    "vector": (vector(2, 1, 3, INT), [(0, 4), (12, 4)], (0, 16)),
    "hvector": (
        hvector(2, 2, 10, SHORT),
        [(0, 2), (2, 2), (10, 2), (12, 2)],
        (0, 14),
    ),
    "indexed": (indexed([2, 1], [3, 0], SHORT), [(6, 2), (8, 2), (0, 2)], (0, 10)),
    "hindexed": (hindexed([1, 2], [5, 0], BYTE), _bytes_at(5, 0, 1), (0, 6)),
    "indexed_block": (indexed_block(1, [2, 0], INT), [(8, 4), (0, 4)], (0, 12)),
    "hindexed_block": (
        hindexed_block(2, [7, -3], BYTE),
        _bytes_at(7, 8, -3, -2),
        (-3, 9),
    ),
    "struct": (
        struct([1, 2], [-8, 0], [DOUBLE, SHORT]),
        [(-8, 8), (0, 2), (2, 2)],
        (-8, 4),
    ),
    "resized": (resized(INT, -4, 12), [(0, 4)], (-4, 8)),
    "dup": (dup(vector(2, 1, 3, INT)), [(0, 4), (12, 4)], (0, 16)),
    "subarray C": (
        subarray([3, 4], [2, 2], [1, 1], BYTE, "C"),
        _bytes_at(5, 6, 9, 10),
        (0, 12),
    ),
    "subarray F": (
        subarray([3, 4], [2, 2], [1, 1], BYTE, "F"),
        _bytes_at(4, 5, 7, 8),
        (0, 12),
    ),
    "darray block": (
        darray(2, 1, [5], [DISTRIBUTE_BLOCK], [D], [2], BYTE),
        _bytes_at(3, 4),
        (0, 5),
    ),
    "darray cyclic": (
        darray(2, 1, [5], [DISTRIBUTE_CYCLIC], [2], [2], BYTE),
        _bytes_at(2, 3),
        (0, 5),
    ),
    "darray none": (
        darray(1, 0, [3], [DISTRIBUTE_NONE], [D], [1], SHORT),
        [(0, 2), (2, 2), (4, 2)],
        (0, 6),
    ),
    # rank 1 of a 2 x 2 grid sits at (0, 1): rows 0-1, columns 1, 3, 5
    "darray 2-D C": (
        darray(4, 1, [4, 6], [DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC], [D, D],
               [2, 2], BYTE, "C"),
        _bytes_at(1, 3, 5, 7, 9, 11),
        (0, 24),
    ),
    "darray 2-D F": (
        darray(4, 1, [4, 6], [DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC], [D, D],
               [2, 2], BYTE, "F"),
        _bytes_at(4, 5, 12, 13, 20, 21),
        (0, 24),
    ),
}


@pytest.mark.parametrize("name", BY_HAND)
def test_walker_by_hand(name):
    t, entries, lb_ub = BY_HAND[name]
    assert oracle.typemap(t) == entries
    assert oracle.bounds(t) == lb_ub


def test_walker_covers_every_combiner():
    combiners = {t.envelope()[3] for t, _, _ in BY_HAND.values()}
    assert len(combiners) == 13


def test_walker_shares_no_code_with_the_stack():
    """The walker, the byte oracle built on it and the striping
    reference import nothing from ``repro`` and nothing relative but the
    walker itself."""
    for module in (oracle, reference_bytes, distribution):
        tree = ast.parse(inspect.getsource(module))
        imported = [
            alias.name
            if isinstance(node, ast.Import)
            else "." * node.level + (node.module or "")
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        stack = [m for m in imported if m.startswith(("repro", "."))]
        assert set(stack) <= {".oracle"}, (module.__name__, stack)


@pytest.mark.parametrize("name", BY_HAND)
def test_live_type_by_hand(name):
    assert_agrees(BY_HAND[name][0])


def assert_agrees(t):
    """Size, bounds, run summary and one instance's runs."""
    assert t.size == oracle.size(t)
    assert (t.lb, t.ub) == oracle.bounds(t)
    assert (t.true_lb, t.true_ub) == oracle.true_bounds(t)
    assert t.run_summary == oracle.run_summary(t)
    assert t.flatten().to_pairs() == oracle.runs(t)


@given(small_datatypes())
@settings(max_examples=200, deadline=None)
def test_description_and_runs(t):
    assert_agrees(t)


@given(small_datatypes(), st.integers(0, 3), st.integers(-16, 16))
@settings(max_examples=150, deadline=None)
def test_flatten_count_and_base(t, count, base):
    assert t.flatten(count, base).to_pairs() == oracle.runs(t, count, base)


def _buffer(t, count):
    """A patterned buffer every entry of ``count`` instances falls in,
    and the base offset that puts instance 0 inside it."""
    tm = oracle.typemap(t, count)
    lo = min((d for d, _ in tm), default=0)
    hi = max((d + n for d, n in tm), default=0)
    base = max(0, -lo)
    return np.arange(base + max(hi, 0) + 1).astype(np.uint8), base


@given(small_datatypes(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_pack(t, count):
    buf, base = _buffer(t, count)
    assert np.array_equal(
        pack(buf, t, count, base), oracle.pack(buf, t, count, base)
    )


@given(small_datatypes(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_unpack(t, count):
    """Each stream byte lands at its entry; where entries overlap, the
    later one in typemap order wins."""
    buf, base = _buffer(t, count)
    stream = (np.arange(t.size * count) * 7 + 3).astype(np.uint8)
    want = np.zeros_like(buf)
    pos = 0
    for d, n in oracle.typemap(t, count, base):
        want[d : d + n] = stream[pos : pos + n]
        pos += n
    got = np.zeros_like(buf)
    unpack(stream, got, t, count, base)
    assert np.array_equal(got, want)
