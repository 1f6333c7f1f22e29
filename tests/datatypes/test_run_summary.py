"""The run summary against the list, and the memory it must not use.

``Datatype.run_summary`` — ``(runs, first offset, last end)`` of one
coalesced instance — is worked out from the constructor arguments, and
``flat_region_count(count)`` is read off it.  The counts are charged
(``client_region_cost``, ``mem_region_cost``), so they must equal
``flatten(count).count`` exactly, for every seam class.

Mutations that must fail this file (each was applied, and each fails
the explicit cases alone, whatever Hypothesis draws):

* dropping the inter-instance seam term — ``runs * count`` alone in
  ``_repeat_runs`` or in ``_block_runs`` — ``INT`` × 3 is 1 run, not 3;
* counting an empty block as a seam endpoint (``_block_runs`` without
  its ``keep`` filter, or filtering on block length only) — a
  zero-length block or zero-size field between two abutting ones hides
  their seam;
* ``>=`` for ``==`` in any of the three seam tests — replicas that
  overlap (``stride < blocklength``, an extent shorter than the data)
  do not merge.
"""

import pytest
from hypothesis import given, settings

from repro.bench.runner import run_workload
from repro.bench.workloads import FlashWorkload
from repro.datatypes import (
    BYTE,
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    DISTRIBUTE_DFLT_DARG,
    DOUBLE,
    INT,
    SHORT,
    contiguous,
    darray,
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
from repro.mpiio.view import FileView

from ..conftest import small_datatypes, traced_peak


def assert_summary_is_the_list(t, counts=range(5)):
    """The closed form answers first, with no loop built; the list second."""
    t._dataloop = None
    got = [t.flat_region_count(c) for c in counts]
    summary, contiguous_ = t.run_summary, t.is_contiguous
    assert t._dataloop is None
    assert got == [t.flatten(c).count for c in counts]
    one = t.flatten()
    if one.count:
        last_end = int(one.offsets[-1] + one.lengths[-1])
        assert summary == (one.count, int(one.offsets[0]), last_end)
    else:
        assert summary == (0, 0, 0)
    assert contiguous_ == (one.count <= 1 and t.size == t.extent)


@given(small_datatypes())
@settings(max_examples=150, deadline=None)
def test_random_types(t):
    """``flat_region_count(count) == flatten(count).count`` for
    ``count`` in 0..4 (run at 3 000 examples before check-in)."""
    assert_summary_is_the_list(t)


EMPTY = contiguous(0, INT)
GAPPED = vector(2, 1, 3, BYTE)  # runs [0, 1) and [3, 4), extent 4

SEAM_CASES = {
    "primitive instances abut": INT,
    "contiguous of a gapped type": contiguous(3, GAPPED),
    "contiguous of one that abuts itself": contiguous(3, resized(GAPPED, 0, 3)),
    "indexed blocks abut": indexed([2, 3, 1], [0, 2, 5], INT),
    "indexed blocks abut out of order": indexed([1, 1, 1], [1, 0, 1], INT),
    "indexed chain of one-run blocks": hindexed([4, 4, 4, 4], [0, 4, 8, 13], BYTE),
    "indexed_block abutting and not": indexed_block(2, [0, 2, 5, 7], SHORT),
    "vector stride == blocklength": vector(4, 3, 3, INT),
    "vector stride < blocklength": vector(4, 3, 1, INT),
    "vector stride > blocklength": vector(4, 3, 5, INT),
    "vector negative stride": vector(3, 2, -2, INT),
    "hvector blocks abut, child gapped": hvector(3, 2, 8, GAPPED),
    "hvector of one block": hvector(1, 5, 99, INT),
    "indexed block of overlapping instances": indexed(
        [2, 1], [0, 4], resized(vector(2, 1, 2, INT), 0, 8)
    ),
    "struct block of overlapping instances": struct(
        [2, 2], [0, 16], [resized(vector(2, 1, 2, INT), 0, 8), INT]
    ),
    "zero-length block between abutting ones": indexed([2, 0, 2], [0, 7, 2], INT),
    "zero-length block first and last": indexed([0, 2, 0], [0, 3, 9], INT),
    "only zero-length blocks": indexed([0, 0], [1, 2], INT),
    "no blocks": indexed([], [], INT),
    "zero-size child": contiguous(3, EMPTY),
    "zero-size child in a vector": vector(3, 2, 4, EMPTY),
    "zero-size field between abutting ones": struct(
        [1, 2, 1], [0, 4, 4], [INT, EMPTY, INT]
    ),
    "resized: instances abut": resized(vector(2, 1, 2, INT), 0, 12),
    "resized: instances overlap": resized(vector(2, 1, 2, INT), 0, 8),
    "resized: instances apart": resized(vector(2, 1, 2, INT), 0, 16),
    "resized: lb moves, data does not": resized(INT, -4, 4),
    "dup": dup(vector(2, 2, 3, INT)),
    "struct: fields abut across children": struct(
        [1, 2, 1], [0, 4, 20], [INT, DOUBLE, SHORT]
    ),
    "struct: fields apart": struct([1, 1], [0, 5], [INT, DOUBLE]),
    "struct: gapped child abuts the next field": struct(
        [2, 1], [0, 8], [GAPPED, INT]
    ),
    "struct: one shared child": struct([1, 1, 1], [0, 4, 9], [GAPPED] * 3),
    "struct: no fields": struct([], [], []),
    "subarray C": subarray([4, 6], [2, 3], [1, 2], INT, "C"),
    "subarray F": subarray([4, 6], [2, 3], [1, 2], INT, "F"),
    "subarray full rows merge": subarray([4, 6], [2, 6], [1, 0], INT, "C"),
    "subarray whole array": subarray([3, 4, 5], [3, 4, 5], [0, 0, 0], INT, "F"),
    "subarray 3-D": subarray([4, 4, 4], [2, 2, 2], [1, 1, 1], DOUBLE, "C"),
    "darray block C": darray(
        4, 1, [8, 6], [DISTRIBUTE_BLOCK] * 2, [DISTRIBUTE_DFLT_DARG] * 2,
        [2, 2], INT, "C",
    ),
    "darray block F": darray(
        4, 2, [8, 6], [DISTRIBUTE_BLOCK] * 2, [DISTRIBUTE_DFLT_DARG] * 2,
        [2, 2], INT, "F",
    ),
    "darray cyclic C": darray(
        4, 3, [8, 6], [DISTRIBUTE_CYCLIC, DISTRIBUTE_BLOCK], [2, 3],
        [2, 2], INT, "C",
    ),
    "darray cyclic F": darray(
        2, 1, [7, 5], [DISTRIBUTE_CYCLIC, DISTRIBUTE_CYCLIC], [1, 2],
        [2, 1], BYTE, "F",
    ),
}


@pytest.mark.parametrize("name", SEAM_CASES)
def test_seam_class(name):
    assert_summary_is_the_list(SEAM_CASES[name])


def test_issue_examples():
    """The two counts a dataloop's ``region_count`` gets wrong."""
    assert vector(4, 3, 1, INT).flat_region_count(3) == 10
    assert INT.flat_region_count(3) == 1
    with pytest.raises(ValueError):
        INT.flat_region_count(-1)


# ----------------------------------------------------------------------
# the memory it must not use
# ----------------------------------------------------------------------
def test_flash_memory_type_is_counted_not_flattened():
    """Paper-scale FLASH: 983 040 memory runs, known without the list
    (which is 15.7 MiB of offset–length pairs)."""
    mem = FlashWorkload.paper(8).memtype(0)
    runs, peak = traced_peak(mem.flat_region_count)
    assert runs == 983_040
    assert peak < 1 << 20
    assert mem._dataloop is None
    # building the type, summary included, stays small as well
    _, peak = traced_peak(lambda: FlashWorkload.paper(8).memtype(0))
    assert peak < 4 << 20


#: Methods that move or cut the user buffer by its memory runs and so
#: may flatten the memory type even when no byte is real; the others
#: only charge for the count.
NEED_THE_LIST = {"posix": True, "list_io": True, "datatype_io": False,
                 "collective_dtype": False, "two_phase": False}


@pytest.mark.parametrize("method", NEED_THE_LIST)
def test_phantom_operation_flattens_only_where_it_cuts(method):
    wl = FlashWorkload(n_clients=4, nblocks=2)
    mem = wl.memtype(0)
    run_workload(wl, method)
    assert (mem._dataloop is not None) == NEED_THE_LIST[method]


def test_is_contiguous_reads_the_summary():
    """A 10⁵-row view is judged at ``set_view`` time without a flatten."""
    rows = vector(100_000, 1, 2, INT)
    view = FileView(0, INT, rows)
    (dense, strided), peak = traced_peak(
        lambda: (FileView(0, INT, contiguous(100_000, INT)).is_contiguous,
                 view.is_contiguous)
    )
    assert dense and not strided
    assert rows._dataloop is None
    assert peak < 1 << 20
