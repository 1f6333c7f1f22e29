"""``MPI_Type_create_darray``: distributed-array types.

The constructor behind HPF-style decompositions (and ROMIO's
``coll_perf`` test, §4.3): given a process grid and per-dimension
distributions, it builds the datatype describing *this* rank's share of
a global array.  Supported distributions:

* ``DISTRIBUTE_BLOCK`` — contiguous blocks (default block size
  ``ceil(gsize/psize)``, or an explicit darg);
* ``DISTRIBUTE_CYCLIC`` — round-robin blocks of ``darg`` (default 1);
* ``DISTRIBUTE_NONE`` — the dimension is not distributed.

The resulting type's extent is the full array (like ``subarray``), so
tiling instances steps whole arrays.

Construction materializes each dimension's owned index runs, which is
exact for every distribution (including uneven cyclic tails) at the
cost of O(gsize) work per cyclic dimension.
"""

from __future__ import annotations

from typing import Sequence

from .base import Datatype
from .constructors import _array_layout

__all__ = [
    "darray",
    "DarrayType",
    "DISTRIBUTE_BLOCK",
    "DISTRIBUTE_CYCLIC",
    "DISTRIBUTE_NONE",
    "DISTRIBUTE_DFLT_DARG",
]

DISTRIBUTE_BLOCK = "block"
DISTRIBUTE_CYCLIC = "cyclic"
DISTRIBUTE_NONE = "none"
#: sentinel for "default distribution argument"
DISTRIBUTE_DFLT_DARG = -1

_DIST_CODES = {DISTRIBUTE_BLOCK: 0, DISTRIBUTE_CYCLIC: 1, DISTRIBUTE_NONE: 2}


def _owned_runs(gsize: int, dist: str, darg: int, psize: int, coord: int):
    """This coordinate's index runs ``(start, length)`` in one dimension."""
    if dist == DISTRIBUTE_NONE:
        if psize != 1:
            raise ValueError("DISTRIBUTE_NONE requires psize == 1")
        return [(0, gsize)]
    if dist == DISTRIBUTE_BLOCK:
        if darg == DISTRIBUTE_DFLT_DARG:
            b = -(-gsize // psize)
        else:
            b = darg
            if b * psize < gsize:
                raise ValueError(
                    f"block size {b} too small: {b} * {psize} < {gsize}"
                )
        start = coord * b
        length = min(b, gsize - start)
        return [(start, length)] if length > 0 else []
    if dist == DISTRIBUTE_CYCLIC:
        b = 1 if darg == DISTRIBUTE_DFLT_DARG else darg
        if b < 1:
            raise ValueError("cyclic block size must be positive")
        runs = []
        start = coord * b
        step = psize * b
        while start < gsize:
            runs.append((start, min(b, gsize - start)))
            start += step
        return runs
    raise ValueError(f"unknown distribution {dist!r}")


class DarrayType(Datatype):
    """A rank's share of a block/cyclic-distributed global array."""

    __slots__ = (
        "size_arg",
        "rank",
        "gsizes",
        "distribs",
        "dargs",
        "psizes",
        "order",
        "oldtype",
    )

    combiner = "darray"

    def __init__(
        self,
        size: int,
        rank: int,
        gsizes: Sequence[int],
        distribs: Sequence[str],
        dargs: Sequence[int],
        psizes: Sequence[int],
        order: str,
        oldtype: Datatype,
    ):
        gsizes = [int(g) for g in gsizes]
        psizes = [int(p) for p in psizes]
        dargs = [int(d) for d in dargs]
        distribs = list(distribs)
        n = len(gsizes)
        if not (len(distribs) == len(dargs) == len(psizes) == n):
            raise ValueError("darray argument arrays must have equal length")
        if n == 0:
            raise ValueError("darray needs at least one dimension")
        if order not in ("C", "F"):
            raise ValueError("order must be 'C' or 'F'")
        grid = 1
        for p in psizes:
            if p < 1:
                raise ValueError("psizes must be positive")
            grid *= p
        if grid != size:
            raise ValueError(
                f"process grid {psizes} has {grid} slots for size {size}"
            )
        if not (0 <= rank < size):
            raise ValueError(f"rank {rank} outside communicator of {size}")
        for g in gsizes:
            if g < 1:
                raise ValueError("gsizes must be positive")

        # rank -> grid coordinates (row-major over psizes, per MPI)
        coords = []
        rem = rank
        for p in reversed(psizes):
            coords.append(rem % p)
            rem //= p
        coords.reverse()

        owned = [
            _owned_runs(*dim) for dim in zip(gsizes, distribs, dargs, psizes, coords)
        ]
        shape, summary = _array_layout(oldtype, gsizes, owned, order)
        super().__init__(*shape)
        self.size_arg = size
        self.rank = rank
        self.gsizes = tuple(gsizes)
        self.distribs = tuple(distribs)
        self.dargs = tuple(dargs)
        self.psizes = tuple(psizes)
        self.order = order
        self.oldtype = oldtype
        self.run_summary = summary

    def contents(self):
        n = len(self.gsizes)
        dist_codes = [_DIST_CODES[d] for d in self.distribs]
        order_flag = 0 if self.order == "C" else 1
        return (
            (
                self.size_arg,
                self.rank,
                n,
                *self.gsizes,
                *dist_codes,
                *self.dargs,
                *self.psizes,
                order_flag,
            ),
            (),
            (self.oldtype,),
        )

    def describe(self) -> str:
        return (
            f"darray(rank={self.rank}/{self.size_arg}, "
            f"gsizes={list(self.gsizes)}, distribs={list(self.distribs)}, "
            f"psizes={list(self.psizes)})"
        )


def darray(
    size: int,
    rank: int,
    gsizes: Sequence[int],
    distribs: Sequence[str],
    dargs: Sequence[int],
    psizes: Sequence[int],
    oldtype: Datatype,
    order: str = "C",
) -> Datatype:
    """``MPI_Type_create_darray`` (see module docstring)."""
    return DarrayType(
        size, rank, gsizes, distribs, dargs, psizes, order, oldtype
    )
