"""Derived-datatype constructors.

Each factory returns an immutable :class:`~repro.datatypes.base.Datatype`
that holds only its description: the constructor arguments, the size,
the bounds and the run summary, all worked out from the arguments.  Its
regions are its dataloop's (:meth:`Datatype.flatten`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import Datatype, _repeat_runs

_I64 = np.int64

__all__ = [
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "hindexed_block",
    "struct",
    "subarray",
    "resized",
    "dup",
    "ContiguousType",
    "VectorType",
    "IndexedType",
    "StructType",
    "SubarrayType",
    "ResizedType",
    "DupType",
]


def _check_count(count: int, what: str = "count") -> int:
    count = int(count)
    if count < 0:
        raise ValueError(f"negative {what}: {count}")
    return count


def _check_type(t) -> Datatype:
    if not isinstance(t, Datatype):
        raise TypeError(f"expected a Datatype, got {type(t).__name__}")
    return t


def _block_bounds(disp: int, bl: int, old: Datatype):
    """Bounds contributed by ``bl`` consecutive instances of ``old`` at ``disp``.

    Returns ``(lb, ub, true_lb, true_ub)`` — the true bounds are ``None``
    when ``old`` carries no data (zero-size types still have lb/ub, as
    MPI's old LB/UB marker types did, but no true extent).  Returns
    ``None`` for an empty (``bl == 0``) block.
    """
    if bl == 0:
        return None
    span = (bl - 1) * old.extent
    lo_shift, hi_shift = (span, 0) if span < 0 else (0, span)
    has_data = old.size > 0
    return (
        disp + old.lb + lo_shift,
        disp + old.ub + hi_shift,
        disp + old.true_lb + lo_shift if has_data else None,
        disp + old.true_ub + hi_shift if has_data else None,
    )


def _combine_bounds(blocks) -> tuple[int, int, int, int]:
    """Fold per-block bounds; empty input yields the zero bounds."""
    blocks = [b for b in blocks if b is not None]
    if not blocks:
        return (0, 0, 0, 0)
    lbs, ubs, tlbs, tubs = zip(*blocks)
    tlbs = [x for x in tlbs if x is not None]
    tubs = [x for x in tubs if x is not None]
    return (
        min(lbs),
        max(ubs),
        min(tlbs) if tlbs else 0,
        max(tubs) if tubs else 0,
    )


def _block_runs(disps, bls, olds) -> tuple[int, int, int]:
    """Run summary of blocks in sequence — block *i* is ``bls[i]``
    instances of ``olds[i]`` (of the one, when ``olds`` holds one) at byte
    displacement ``disps[i]``, each old given as ``(*run_summary,
    extent)`` — by :func:`_repeat_runs`' seam rule, vectorized: a block
    without data holds no run and ends no seam."""
    sub = np.array(olds, dtype=_I64)
    cols = np.broadcast_arrays(
        np.asarray(disps, dtype=_I64),
        np.asarray(bls, dtype=_I64),
        *sub.reshape(-1, 4).T,
    )
    keep = (cols[1] > 0) & (cols[2] > 0)  # instances in the block, runs in each
    if not keep.any():
        return (0, 0, 0)
    d, count, runs, first, end, extent = (c[keep] for c in cols)
    firsts = d + first
    ends = d + (count - 1) * extent + end
    runs = runs * count - (count - 1) * (end == extent + first)
    seams = np.count_nonzero(ends[:-1] == firsts[1:])
    return (int(runs.sum()) - seams, int(firsts[0]), int(ends[-1]))


# ----------------------------------------------------------------------
# contiguous
# ----------------------------------------------------------------------
class ContiguousType(Datatype):
    __slots__ = ("count", "oldtype")

    combiner = "contiguous"

    def __init__(self, count: int, oldtype: Datatype):
        count = _check_count(count)
        old = _check_type(oldtype)
        lb, ub, tlb, tub = _combine_bounds([_block_bounds(0, count, old)])
        super().__init__(count * old.size, lb, ub, tlb, tub)
        self.count = count
        self.oldtype = old
        self.run_summary = _repeat_runs(old.run_summary, count, old.extent)

    def contents(self):
        return ((self.count,), (), (self.oldtype,))

    def describe(self) -> str:
        return f"contiguous({self.count}, {self.oldtype.describe()})"


def contiguous(count: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_contiguous``: ``count`` back-to-back instances."""
    return ContiguousType(count, oldtype)


# ----------------------------------------------------------------------
# vector / hvector
# ----------------------------------------------------------------------
class VectorType(Datatype):
    __slots__ = (
        "count",
        "blocklength",
        "stride",
        "oldtype",
        "combiner",
    )

    def __init__(
        self,
        count: int,
        blocklength: int,
        stride: int,
        oldtype: Datatype,
        *,
        bytes_stride: bool,
    ):
        count = _check_count(count)
        blocklength = _check_count(blocklength, "blocklength")
        old = _check_type(oldtype)
        stride = int(stride)
        sb = stride if bytes_stride else stride * old.extent
        blocks = [
            _block_bounds(i * sb, blocklength, old) for i in range(min(count, 2))
        ]
        if count > 2:
            blocks.append(_block_bounds((count - 1) * sb, blocklength, old))
        lb, ub, tlb, tub = _combine_bounds(blocks if count else [])
        super().__init__(count * blocklength * old.size, lb, ub, tlb, tub)
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.oldtype = old
        self.combiner = "hvector" if bytes_stride else "vector"
        block = _repeat_runs(old.run_summary, blocklength, old.extent)
        self.run_summary = _repeat_runs(block, count, sb)

    def contents(self):
        if self.combiner == "vector":
            return ((self.count, self.blocklength, self.stride), (), (self.oldtype,))
        return ((self.count, self.blocklength), (self.stride,), (self.oldtype,))

    def describe(self) -> str:
        return (
            f"{self.combiner}(count={self.count}, bl={self.blocklength}, "
            f"stride={self.stride}, {self.oldtype.describe()})"
        )


def vector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_vector``: strided blocks, stride in *elements* of oldtype."""
    return VectorType(count, blocklength, stride, oldtype, bytes_stride=False)


def hvector(count: int, blocklength: int, stride: int, oldtype: Datatype) -> Datatype:
    """``MPI_Type_create_hvector``: strided blocks, stride in *bytes*."""
    return VectorType(count, blocklength, stride, oldtype, bytes_stride=True)


# ----------------------------------------------------------------------
# indexed family
# ----------------------------------------------------------------------
class IndexedType(Datatype):
    __slots__ = (
        "blocklengths",
        "displacements",
        "oldtype",
        "combiner",
    )

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        oldtype: Datatype,
        *,
        bytes_disps: bool,
        uniform_bl: bool = False,
    ):
        old = _check_type(oldtype)
        bls = [(_check_count(b, "blocklength")) for b in blocklengths]
        disps = [int(d) for d in displacements]
        if len(bls) != len(disps):
            raise ValueError(
                f"blocklengths ({len(bls)}) and displacements ({len(disps)}) "
                "must have equal length"
            )
        db = disps if bytes_disps else [d * old.extent for d in disps]
        lb, ub, tlb, tub = _combine_bounds(
            _block_bounds(d, bl, old) for d, bl in zip(db, bls)
        )
        super().__init__(sum(bls) * old.size, lb, ub, tlb, tub)
        self.blocklengths = tuple(bls)
        self.displacements = tuple(disps)
        self.oldtype = old
        self.run_summary = _block_runs(db, bls, [(*old.run_summary, old.extent)])
        if uniform_bl:
            self.combiner = "hindexed_block" if bytes_disps else "indexed_block"
        else:
            self.combiner = "hindexed" if bytes_disps else "indexed"

    @property
    def block_count(self) -> int:
        return len(self.blocklengths)

    def contents(self):
        n = self.block_count
        if self.combiner == "indexed":
            return (
                (n, *self.blocklengths, *self.displacements),
                (),
                (self.oldtype,),
            )
        if self.combiner == "hindexed":
            return ((n, *self.blocklengths), self.displacements, (self.oldtype,))
        bl = self.blocklengths[0] if n else 0
        if self.combiner == "indexed_block":
            return ((n, bl, *self.displacements), (), (self.oldtype,))
        return ((n, bl), self.displacements, (self.oldtype,))

    def describe(self) -> str:
        return (
            f"{self.combiner}(blocks={self.block_count}, "
            f"{self.oldtype.describe()})"
        )


def indexed(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    oldtype: Datatype,
) -> Datatype:
    """``MPI_Type_indexed``: displacements in elements of oldtype."""
    return IndexedType(blocklengths, displacements, oldtype, bytes_disps=False)


def hindexed(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    oldtype: Datatype,
) -> Datatype:
    """``MPI_Type_create_hindexed``: displacements in bytes."""
    return IndexedType(blocklengths, displacements, oldtype, bytes_disps=True)


def indexed_block(
    blocklength: int, displacements: Sequence[int], oldtype: Datatype
) -> Datatype:
    """``MPI_Type_create_indexed_block``: constant blocklength."""
    bls = [blocklength] * len(displacements)
    return IndexedType(
        bls, displacements, oldtype, bytes_disps=False, uniform_bl=True
    )


def hindexed_block(
    blocklength: int, displacements: Sequence[int], oldtype: Datatype
) -> Datatype:
    """``MPI_Type_create_hindexed_block``: constant blocklength, byte disps."""
    bls = [blocklength] * len(displacements)
    return IndexedType(
        bls, displacements, oldtype, bytes_disps=True, uniform_bl=True
    )


# ----------------------------------------------------------------------
# struct
# ----------------------------------------------------------------------
class StructType(Datatype):
    __slots__ = ("blocklengths", "displacements", "types")

    combiner = "struct"

    def __init__(
        self,
        blocklengths: Sequence[int],
        displacements: Sequence[int],
        types: Sequence[Datatype],
    ):
        bls = [(_check_count(b, "blocklength")) for b in blocklengths]
        disps = [int(d) for d in displacements]
        ts = [_check_type(t) for t in types]
        if not (len(bls) == len(disps) == len(ts)):
            raise ValueError(
                "blocklengths, displacements and types must have equal length"
            )
        lb, ub, tlb, tub = _combine_bounds(
            _block_bounds(d, bl, t) for d, bl, t in zip(disps, bls, ts)
        )
        super().__init__(
            sum(bl * t.size for bl, t in zip(bls, ts)), lb, ub, tlb, tub
        )
        self.blocklengths = tuple(bls)
        self.displacements = tuple(disps)
        self.types = tuple(ts)
        self.run_summary = _block_runs(
            disps, bls, [(*t.run_summary, t.extent) for t in ts]
        )

    def contents(self):
        n = len(self.types)
        return ((n, *self.blocklengths), self.displacements, self.types)

    def describe(self) -> str:
        return f"struct(fields={len(self.types)})"


def struct(
    blocklengths: Sequence[int],
    displacements: Sequence[int],
    types: Sequence[Datatype],
) -> Datatype:
    """``MPI_Type_create_struct``: heterogeneous fields at byte displacements."""
    return StructType(blocklengths, displacements, types)


# ----------------------------------------------------------------------
# resized / dup
# ----------------------------------------------------------------------
class ResizedType(Datatype):
    __slots__ = ("oldtype",)

    combiner = "resized"

    def __init__(self, oldtype: Datatype, lb: int, extent: int):
        old = _check_type(oldtype)
        super().__init__(
            old.size, int(lb), int(lb) + int(extent), old.true_lb, old.true_ub
        )
        self.oldtype = old
        self.run_summary = old.run_summary

    def contents(self):
        return ((), (self.lb, self.extent), (self.oldtype,))

    def describe(self) -> str:
        return (
            f"resized(lb={self.lb}, extent={self.extent}, "
            f"{self.oldtype.describe()})"
        )


def resized(oldtype: Datatype, lb: int, extent: int) -> Datatype:
    """``MPI_Type_create_resized``: override lb and extent."""
    return ResizedType(oldtype, lb, extent)


class DupType(Datatype):
    __slots__ = ("oldtype",)

    combiner = "dup"

    def __init__(self, oldtype: Datatype):
        old = _check_type(oldtype)
        super().__init__(old.size, old.lb, old.ub, old.true_lb, old.true_ub)
        self.oldtype = old
        self.run_summary = old.run_summary

    def contents(self):
        return ((), (), (self.oldtype,))

    def describe(self) -> str:
        return f"dup({self.oldtype.describe()})"


def dup(oldtype: Datatype) -> Datatype:
    """``MPI_Type_dup``."""
    return DupType(oldtype)


# ----------------------------------------------------------------------
# subarray
# ----------------------------------------------------------------------
ORDER_C = "C"
ORDER_F = "F"


def _array_layout(old: Datatype, sizes, owned, order: str):
    """Description of the elements of an array of ``old`` (``sizes[i]``
    along dimension ``i``) whose index along dimension ``i`` lies in the
    ascending ``(start, length)`` runs ``owned[i]``, traversed in the
    array's storage order — subarray and darray are two ways to pick the
    runs.

    Returns ``(size, lb, ub, true_lb, true_ub)`` and the run summary:
    ``lb = 0`` and ``ub`` is the whole array, so instances step whole
    arrays; the rest is what one hindexed per dimension, innermost
    first, works out.
    """
    if order == ORDER_F:  # first index fastest: reverse into C order
        sizes, owned = sizes[::-1], owned[::-1]
    size, lo, hi, summary = old.size, old.true_lb, old.true_ub, old.run_summary
    stride = old.extent  # one step along the dimension being placed
    for n, runs in zip(reversed(sizes), reversed(owned)):
        disps = [start * stride for start, _ in runs]
        lens = [length for _, length in runs]
        summary = _block_runs(disps, lens, [(*summary, stride)])
        size *= sum(lens)
        spans = [(length - 1) * stride for length in lens]
        lo = min((d + lo + min(0, sp) for d, sp in zip(disps, spans)), default=0)
        hi = max((d + hi + max(0, sp) for d, sp in zip(disps, spans)), default=0)
        stride *= n
    if not size:
        lo = hi = 0
    return (size, 0, stride, lo, hi), summary


class SubarrayType(Datatype):
    """``MPI_Type_create_subarray``.

    The resulting type's extent is the full array, with the sub-block at
    its ``starts`` displacement — so tiling instances steps whole arrays.
    """

    __slots__ = ("ndims", "sizes", "subsizes", "starts", "order", "oldtype")

    combiner = "subarray"

    def __init__(
        self,
        sizes: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        order: str,
        oldtype: Datatype,
    ):
        old = _check_type(oldtype)
        sizes = [int(s) for s in sizes]
        subsizes = [int(s) for s in subsizes]
        starts = [int(s) for s in starts]
        n = len(sizes)
        if n == 0:
            raise ValueError("subarray needs at least one dimension")
        if not (len(subsizes) == len(starts) == n):
            raise ValueError("sizes, subsizes, starts must have equal length")
        if order not in (ORDER_C, ORDER_F):
            raise ValueError(f"order must be 'C' or 'F', got {order!r}")
        for i in range(n):
            if sizes[i] <= 0 or subsizes[i] <= 0:
                raise ValueError("sizes and subsizes must be positive")
            if starts[i] < 0 or starts[i] + subsizes[i] > sizes[i]:
                raise ValueError(
                    f"dimension {i}: sub-block [{starts[i]}, "
                    f"{starts[i] + subsizes[i]}) outside array of {sizes[i]}"
                )
        shape, summary = _array_layout(
            old, sizes, [[(s, sub)] for s, sub in zip(starts, subsizes)], order
        )
        super().__init__(*shape)
        self.ndims = n
        self.sizes = tuple(sizes)
        self.subsizes = tuple(subsizes)
        self.starts = tuple(starts)
        self.order = order
        self.oldtype = old
        self.run_summary = summary

    def contents(self):
        order_flag = 0 if self.order == ORDER_C else 1
        return (
            (self.ndims, *self.sizes, *self.subsizes, *self.starts, order_flag),
            (),
            (self.oldtype,),
        )

    def describe(self) -> str:
        return (
            f"subarray(sizes={list(self.sizes)}, subsizes={list(self.subsizes)}, "
            f"starts={list(self.starts)}, order={self.order})"
        )


def subarray(
    sizes: Sequence[int],
    subsizes: Sequence[int],
    starts: Sequence[int],
    oldtype: Datatype,
    order: str = ORDER_C,
) -> Datatype:
    """``MPI_Type_create_subarray`` (default C order)."""
    return SubarrayType(sizes, subsizes, starts, order, oldtype)
