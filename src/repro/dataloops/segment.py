"""Partial dataloop processing (paper §3.2).

:class:`DataloopStream` is our equivalent of MPICH2's segment code: it
expands an arbitrary byte subrange ``[first, last)`` of the packed data
stream of ``count`` tiled instances of a dataloop (instance *i* at
``base_offset + i * loop.extent``) into offset–length pairs, in batches
of at most ``max_regions`` pairs.  A consumer — a PVFS I/O server
building its access list, a client packing a memory type — can process
any slice of the stream batch by batch.

One rule decides how a window is expanded, and ``max_regions`` is its
only threshold:

* **An instance that fits in a batch** (``loop.region_count <=
  max_regions``) is never walked.  Whole instances are the loop's
  memoised :meth:`~repro.dataloops.Dataloop.flatten_full`, tiled in
  chunks of ``max_regions // flat.count`` instances and shifted; the at
  most two partial instances at the window's edges are cuts of that
  flattening (a ``searchsorted`` on its memoised ``stream_ends``).
* **An instance too big for a batch** is descended block by block, and
  the same rule applies to each child: final blocks are built
  vectorised, runs of whole blocks that fit in a batch are one
  ``_tile_blocks`` broadcast over the block anchors, and an edge block
  or one that does not fit recurses.

So nothing larger than a batch is ever flattened, and a descriptor
whose single instance has 2**40 regions costs only the window asked of
it.  Below the bound the price is the other way round: even a few bytes
inside one instance cost that instance's whole flattening (up to
``max_regions`` pairs), which stays memoised on the loop, with its
``stream_ends``, for the loop's lifetime (about 24 B per region).
Batches are coalesced, and the last region seen is held back until the
next piece arrives, so the batches concatenate, pair for pair, to
:meth:`DataloopStream.regions` and batch edges never split a region.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..regions import Regions
from .loops import Dataloop, _tile_blocks

__all__ = ["DataloopStream", "byte_at", "stream_period", "stream_regions"]

_I64 = np.int64


def _cut(r: Regions, a: int, b: int, delta: int) -> Regions:
    """The regions of stream bytes ``[a, b)`` of ``r`` (``0 <= a < b <=
    r.total_bytes``), shifted by ``delta``: two ``searchsorted`` probes
    on its stream ends pick the runs the window touches, and
    ``split_at_stream`` cuts those at the window's two edges."""
    ends = r.stream_ends
    j0 = int(np.searchsorted(ends, a, side="right"))
    j1 = int(np.searchsorted(ends, b, side="left")) + 1
    s = int(ends[j0] - r.lengths[j0])  # stream start of run j0
    pieces = r[j0:j1].split_at_stream([a - s, b - s])
    k0, k1 = np.searchsorted(pieces.stream_ends, [a - s, b - s], side="right")
    return pieces[int(k0) : int(k1)].shift(delta)


def _block_start(loop: Dataloop, j: int) -> int:
    """Stream position at which block ``j`` of one instance starts."""
    cum = loop._block_stream_cum
    if cum is None:  # vector / blockindexed: blocks of equal size
        return j * (loop.data_size // loop.count)
    return int(cum[j])


def _block_upto(loop: Dataloop, j: int, nbytes: int) -> int:
    """The last block starting at most ``nbytes`` stream bytes after
    block ``j`` starts (may be ``loop.count``)."""
    cum = loop._block_stream_cum
    if cum is None:
        return j + nbytes // (loop.data_size // loop.count)
    return int(np.searchsorted(cum, cum[j] + nbytes, side="right")) - 1


def _blocks(
    loop: Dataloop, j: int, jw: int, base: int
) -> tuple[np.ndarray, np.ndarray]:
    """Byte anchors (fresh, offset by ``base``) and sizes (child
    instances, or elements when final) of blocks ``[j, jw)``."""
    if loop.kind == "vector":
        anchors = np.arange(j, jw, dtype=_I64) * _I64(loop.stride) + _I64(base)
    else:
        anchors = loop.offsets[j:jw] + _I64(base)
    if loop.blocksizes is None:
        return anchors, np.full(jw - j, loop.blocksize, dtype=_I64)
    return anchors, loop.blocksizes[j:jw]


def byte_at(loop: Dataloop, pos: int) -> int:
    """Byte offset of packed-stream byte ``pos`` of tiled instances of
    ``loop`` (instance *i* at ``i * loop.extent``): one block per level,
    O(depth), nothing expanded.  Two stream bytes ``pos - 1`` and ``pos``
    lie in one coalesced run exactly when their offsets are adjacent."""
    i, pos = divmod(int(pos), loop.data_size)
    addr = i * loop.extent
    while True:
        if loop.kind == "contig":
            if loop.is_final:
                return addr + pos
            child = loop.children[0]
        else:
            j = _block_upto(loop, 0, pos)
            pos -= _block_start(loop, j)
            addr += j * loop.stride if loop.kind == "vector" else int(loop.offsets[j])
            if loop.is_final:
                return addr + pos
            child = loop.children[j if loop.kind == "struct" else 0]
        i, pos = divmod(pos, child.data_size)
        addr += i * child.extent
        loop = child


def stream_period(loop: Dataloop, count: int, max_regions: int):
    """The coalesced runs of ``count`` tiled instances of ``loop`` as one
    pattern repeated: ``(size, ends)``, every ``size`` stream bytes
    holding runs that end ``ends`` bytes past the period's start
    (sorted, ``ends[-1] == size``), or ``None``.

    Found by going down from the instances to the one child all blocks
    repeat, for as long as no two consecutive copies join into one run,
    to a loop whose instance fits in a batch — its memoised flattening
    is the pattern — or to final blocks of one size.  A struct of
    differing fields, final blocks of differing sizes or a joining seam
    on the way gives ``None``.  The seams are checked with
    :func:`byte_at` and the loops' own block arrays: nothing is
    expanded above the batch bound.
    """
    size = loop.data_size
    if not (count and size):
        return None
    if count > 1 and loop.extent + byte_at(loop, 0) == byte_at(loop, size - 1) + 1:
        return None
    while loop.region_count > max_regions:
        if loop.kind == "contig":
            anchors, reps = np.zeros(1, _I64), np.array([loop.count], _I64)
        elif loop.kind == "vector":  # evenly spaced: the first seam is all
            anchors = np.arange(min(loop.count, 2), dtype=_I64) * _I64(loop.stride)
            reps = np.full(anchors.size, loop.blocksize, _I64)
        else:
            anchors, reps = _blocks(loop, 0, loop.count, 0)
        keep = reps > 0
        anchors, reps = anchors[keep], reps[keep]
        child = loop._block_child
        if loop.is_final:
            if (reps != reps[0]).any():
                return None
            first, last = anchors, anchors + reps * loop.el_size
        elif child is None:
            return None
        else:
            lo, hi = byte_at(child, 0), byte_at(child, child.data_size - 1) + 1
            if (reps > 1).any() and child.extent + lo == hi:
                return None
            first, last = anchors + lo, anchors + (reps - 1) * child.extent + hi
        if (last[:-1] == first[1:]).any():
            return None
        if loop.is_final:
            run = int(reps[0]) * loop.el_size
            return run, np.array([run], _I64)
        loop = child
    return loop.data_size, loop.flatten_full().stream_ends


class DataloopStream:
    """Iterate the regions of ``count`` tiled instances of ``loop``.

    Parameters
    ----------
    loop:
        The dataloop to process.
    count:
        Number of consecutive instances (instance *i* at
        ``base_offset + i * loop.extent``).
    base_offset:
        Byte offset of instance 0's origin.
    first, last:
        Half-open subrange of the packed stream to expand, in bytes;
        ``last=None`` means the full stream (``count * data_size``).
    max_regions:
        Upper bound on regions per emitted batch, and the bound above
        which an instance is descended instead of flattened.
    """

    def __init__(
        self,
        loop: Dataloop,
        count: int = 1,
        base_offset: int = 0,
        first: int = 0,
        last: int | None = None,
        max_regions: int = 65536,
    ):
        if count < 0:
            raise ValueError("negative count")
        if max_regions <= 0:
            raise ValueError("max_regions must be positive")
        total = count * loop.data_size
        if last is None:
            last = total
        first = max(0, min(int(first), total))
        last = max(first, min(int(last), total))
        self.loop = loop
        self.count = count
        self.base_offset = int(base_offset)
        self.first = first
        self.last = last
        self.max_regions = int(max_regions)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Regions]:
        """Yield coalesced batches of at most ``max_regions`` regions.

        The last region seen may still merge with the next piece, so it
        is held back until that piece arrives; only regions that can no
        longer change leave in a batch.
        """
        m, loop = self.max_regions, self.loop
        pending, n = [], 0
        for piece in self._instances(
            loop, self.base_offset, loop.extent, self.first, self.last
        ):
            pending.append(piece)
            n += piece.count
            if n >= m:
                merged = Regions.concat(pending).coalesce()
                ready = (merged.count - 1) // m * m
                yield from (merged[a : a + m] for a in range(0, ready, m))
                pending, n = [merged[ready:]], merged.count - ready
        merged = Regions.concat(pending).coalesce()
        yield from (merged[a : a + m] for a in range(0, merged.count, m))

    def regions(self) -> Regions:
        """Materialize the whole range (analysis/testing convenience)."""
        return Regions.concat(list(self)).coalesce()

    # ------------------------------------------------------------------
    def _instances(
        self, loop: Dataloop, base: int, step: int, s0: int, s1: int
    ) -> Iterator[Regions]:
        """Instances of ``loop`` at ``base + i * step``, stream clip
        ``[s0, s1)``."""
        if s0 >= s1:
            return
        unit = loop.data_size
        if loop.region_count > self.max_regions:
            for i in range(s0 // unit, -(-s1 // unit)):
                lo, hi = max(s0 - i * unit, 0), min(s1 - i * unit, unit)
                yield from self._descend(loop, base + i * step, lo, hi)
            return
        flat = loop.flatten_full()
        lo, hi = -(-s0 // unit), s1 // unit  # whole instances [lo, hi)
        if lo > hi:  # the window lies inside instance ``hi``
            yield _cut(flat, s0 - hi * unit, s1 - hi * unit, base + hi * step)
            return
        if s0 < lo * unit:
            i = lo - 1
            yield _cut(flat, s0 - i * unit, unit, base + i * step)
        per = max(1, self.max_regions // flat.count)
        for c0 in range(lo, hi, per):
            yield flat.tile(min(per, hi - c0), step).shift(base + c0 * step)
        if hi * unit < s1:
            yield _cut(flat, 0, s1 - hi * unit, base + hi * step)

    def _descend(
        self, loop: Dataloop, base: int, s0: int, s1: int
    ) -> Iterator[Regions]:
        """One instance of ``loop``, too big for a batch, at ``base``:
        the stream clip ``[s0, s1)`` block by block."""
        if loop.kind == "contig":  # interior: a final contig is one run
            child = loop.children[0]
            yield from self._instances(child, base, child.extent, s0, s1)
            return
        m = self.max_regions
        child = flat = None
        if not loop.is_final and loop.kind != "struct":
            child = loop.children[0]
            if child.region_count <= m:
                flat = child.flatten_full()
                cap = m // flat.count * child.data_size
        j = _block_upto(loop, 0, s0)
        j1 = _block_upto(loop, 0, s1 - 1) + 1
        while j < j1:
            a = _block_start(loop, j)
            if loop.is_final:
                jw = min(j + m, j1)
            elif flat is not None and a >= s0:  # whole blocks in the window
                jw = min(_block_upto(loop, j, min(cap, s1 - a)), j1)
            else:
                jw = j
            fits = jw > j
            jw = max(jw, j + 1)
            lo, hi = max(s0 - a, 0), min(s1, _block_start(loop, jw)) - a
            anchors, sizes = _blocks(loop, j, jw, base)
            if not fits:  # an edge block, or one too big for a batch
                ch = loop.children[j] if child is None else child
                yield from self._instances(ch, int(anchors[0]), ch.extent, lo, hi)
            elif flat is not None:  # whole blocks: one broadcast
                offs, lens = _tile_blocks(anchors, sizes, child.extent, flat)
                yield Regions(offs, lens, _trusted=True)
            elif lo < hi:  # final blocks: one run each
                regs = Regions(anchors, sizes * _I64(loop.el_size))
                yield _cut(regs, lo, hi, 0)
            j = jw


def stream_regions(
    loop: Dataloop,
    count: int = 1,
    base_offset: int = 0,
    first: int = 0,
    last: int | None = None,
) -> Regions:
    """All regions of the given stream range, fully materialized."""
    return DataloopStream(
        loop, count=count, base_offset=base_offset, first=first, last=last
    ).regions()
