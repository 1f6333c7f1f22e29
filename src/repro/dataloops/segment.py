"""Partial dataloop processing (paper §3.2).

:class:`DataloopStream` is our equivalent of MPICH2's segment code: it
walks a dataloop (tiled ``count`` times from ``base_offset``) and emits
the offset–length pairs corresponding to an arbitrary byte subrange
``[first, last)`` of the type's packed data stream, in bounded batches
of at most ``max_regions`` pairs.

Two properties matter to the paper's argument and are preserved here:

* **partial processing** — a consumer (a PVFS I/O server building its
  access list, or a client packing a memory type) can process any slice
  of the stream without expanding the rest, and can stop/resume at
  batch boundaries, bounding intermediate offset–length storage;
* **regularity exploitation** — final (leaf) loops are expanded with
  vectorized arithmetic, never one Python iteration per region; interior
  loops only iterate over the blocks actually overlapped by the range,
  with instance skipping done by division on the stream position.

Fully covered interior subtrees whose region count is at most
``cache_threshold`` are expanded once via the loop's cached full
flattening and then shifted per instance, which is both faster and
identical in output.

Runs of *whole* instances (and whole vector/blockindexed/indexed/struct
blocks) take a vectorized fast path: instead of one Python iteration
per instance, the cached flattening is replicated with broadcast
arithmetic (``tile``/``shift``, an outer add against the block offsets,
or a slice of the loop's per-block run table) in chunks of up to
``max_regions`` regions.  The materialized region sequence is
unchanged; only the internal batch boundaries may shift for windows
larger than ``max_regions`` regions.  ``cache_threshold=0`` walks every
block one by one — the reference the tests compare the fast paths with.

:meth:`DataloopStream.instance_aligned_batches` exposes the same
expansion with batch boundaries aligned to whole top-level instances
(multiples of ``loop.data_size`` in stream space) — the periodicity
metadata the server-side expansion cache needs.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..regions import Regions
from .loops import Dataloop

__all__ = ["DataloopStream", "stream_regions"]

_I64 = np.int64


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


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
        Upper bound on regions per emitted batch.
    cache_threshold:
        Maximum region count for which a fully covered subtree may be
        expanded from its cached flattening.
    """

    def __init__(
        self,
        loop: Dataloop,
        count: int = 1,
        base_offset: int = 0,
        first: int = 0,
        last: int | None = None,
        max_regions: int = 65536,
        cache_threshold: int = 4096,
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
        self.cache_threshold = int(cache_threshold)

    # ------------------------------------------------------------------
    @property
    def stream_bytes(self) -> int:
        """Bytes of packed stream this cursor will produce regions for."""
        return self.last - self.first

    def __iter__(self) -> Iterator[Regions]:
        """Yield coalesced batches of at most ``max_regions`` regions."""
        if self.first >= self.last:
            return
        pending: list[Regions] = []
        npending = 0
        for batch in self._raw_batches():
            if not batch.count:
                continue
            pending.append(batch)
            npending += batch.count
            if npending >= self.max_regions:
                merged = Regions.concat(pending).coalesce()
                while merged.count >= self.max_regions:
                    yield merged[: self.max_regions]
                    merged = merged[self.max_regions :]
                pending = [merged] if merged.count else []
                npending = merged.count
        if pending:
            merged = Regions.concat(pending).coalesce()
            while merged.count > self.max_regions:
                yield merged[: self.max_regions]
                merged = merged[self.max_regions :]
            if merged.count:
                yield merged

    def regions(self) -> Regions:
        """Materialize the whole range (analysis/testing convenience)."""
        return Regions.concat(list(self)).coalesce()

    def instance_aligned_batches(self) -> Iterator[tuple[int, int, Regions]]:
        """Yield ``(i0, i1, regions)`` batches cut at instance boundaries.

        Each batch covers whole top-level instances ``[i0, i1)`` (the
        window edges excepted), i.e. batch boundaries sit at multiples of
        ``loop.data_size`` in stream space rather than at arbitrary
        ``max_regions`` cuts.  ``dataloop_batch_regions`` remains the
        bound: a batch holds at most ``max_regions`` regions unless a
        single instance alone exceeds it (then batches are one instance
        each).  This is the extent-aligned view a periodicity-exploiting
        consumer (the server expansion cache) needs.
        """
        unit = self.loop.data_size
        if unit <= 0 or self.first >= self.last:
            return
        a0 = self.first // unit
        a1 = _ceil_div(self.last, unit)
        ipb = max(1, self.max_regions // max(self.loop.region_count, 1))
        for c0 in range(a0, a1, ipb):
            c1 = min(c0 + ipb, a1)
            sub = DataloopStream(
                self.loop,
                count=self.count,
                base_offset=self.base_offset,
                first=max(self.first, c0 * unit),
                last=min(self.last, c1 * unit),
                max_regions=self.max_regions,
                cache_threshold=self.cache_threshold,
            )
            batch = sub.regions()
            if batch.count:
                yield c0, c1, batch

    # ------------------------------------------------------------------
    # recursive walk
    # ------------------------------------------------------------------
    def _raw_batches(self) -> Iterator[Regions]:
        yield from self._walk_instances(
            self.loop,
            self.count,
            self.base_offset,
            self.loop.extent,
            self.first,
            self.last,
        )

    def _walk_instances(
        self,
        loop: Dataloop,
        n: int,
        base: int,
        step: int,
        s0: int,
        s1: int,
    ) -> Iterator[Regions]:
        """``n`` instances of ``loop`` at ``base + i*step``; clip [s0,s1)."""
        unit = loop.data_size
        if unit == 0 or n == 0 or s0 >= s1:
            return
        i0 = max(s0 // unit, 0)
        i1 = min(_ceil_div(s1, unit), n)
        i = i0
        while i < i1:
            rel0 = max(s0 - i * unit, 0)
            rel1 = min(s1 - i * unit, unit)
            if (
                rel0 == 0
                and rel1 == unit
                and loop.region_count <= self.cache_threshold
            ):
                # maximal run of whole instances [i, iw): replicate the
                # cached flattening with broadcast tile/shift instead of
                # one Python iteration per instance
                iw = max(min(i1, s1 // unit), i + 1)
                flat = loop.flatten_full()
                if iw - i == 1:
                    yield flat.shift(base + i * step)
                else:
                    ipb = max(1, self.max_regions // max(flat.count, 1))
                    for c0 in range(i, iw, ipb):
                        c1 = min(c0 + ipb, iw)
                        yield flat.tile(c1 - c0, step).shift(
                            base + c0 * step
                        )
                i = iw
            else:
                yield from self._walk(loop, base + i * step, rel0, rel1)
                i += 1

    def _walk(
        self, loop: Dataloop, base: int, s0: int, s1: int
    ) -> Iterator[Regions]:
        """One instance of ``loop`` at ``base``, stream clip [s0, s1)."""
        if s0 >= s1:
            return
        if loop.is_final:
            yield from self._final(loop, base, s0, s1)
            return
        k = loop.kind
        if k == "contig":
            child = loop.children[0]
            yield from self._walk_instances(
                child, loop.count, base, child.extent, s0, s1
            )
        elif k == "vector":
            child = loop.children[0]
            block_bytes = loop.blocksize * child.data_size
            if block_bytes == 0:
                return
            j0 = max(s0 // block_bytes, 0)
            j1 = min(_ceil_div(s1, block_bytes), loop.count)
            block_flat = self._block_flat(loop, child)
            j = j0
            while j < j1:
                rel0 = max(s0 - j * block_bytes, 0)
                rel1 = min(s1 - j * block_bytes, block_bytes)
                if block_flat is not None and rel0 == 0 and rel1 == block_bytes:
                    # maximal run of whole blocks [j, jw): one tile/shift
                    jw = max(min(j1, s1 // block_bytes), j + 1)
                    ipb = max(1, self.max_regions // max(block_flat.count, 1))
                    for c0 in range(j, jw, ipb):
                        c1 = min(c0 + ipb, jw)
                        yield block_flat.tile(c1 - c0, loop.stride).shift(
                            base + c0 * loop.stride
                        )
                    j = jw
                else:
                    yield from self._walk_instances(
                        child,
                        loop.blocksize,
                        base + j * loop.stride,
                        child.extent,
                        rel0,
                        rel1,
                    )
                    j += 1
        elif k == "blockindexed":
            child = loop.children[0]
            block_bytes = loop.blocksize * child.data_size
            if block_bytes == 0:
                return
            j0 = max(s0 // block_bytes, 0)
            j1 = min(_ceil_div(s1, block_bytes), loop.count)
            block_flat = self._block_flat(loop, child)
            j = j0
            while j < j1:
                rel0 = max(s0 - j * block_bytes, 0)
                rel1 = min(s1 - j * block_bytes, block_bytes)
                if block_flat is not None and rel0 == 0 and rel1 == block_bytes:
                    # whole blocks at explicit offsets: outer-add the
                    # block flattening against the offsets array
                    jw = max(min(j1, s1 // block_bytes), j + 1)
                    nb = block_flat.count
                    ipb = max(1, self.max_regions // max(nb, 1))
                    for c0 in range(j, jw, ipb):
                        c1 = min(c0 + ipb, jw)
                        offs = (
                            (base + loop.offsets[c0:c1])[:, None]
                            + block_flat.offsets[None, :]
                        ).reshape(-1)
                        lens = np.ascontiguousarray(
                            np.broadcast_to(
                                block_flat.lengths[None, :], (c1 - c0, nb)
                            )
                        ).reshape(-1)
                        yield Regions(offs, lens, _trusted=True)
                    j = jw
                else:
                    yield from self._walk_instances(
                        child,
                        loop.blocksize,
                        base + int(loop.offsets[j]),
                        child.extent,
                        rel0,
                        rel1,
                    )
                    j += 1
        elif k == "indexed" or k == "struct":
            # indexed/struct share the cursor logic; only the per-block
            # child differs.  Runs of fully covered blocks are sliced
            # out of the loop's cached run table in one numpy step
            # instead of one Python iteration (and one tile/shift)
            # per block.
            cum = loop._block_stream_cum
            j0 = int(np.searchsorted(cum, s0, side="right")) - 1
            j0 = max(j0, 0)
            j1 = int(np.searchsorted(cum, s1, side="left"))
            j1 = min(j1, loop.count)
            use_table = loop.region_count <= self.cache_threshold
            j = j0
            while j < j1:
                block_bytes = int(cum[j + 1] - cum[j])
                rel0 = max(s0 - int(cum[j]), 0)
                rel1 = min(s1 - int(cum[j]), block_bytes)
                if use_table and rel0 == 0 and rel1 == block_bytes:
                    # maximal run of whole blocks [j, jw)
                    jw = int(np.searchsorted(cum, s1, side="right")) - 1
                    jw = max(min(jw, j1), j + 1)
                    yield from self._table_run(loop, base, j, jw)
                    j = jw
                else:
                    child = (
                        loop.children[j] if k == "struct" else loop.children[0]
                    )
                    yield from self._walk_instances(
                        child,
                        int(loop.blocksizes[j]),
                        base + int(loop.offsets[j]),
                        child.extent,
                        rel0,
                        rel1,
                    )
                    j += 1

    def _table_run(
        self, loop: Dataloop, base: int, j: int, jw: int
    ) -> Iterator[Regions]:
        """Regions of fully covered indexed/struct blocks ``[j, jw)``.

        Slices the loop's cached run table in ``max_regions`` chunks;
        the region sequence matches the per-block walk exactly.
        """
        offs, lens, rcum = loop._block_run_table()
        a, b = int(rcum[j]), int(rcum[jw])
        for c0 in range(a, b, self.max_regions):
            c1 = min(c0 + self.max_regions, b)
            yield Regions(
                offs[c0:c1] + _I64(base), lens[c0:c1], _trusted=True
            )

    def _block_flat(self, loop: Dataloop, child: Dataloop) -> Regions | None:
        """Cached coalesced flattening of one whole vector/blockindexed
        block (``blocksize`` child instances), or ``None`` when the block
        is too large to cache."""
        if loop.blocksize * child.region_count > self.cache_threshold:
            return None
        if loop._block_flat_cache is None:
            loop._block_flat_cache = child.flatten_full().repeat(
                loop.blocksize, child.extent
            )
        return loop._block_flat_cache

    # ------------------------------------------------------------------
    def _final(
        self, loop: Dataloop, base: int, s0: int, s1: int
    ) -> Iterator[Regions]:
        """Vectorized expansion of a final loop's stream range."""
        k = loop.kind
        el = loop.el_size
        if k == "contig":
            # one dense run: stream position == byte position
            yield Regions.single(base + s0, s1 - s0)
            return

        if k == "vector" or k == "blockindexed":
            block_bytes = loop.blocksize * el
            if block_bytes == 0:
                return
            j0 = max(s0 // block_bytes, 0)
            j1 = min(_ceil_div(s1, block_bytes), loop.count)
            if j0 >= j1:
                return
            chunk = self.max_regions
            for c0 in range(j0, j1, chunk):
                c1 = min(c0 + chunk, j1)
                if k == "vector":
                    offs = base + np.arange(c0, c1, dtype=_I64) * _I64(
                        loop.stride
                    )
                else:
                    offs = base + loop.offsets[c0:c1].astype(_I64)
                lens = np.full(c1 - c0, block_bytes, dtype=_I64)
                if c0 == j0:
                    delta = s0 - j0 * block_bytes
                    if delta > 0:
                        offs = offs.copy()
                        offs[0] += delta
                        lens[0] -= delta
                if c1 == j1:
                    over = j1 * block_bytes - s1
                    if over > 0:
                        lens[-1] -= over
                yield Regions(offs, lens)
            return

        # indexed final
        cum = loop._block_stream_cum
        j0 = int(np.searchsorted(cum, s0, side="right")) - 1
        j0 = max(j0, 0)
        j1 = int(np.searchsorted(cum, s1, side="left"))
        j1 = min(j1, loop.count)
        if j0 >= j1:
            return
        chunk = self.max_regions
        for c0 in range(j0, j1, chunk):
            c1 = min(c0 + chunk, j1)
            offs = base + loop.offsets[c0:c1].astype(_I64)
            lens = (loop.blocksizes[c0:c1] * el).astype(_I64)
            if c0 == j0:
                delta = s0 - int(cum[j0])
                if delta > 0:
                    offs = offs.copy()
                    offs[0] += delta
                    lens = lens.copy()
                    lens[0] -= delta
            if c1 == j1:
                over = int(cum[j1]) - s1
                if over > 0:
                    lens = lens.copy() if c0 != j0 else lens
                    lens[-1] -= over
            yield Regions(offs, lens)


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
