"""The :class:`Dataloop` descriptor.

A dataloop describes how one instance of a type lays its data out in a
byte space, using exactly five kinds (paper §3.2 / Gropp et al. [6]):

``contig``
    ``count`` repetitions of the child placed back-to-back (stride is
    the child's extent).  Final form: ``count`` dense elements.
``vector``
    ``count`` blocks of ``blocksize`` child instances, block *i* at byte
    ``i * stride``.
``blockindexed``
    ``count`` blocks of constant ``blocksize`` at explicit byte offsets.
``indexed``
    ``count`` blocks of per-block sizes at explicit byte offsets.
``struct``
    heterogeneous fields: ``blocksizes[i]`` instances of
    ``children[i]`` at byte ``offsets[i]``.

A loop with ``is_final`` has no child; its unit is a dense element of
``el_size`` bytes.  Every loop records its ``extent`` (the byte stride
between consecutive instances when tiled), which is all that remains of
MPI's LB/UB machinery.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..regions import Regions

__all__ = ["Dataloop", "KINDS"]

KINDS = ("contig", "vector", "blockindexed", "indexed", "struct")

_I64 = np.int64


def _tile_blocks(
    block_offsets: np.ndarray,
    blocksizes: np.ndarray,
    step: int,
    flat: Regions,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated per-block tilings of ``flat``, fully vectorized.

    Block ``j`` contributes ``blocksizes[j]`` instances of ``flat`` at
    byte stride ``step``, anchored at ``block_offsets[j]`` — the
    region sequence of an ``indexed`` loop (or a ``struct`` whose
    fields share one child).  Equivalent to the per-block Python loop
    ``flat.tile(bs, step).shift(off)`` + concat, but built with one
    ``repeat``/``arange`` broadcast.  Returns ``(offsets, lengths)``.
    """
    n_inst = int(blocksizes.sum()) if blocksizes.size else 0
    r = flat.count
    if n_inst == 0 or r == 0:
        e = np.empty(0, dtype=_I64)
        return e, e
    cum_excl = np.concatenate(([0], np.cumsum(blocksizes)[:-1]))
    # per-instance anchor: block offset + instance-within-block * step
    inst = np.repeat(block_offsets, blocksizes) + (
        np.arange(n_inst, dtype=_I64) - np.repeat(cum_excl, blocksizes)
    ) * _I64(step)
    offs = (inst[:, None] + flat.offsets[None, :]).reshape(-1)
    lens = np.ascontiguousarray(
        np.broadcast_to(flat.lengths[None, :], (n_inst, r))
    ).reshape(-1)
    return offs, lens


class Dataloop:
    """Immutable dataloop node.

    Use the classmethod constructors; the raw ``__init__`` performs full
    validation and computes derived stream metrics:

    ``data_size``
        packed-stream bytes produced by one instance;
    ``region_count``
        leaf runs per instance (before any cross-block coalescing) — an
        exact count of the offset–length pairs processing will create;
    ``depth``
        nesting depth (final loops are depth 1).
    """

    __slots__ = (
        "kind",
        "count",
        "extent",
        "is_final",
        "el_size",
        "blocksize",
        "blocksizes",
        "stride",
        "offsets",
        "children",
        "data_size",
        "region_count",
        "depth",
        "_block_stream_cum",
        "_flat_cache",
        "_block_flat_cache",
        "_run_table",
        "_fingerprint",
    )

    def __init__(
        self,
        kind: str,
        count: int,
        extent: int,
        *,
        is_final: bool = False,
        el_size: int = 0,
        blocksize: int = 0,
        blocksizes: Optional[Sequence[int]] = None,
        stride: int = 0,
        offsets: Optional[Sequence[int]] = None,
        children: Sequence["Dataloop"] = (),
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown dataloop kind {kind!r}")
        if count < 0:
            raise ValueError("negative count")
        self.kind = kind
        self.count = int(count)
        self.extent = int(extent)
        self.is_final = bool(is_final)
        self.el_size = int(el_size)
        self.blocksize = int(blocksize)
        self.stride = int(stride)
        self.blocksizes = (
            None
            if blocksizes is None
            else np.asarray(blocksizes, dtype=_I64)
        )
        self.offsets = (
            None if offsets is None else np.asarray(offsets, dtype=_I64)
        )
        self.children = tuple(children)
        self._validate()
        self._compute_metrics()
        self._flat_cache: Regions | None = None
        self._block_flat_cache: Regions | None = None
        self._run_table: tuple | None = None
        self._fingerprint: bytes | None = None

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        k = self.kind
        if self.is_final:
            if k == "struct":
                raise ValueError("struct loops cannot be final")
            if self.children:
                raise ValueError("final loops have no children")
            if self.el_size <= 0:
                raise ValueError("final loops need a positive el_size")
        else:
            if k == "struct":
                if self.blocksizes is None or self.offsets is None:
                    raise ValueError("struct needs blocksizes and offsets")
                if not (
                    len(self.children)
                    == len(self.blocksizes)
                    == len(self.offsets)
                    == self.count
                ):
                    raise ValueError(
                        "struct children/blocksizes/offsets must match count"
                    )
            else:
                if len(self.children) != 1:
                    raise ValueError(f"non-final {k} loop needs one child")
        if k in ("vector", "blockindexed"):
            if self.blocksize < 0:
                raise ValueError("negative blocksize")
        if k in ("blockindexed", "indexed"):
            if self.offsets is None or len(self.offsets) != self.count:
                raise ValueError(f"{k} needs {self.count} offsets")
        if k == "indexed":
            if self.blocksizes is None or len(self.blocksizes) != self.count:
                raise ValueError("indexed needs per-block sizes")

    def _compute_metrics(self) -> None:
        k = self.kind
        if self.is_final:
            unit_bytes = self.el_size
            unit_regions = 1
        elif k != "struct":
            unit_bytes = self.children[0].data_size
            unit_regions = self.children[0].region_count

        if k == "contig":
            self.data_size = self.count * unit_bytes
            # final contig is a single dense run
            self.region_count = 1 if self.is_final else self.count * unit_regions
            block_bytes = None
        elif k == "vector":
            per_block = self.blocksize * unit_bytes
            self.data_size = self.count * per_block
            self.region_count = self.count * (
                1 if self.is_final else self.blocksize * unit_regions
            )
            block_bytes = None
        elif k == "blockindexed":
            per_block = self.blocksize * unit_bytes
            self.data_size = self.count * per_block
            self.region_count = self.count * (
                1 if self.is_final else self.blocksize * unit_regions
            )
            block_bytes = None
        elif k == "indexed":
            sizes = self.blocksizes * unit_bytes
            self.data_size = int(sizes.sum()) if self.count else 0
            if self.is_final:
                self.region_count = self.count
            else:
                self.region_count = int(self.blocksizes.sum()) * unit_regions
            block_bytes = sizes
        else:  # struct
            sizes = np.array(
                [
                    int(bs) * ch.data_size
                    for bs, ch in zip(self.blocksizes, self.children)
                ],
                dtype=_I64,
            )
            self.data_size = int(sizes.sum()) if self.count else 0
            self.region_count = int(
                sum(
                    int(bs) * ch.region_count
                    for bs, ch in zip(self.blocksizes, self.children)
                )
            )
            block_bytes = sizes

        # cumulative stream start of each block (indexed/struct only)
        if block_bytes is not None and self.count:
            cum = np.empty(self.count + 1, dtype=_I64)
            cum[0] = 0
            np.cumsum(block_bytes, out=cum[1:])
            self._block_stream_cum = cum
        else:
            self._block_stream_cum = None

        if self.is_final:
            self.depth = 1
        elif k == "struct":
            self.depth = 1 + max(
                (c.depth for c in self.children), default=0
            )
        else:
            self.depth = 1 + self.children[0].depth

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def final_contig(cls, count: int, el_size: int, extent: int | None = None):
        """``count`` dense elements of ``el_size`` bytes."""
        if extent is None:
            extent = count * el_size
        return cls("contig", count, extent, is_final=True, el_size=el_size)

    @classmethod
    def contig(cls, count: int, child: "Dataloop", extent: int | None = None):
        if extent is None:
            extent = count * child.extent
        return cls("contig", count, extent, children=(child,))

    @classmethod
    def final_vector(
        cls,
        count: int,
        blocksize: int,
        stride: int,
        el_size: int,
        extent: int | None = None,
    ):
        if extent is None:
            extent = (
                (count - 1) * stride + blocksize * el_size if count else 0
            )
        return cls(
            "vector",
            count,
            extent,
            is_final=True,
            el_size=el_size,
            blocksize=blocksize,
            stride=stride,
        )

    @classmethod
    def vector(
        cls,
        count: int,
        blocksize: int,
        stride: int,
        child: "Dataloop",
        extent: int | None = None,
    ):
        if extent is None:
            extent = (
                (count - 1) * stride + blocksize * child.extent if count else 0
            )
        return cls(
            "vector",
            count,
            extent,
            blocksize=blocksize,
            stride=stride,
            children=(child,),
        )

    @classmethod
    def final_blockindexed(
        cls,
        blocksize: int,
        offsets: Sequence[int],
        el_size: int,
        extent: int,
    ):
        return cls(
            "blockindexed",
            len(offsets),
            extent,
            is_final=True,
            el_size=el_size,
            blocksize=blocksize,
            offsets=offsets,
        )

    @classmethod
    def blockindexed(
        cls,
        blocksize: int,
        offsets: Sequence[int],
        child: "Dataloop",
        extent: int,
    ):
        return cls(
            "blockindexed",
            len(offsets),
            extent,
            blocksize=blocksize,
            offsets=offsets,
            children=(child,),
        )

    @classmethod
    def final_indexed(
        cls,
        blocksizes: Sequence[int],
        offsets: Sequence[int],
        el_size: int,
        extent: int,
    ):
        return cls(
            "indexed",
            len(offsets),
            extent,
            is_final=True,
            el_size=el_size,
            blocksizes=blocksizes,
            offsets=offsets,
        )

    @classmethod
    def indexed(
        cls,
        blocksizes: Sequence[int],
        offsets: Sequence[int],
        child: "Dataloop",
        extent: int,
    ):
        return cls(
            "indexed",
            len(offsets),
            extent,
            blocksizes=blocksizes,
            offsets=offsets,
            children=(child,),
        )

    @classmethod
    def struct(
        cls,
        blocksizes: Sequence[int],
        offsets: Sequence[int],
        children: Sequence["Dataloop"],
        extent: int,
    ):
        return cls(
            "struct",
            len(children),
            extent,
            blocksizes=blocksizes,
            offsets=offsets,
            children=children,
        )

    # ------------------------------------------------------------------
    @classmethod
    def resized(cls, loop: "Dataloop", extent: int) -> "Dataloop":
        """Copy of ``loop`` with a different extent (no other overhead)."""
        if extent == loop.extent:
            return loop
        return cls(
            loop.kind,
            loop.count,
            extent,
            is_final=loop.is_final,
            el_size=loop.el_size,
            blocksize=loop.blocksize,
            blocksizes=loop.blocksizes,
            stride=loop.stride,
            offsets=loop.offsets,
            children=loop.children,
        )

    # ------------------------------------------------------------------
    # structure inspection
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of dataloop nodes in this tree."""
        return 1 + sum(c.node_count() for c in self.children)

    def fingerprint(self) -> bytes:
        """Stable content digest of the tree (memoized).

        Equal iff the serialized forms are equal — the identity a server
        uses to key its expansion cache on a re-shipped loop.
        """
        if self._fingerprint is None:
            from .serialize import fingerprint as _fingerprint

            self._fingerprint = _fingerprint(self)
        return self._fingerprint

    def describe(self, indent: int = 0) -> str:
        """Multi-line structural dump (for debugging and docs)."""
        pad = "  " * indent
        parts = [f"{self.kind}(count={self.count}, extent={self.extent}"]
        if self.is_final:
            parts.append(f", final el_size={self.el_size}")
        if self.kind == "vector":
            parts.append(f", blocksize={self.blocksize}, stride={self.stride}")
        if self.kind == "blockindexed":
            parts.append(f", blocksize={self.blocksize}, #offsets={self.count}")
        if self.kind == "indexed":
            parts.append(f", #blocks={self.count}")
        parts.append(")")
        lines = [pad + "".join(parts)]
        for c in self.children:
            lines.append(c.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Dataloop {self.kind} count={self.count} "
            f"data_size={self.data_size} regions={self.region_count} "
            f"depth={self.depth}>"
        )

    # ------------------------------------------------------------------
    # full flattening (analysis path; the streaming path lives in
    # segment.py and never materializes more than a chunk)
    # ------------------------------------------------------------------
    def flatten_full(self) -> Regions:
        """All regions of one instance, traversal order, coalesced.

        Cached on the loop and returned as is, so its arrays are
        read-only.
        """
        flat = self._flat_cache
        if flat is None:
            flat = self._flat_cache = self._flatten_one().coalesce()
            flat.offsets.setflags(write=False)
            flat.lengths.setflags(write=False)
        return flat

    def _flatten_one(self) -> Regions:
        """One instance's regions, traversal order; ``flatten_full``
        merges what is still left to coalesce.

        Final loops and contig/vector interiors are ``repeat``
        broadcasts.  The per-block kinds — blockindexed, indexed, and
        structs whose fields share a child — are built with a single
        ``repeat``/broadcast pass; only a struct of differing children
        tiles field by field.
        """
        k = self.kind
        if self.is_final:
            if k == "contig":
                return Regions.single(0, self.count * self.el_size)
            if k == "vector":
                offs = np.arange(self.count, dtype=_I64) * _I64(self.stride)
                lens = np.full(
                    self.count, self.blocksize * self.el_size, dtype=_I64
                )
                return Regions(offs, lens)
            if k == "blockindexed":
                lens = np.full(
                    self.count, self.blocksize * self.el_size, dtype=_I64
                )
                return Regions(self.offsets.copy(), lens)
            # indexed
            return Regions(self.offsets.copy(), self.blocksizes * self.el_size)

        if k == "struct":
            # one broadcast when every field shares the same child
            if self.children and all(
                c is self.children[0] for c in self.children
            ):
                ch = self.children[0]
                offs, lens = _tile_blocks(
                    self.offsets, self.blocksizes, ch.extent, ch.flatten_full()
                )
                return Regions(offs, lens, _trusted=True)
            return Regions.concat(
                [
                    ch.flatten_full().repeat(int(bs), ch.extent).shift(int(off))
                    for ch, bs, off in zip(
                        self.children, self.blocksizes, self.offsets
                    )
                ]
            )

        child = self.children[0]
        inner = child.flatten_full()
        if k == "contig":
            return inner.repeat(self.count, child.extent)
        if k == "indexed":
            offs, lens = _tile_blocks(
                self.offsets, self.blocksizes, child.extent, inner
            )
            return Regions(offs, lens, _trusted=True)
        block = inner.repeat(self.blocksize, child.extent)
        if k == "vector":
            return block.repeat(self.count, self.stride)
        # blockindexed: outer-add the block against the offsets
        if not self.count or not block.count:
            return Regions.empty()
        offs = (self.offsets[:, None] + block.offsets[None, :]).reshape(-1)
        lens = np.ascontiguousarray(
            np.broadcast_to(block.lengths[None, :], (self.count, block.count))
        ).reshape(-1)
        return Regions(offs, lens, _trusted=True)

    def _block_run_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uncoalesced per-block expansion of one instance (memoized).

        For indexed/struct loops only: returns ``(offsets, lengths,
        cum)`` where rows ``cum[j]:cum[j+1]`` are exactly the regions
        the streaming walk emits for a fully covered block/field ``j``
        (the child's coalesced flattening tiled across the block).
        ``DataloopStream`` slices runs of whole blocks out of this
        table instead of looping per block.
        """
        if self._run_table is None:
            if self.kind == "indexed":
                child = self.children[0]
                flat = child.flatten_full()
                offs, lens = _tile_blocks(
                    self.offsets, self.blocksizes, child.extent, flat
                )
                counts = self.blocksizes * _I64(flat.count)
            elif self.kind == "struct":
                flats = [ch.flatten_full() for ch in self.children]
                if self.children and all(
                    c is self.children[0] for c in self.children
                ):
                    offs, lens = _tile_blocks(
                        self.offsets,
                        self.blocksizes,
                        self.children[0].extent,
                        flats[0],
                    )
                else:
                    cat = Regions.concat(
                        [
                            flat.tile(int(bs), ch.extent).shift(int(off))
                            for flat, bs, ch, off in zip(
                                flats,
                                self.blocksizes,
                                self.children,
                                self.offsets,
                            )
                        ]
                    )
                    offs, lens = cat.offsets, cat.lengths
                counts = np.array(
                    [
                        int(bs) * flat.count
                        for bs, flat in zip(self.blocksizes, flats)
                    ],
                    dtype=_I64,
                )
            else:
                raise ValueError("run table requires an indexed/struct loop")
            cum = np.empty(self.count + 1, dtype=_I64)
            cum[0] = 0
            if self.count:
                np.cumsum(counts, out=cum[1:])
            self._run_table = (offs, lens, cum)
        return self._run_table
