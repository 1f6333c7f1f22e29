"""Binary wire encoding of dataloops.

Datatype I/O ships the file type's dataloop inside the I/O request
(paper §3.2: "we provide functionality for shipping dataloops as part
of I/O requests").  The encoded size is therefore part of the request
message size the network model charges for — the central advantage over
list I/O, whose request size grows linearly with the region count.

Layout (little-endian), depth-first preorder:

==========  =====================================================
bytes       field
==========  =====================================================
1           kind (index into ``KINDS``)
1           flags (bit 0: final)
8           count (u64)
8           extent (i64)
8           el_size (final) / 0
8           blocksize (vector/blockindexed) / stride (0 otherwise)
8           stride (vector) / 0
varies      offsets array (blockindexed/indexed/struct): count × i64
varies      blocksizes array (indexed/struct): count × i64
==========  =====================================================

struct nodes are followed by their ``count`` encoded children; other
non-final nodes by exactly one child.
"""

from __future__ import annotations

import hashlib
import struct as _struct

import numpy as np

from .loops import KINDS, Dataloop

__all__ = ["dumps", "loads", "wire_size", "fingerprint"]

_HDR = _struct.Struct("<BBQqqqq")
MAGIC = b"DLP1"


def _encode_node(loop: Dataloop, out: list[bytes]) -> None:
    kind_idx = KINDS.index(loop.kind)
    flags = 1 if loop.is_final else 0
    out.append(
        _HDR.pack(
            kind_idx,
            flags,
            loop.count,
            loop.extent,
            loop.el_size,
            loop.blocksize,
            loop.stride,
        )
    )
    if loop.kind in ("blockindexed", "indexed", "struct"):
        out.append(loop.offsets.astype("<i8").tobytes())
    if loop.kind in ("indexed", "struct"):
        out.append(loop.blocksizes.astype("<i8").tobytes())
    for child in loop.children:
        _encode_node(child, out)


def dumps(loop: Dataloop) -> bytes:
    """Serialize a dataloop tree to bytes."""
    out: list[bytes] = [MAGIC]
    _encode_node(loop, out)
    return b"".join(out)


def _decode_node(buf: memoryview, pos: int) -> tuple[Dataloop, int]:
    kind_idx, flags, count, extent, el_size, blocksize, stride = _HDR.unpack_from(
        buf, pos
    )
    pos += _HDR.size
    kind = KINDS[kind_idx]
    is_final = bool(flags & 1)
    offsets = None
    blocksizes = None
    if kind in ("blockindexed", "indexed", "struct"):
        offsets = np.frombuffer(buf, dtype="<i8", count=count, offset=pos).astype(
            np.int64
        )
        pos += 8 * count
    if kind in ("indexed", "struct"):
        blocksizes = np.frombuffer(
            buf, dtype="<i8", count=count, offset=pos
        ).astype(np.int64)
        pos += 8 * count
    children: list[Dataloop] = []
    nchildren = count if kind == "struct" else (0 if is_final else 1)
    for _ in range(nchildren):
        child, pos = _decode_node(buf, pos)
        children.append(child)
    loop = Dataloop(
        kind,
        count,
        extent,
        is_final=is_final,
        el_size=el_size,
        blocksize=blocksize,
        blocksizes=blocksizes,
        stride=stride,
        offsets=offsets,
        children=children,
    )
    return loop, pos


def loads(data: bytes) -> Dataloop:
    """Deserialize bytes produced by :func:`dumps`."""
    if data[:4] != MAGIC:
        raise ValueError("not a serialized dataloop (bad magic)")
    loop, pos = _decode_node(memoryview(data), 4)
    if pos != len(data):
        raise ValueError(
            f"trailing bytes after dataloop: consumed {pos} of {len(data)}"
        )
    return loop


def fingerprint(loop: Dataloop) -> bytes:
    """Stable 16-byte content digest of a dataloop tree.

    Two loops have equal fingerprints iff their serialized forms are
    identical (same kinds, counts, strides, offsets, extents), which is
    what a server needs to recognize a re-shipped loop without a
    structural comparison.  Memoized on the loop via
    :meth:`Dataloop.fingerprint`.
    """
    return hashlib.blake2b(dumps(loop), digest_size=16).digest()


def wire_size(loop: Dataloop) -> int:
    """Encoded size in bytes: the length of :func:`dumps`, memoized on
    the loop (every request that ships it asks again)."""
    if loop._wire_size is None:
        loop._wire_size = len(dumps(loop))
    return loop._wire_size
