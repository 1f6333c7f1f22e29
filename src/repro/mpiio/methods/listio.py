"""List I/O (paper §2.4).

ROMIO flattens the memory and file datatypes into offset–length lists
and describes the access with list I/O operations, each carrying at
most ``list_io_max_regions`` (64) pairs *on either side*.  Operation
boundaries therefore fall wherever either list reaches the bound — so
the operation count is driven by the denser of the two lists, which is
what makes FLASH (8-byte memory pieces) so expensive for list I/O.
"""

from __future__ import annotations

import numpy as np

from ...regions import Regions
from ..adio import AccessMethod, register_method

__all__ = ["listio_read", "listio_write", "list_io_cuts"]


def list_io_cuts(mem_regions: Regions, file_regions: Regions, limit: int):
    """Cut an access into list I/O operations.

    An operation ends wherever either list reaches ``limit`` regions.
    Returns ``(pieces, bounds)``: ``pieces`` is the file list cut at
    every operation boundary, and operation *i* is
    ``pieces[bounds[i]:bounds[i + 1]]`` — at most ``limit`` pairs on
    either side.
    """
    total = file_regions.total_bytes
    if mem_regions.total_bytes != total:
        raise ValueError(
            f"memory stream ({mem_regions.total_bytes}B) and file stream "
            f"({total}B) sizes differ"
        )
    parts = [np.array([0, total], dtype=np.int64)]
    for regs in (mem_regions, file_regions):
        if regs.count > limit:
            parts.append(regs.stream_ends[limit - 1 :: limit])
    cuts = np.unique(np.concatenate(parts))
    pieces = file_regions.split_at_stream(cuts)
    return pieces, np.searchsorted(pieces.stream_ends, cuts, side="right")


def _build_ops(op):
    """Cut the access into list I/O operations.

    Returns ``(fast_pieces, ops, flattened)``: when every operation
    holds exactly one file region (e.g. FLASH's 8-byte memory pieces),
    ``fast_pieces`` is a single vectorized :class:`Regions` driving the
    one-op-per-region client path; otherwise ``ops`` is the per-op list.
    """
    mem = op.mem_regions()
    fil = op.file_regions()
    limit = op.fs.config.list_io_max_regions
    pieces, bounds = list_io_cuts(mem, fil, limit)
    flattened = mem.count + fil.count
    if pieces.count == bounds.size - 1:
        return pieces, None, flattened
    bounds = bounds.tolist()
    ops = [pieces[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return None, ops, flattened


def listio_read(op):
    pieces, ops, flattened = _build_ops(op)
    yield op.charge_flatten(flattened)
    if pieces is not None:
        from ...pvfs.protocol import OP_LIST

        stream = yield from op.fs.read_sequence(
            op.fh, pieces, OP_LIST, phantom=op.phantom, trace=op.span
        )
    else:
        stream = yield from op.fs.read_list(
            op.fh, ops, phantom=op.phantom, trace=op.span
        )
    yield op.mem_cost()
    op.unpack_mem(stream)


def listio_write(op):
    pieces, ops, flattened = _build_ops(op)
    yield op.charge_flatten(flattened)
    yield op.mem_cost()
    stream = op.pack_mem()
    if pieces is not None:
        from ...pvfs.protocol import OP_LIST

        yield from op.fs.write_sequence(
            op.fh, pieces, OP_LIST, data=stream, trace=op.span
        )
    else:
        yield from op.fs.write_list(op.fh, ops, stream, trace=op.span)


register_method(
    AccessMethod(
        "list_io",
        listio_read,
        listio_write,
        description="bounded offset-length lists per request (§2.4)",
    )
)
