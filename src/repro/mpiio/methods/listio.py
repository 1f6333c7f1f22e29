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

from ...pvfs.protocol import OP_LIST
from ...regions import Regions
from ..adio import AccessMethod, register_method

__all__ = ["listio_read", "listio_write", "list_io_bounds", "list_io_cuts"]


def list_io_bounds(mem_regions: Regions, file_regions: Regions, limit: int):
    """The stream positions at which an access's list I/O operations
    begin and end: an operation ends wherever either list reaches
    ``limit`` regions — at most ``limit`` pairs on either side.  With
    the file list, the cut form ``read_list(..., bounds=)`` takes."""
    total = file_regions.total_bytes
    if mem_regions.total_bytes != total:
        raise ValueError(
            f"memory stream ({mem_regions.total_bytes}B) and file stream "
            f"({total}B) sizes differ"
        )
    parts = [np.array([0, total], dtype=np.int64)]
    for regs in (mem_regions, file_regions):
        if regs.count > limit:
            # every limit-th stream end, from block sums (no memo left)
            blocks = np.add.reduceat(regs.lengths, np.arange(0, regs.count, limit))
            parts.append(np.cumsum(blocks))
    # sort + neighbour mask, not numpy's unique: that one imports numpy.ma
    # (≈ 1.2 MiB) on a process's first list I/O access
    cuts = np.sort(np.concatenate(parts))
    return cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]


def list_io_cuts(mem_regions: Regions, file_regions: Regions, limit: int):
    """The operations of :func:`list_io_bounds`, enumerated: ``(pieces,
    bounds)``, the file list cut at every operation boundary, operation
    *i* being ``pieces[bounds[i]:bounds[i + 1]]``."""
    cuts = list_io_bounds(mem_regions, file_regions, limit)
    pieces = file_regions.split_at_stream(cuts)
    return pieces, np.searchsorted(pieces.stream_ends, cuts, side="right")


def _cut(op):
    """The access in its cut form — the file list cut at every operation
    boundary, and those boundaries as stream positions — plus the
    flattened region count to charge.

    When every operation is one piece (e.g. FLASH's 8-byte memory
    pieces) the access is a one-op-per-piece sequence, handed to the
    client enumerated: at ≈ 128 pieces per exchange, cutting each
    exchange from the file runs would cost more than it saves.
    """
    mem, fil = op.mem_regions(), op.file_regions()
    bounds = list_io_bounds(mem, fil, op.fs.config.list_io_max_regions)
    return fil.split_at_stream(bounds), bounds, mem.count + fil.count


def listio_read(op):
    pieces, bounds, flattened = _cut(op)
    yield op.charge_flatten(flattened)
    if pieces.count == bounds.size - 1:
        stream = yield from op.fs.read_sequence(
            op.fh, pieces, OP_LIST, op.phantom, op.span
        )
    else:
        stream = yield from op.fs.read_list(
            op.fh, pieces, op.phantom, op.span, bounds=bounds
        )
    yield op.mem_cost()
    op.unpack_mem(stream)


def listio_write(op):
    pieces, bounds, flattened = _cut(op)
    yield op.charge_flatten(flattened)
    yield op.mem_cost()
    stream = op.pack_mem()
    if pieces.count == bounds.size - 1:
        yield from op.fs.write_sequence(op.fh, pieces, OP_LIST, stream, op.span)
    else:
        yield from op.fs.write_list(op.fh, pieces, stream, op.span, bounds=bounds)


register_method(
    AccessMethod(
        "list_io",
        listio_read,
        listio_write,
        description="bounded offset-length lists per request (§2.4)",
    )
)
