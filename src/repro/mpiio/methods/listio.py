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

__all__ = [
    "listio_read", "listio_write", "every_end", "list_io_bounds", "list_io_cuts"
]


def list_io_bounds(mem_ends, file_regions: Regions, limit: int):
    """The stream positions at which an access's list I/O operations
    begin and end: an operation ends wherever either list reaches
    ``limit`` regions — at most ``limit`` pairs on either side.  With
    the file list, the cut form ``read_list(..., bounds=)`` takes.
    ``mem_ends`` is where every ``limit``-th memory run ends
    (:meth:`MemoryCuts.every`; :func:`every_end` of a flattened list),
    empty for a memory list of at most ``limit`` runs."""
    total = file_regions.total_bytes
    parts = [np.array([0, total], dtype=np.int64), mem_ends]
    if file_regions.count > limit:
        parts.append(every_end(file_regions, limit))
    # sort + neighbour mask, not numpy's unique: that one imports numpy.ma
    # (≈ 1.2 MiB) on a process's first list I/O access
    cuts = np.sort(np.concatenate(parts))
    return cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]


def every_end(regions: Regions, limit: int) -> np.ndarray:
    """The stream end of every ``limit``-th region, and of the last,
    from block sums (no memo left)."""
    at = np.arange(0, regions.count, limit)
    return np.cumsum(np.add.reduceat(regions.lengths, at)) if at.size else at


def list_io_cuts(mem_regions: Regions, file_regions: Regions, limit: int):
    """The operations of :func:`list_io_bounds`, enumerated: ``(pieces,
    bounds)``, the file list cut at every operation boundary, operation
    *i* being ``pieces[bounds[i]:bounds[i + 1]]``."""
    if mem_regions.total_bytes != file_regions.total_bytes:
        raise ValueError(
            f"memory stream ({mem_regions.total_bytes}B) and file stream "
            f"({file_regions.total_bytes}B) sizes differ"
        )
    cuts = list_io_bounds(every_end(mem_regions, limit), file_regions, limit)
    pieces = file_regions.split_at_stream(cuts)
    return pieces, np.searchsorted(pieces.stream_ends, cuts, side="right")


def _cut(op):
    """The access's file list, its operation bounds (stream positions),
    how many pieces those cut it into when every operation is one piece
    (``None``: some operation holds more) and the flattened region
    count to charge.

    A one-piece-per-operation access (e.g. FLASH's 8-byte memory
    pieces) is a one-op-per-piece sequence: the client plans it over
    the file runs and the bounds as cuts (:func:`jobs.sequence`) and
    never enumerates its pieces.  The memory side of the bounds comes
    from :meth:`IOOperation.mem_cuts` (the type's run pattern, or its
    flattening when it repeats none), and only when the type has more
    than ``limit`` runs: else it adds no bound.
    """
    fil, limit = op.file_regions(), op.fs.config.list_io_max_regions
    if op.nbytes != fil.total_bytes:
        raise ValueError(
            f"memory stream ({op.nbytes}B) and file stream "
            f"({fil.total_bytes}B) sizes differ"
        )
    mem = op.mem_count()
    mem_ends = op.mem_cuts(mem).every(limit) if mem > limit else np.zeros(0, np.int64)
    bounds = list_io_bounds(mem_ends, fil, limit)
    n = fil.split_count(bounds)
    return fil, bounds, (n if n == bounds.size - 1 else None), mem + fil.count


def listio_read(op):
    fil, bounds, pieces, flattened = _cut(op)
    yield op.charge_flatten(flattened)
    if pieces is not None:
        stream = yield from op.fs.read_sequence(
            op.fh, fil, OP_LIST, op.phantom, op.span, cuts=bounds, pieces=pieces
        )
    else:
        stream = yield from op.fs.read_list(
            op.fh, fil, op.phantom, op.span, bounds=bounds
        )
    yield op.mem_cost()
    op.unpack_mem(stream)


def listio_write(op):
    fil, bounds, pieces, flattened = _cut(op)
    yield op.charge_flatten(flattened)
    yield op.mem_cost()
    stream = op.pack_mem()
    if pieces is not None:
        yield from op.fs.write_sequence(
            op.fh, fil, OP_LIST, stream, op.span, cuts=bounds, pieces=pieces
        )
    else:
        yield from op.fs.write_list(op.fh, fil, stream, op.span, bounds=bounds)


register_method(
    AccessMethod(
        "list_io",
        listio_read,
        listio_write,
        description="bounded offset-length lists per request (§2.4)",
    )
)
