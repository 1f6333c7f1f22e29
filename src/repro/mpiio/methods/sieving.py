"""Data sieving I/O (paper §2.2).

Reads: fetch the whole extent of the access in buffer-sized contiguous
pieces and extract the wanted bytes — few operations, possibly much
extra data.  Writes: a locked read-modify-write per buffer piece; on
file systems without locking (PVFS) ROMIO disables sieving writes, and
so do we (raising :class:`~repro.pvfs.errors.LockUnsupported`, which
the benchmark harness reports as "—", exactly as the paper's tables do).
"""

from __future__ import annotations

import numpy as np

from ...pvfs.errors import LockUnsupported
from ...regions import Regions
from ..adio import AccessMethod, register_method

__all__ = ["sieving_read", "sieving_write"]


def _sieve_plan(regions: Regions, bufsize: int):
    """Per-chunk hole analysis for the whole sieve up front.

    Returns ``[(lo, hi, wanted, stream_pos), ...]`` — one entry per
    buffer-sized piece of the extent, where ``wanted`` are the regions
    the application actually asked for inside ``[lo, hi)`` (everything
    else in the chunk is a hole read only to be discarded).  All chunks
    are analyzed in a single vectorized pass over the sorted
    offset/length arrays (:meth:`Regions.partition_with_stream`)
    instead of one O(n) clip per chunk; outputs and the simulated
    extraction charges derived from them are identical.
    """
    lo, hi = regions.extent()
    bounds = np.append(np.arange(lo, hi, bufsize, dtype=np.int64), hi)
    parts = regions.partition_with_stream(bounds)
    bounds = bounds.tolist()
    return [
        (a, b, clipped, spos)
        for a, b, (clipped, spos) in zip(bounds[:-1], bounds[1:], parts)
    ]


def sieving_read(op):
    regions = op.file_regions()
    yield op.charge_flatten(regions.count)
    if not regions.count:
        return
    out = None if op.phantom else np.zeros(op.nbytes, dtype=np.uint8)
    bufsize = op.hints.ind_rd_buffer_size
    for lo, hi, clipped, spos in _sieve_plan(regions, bufsize):
        chunk = yield from op.fs.read(
            op.fh, lo, hi - lo, phantom=op.phantom, trace=op.span
        )
        # extraction from the sieve buffer into the packed stream
        yield op.charge(
            clipped.count * op.costs.mem_region_cost
            + clipped.total_bytes / op.costs.memcpy_bandwidth
        )
        if out is not None:
            picked = clipped.shift(-lo).gather(chunk)
            Regions(spos, clipped.lengths, _trusted=True).scatter(out, picked)
    yield op.mem_cost()
    op.unpack_mem(out)


def sieving_write(op):
    if not op.fs.config.supports_locking:
        raise LockUnsupported(
            "data sieving writes need byte-range locking, which PVFS "
            "does not provide (paper §4.1)"
        )
    regions = op.file_regions()
    yield op.charge_flatten(regions.count)
    if not regions.count:
        return
    yield op.mem_cost()
    stream = op.pack_mem()
    bufsize = op.hints.ind_wr_buffer_size
    for lo, hi, clipped, spos in _sieve_plan(regions, bufsize):
        token = yield from op.fs.locks.acquire(op.fh.handle, lo, hi, op.fs.name)
        try:
            chunk = yield from op.fs.read(
                op.fh, lo, hi - lo, phantom=op.phantom, trace=op.span
            )
            yield op.charge(
                clipped.count * op.costs.mem_region_cost
                + clipped.total_bytes / op.costs.memcpy_bandwidth
            )
            if stream is not None and chunk is not None:
                piece = Regions(
                    spos, clipped.lengths, _trusted=True
                ).gather(stream)
                clipped.shift(-lo).scatter(chunk, piece)
            yield from op.fs.write(
                op.fh, lo, data=chunk, nbytes=hi - lo, trace=op.span
            )
        finally:
            op.fs.locks.release(token)


register_method(
    AccessMethod(
        "data_sieving",
        sieving_read,
        sieving_write,
        description="buffered extent access, RMW writes under locks (§2.2)",
    )
)
