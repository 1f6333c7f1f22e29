"""POSIX I/O (paper §2.1).

The naive baseline: flatten the file view and issue one contiguous
file-system operation per contiguous region, synchronously and in
order.  For the paper's workloads this means hundreds to hundreds of
thousands of operations per client — "a nearly unusable system from the
performance perspective" (§5).
"""

from __future__ import annotations

from ..adio import AccessMethod, register_method

__all__ = ["posix_read", "posix_write"]


def _pieces(op):
    """One piece per contiguous (memory ∩ file) run.

    A POSIX call moves one contiguous range in memory *and* in file, so
    the access is cut at both lists' boundaries — for FLASH this is what
    produces one 8-byte operation per variable value (Table 3).  The
    pieces are described, not enumerated: the file runs plus the stream
    positions at which the memory list cuts them (``None``: nowhere).
    """
    fil = op.file_regions()
    mem = op.mem_regions()
    if mem.count > 1:
        cuts = mem.stream_ends
        return fil, cuts, mem.count + fil.split_count(cuts)
    return fil, None, mem.count + fil.count


def posix_read(op):
    regions, cuts, flattened = _pieces(op)
    yield op.charge_flatten(flattened)
    stream = yield from op.fs.read_posix(
        op.fh, regions, phantom=op.phantom, trace=op.span, cuts=cuts
    )
    yield op.mem_cost()
    op.unpack_mem(stream)


def posix_write(op):
    regions, cuts, flattened = _pieces(op)
    yield op.charge_flatten(flattened)
    yield op.mem_cost()
    stream = op.pack_mem()
    yield from op.fs.write_posix(
        op.fh, regions, stream, trace=op.span, cuts=cuts
    )


register_method(
    AccessMethod(
        "posix",
        posix_read,
        posix_write,
        description="one contiguous FS operation per region (§2.1)",
    )
)
