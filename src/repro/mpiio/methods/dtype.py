"""Datatype I/O (paper §3).

One file-system operation per MPI-IO call: the file view's dataloop is
shipped with a (displacement, stream-window) triple and the I/O servers
expand it themselves.  The memory side is handled locally as in every
other method.  The file-system client charges the prototype's
per-operation datatype→dataloop conversion and the client-side
job/access construction; the servers charge their own expansion.
"""

from __future__ import annotations

from ..adio import AccessMethod, register_method

__all__ = ["dtype_read", "dtype_write"]


def dtype_read(op):
    # the prototype builds the memory-side job/access lists on the
    # client (§3.2) — this is the list-processing overhead that makes
    # datatype I/O "underperform at small numbers of clients" for
    # noncontiguous memory (§4.4)
    yield op.charge_flatten(op.mem_count())
    stream = yield from op.fs.read_dtype(
        op.fh,
        op.view.loop,
        displacement=op.view.displacement,
        first=op.first,
        last=op.last,
        phantom=op.phantom,
        trace=op.span,
    )
    yield op.mem_cost()
    op.unpack_mem(stream)


def dtype_write(op):
    yield op.charge_flatten(op.mem_count())
    yield op.mem_cost()
    stream = op.pack_mem()
    yield from op.fs.write_dtype(
        op.fh,
        op.view.loop,
        displacement=op.view.displacement,
        first=op.first,
        last=op.last,
        data=stream,
        trace=op.span,
    )


register_method(
    AccessMethod(
        "datatype_io",
        dtype_read,
        dtype_write,
        description="dataloop shipped to the I/O servers (§3)",
    )
)
