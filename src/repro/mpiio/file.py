"""MPI-IO file objects and the operation context handed to methods."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..datatypes import BYTE, Datatype
from ..pvfs.client import FileHandle
from ..regions import Regions
from .adio import get_method
from .comm import RankContext
from .hints import Hints
from .view import FileView

__all__ = ["File", "IOOperation", "MPIIOCounters"]


@dataclass
class MPIIOCounters:
    """Per-rank accounting for one file (drives the paper's tables).

    ``accessed_bytes`` and ``io_ops`` are deltas of the underlying PVFS
    client counters (so sieving waste and aggregator traffic are
    captured exactly); ``resent_bytes`` counts file data exchanged with
    *other* ranks during collective aggregation.
    """

    desired_bytes: int = 0
    accessed_bytes: int = 0
    io_ops: int = 0
    resent_bytes: int = 0
    request_desc_bytes: int = 0

    def reset(self) -> None:
        self.desired_bytes = 0
        self.accessed_bytes = 0
        self.io_ops = 0
        self.resent_bytes = 0
        self.request_desc_bytes = 0


class IOOperation:
    """One read/write call, as seen by an access method."""

    def __init__(
        self,
        file: "File",
        offset_etypes: int,
        memtype: Datatype,
        count: int,
        buf: Optional[np.ndarray],
        is_write: bool,
    ):
        self.file = file
        self.ctx: RankContext = file.ctx
        self.env = file.ctx.env
        self.fs = file.ctx.fs
        self.costs = file.ctx.fs.costs
        self.hints = file.hints
        self.view = file.view
        self.fh: FileHandle = file.fh
        self.offset_etypes = offset_etypes
        self.memtype = memtype
        self.count = count
        self.buf = None if buf is None else np.asarray(buf).view(np.uint8)
        self.is_write = is_write
        self.phantom = buf is None
        self.nbytes = memtype.size * count
        self.first, self.last = file.view.stream_window(
            offset_etypes, self.nbytes
        )
        #: Root trace span of this operation (``repro.trace``); set by
        #: :meth:`File._run` when tracing is enabled.  Methods pass it
        #: as ``trace=op.span`` into the PVFS client so every request
        #: of the operation joins one trace.
        self.span = None
        self._mem_regions: Optional[Regions] = None
        self._file_regions: Optional[Regions] = None

    # ------------------------------------------------------------------
    def mem_regions(self) -> Regions:
        """Memory regions of the user buffer (base offset 0)."""
        if self._mem_regions is None:
            self._mem_regions = self.memtype.flatten(self.count)
        return self._mem_regions

    def mem_count(self) -> int:
        """How many regions :meth:`mem_regions` holds, counted from the
        memory type's run summary without flattening it."""
        return self.memtype.flat_region_count(self.count)

    def file_regions(self) -> Regions:
        """Absolute file regions of this access (materialized once)."""
        if self._file_regions is None:
            self._file_regions = self.view.file_regions(self.first, self.last)
        return self._file_regions

    # ------------------------------------------------------------------
    def charge(self, seconds: float):
        """Event for spending client CPU time."""
        return self.env.timeout(max(seconds, 0.0))

    def charge_flatten(self, region_count: int):
        """Client-side datatype flattening cost (ROMIO)."""
        return self.charge(region_count * self.costs.client_region_cost)

    def pack_mem(self) -> Optional[np.ndarray]:
        """Pack the user buffer into the operation's byte stream.

        Returns ``None`` for phantom operations.  The *cost* event must
        be charged separately via :meth:`mem_cost`.
        """
        if self.phantom:
            return None
        regions = self.mem_regions()
        return regions.gather(self.buf)

    def unpack_mem(self, stream: Optional[np.ndarray]) -> None:
        if self.phantom or stream is None:
            return
        self.mem_regions().scatter(self.buf, stream)

    def mem_cost(self):
        """CPU cost of moving the stream through the memory datatype."""
        runs = self.mem_count()
        cost = runs * self.costs.mem_region_cost
        if runs > 1:
            cost += self.nbytes / self.costs.memcpy_bandwidth
        return self.charge(cost)


class File:
    """An open MPI-IO file on one rank.

    Not a shared object: as in MPI, every rank holds its own handle and
    the collective calls must be made by all ranks of the communicator.
    """

    def __init__(self, ctx: RankContext, fh: FileHandle, hints: Hints):
        self.ctx = ctx
        self.fh = fh
        self.hints = hints
        self.view = FileView(0, BYTE, BYTE)
        self.counters = MPIIOCounters()
        self._position = 0  # individual file pointer, in etypes

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, ctx: RankContext, path: str, hints: Optional[Hints] = None):
        """Collective open (every rank calls; each contacts the manager)."""
        fh = yield from ctx.fs.open(path, create=True)
        return cls(ctx, fh, hints or Hints())

    def set_view(
        self,
        displacement: int = 0,
        etype: Datatype = BYTE,
        filetype: Optional[Datatype] = None,
    ) -> None:
        """Apply a file view; resets the individual file pointer (MPI)."""
        self.view = FileView(displacement, etype, filetype)
        self._position = 0

    # ------------------------------------------------------------------
    # individual file pointer (MPI_File_read/write/seek)
    # ------------------------------------------------------------------
    @property
    def position(self) -> int:
        """Current individual file pointer, in etypes."""
        return self._position

    def seek(self, offset: int, whence: str = "set") -> None:
        """``MPI_File_seek``: 'set', 'cur' (relative) or 'end' semantics
        are reduced to 'set'/'cur' here (no shared pointer, and 'end'
        would need a stat — use :meth:`~repro.pvfs.PVFSClient.stat`).
        """
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = self._position + offset
        else:
            raise ValueError(f"unsupported whence {whence!r}")
        if new < 0:
            raise ValueError("file pointer before start of view")
        self._position = new

    def read(self, memtype, count=1, buf=None, method=None):
        """Independent read at the individual file pointer, advancing it."""
        yield from self.read_at(self._position, memtype, count, buf, method)
        self._position += (memtype.size * count) // self.view.etype.size

    def write(self, memtype, count=1, buf=None, method=None):
        """Independent write at the individual file pointer, advancing it."""
        yield from self.write_at(self._position, memtype, count, buf, method)
        self._position += (memtype.size * count) // self.view.etype.size

    # ------------------------------------------------------------------
    def read_at(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Independent read at ``offset`` (in etypes)."""
        yield from self._independent(
            offset, memtype, count, buf, False, method
        )

    def write_at(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Independent write at ``offset`` (in etypes)."""
        yield from self._independent(
            offset, memtype, count, buf, True, method
        )

    def iread_at(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Nonblocking independent read (``MPI_File_iread_at``).

        Returns a request event immediately; ``yield`` it to wait
        (``MPI_Wait``).  The operation proceeds concurrently with the
        caller's other work on the simulated timeline.
        """
        return self.ctx.env.process(
            self.read_at(offset, memtype, count, buf, method),
            name="iread_at",
        )

    def iwrite_at(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Nonblocking independent write (``MPI_File_iwrite_at``)."""
        return self.ctx.env.process(
            self.write_at(offset, memtype, count, buf, method),
            name="iwrite_at",
        )

    def read_at_all(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Collective read — all ranks must call."""
        yield from self._collective(offset, memtype, count, buf, False, method)

    def write_at_all(
        self,
        offset: int,
        memtype: Datatype,
        count: int = 1,
        buf: Optional[np.ndarray] = None,
        method: Optional[str] = None,
    ):
        """Collective write — all ranks must call."""
        yield from self._collective(offset, memtype, count, buf, True, method)

    # ------------------------------------------------------------------
    def _independent(self, offset, memtype, count, buf, is_write, method):
        name = method or self.hints.independent_method
        m = get_method(name)
        if m.collective:
            raise ValueError(
                f"{name!r} is a collective method; use read_at_all/"
                "write_at_all"
            )
        yield from self._run(m, offset, memtype, count, buf, is_write)

    def _collective(self, offset, memtype, count, buf, is_write, method):
        name = method or self.hints.collective_method
        m = get_method(name)
        if not m.collective:
            # collective call degrading to an independent method still
            # synchronizes (MPI collective semantics)
            yield from self.ctx.comm.barrier()
            yield from self._run(m, offset, memtype, count, buf, is_write)
            yield from self.ctx.comm.barrier()
            return
        yield from self._run(m, offset, memtype, count, buf, is_write)

    def _run(self, m, offset, memtype, count, buf, is_write):
        op = IOOperation(self, offset, memtype, count, buf, is_write)
        tracer = self.ctx.fs.tracer
        metrics = self.ctx.fs.metrics
        t_start = self.ctx.env.now
        if tracer.enabled:
            # one fresh trace per MPI-IO call: the root of everything
            # the operation triggers down the stack
            op.span = tracer.begin(
                "mpiio.write" if is_write else "mpiio.read",
                "mpiio",
                f"rank{self.ctx.rank}",
                method=m.name,
                collective=m.collective,
                nbytes=op.nbytes,
            )
        before_ops = self.ctx.fs.counters.io_ops
        before_bytes = (
            self.ctx.fs.counters.bytes_read
            + self.ctx.fs.counters.bytes_written
        )
        before_desc = self.ctx.fs.counters.request_desc_bytes
        fn = m.write if is_write else m.read
        yield from fn(op)
        c = self.counters
        c.desired_bytes += op.nbytes
        c.io_ops += self.ctx.fs.counters.io_ops - before_ops
        c.accessed_bytes += (
            self.ctx.fs.counters.bytes_read
            + self.ctx.fs.counters.bytes_written
            - before_bytes
        )
        c.request_desc_bytes += (
            self.ctx.fs.counters.request_desc_bytes - before_desc
        )
        if op.span is not None:
            tracer.end(
                op.span,
                io_ops=self.ctx.fs.counters.io_ops - before_ops,
            )
        if metrics.enabled:
            metrics.observe_op(
                self.ctx.env.now - t_start, m.name, is_write
            )
