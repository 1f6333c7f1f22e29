"""PVFS client library.

Exposes the three file-system access interfaces the paper compares:

* :meth:`PVFSClient.read` / :meth:`~PVFSClient.write` — contiguous
  (POSIX-style) access;
* :meth:`PVFSClient.read_list` / :meth:`~PVFSClient.write_list` —
  **list I/O** (§2.4): each operation carries at most
  ``list_io_max_regions`` offset–length pairs, so the number of
  file-system operations stays linear in the region count;
* :meth:`PVFSClient.read_dtype` / :meth:`~PVFSClient.write_dtype` —
  **datatype I/O** (§3): one operation ships a dataloop plus a stream
  window; servers expand it themselves.

All I/O methods are generators to be driven inside a simulation process
(``yield from client.read(...)``).  Data is real unless ``phantom`` is
requested (paper-scale timing runs account sizes without moving bytes).

Simulation batching: runs of consecutive synchronous list/contig
operations that touch an identical server set are collapsed into one
exchange whose *accounted* cost (per-op client and server fixed costs,
round-trip latencies, wire bytes) equals the sum of the individual
operations — see DESIGN.md §5.  What each exchange carries is planned
in :mod:`~repro.pvfs.jobs`; the collective protocol is
:class:`~repro.pvfs.collective.CollEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..dataloops import Dataloop
from ..regions import Regions
from ..simulation.costs import REJECT_BACKOFF
from ..simulation.network import Message
from .distribution import Distribution
from .errors import PVFSError, RetriesExhausted
from .jobs import charge_convert, expand_view, list_cut, op_groups, sequence
from .protocol import (
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    DataloopWindow,
    IORequest,
    IOResponse,
    MetaRequest,
    MetaResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .system import PVFS

__all__ = ["PVFSClient", "FileHandle", "ClientCounters"]

#: Slack of a deadline check: a timer firing at its deadline has expired.
_EPS = 1e-12


@dataclass
class ClientCounters:
    """Per-client accounting used by the characteristics tables."""

    io_ops: int = 0  #: file-system level operations issued
    requests_sent: int = 0  #: messages to I/O servers (incl. resends)
    request_desc_bytes: int = 0  #: request description bytes on the wire
    bytes_read: int = 0  #: file data received
    bytes_written: int = 0  #: file data sent
    regions_shipped: int = 0  #: offset-length pairs sent in list requests
    retries: int = 0  #: resends after server admission-control rejection
    timeouts: int = 0  #: RPC response timeouts (fault injection only)
    failovers: int = 0  #: requests that succeeded after >=1 timeout


@dataclass
class FileHandle:
    """Client-side file state cached at open (PVFS does the same)."""

    handle: int
    path: str
    dist: Distribution
    size: int = 0


class _TimeoutMarker:
    """Deadline of one wait, which its armed timer drops straight into
    the client mailbox.  Riding the mailbox itself (rather than a wait
    on the first of two events) keeps the timed receive path's
    event-hop structure identical to the untimed one, so arming an
    inert fault config cannot perturb timings; and its place in the
    FIFO decides that whatever was queued before the deadline is read
    first (a flag set when the timer fires would skip those messages).
    It records the receive it bounds, so the wait that reads it can
    tell a sleeping owner.  Kept for ROADMAP 3(b) to retire: it fixes
    the same-instant order of a delivery and a deadline."""

    __slots__ = ("store", "rx", "live")

    def __init__(self, store, rx: "_Receive"):
        self.store = store  #: the owning client's mailbox queue
        self.rx = rx  #: the receive whose wait this deadline bounds
        #: cleared once that wait is over or its deadline was read
        self.live = True

    def fire(self, _ev=None) -> None:
        if self.live:
            self.store.put(self)


class _Receive:
    """One posted receive: what the client files for the wait that
    posted it (see :meth:`PVFSClient._receive`).

    A request's receive keeps only its latest unread answer; a
    collective's keeps every arrival in order, and its wait ends on
    every item it reads off the mailbox, its own or not.  Both rules
    are kept for ROADMAP 3(b) to retire: they fix which of two
    same-instant answers settles a request, and when the collective
    engine re-arms its timer.
    """

    __slots__ = ("items", "collective")

    def __init__(self, collective: bool = False):
        self.items: list = []
        self.collective = collective


class _Ladder:
    """RTO ladder of one obligation to one server: a request awaiting
    its response, a collective write segment awaiting its ack, a read
    segment awaiting delivery.

    The RTO doubles per consecutive timeout of the obligation (TCP RTO
    style): a base deadline shorter than a large transfer's legitimate
    wire time would otherwise time out forever, while crashed-server
    recovery stays one base deadline away.  Every resend backs off
    exponentially and the retry budget is bounded, so a wait either
    ends inside the ladder or fails typed — never a hang.  The deadline
    is not the obligation's but its connection's (:class:`_Conn`).
    Without an armed injector (``cfg`` is ``None``) a ladder joins no
    connection and only carries its item: nothing can be lost, so
    nothing is timed.
    """

    __slots__ = ("cfg", "attempts", "server", "item", "group")

    def __init__(self, cfg, server: int, item=None):
        self.cfg = cfg  #: the armed FaultConfig, or None
        self.attempts = 0  #: consecutive timeouts so far
        self.server = server  #: the connection the obligation rides
        self.item = item  #: what a resend ships (request or segment)
        self.group = None  #: handoff counter this request belongs to

    @property
    def rto(self) -> Optional[float]:
        """Seconds to wait for an answer at the current attempt count
        (``None``: untimed)."""
        if self.cfg is None:
            return None
        return self.cfg.rpc_timeout * (2 ** min(self.attempts, 20))

    def escalate(self) -> Optional[float]:
        """Count one missed deadline: the backoff to sleep before the
        resend, or ``None`` once the retry budget is spent."""
        self.attempts += 1
        if self.attempts > self.cfg.max_retries:
            return None
        return self.cfg.retry_backoff * (2 ** (self.attempts - 1))


class _Conn:
    """The retransmission timer of one (client, server) connection
    (RFC 6298 §5; armed fault configs only).

    It runs while the client owes or is owed anything by the server:
    ``ladders`` holds every outstanding obligation to it, oldest first,
    each with the key its wait files it under.  Any arrival from the
    server restarts it (§5.3).  On expiry only the oldest obligation of
    the expiring wait escalates, through its own ladder rung, and the
    timer restarts at that obligation's doubled RTO (§5.4–5.6).  The
    RTO is always the oldest obligation's — attempts are counted per
    obligation — so a server that answers its oldest obligation brings
    the timer back to the base ``rpc_timeout``.  With nothing
    outstanding it is stopped (``deadline`` is ``None``) and dropped.
    """

    __slots__ = ("ladders", "deadline")

    def __init__(self):
        self.ladders: dict = {}  #: ladder -> its wait's key, oldest first
        self.deadline: Optional[float] = None

    def restart(self, now: float) -> None:
        """(Re)start at the oldest obligation's RTO, or stop."""
        self.deadline = now + next(iter(self.ladders)).rto if self.ladders else None


class PVFSClient:
    """A file-system client living on one cluster node."""

    def __init__(self, system: "PVFS", node, name: str, tenant: int = 0):
        self.env = system.env
        self.costs = system.costs
        self.config = system.config
        self.net = system.net
        self.tracer = system.tracer
        self.metrics = system.metrics
        self.faults = system.faults
        self.locks = system.locks
        #: shared collective completion state (see ``PVFS.coll_recovery``)
        self.coll_recovery = system.coll_recovery
        self._meta_mailbox = system.metadata.mailbox
        self._server_mailboxes = [s.mailbox for s in system.servers]
        self.node = node
        self.name = name
        #: Tenant index (``PVFSConfig.tenants``); stamped on every
        #: outgoing :class:`IORequest` so server-side admission can
        #: queue it fairly.  0 — the only valid value when no tenants
        #: are configured — is the default tenant.
        self.tenant = tenant
        self.mailbox = self.net.mailbox(node, f"pvfs:{name}")
        self.counters = ClientCounters()
        self._next_req = 0
        # datatype cache (PVFSConfig.datatype_cache): converted loops,
        # expansion results (both read by jobs.charge_convert /
        # jobs.expand_view), and per-server registration state, keyed by
        # loop fingerprint (an id() would be reused by a later loop once
        # this one is freed)
        self.converted_loops: set[bytes] = set()
        self.expansion_cache: dict[tuple, "Regions"] = {}
        self._server_knows_loop: set[tuple[int, bytes]] = set()
        # Posted receives (see _receive): a request id maps to its
        # request's receive from posting until it settles, a coll id to
        # this rank's receive for that collective until the rank is
        # past the completion gate.  Traffic for a key not posted here
        # is late or duplicated and is dropped.
        self._posted: dict = {}
        # the receive whose wait reads the mailbox (one at a time), and
        # the waits sleeping meanwhile: receive -> wake-up event
        self._reader: Optional[_Receive] = None
        self._sleepers: dict = {}
        # per-server drain times of in-flight collective segments: the
        # sliding send windows of this rank's sockets
        # (collective.CollEngine.send_segment)
        self.coll_windows: dict = {}
        # armed only: server -> its connection's running retransmission
        # timer (dropped when it stops)
        self._conns: dict[int, _Conn] = {}

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------
    def open(self, path: str, create: bool = True):
        """Open (optionally creating) a file; returns a FileHandle."""
        resp = yield from self._meta_rpc(
            MetaRequest("open", path=path, create=create)
        )
        return FileHandle(
            handle=resp.handle,
            path=path,
            dist=Distribution(resp.n_servers, resp.strip_size),
            size=resp.size,
        )

    def stat(self, fh: FileHandle):
        """Query the current logical file size."""
        resp = yield from self._meta_rpc(
            MetaRequest("stat", handle=fh.handle)
        )
        fh.size = resp.size
        return resp.size

    def unlink(self, path: str):
        yield from self._meta_rpc(MetaRequest("unlink", path=path))

    def _meta_rpc(self, req: MetaRequest):
        req.req_id = self._req_id()
        req.reply_to = self.mailbox
        rx = self._posted[req.req_id] = _Receive()
        yield from self.net.send(
            self.mailbox,
            self._meta_mailbox,
            req.wire_bytes(self.costs.header_bytes),
            payload=req,
        )
        resp: MetaResponse = yield from self._receive(rx)
        del self._posted[req.req_id]
        if resp.error:
            raise PVFSError(resp.error)
        return resp

    # ------------------------------------------------------------------
    # the mailbox wait (every receive of this client goes through here)
    # ------------------------------------------------------------------
    def _receive(self, rx: _Receive, timeout=None):
        """Wait for the next arrival filed under the posted receive
        ``rx``; ``None`` once ``timeout`` (armed fault configs only) has
        passed.  The only place the client mailbox is read.

        Something already filed for ``rx`` returns at once.  Otherwise
        one wait at a time reads: it charges ``per_message_cpu`` per
        wire arrival (signals — a :class:`CollHandoff`, the gate's wake
        — are free), returns its own arrivals and files every other one
        under the receive posted for its request id or coll id (rules:
        :class:`_Receive`), waking that receive's wait; traffic nobody
        posted for is late or duplicated and is dropped.  A wait that
        starts while another reads sleeps until something is filed for
        it, the reader takes its deadline (a :class:`_TimeoutMarker`,
        killed on exit so a late firing injects nothing), or the reader
        leaves.
        """
        if rx.items:
            return rx.items.pop(0)
        marker = timer = None
        if timeout is not None:
            marker = _TimeoutMarker(self.mailbox._store, rx)
            timer = self.env.call_later(timeout, marker.fire)
        try:
            while self._reader is not None:
                self._sleepers[rx] = ev = self.env.event()
                yield ev
                if rx.items:
                    return rx.items.pop(0)
                if marker is not None and not marker.live:
                    return None  # the reader took our deadline
            self._reader = rx
            cpu = self.costs.per_message_cpu
            posted = self._posted
            while True:
                msg = yield self.mailbox.get()
                if isinstance(msg, Message):
                    yield self.env.timeout(cpu)
                    item = msg.payload
                elif isinstance(msg, _TimeoutMarker):
                    if msg is marker:
                        return None
                    if msg.live:  # a sleeper's deadline: wake it
                        msg.live = False
                        self._wake(msg.rx)
                    continue
                else:
                    item = msg  # a zero-cost signal
                owner = posted.get(
                    item.req_id
                    if isinstance(item, (IOResponse, MetaResponse))
                    else item.coll_id
                )
                if owner is rx:
                    return item
                if owner is not None:
                    if owner.collective:
                        owner.items.append(item)
                    else:
                        owner.items = [item]
                    self._wake(owner)
                if rx.collective:
                    return item
        finally:
            if marker is not None:
                marker.live = False
                timer.cancel()  # the guard is moot; leave no dead queue entry
            if self._reader is rx:
                self._reader = None
                if self._sleepers:  # the first of them to run reads next
                    for ev in self._sleepers.values():
                        ev.succeed()
                    self._sleepers.clear()

    def _wake(self, rx: _Receive) -> None:
        ev = self._sleepers.pop(rx, None)
        if ev is not None:
            ev.succeed()

    # ------------------------------------------------------------------
    # contiguous (POSIX-style) access
    # ------------------------------------------------------------------
    def read(
        self, fh: FileHandle, offset: int, nbytes: int, phantom=False,
        trace=None,
    ):
        """Read one contiguous logical range; returns the byte stream."""
        return self._simple_ops(
            fh,
            Regions.single(offset, nbytes),
            OP_CONTIG,
            is_write=False,
            data=None,
            phantom=phantom,
            trace=trace,
        )

    def write(
        self, fh, offset: int, data=None, nbytes: Optional[int] = None,
        trace=None,
    ):
        """Write one contiguous range (``data=None`` for phantom writes)."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
            nbytes = data.size
        elif nbytes is None:
            raise ValueError("phantom write needs nbytes")
        yield from self._simple_ops(
            fh,
            Regions.single(offset, nbytes),
            OP_CONTIG,
            is_write=True,
            data=data,
            phantom=data is None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # one-operation-per-piece sequences (POSIX I/O with ``OP_CONTIG``;
    # also the list I/O degenerate case of single-region operations)
    # ------------------------------------------------------------------
    def read_sequence(
        self, fh, regions, op_kind, phantom=False, trace=None, cuts=None,
        pieces=None,
    ):
        """Issue one synchronous ``op_kind`` read per piece, in order
        (pieces: ``regions``, cut at ``cuts``, ``pieces`` of them when
        the caller has counted — see :func:`jobs.sequence`)."""
        return self._sequence(
            fh, regions, op_kind, is_write=False, data=None,
            phantom=phantom, trace=trace, cuts=cuts, pieces=pieces,
        )

    def write_sequence(
        self, fh, regions, op_kind, data=None, trace=None, cuts=None,
        pieces=None,
    ):
        """Issue one synchronous ``op_kind`` write per piece, in order."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._sequence(
            fh, regions, op_kind, is_write=True, data=data,
            phantom=data is None, trace=trace, cuts=cuts, pieces=pieces,
        )

    def _sequence(
        self, fh, regions: Regions, op_kind, *, is_write, data, phantom,
        trace=None, cuts=None, pieces=None,
    ):
        """Synchronous one-op-per-piece sequence, one exchange at a time
        as :func:`jobs.sequence` plans it; a strip-crossing piece falls
        back to the generic per-operation path, preserving order."""
        if not regions.count:
            return None if (is_write or phantom) else np.zeros(0, np.uint8)
        total = regions.total_bytes
        if data is not None and data.size != total:
            raise ValueError("data stream does not match regions")
        if int(regions.offsets.min()) < 0:
            raise ValueError("negative file offset in access")

        n, steps = sequence(regions, cuts, fh.dist, pieces)
        op_span = self._op_span(
            op_kind, trace, is_write=is_write, ops=n, nbytes=total,
        )
        out = (
            None
            if (is_write or phantom)
            else np.zeros(total, dtype=np.uint8)
        )
        self.counters.io_ops += n
        handled_generic = 0  # bytes counted by _simple_ops fallbacks

        for lo, hi, server, job in steps:
            sl = slice(lo, hi)
            if server == -1:
                self.counters.io_ops -= 1  # _simple_ops recounts
                st = yield from self._simple_ops(
                    fh,
                    job,
                    op_kind,
                    is_write=is_write,
                    data=None if data is None else data[sl],
                    phantom=phantom,
                    trace=op_span,
                )
                if out is not None and st is not None:
                    out[sl] = st
                handled_generic += hi - lo
                continue
            g = job.count
            pairs = g if op_kind == OP_LIST else 0
            yield from self._issue(
                fh, op_kind, g,
                [(server, hi - lo, sl, dict(regions=job, listio_pairs=pairs))],
                is_write=is_write, phantom=phantom, data=data, out=out,
                span=op_span,
            )

        self._op_done(op_span, is_write, total - handled_generic)
        return out

    # ------------------------------------------------------------------
    # list I/O
    # ------------------------------------------------------------------
    def read_list(self, fh, pieces, phantom=False, trace=None, bounds=None):
        """List I/O read of the file regions ``pieces`` (packed-stream
        order), one operation between each two consecutive stream
        positions ``bounds`` (default: one operation).  Returns the
        packed stream (or ``None`` when phantom)."""
        return self._list_ops(
            fh, pieces, bounds, is_write=False, data=None, phantom=phantom,
            trace=trace,
        )

    def write_list(self, fh, pieces, data=None, trace=None, bounds=None):
        """List I/O write of the packed stream ``data`` (None = phantom)."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._list_ops(
            fh, pieces, bounds, is_write=True, data=data,
            phantom=data is None, trace=trace,
        )

    def _list_ops(self, fh, pieces, bounds, **kw):
        """The cut form ``(pieces, bounds)`` (:func:`jobs.list_cut`)."""
        pieces, bounds, at = list_cut(
            pieces, bounds, self.config.list_io_max_regions
        )
        return (yield from self._simple_ops(fh, pieces, OP_LIST, bounds=bounds, at=at, **kw))

    # ------------------------------------------------------------------
    # datatype I/O
    # ------------------------------------------------------------------
    def read_dtype(
        self,
        fh,
        loop: Dataloop,
        displacement: int = 0,
        first: int = 0,
        last: Optional[int] = None,
        phantom: bool = False,
        trace=None,
    ):
        """Datatype I/O read of stream bytes [first, last) of the tiled loop."""
        return self._dtype_op(
            fh, loop, displacement, first, last, False, None, phantom,
            trace=trace,
        )

    def write_dtype(
        self,
        fh,
        loop: Dataloop,
        displacement: int = 0,
        first: int = 0,
        last: Optional[int] = None,
        data=None,
        trace=None,
    ):
        """Datatype I/O write; ``data`` is the packed stream (None=phantom)."""
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._dtype_op(
            fh, loop, displacement, first, last, True, data, data is None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _req_id(self) -> int:
        self._next_req += 1
        return self._next_req

    def stamp(self, req: IORequest) -> IORequest:
        """Address ``req`` from this client: a fresh request id, the
        reply mailbox, and the client name and tenant servers queue by."""
        req.req_id = self._req_id()
        req.reply_to = self.mailbox
        req.client = self.name
        req.tenant = self.tenant
        return req

    def _op_span(self, kind: str, trace, **attrs):
        """Open the ``pvfs.<kind>`` operation span under span id ``trace``
        (a fresh trace when there is none); ``None`` when not tracing."""
        if not self.tracer.enabled:
            return None
        return self.tracer.begin(
            f"pvfs.{kind}", "client", self.name, parent=trace, **attrs
        )

    def _op_done(self, op_span, is_write: bool, nbytes: int) -> None:
        """Count the operation's file bytes and close its span."""
        if is_write:
            self.counters.bytes_written += nbytes
        else:
            self.counters.bytes_read += nbytes
        if op_span is not None:
            self.tracer.end(op_span)

    def _simple_ops(
        self, fh, pieces, op_kind, *, is_write, data, phantom, trace=None,
        bounds=None, at=None,
    ):
        """Run a sequence of synchronous contig/list operations: operation
        *i* moves stream bytes ``bounds[i]:bounds[i + 1]`` of the file
        regions ``pieces[at[i]:at[i + 1]]`` (default: one operation).
        Each group (:func:`op_groups`) is split among the servers as it
        is issued, so only one group's shares are ever held."""
        if bounds is None:
            bounds = np.array([0, pieces.total_bytes])
            at = np.array([0, pieces.count])
        if pieces.count and int(pieces.offsets.min()) < 0:
            raise ValueError("negative file offset in access")
        n = len(bounds) - 1
        total_bytes = int(bounds[-1])
        if data is not None and data.size != total_bytes:
            raise ValueError(
                f"data stream of {data.size} bytes vs operations totalling "
                f"{total_bytes} bytes"
            )
        op_span = self._op_span(
            op_kind, trace, is_write=is_write, ops=n, nbytes=total_bytes,
        )
        out = None if is_write or phantom else np.zeros(total_bytes, np.uint8)
        self.counters.io_ops += n

        dist = fh.dist
        edges = op_groups(pieces, at, dist)
        bounds, at = bounds.tolist(), at.tolist()
        offs, lens = pieces.offsets, pieces.lengths
        for a, b in zip(edges[:-1], edges[1:]):
            # each server's share of the group (phantom: no positions)
            shares = dist.shares(
                offs[at[a] : at[b]], lens[at[a] : at[b]],
                None if phantom else bounds[a],
            )
            jobs = (
                (
                    s.server,
                    s.nbytes,
                    None if phantom else s.stream_regions(),
                    dict(
                        regions=s.regions,
                        listio_pairs=s.regions.count if op_kind == OP_LIST else 0,
                    ),
                )
                for s in shares
            )
            yield from self._issue(
                fh, op_kind, b - a, jobs, is_write=is_write, phantom=phantom,
                data=data, out=out, span=op_span,
            )

        self._op_done(op_span, is_write, total_bytes)
        return out

    def _dtype_op(
        self, fh, loop, displacement, first, last, is_write, data, phantom,
        trace=None,
    ):
        if last is None:
            last = loop.data_size
        window = DataloopWindow(loop, displacement, first, last)
        nbytes = window.stream_bytes
        if data is not None and data.size != nbytes:
            raise ValueError(
                f"data stream of {data.size} bytes vs window of {nbytes}"
            )
        op_span = self._op_span(
            OP_DTYPE, trace, is_write=is_write, nbytes=nbytes
        )
        if op_span is not None:
            self.tracer.attrs(op_span)["dataloop"] = loop.fingerprint().hex()
        self.counters.io_ops += 1

        # dataloop (re)conversion at every operation, as in the
        # prototype — unless datatype caching (§5) remembers this loop
        yield from charge_convert(self, loop)

        # client-side expansion into job/access structures (cached per
        # (loop, window) when datatype caching is on; the tile reader's
        # per-frame operations differ only by displacement); the view
        # is dropped once split
        regions = yield from expand_view(self, loop, displacement, first, last)
        splits = sorted(fh.dist.split(regions).items())
        regions = None
        out = (
            None
            if (is_write or phantom)
            else np.zeros(nbytes, dtype=np.uint8)
        )
        jobs = (
            (
                server,
                split.nbytes,
                None if phantom else split.stream_regions(),
                dict(window=window, cached_dtype=self._registered(server, loop)),
            )
            for server, split in splits
        )
        splits = None  # the generator holds them until they are issued
        yield from self._issue(
            fh, OP_DTYPE, 1, jobs, is_write=is_write, phantom=phantom,
            data=data, out=out, span=op_span,
        )
        self._op_done(op_span, is_write, nbytes)
        return out

    def _registered(self, server: int, loop: Dataloop) -> bool:
        """Whether ``server`` already holds ``loop`` (datatype caching,
        §5: a cached request ships a handle); it does from now on."""
        if not self.config.datatype_cache:
            return False
        key = (server, loop.fingerprint())
        known = key in self._server_knows_loop
        self._server_knows_loop.add(key)
        return known

    # ------------------------------------------------------------------
    # the request round: issue, post, collect, settle
    # ------------------------------------------------------------------
    def _issue(
        self, fh, op_kind, ops, jobs, *, is_write, phantom, data, out, span
    ):
        """Issue ``ops`` synchronous operations as one exchange: charge
        their client cost, then build, stamp and post one request per
        job, collect every response and scatter a read's payload into
        ``out``.  The one issuer of the independent access paths.

        A job is ``(server, nbytes, at, fields)``: the request moves
        ``nbytes`` file bytes, at ``at`` in the packed stream — a slice
        or stream positions (:class:`Regions`; ``None`` when phantom) —
        and ``fields`` are its kind's :class:`IORequest` fields.  Jobs
        are built and stamped in order, and only a read keeps ``at``.
        """
        costs = self.costs
        # per-op client fixed cost, plus the round-trip latencies and
        # message CPU the collapsed ops would have paid
        extra = (ops - 1) * (2 * costs.latency + 2 * costs.per_message_cpu)
        yield self.env.timeout(ops * costs.fs_op_client_cost + extra)
        requests = []
        for server, nbytes, at, fields in jobs:
            payload = None
            if is_write and data is not None:
                payload = data[at] if isinstance(at, slice) else at.gather(data)
            req = self.stamp(IORequest(
                handle=fh.handle,
                is_write=is_write,
                op_kind=op_kind,
                payload=payload,
                payload_nbytes=nbytes if is_write else 0,
                op_count=ops,
                phantom=phantom,
                server=server,
                **fields,
            ))
            requests.append((req, None if out is None else at))
        reqs = [req for req, _ in requests]
        posted = yield from self._post(reqs, span)
        responses = yield from self._collect(reqs, posted)
        for req, at in requests:
            payload = responses[req.req_id].payload
            if at is None or payload is None:
                continue
            if isinstance(at, slice):
                out[at] = payload
            else:
                at.scatter(out, payload)

    def _post(self, requests: Sequence[IORequest], span=None, rx=None):
        """Post a receive for each of ``requests`` and send them without
        awaiting replies.  Each request gets a receive of its own unless
        ``rx`` (a collective's receive) takes them all.

        When tracing, each request gets its own ``rpc`` round-trip span
        under ``span`` (the operation span); the request carries the
        trace id and the rpc span id so server-side and network spans
        join the same trace.  Returns ``(send times, rpc spans)`` by
        request id, filled only while metrics / tracing are on.
        """
        t_sent: dict[int, float] = {}
        rpc_spans: dict[int, int] = {}
        if self.tracer.enabled and span is not None:
            for req in requests:
                rpc = self.tracer.begin(
                    "rpc",
                    "client",
                    self.name,
                    parent=span,
                    server=req.server,
                    op_kind=req.op_kind,
                    desc_bytes=req.descriptor_bytes(self.costs),
                )
                req.trace_id = self.tracer.trace_of(rpc)
                req.trace_parent = rpc
                rpc_spans[req.req_id] = rpc
        for req in requests:
            self._posted[req.req_id] = _Receive() if rx is None else rx
            if self.metrics.enabled:
                t_sent[req.req_id] = self.env.now
            yield from self._send_io(req)
        return t_sent, rpc_spans

    def _collect(self, requests: Sequence[IORequest], posted):
        """Collect one response per posted request, in posting order.

        A server running with a bounded admission queue may reject a
        request outright (``IOResponse.rejected``); the client backs off
        ``REJECT_BACKOFF`` seconds and resends until admitted —
        the backpressure loop of the multi-threaded server model.

        Every wait is the request's :class:`_Ladder`; under an armed
        fault injector it is bounded — the one recovery path for dropped
        messages and crashed servers.  Because striped transfers fan
        one operation out over many requests, resending just the
        timed-out request *is* job-level resume — the already-answered
        stripes are never re-shipped.  Every attempt reuses the request
        id, so writes are idempotent and duplicated responses
        deduplicate naturally.  A request whose every retry times out
        raises :class:`~repro.pvfs.errors.RetriesExhausted`.
        """
        rpc_spans = posted[1]
        responses: dict[int, IOResponse] = {}
        for req in requests:
            rid = req.req_id
            rx = self._posted[rid]
            # awaited one at a time, so each request joins its
            # connection when its own wait begins
            ladder = self._ladder(req.server, rid, req)
            while True:
                wait = self._wait(ladder)
                resp = None
                if rx.items or wait is None or wait > _EPS:
                    resp = yield from self._receive(rx, wait)
                if resp is None:
                    if self._wait(ladder) > _EPS:
                        continue  # another wait's arrival restarted it
                    rpc = rpc_spans.get(rid)
                    backoff = self._timed_out(req, ladder, rpc)
                    if backoff is None:
                        self._exhausted(req, ladder.attempts, rpc)
                    yield from self._resend(req, backoff)
                elif self._settle(req, resp, posted, ladder):
                    self._restart(req.server, ladder)
                    responses[rid] = resp
                    break
                else:
                    yield from self._resend(req, REJECT_BACKOFF)
                self._restart(req.server)
        return responses

    def _settle(self, req: IORequest, resp, posted, ladder: _Ladder) -> bool:
        """Account one response to ``req``; ``True`` once it is final.

        A rejection is counted and left to the caller to resend
        (``False``); an error response raises; an answer closes the
        request — its receive is removed, so later duplicates are
        dropped, and a success after timeouts counts as a failover.
        """
        t_sent, rpc_spans = posted
        rpc = rpc_spans.get(req.req_id)
        if resp.rejected:
            self.counters.retries += 1
            if rpc is not None:
                attrs = self.tracer.attrs(rpc)
                attrs["retries"] = attrs.get("retries", 0) + 1
            return False
        del self._posted[req.req_id]
        if resp.error:
            if rpc is not None:
                self.tracer.end(rpc, error=resp.error)
            raise PVFSError(resp.error)
        if ladder.attempts:
            self.counters.failovers += 1
            self.faults.rpc_failover(
                self.name, req, ladder.attempts, rpc
            )
        if self.metrics.enabled:
            # accumulates rejection backoff + resends: the latency the
            # operation actually experienced
            self.metrics.observe_rpc(
                self.env.now - t_sent[req.req_id], req.op_kind
            )
        if rpc is not None:
            if ladder.cfg is None:
                self.tracer.end(rpc, nbytes=resp.nbytes)
            else:
                self.tracer.end(rpc, nbytes=resp.nbytes, timeouts=ladder.attempts)
        return True

    def _ladder(self, server: int, key, item=None) -> _Ladder:
        """Open one obligation to ``server``, filed by its wait under
        ``key``.  Armed, it joins the server's connection, whose timer
        starts now unless it is already running."""
        if not self.faults.armed:
            return _Ladder(None, server, item)
        lad = _Ladder(self.faults.config, server, item)
        conn = self._conns.get(server)
        if conn is None:
            conn = self._conns[server] = _Conn()
        conn.ladders[lad] = key
        if conn.deadline is None:
            conn.restart(self.env.now)
        return lad

    def _restart(self, server: int, settled: Optional[_Ladder] = None) -> None:
        """Something arrived from ``server``, or a resend went to it:
        close the obligation ``settled``, if given, and restart the
        connection's timer — or stop it, once nothing is outstanding.
        A no-op unarmed."""
        conn = self._conns.get(server)
        if conn is None:
            return
        if settled is not None:
            del conn.ladders[settled]
        conn.restart(self.env.now)
        if conn.deadline is None:
            del self._conns[server]  # a stopped timer is not kept

    def _wait(self, lad: _Ladder) -> Optional[float]:
        """Seconds until ``lad``'s connection times out (``None``:
        unarmed)."""
        if lad.cfg is None:
            return None
        return self._conns[lad.server].deadline - self.env.now

    def _timed_out(self, req: IORequest, ladder: _Ladder, rpc):
        """Count one missed response deadline of ``req``; returns the
        backoff before its resend (``None``: the ladder is spent)."""
        backoff = ladder.escalate()
        self.counters.timeouts += 1
        self.faults.rpc_timeout(self.name, req, ladder.attempts, rpc)
        return backoff

    def _exhausted(self, req: IORequest, attempts: int, rpc):
        self.faults.rpc_exhausted(self.name, req, attempts, rpc)
        what = "request" if req.coll is None else "collective request"
        msg = (
            f"server iod{req.server} unresponsive: {what} {req.req_id} "
            f"from {self.name} gave up after {attempts} timeouts"
        )
        if rpc is not None:
            self.tracer.end(rpc, error=msg)
        raise RetriesExhausted(
            msg,
            job_id=req.req_id,
            server=req.server,
            client=self.name,
            attempts=attempts,
        )

    def _resend(self, req: IORequest, backoff: float):
        """Back off, then ship ``req`` again under its original id."""
        if backoff > 0:
            yield self.env.timeout(backoff)
        yield from self._send_io(req)

    def _send_io(self, req: IORequest):
        """Ship one I/O request (counted; used for sends and resends)."""
        self.counters.requests_sent += 1
        self.counters.request_desc_bytes += req.descriptor_bytes(self.costs)
        self.counters.regions_shipped += req.listio_pairs
        yield from self._ship(req.server, req, req.wire_bytes(self.costs))

    def _ship(self, server: int, payload, nbytes: int):
        """Put one data-path message for ``server`` on the wire (a
        generator to ``yield from``; its value is the instant the bytes
        have drained).  Non-blocking sockets: messages to distinct
        servers are in flight concurrently, and the NIC reservations
        still serialize the actual bytes.  These are the messages the
        fault injector may drop or duplicate."""
        return self.net.send(
            self.mailbox,
            self._server_mailboxes[server],
            nbytes,
            payload=payload,
            pace=False,
            faultable=True,
        )
