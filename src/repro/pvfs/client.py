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

Simulation batching (``PVFSConfig.sim_batching``): runs of consecutive
synchronous list/contig operations that touch an identical server set
are collapsed into one exchange whose *accounted* cost (per-op client
and server fixed costs, round-trip latencies, wire bytes) equals the
sum of the individual operations — see DESIGN.md §5.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

import numpy as np

from ..dataloops import Dataloop, DataloopStream
from ..regions import Regions
from ..simulation.network import Message
from .collective import CollEngine, CollHandoff, CollRecovery
from .distribution import Distribution
from .errors import PVFSError, RetriesExhausted
from .jobs import build_jobs, split_ops
from .protocol import (
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    CollAck,
    CollSegment,
    DataloopWindow,
    IORequest,
    IOResponse,
    MetaRequest,
    MetaResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .system import PVFS

__all__ = ["PVFSClient", "FileHandle", "ClientCounters"]

#: In-flight collective data segments per (rank, server) socket.  1 is
#: a blocking socket (NICs idle at every handoff, and one slow server
#: stalls the rank's sequential send loop); large values degenerate to
#: an unpaced blast whose wire order no longer tracks the round order
#: (an early-starting rank would park entire later rounds ahead of a
#: late rank's round 0, stalling the round pipeline).  Two keeps every
#: server's pipe full while bounding the order skew to one round.
COLL_SEND_WINDOW = 2


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
    """Sentinel an armed RPC timer drops straight into the client
    mailbox.  Using the mailbox itself (rather than an ``AnyOf`` wait)
    keeps the timed receive path's event-hop structure identical to the
    untimed one, so arming an inert fault config cannot perturb
    timings."""

    __slots__ = ("store", "live", "fired")

    def __init__(self, store):
        self.store = store  #: the owning client's mailbox queue
        self.live = True  #: cleared once the owning wait has resolved
        self.fired = False  #: the deadline passed while the wait was live

    def fire(self, _ev=None) -> None:
        if self.live:
            self.fired = True
            self.store.put(self)


class _Ladder:
    """RTO ladder of one obligation: a request awaiting its response, a
    collective write segment awaiting its ack, a read segment awaiting
    delivery.

    The deadline doubles per consecutive timeout (TCP RTO style): a
    base deadline shorter than a large transfer's legitimate wire time
    would otherwise time out forever, while crashed-server recovery
    stays one base deadline away.  Every resend backs off exponentially
    and the retry budget is bounded, so a wait either ends inside the
    ladder or fails typed — never a hang.  The independent RPC waits on
    ``rto`` directly (one obligation); the collective engine waits on
    the earliest ``deadline`` of all of its obligations.
    """

    __slots__ = ("cfg", "attempts", "deadline", "item", "group")

    def __init__(self, cfg, now: float, item=None):
        self.cfg = cfg  #: the armed FaultConfig
        self.attempts = 0  #: consecutive timeouts so far
        self.item = item  #: what a resend ships (request or segment)
        self.group = None  #: handoff counter this request belongs to
        self.arm(now)

    @property
    def rto(self) -> float:
        """Seconds to wait for an answer at the current attempt count."""
        return self.cfg.rpc_timeout * (2 ** min(self.attempts, 20))

    def arm(self, now: float) -> None:
        """(Re)start the deadline at the current attempt count — after
        a resend, and after a rejection (which is an answer)."""
        self.deadline = now + self.rto

    def escalate(self) -> Optional[float]:
        """Count one missed deadline: the backoff to sleep before the
        resend, or ``None`` once the retry budget is spent."""
        self.attempts += 1
        if self.attempts > self.cfg.max_retries:
            return None
        return self.cfg.retry_backoff * (2 ** (self.attempts - 1))


def _atoms(regions: Regions, cuts: np.ndarray, strip: int) -> Regions:
    """The coarsest cut of ``regions`` that still groups like its pieces.

    The *pieces* of a one-op-per-piece sequence are ``regions`` cut at
    the sorted packed-stream positions ``cuts`` (at least one of which
    falls inside a run).  The *atoms* returned here cut the runs only
    at strip edges: at an edge that is itself a piece boundary, and
    around the one piece that straddles any other edge.  A straddling
    piece is thus an atom of its own; every other atom lies in one run
    and one strip — on one server — and is a whole number of
    consecutive pieces, which all share that server.  Maximal runs of
    consecutive atoms with equal server are therefore exactly the
    maximal runs of consecutive pieces with equal server, in
    O(runs + strips touched) however many pieces there are.
    """
    offs, lens, ends = regions.offsets, regions.lengths, regions.stream_ends
    k0 = offs // strip
    inner = (offs + lens - 1) // strip - k0  # strip edges inside each run
    run = np.repeat(np.arange(inner.size), inner)
    if not run.size:
        return regions
    nth = np.arange(run.size) - (np.cumsum(inner) - inner)[run]
    run_end = ends[run]
    run_start = run_end - lens[run]
    # every strip edge inside a run, as a packed-stream position
    edge = run_start + (k0[run] + 1 + nth) * strip - offs[run]
    at = np.searchsorted(cuts, edge)
    above = cuts[np.minimum(at, cuts.size - 1)]
    below = cuts[np.maximum(at - 1, 0)]
    clean = above == edge
    # the piece around each remaining edge: from the nearest cut below
    # it (or the run's start) to the nearest cut above (or its end)
    lo = np.where(below < edge, np.maximum(below, run_start), run_start)
    hi = np.where(above > edge, np.minimum(above, run_end), run_end)
    return regions.split_at_stream(
        np.concatenate((edge[clean], lo[~clean], hi[~clean]))
    )


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
        #: shared collective failover state (see ``PVFS.coll_recovery``)
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
        # expansion results, and per-server registration state, keyed by
        # loop fingerprint (an id() would be reused by a later loop once
        # this one is freed)
        self._converted_loops: set[bytes] = set()
        self._expansion_cache: dict[tuple, "Regions"] = {}
        self._server_knows_loop: set[tuple[int, bytes]] = set()
        # Traffic that surfaced while some other wait read the mailbox
        # (concurrent nonblocking operations share it): responses by
        # request id, collective data segments and write-round acks
        # keyed (coll_id, server, round), and re-election handoffs
        # awaiting service by this rank.  ``_stash`` keeps only what a
        # live waiter can still claim — requests in flight (sent, not
        # yet settled) and collectives this client is completing — so
        # late and duplicated traffic never accumulates.
        self._resp_stash: dict[int, object] = {}
        self._coll_stash: dict[tuple, CollSegment] = {}
        self._coll_acks: set[tuple] = set()
        self._coll_handoffs: list[CollHandoff] = []
        self._inflight: set[int] = set()
        self._coll_live: set[tuple] = set()
        # one wait at a time reads the mailbox; the others follow it
        # through a shared event (see _await_response)
        self._reading = False
        self._followers = None
        # per-server completion times of in-flight collective segments
        # (the sliding send windows of coll_send_segment)
        self._coll_inflight: dict[int, deque[float]] = {}

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
        self._inflight.add(req.req_id)
        yield from self.net.send(
            self.mailbox,
            self._meta_mailbox,
            req.wire_bytes(self.costs.header_bytes),
            payload=req,
        )
        resp: MetaResponse = yield from self._await_response(req.req_id)
        self._inflight.discard(req.req_id)
        if resp.error:
            raise PVFSError(resp.error)
        return resp

    # ------------------------------------------------------------------
    # the mailbox wait (every receive of this client goes through here)
    # ------------------------------------------------------------------
    def _await_response(self, req_id: Optional[int] = None, timeout=None):
        """Wait on the client mailbox — the only place it is read.

        With ``req_id``: return that request's response, classifying
        everything else that surfaces through :meth:`_stash` (several
        operations may be outstanding concurrently — nonblocking
        MPI-IO — and responses are matched by request id).  Without:
        return the first item that arrives, already classified — the
        unwrapped payload of wire traffic, or the raw marker of a
        zero-cost shared-state signal (:class:`CollHandoff`, the gate's
        wake) — so a caller with many obligations can dispatch on it.
        Wire traffic is charged ``per_message_cpu``; signals are free.

        ``timeout`` (armed fault configs only) bounds the wait: the
        timer drops a :class:`_TimeoutMarker` into the mailbox (see
        that class for why) and the wait returns ``None``; the marker
        is killed on exit so a late firing injects nothing.

        One wait at a time reads the mailbox.  A wait that starts while
        another is reading *follows* it: it sleeps on a shared event
        that the reader fires with each item it classifies and once
        more when it leaves, so a response, a signal or a deadline
        taken off the queue by the wrong waiter still reaches its
        owner at that instant — concurrent waits can neither strand
        each other's responses nor hold each other's deadlines.
        """
        cpu = self.costs.per_message_cpu
        stash = self._resp_stash
        marker = timer = None
        if timeout is not None:
            marker = _TimeoutMarker(self.mailbox._store)
            timer = self.env.call_later(timeout, marker.fire)
        reading = False
        try:
            while True:
                if req_id in stash:
                    return stash.pop(req_id)
                if not reading:
                    if marker is not None and marker.fired:
                        return None  # the reader took our deadline
                    if self._reading:
                        if self._followers is None:
                            self._followers = self.env.event()
                        item = yield self._followers
                        if req_id is None and item is not None:
                            return item
                        continue
                    self._reading = reading = True
                msg = yield self.mailbox.get()
                if isinstance(msg, Message):
                    yield self.env.timeout(cpu)
                    item = msg.payload
                    if (
                        req_id is not None
                        and getattr(item, "req_id", None) == req_id
                    ):
                        return item
                    self._stash(item)
                elif isinstance(msg, _TimeoutMarker):
                    if msg is marker:
                        return None
                    if not msg.live:
                        continue  # a finished wait's late timer
                    item = None  # a follower's deadline: wake it
                else:
                    if isinstance(msg, CollHandoff):
                        self._coll_handoffs.append(msg)
                    item = msg
                if self._followers is not None:
                    self._wake_followers(item)
                if req_id is None and item is not None:
                    return item
        finally:
            if marker is not None:
                marker.live = False
                timer.cancel()  # the guard is moot; leave no dead queue entry
            if reading:
                self._reading = False
                self._wake_followers(None)

    def _wake_followers(self, item) -> None:
        ev, self._followers = self._followers, None
        if ev is not None:
            ev.succeed(item)

    def _stash(self, item) -> None:
        """File one wire payload for the waiter that can still claim it.

        A response is kept while its request is in flight, a collective
        data segment or write-round ack while this client is completing
        that collective.  Anything else is late or duplicated traffic
        (fault injection) — already charged ``per_message_cpu`` like
        every arrival — and is dropped.
        """
        if isinstance(item, (CollSegment, CollAck)):
            if item.coll_id in self._coll_live:
                key = (item.coll_id, item.server, item.round_no)
                if isinstance(item, CollAck):
                    self._coll_acks.add(key)
                else:
                    self._coll_stash[key] = item
        elif item.req_id in self._inflight:
            self._resp_stash[item.req_id] = item

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
            [Regions.single(offset, nbytes)],
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
            [Regions.single(offset, nbytes)],
            OP_CONTIG,
            is_write=True,
            data=data,
            phantom=data is None,
            trace=trace,
        )

    # ------------------------------------------------------------------
    # one-operation-per-piece sequences (POSIX I/O; also the list I/O
    # degenerate case of single-region operations)
    # ------------------------------------------------------------------
    def read_posix(
        self, fh, regions: Regions, phantom=False, trace=None, cuts=None
    ):
        """Issue one synchronous contiguous read per piece, in order
        (pieces: ``regions``, cut at ``cuts`` — see :meth:`_sequence`)."""
        return self.read_sequence(
            fh, regions, OP_CONTIG, phantom, trace, cuts
        )

    def write_posix(
        self, fh, regions: Regions, data=None, trace=None, cuts=None
    ):
        """Issue one synchronous contiguous write per piece, in order."""
        return self.write_sequence(fh, regions, OP_CONTIG, data, trace, cuts)

    def read_sequence(
        self, fh, regions, op_kind, phantom=False, trace=None, cuts=None
    ):
        """One operation per piece with explicit kind (list I/O fast path)."""
        return self._sequence(
            fh, regions, op_kind, is_write=False, data=None,
            phantom=phantom, trace=trace, cuts=cuts,
        )

    def write_sequence(
        self, fh, regions, op_kind, data=None, trace=None, cuts=None
    ):
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._sequence(
            fh, regions, op_kind, is_write=True, data=data,
            phantom=data is None, trace=trace, cuts=cuts,
        )

    def _sequence(
        self, fh, regions: Regions, op_kind, *, is_write, data, phantom,
        trace=None, cuts=None,
    ):
        """Synchronous one-op-per-piece sequence.

        The pieces are ``regions.split_at_stream(cuts)`` (``cuts``:
        sorted packed-stream positions), described rather than
        enumerated — FLASH POSIX is 24 file runs cut at the memory
        type's 983 040 stream ends.

        Runs of consecutive pieces that each lie within a single strip
        of the same server collapse into one exchange (when
        ``sim_batching``); pieces crossing strip boundaries fall back
        to the generic per-operation path, preserving order.  The
        exchanges are planned over :func:`_atoms` and an exchange's
        pieces exist only while it is issued, so the call retains
        O(runs + strips touched) however finely ``cuts`` slices them.
        Without ``sim_batching`` every piece is an exchange of its own
        and the pieces are what is planned over.
        """
        if not regions.count:
            return None if (is_write or phantom) else np.zeros(0, np.uint8)
        total = regions.total_bytes
        if data is not None and data.size != total:
            raise ValueError("data stream does not match regions")
        if int(regions.offsets.min()) < 0:
            raise ValueError("negative file offset in access")

        S = fh.dist.strip_size
        nserv = fh.dist.n_servers
        n = regions.count
        if cuts is not None:
            cuts = np.asarray(cuts, dtype=np.int64)
            n = regions.split_count(cuts)
            if n == regions.count:
                cuts = None  # no cut falls inside a run
            elif self.config.sim_batching:
                regions = _atoms(regions, cuts, S)
            else:
                regions, cuts = regions.split_at_stream(cuts), None
        op_span = self._op_span(
            op_kind, trace, is_write=is_write, ops=n, nbytes=total,
        )

        # from here on ``regions`` are the atoms (the pieces themselves
        # when nothing cuts them)
        offs = regions.offsets
        lens = regions.lengths
        ends = regions.stream_ends
        starts = ends - lens
        k0 = offs // S
        k1 = (offs + lens - 1) // S
        srv = np.where(k0 == k1, k0 % nserv, -1).astype(np.int64)

        if self.config.sim_batching:
            change = np.flatnonzero(np.diff(srv) != 0) + 1
            bounds = np.concatenate(([0], change, [regions.count]))
        else:
            bounds = np.arange(regions.count + 1)

        out = (
            None
            if (is_write or phantom)
            else np.zeros(total, dtype=np.uint8)
        )
        self.counters.io_ops += n
        handled_generic = 0  # bytes counted by _simple_ops fallbacks

        for a, b in zip(bounds[:-1], bounds[1:]):
            a, b = int(a), int(b)
            if srv[a] == -1:
                # strip-crossing pieces (each an atom of its own):
                # generic path, one op at a time
                for i in range(a, b):
                    piece = regions[i : i + 1]
                    sl = slice(int(starts[i]), int(ends[i]))
                    pdata = None if data is None else data[sl]
                    self.counters.io_ops -= 1  # _simple_ops recounts
                    st = yield from self._simple_ops(
                        fh,
                        [piece],
                        op_kind,
                        is_write=is_write,
                        data=pdata,
                        phantom=phantom,
                        trace=op_span,
                    )
                    if out is not None and st is not None:
                        out[sl] = st
                    handled_generic += int(lens[i])
                continue
            lo, hi = int(starts[a]), int(ends[b - 1])
            phys = (k0[a:b] // nserv) * S + offs[a:b] % S
            merged = Regions(phys, lens[a:b].copy(), _trusted=True)
            if cuts is not None:
                # this exchange's own pieces: a strip maps to one
                # server as a shift, so cutting commutes with it
                inside = cuts[
                    np.searchsorted(cuts, lo, side="right") : np.searchsorted(
                        cuts, hi, side="left"
                    )
                ]
                merged = merged.split_at_stream(inside - lo)
            g = merged.count
            extra = (g - 1) * (2 * self.costs.latency + 2 * self.costs.per_message_cpu)
            yield self.env.timeout(g * self.costs.fs_op_client_cost + extra)
            sl = slice(lo, hi)
            payload = None
            if is_write and data is not None:
                payload = data[sl]
            req = self.stamp(IORequest(
                handle=fh.handle,
                is_write=is_write,
                op_kind=op_kind,
                regions=merged,
                payload=payload,
                payload_nbytes=merged.total_bytes if is_write else 0,
                op_count=g,
                phantom=phantom,
                listio_pairs=g if op_kind == OP_LIST else 0,
                server=int(srv[a]),
            ))
            responses = yield from self._io_round(
                [(req, None, merged)], op_span
            )
            resp = responses[req.req_id]
            if out is not None and resp.payload is not None:
                out[sl] = resp.payload

        self._op_done(op_span, is_write, total - handled_generic)
        return out

    # ------------------------------------------------------------------
    # list I/O
    # ------------------------------------------------------------------
    def read_list(self, fh, ops: Sequence[Regions], phantom=False, trace=None):
        """List I/O read: each element is one operation's file regions.

        Returns the packed stream of all operations, concatenated in
        order (or ``None`` when phantom).
        """
        self._check_listio(ops)
        return self._simple_ops(
            fh, ops, OP_LIST, is_write=False, data=None, phantom=phantom,
            trace=trace,
        )

    def write_list(self, fh, ops: Sequence[Regions], data=None, trace=None):
        """List I/O write of the packed stream ``data`` (None = phantom)."""
        self._check_listio(ops)
        if data is not None:
            data = np.asarray(data).view(np.uint8).reshape(-1)
        yield from self._simple_ops(
            fh, ops, OP_LIST, is_write=True, data=data, phantom=data is None,
            trace=trace,
        )

    def _check_listio(self, ops: Sequence[Regions]) -> None:
        limit = self.config.list_io_max_regions
        for op in ops:
            if op.count > limit:
                raise PVFSError(
                    f"list I/O operation with {op.count} regions exceeds "
                    f"the {limit}-region request bound"
                )

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
        """Open the ``pvfs.<kind>`` operation span under ``trace`` (a
        fresh trace when there is none); ``None`` when not tracing."""
        if not self.tracer.enabled:
            return None
        return self.tracer.begin(
            f"pvfs.{kind}",
            "client",
            self.name,
            trace_id=trace.trace_id if trace is not None else -1,
            parent=trace,
            **attrs,
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
        self, fh, ops, op_kind, *, is_write, data, phantom, trace=None
    ):
        """Run a sequence of synchronous contig/list operations."""
        n = len(ops)
        bounds = np.cumsum([0] + [op.total_bytes for op in ops])
        shares, cut = split_ops(Regions.concat(ops), bounds, fh.dist)
        total_bytes = int(bounds[-1])
        if data is not None and data.size != total_bytes:
            raise ValueError(
                f"data stream of {data.size} bytes vs operations totalling "
                f"{total_bytes} bytes"
            )
        op_span = self._op_span(
            op_kind, trace, is_write=is_write, ops=n, nbytes=total_bytes,
        )
        out = (
            None
            if (is_write or phantom)
            else np.zeros(total_bytes, dtype=np.uint8)
        )
        self.counters.io_ops += n

        # group consecutive ops by server signature; a group's share of
        # a server's pieces is one slice, like each operation's
        edges = list(range(n + 1))  # one group per operation
        if n > 1 and self.config.sim_batching:
            has = cut[:, 1:] > cut[:, :-1]
            differs = (has[:, 1:] != has[:, :-1]).any(axis=0)
            edges = [0, *(np.flatnonzero(differs) + 1).tolist(), n]
        cut = cut.tolist()

        for a, b in zip(edges[:-1], edges[1:]):
            gsize = b - a
            # per-op client fixed cost, plus the round-trip latencies
            # and message CPU the collapsed ops would have paid
            extra = (gsize - 1) * (
                2 * self.costs.latency + 2 * self.costs.per_message_cpu
            )
            yield self.env.timeout(gsize * self.costs.fs_op_client_cost + extra)

            # each server's share of the group
            requests = []
            for (server, share), row in zip(shares, cut):
                lo, hi = row[a], row[b]
                if lo == hi:
                    continue
                merged = share.regions[lo:hi]
                sposa = share.stream_pos[lo:hi]
                pairs = hi - lo
                payload = None
                if is_write and data is not None:
                    payload = Regions(
                        sposa, merged.lengths, _trusted=True
                    ).gather(data)
                req = self.stamp(IORequest(
                    handle=fh.handle,
                    is_write=is_write,
                    op_kind=op_kind,
                    regions=merged,
                    payload=payload,
                    payload_nbytes=merged.total_bytes if is_write else 0,
                    op_count=gsize,
                    phantom=phantom,
                    listio_pairs=pairs if op_kind == OP_LIST else 0,
                    server=server,
                ))
                requests.append((req, sposa, merged))

            yield from self._io_round(requests, op_span, out)

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
            op_span.attrs["dataloop"] = loop.fingerprint().hex()
        self.counters.io_ops += 1

        # dataloop (re)conversion at every operation, as in the
        # prototype — unless datatype caching (§5) remembers this loop
        yield from self.charge_convert(loop)

        # client-side expansion into job/access structures (cached per
        # (loop, window) when datatype caching is on; the tile reader's
        # per-frame operations differ only by displacement)
        regions = yield from self.expand_view(loop, displacement, first, last)
        yield self.env.timeout(self.costs.fs_op_client_cost)

        cache_on = self.config.datatype_cache
        jobs = build_jobs(self.name, fh.handle, is_write, regions, fh.dist)
        out = (
            None
            if (is_write or phantom)
            else np.zeros(nbytes, dtype=np.uint8)
        )
        requests = []
        for server in sorted(jobs):
            job = jobs[server]
            if not job.access_count:
                continue
            cached = False
            if cache_on:
                key = (server, loop.fingerprint())
                cached = key in self._server_knows_loop
                self._server_knows_loop.add(key)
            payload = None
            if is_write and data is not None:
                payload = job.split.stream_regions().gather(data)
            req = self.stamp(IORequest(
                handle=fh.handle,
                is_write=is_write,
                op_kind=OP_DTYPE,
                window=window,
                payload=payload,
                payload_nbytes=job.nbytes if is_write else 0,
                phantom=phantom,
                cached_dtype=cached,
                server=server,
            ))
            requests.append((req, job.stream_pos, job.accesses))

        yield from self._io_round(requests, op_span, out)
        self._op_done(op_span, is_write, nbytes)
        return out

    # ------------------------------------------------------------------
    # datatype-side primitives (shared by the independent datatype path
    # and the collective datatype driver)
    # ------------------------------------------------------------------
    def charge_convert(self, loop: Dataloop):
        """Charge one dataloop conversion (datatype-cache aware)."""
        cache_on = self.config.datatype_cache
        if cache_on and loop.fingerprint() in self._converted_loops:
            yield self.env.timeout(2e-6)  # cache lookup
        else:
            yield self.env.timeout(
                self.costs.dataloop_convert_base
                + loop.node_count() * self.costs.dataloop_node_cost
            )
            if cache_on:
                self._converted_loops.add(loop.fingerprint())

    def expand_view(self, loop: Dataloop, displacement, first, last):
        """Expand a file view window into logical file regions, charging
        the per-region client construction cost (cached per
        (loop, window) when datatype caching is on)."""
        cache_on = self.config.datatype_cache
        if cache_on:
            exp_key = (loop.fingerprint(), first, last)
            cached_regions = self._expansion_cache.get(exp_key)
            if cached_regions is not None:
                yield self.env.timeout(2e-6)
                return cached_regions.shift(displacement)
        window = DataloopWindow(loop, displacement, first, last)
        regions = DataloopStream(
            loop,
            count=window.tile_count(),
            base_offset=0,
            first=first,
            last=last,
            max_regions=self.config.dataloop_batch_regions,
        ).regions()
        factor = (
            self.costs.direct_region_factor if self.config.direct_dataloop else 1.0
        )
        if regions.count:
            yield self.env.timeout(
                regions.count * self.costs.client_region_cost * factor
            )
        if cache_on:
            self._expansion_cache[exp_key] = regions
        return regions.shift(displacement)

    # ------------------------------------------------------------------
    # collective datatype I/O primitives
    # ------------------------------------------------------------------
    def coll_send_segment(self, server: int, seg: CollSegment):
        """Ship one collective data segment straight to a server.

        Segments are data-path messages: a fixed header plus the round
        slice of this rank's packed stream.  They sit inside the fault
        injector's drop set (a no-op unless a non-inert config is
        armed); recovery is the per-(round, server) ack ladder of
        :meth:`coll_complete`, which resends idempotently — the server
        dedups replayed rounds by (coll id, round).  Flow control is a
        sliding window of :data:`COLL_SEND_WINDOW` in-flight segments
        *per server socket*: an unpaced blast would order the whole
        run's bytes by send-initiation time (letting an early-starting
        rank park entire later rounds ahead of a late rank's round 0,
        stalling the round pipeline), while fully paced sends leave
        NICs idle at every segment handoff.  Per-server windows keep
        the wire order at each server tracking the round order without
        coupling independent sockets — one momentarily-backlogged
        server never starves the rest of the stripe.
        """
        window = self._coll_inflight.setdefault(server, deque())
        while len(window) >= COLL_SEND_WINDOW:
            t = window.popleft()
            if t > self.env.now:
                yield self.env.timeout(t - self.env.now)
        self.counters.request_desc_bytes += self.costs.header_bytes
        end = yield from self._ship(server, seg, seg.wire_bytes(self.costs))
        window.append(end)

    def coll_collect(self, coll_id: tuple, expected):
        """Receive this rank's data segments of a collective read.

        ``expected`` is an iterable of ``(server, round)`` pairs; the
        matching segments are returned as a dict keyed by those pairs.
        Unrelated traffic surfacing on the mailbox (responses for the
        aggregator role, other collectives' segments) is stashed for
        its own waiter by :meth:`_await_response`.
        """
        self._coll_live.add(coll_id)
        want = {(coll_id, s, r) for (s, r) in expected}
        got: dict[tuple, CollSegment] = {}
        while True:
            for key in want & self._coll_stash.keys():
                got[key[1:]] = self._coll_stash.pop(key)
                want.discard(key)
            if not want:
                break
            yield from self._await_response()
        self._coll_live.discard(coll_id)
        return got

    def coll_post(self, requests: Sequence[IORequest], span=None):
        """Send aggregated collective requests without awaiting replies.

        The aggregator role posts its control requests *before*
        streaming its own data segments — awaiting inline (as
        :meth:`_io_round` does) would deadlock: every round needs this
        rank's segments to complete.  Returns the bookkeeping that
        :meth:`coll_finish` needs to collect the responses later.  The
        collective counts as live on this client from here on: its read
        segments may surface before anyone asks for them.
        """
        self._coll_live.update(req.coll.coll_id for req in requests)
        return (yield from self._post(requests, span))

    def coll_finish(self, requests: Sequence[IORequest], posted):
        """Collect one response per request posted by :meth:`coll_post`
        (the response half of :meth:`_io_round`: segments already
        ingested survive a rejection, and the server's done-ring
        deduplicates a resend of an already-applied round)."""
        responses = yield from self._collect(requests, posted)
        self._coll_live.difference_update(
            req.coll.coll_id for req in requests
        )
        return responses

    # ------------------------------------------------------------------
    # collective fault tolerance (armed fault configs only)
    # ------------------------------------------------------------------
    def coll_complete(
        self,
        rec: CollRecovery,
        *,
        sent_segs=None,
        expect=None,
        requests: Sequence[IORequest] = (),
        posted=None,
        my_agg: Optional[int] = None,
        span=None,
    ):
        """Fault-tolerant completion of one rank's collective: run a
        :class:`~repro.pvfs.collective.CollEngine` over this rank's
        write acks (``sent_segs``), owed read segments (``expect``) and
        aggregator requests (``requests``/``posted`` from
        :meth:`coll_post`), plus any re-election handoff queued for
        this rank.  Returns ``(responses, segments)``."""
        engine = CollEngine(self, rec, posted, my_agg, span)
        return (yield from engine.run(sent_segs, expect, requests))

    def coll_gate(self, rec: CollRecovery, my_agg=None, span=None):
        """Completion gate for aggregator ranks (armed faults only).

        Collective semantics require that no aggregator leaves while
        re-elected work is outstanding anywhere: a rank already at the
        closing barrier stops servicing its mailbox, and a handoff
        parked there would strand the surviving aggregators' rounds.
        Each aggregator therefore *arrives* here and keeps serving
        stray traffic (late duplicates, re-election handoffs) until
        every aggregator has arrived and no handoff is pending; the
        releasing rank drops a zero-cost wake marker into every
        waiter's mailbox.  Non-aggregator ranks never take handoffs
        and go straight to the barrier.
        """
        # an engine with no obligations of its own serves exactly the
        # handoffs queued for this rank (none: it returns at once)
        yield from self.coll_complete(rec, my_agg=my_agg, span=span)
        rec.arrive(self.name, self.mailbox)
        while not rec.done:
            yield from self._await_response()
            yield from self.coll_complete(rec, my_agg=my_agg, span=span)

    # ------------------------------------------------------------------
    # the request round: post, collect, settle
    # ------------------------------------------------------------------
    def _io_round(self, requests, span=None, out=None):
        """Send all requests, then collect every response.

        ``requests`` holds ``(request, stream positions, regions)``
        triples: only the request travels; a read response's payload is
        scattered into ``out`` (when given) at those stream positions.
        """
        reqs = [entry[0] for entry in requests]
        posted = yield from self._post(reqs, span)
        responses = yield from self._collect(reqs, posted)
        if out is not None:
            for req, spos, regions in requests:
                payload = responses[req.req_id].payload
                if payload is not None:
                    Regions(spos, regions.lengths, _trusted=True).scatter(
                        out, payload
                    )
        return responses

    def _post(self, requests: Sequence[IORequest], span=None):
        """Send ``requests`` without awaiting replies.

        When tracing, each request gets its own ``rpc`` round-trip span
        under ``span`` (the operation span); the request carries the
        trace id and the rpc span id so server-side and network spans
        join the same trace.  Returns ``(send times, rpc spans)`` by
        request id, filled only while metrics / tracing are on.
        """
        t_sent: dict[int, float] = {}
        rpc_spans: dict[int, object] = {}
        if self.tracer.enabled and span is not None:
            for req in requests:
                rpc = self.tracer.begin(
                    "rpc",
                    "client",
                    self.name,
                    trace_id=span.trace_id,
                    parent=span,
                    server=req.server,
                    op_kind=req.op_kind,
                    desc_bytes=req.descriptor_bytes(self.costs),
                )
                req.trace_id = span.trace_id
                req.trace_parent = rpc.span_id
                rpc_spans[req.req_id] = rpc
        for req in requests:
            if self.metrics.enabled:
                t_sent[req.req_id] = self.env.now
            yield from self._send_io(req)
        return t_sent, rpc_spans

    def _collect(self, requests: Sequence[IORequest], posted):
        """Collect one response per posted request, in posting order.

        A server running with a bounded admission queue may reject a
        request outright (``IOResponse.rejected``); the client backs off
        ``server_retry_backoff`` seconds and resends until admitted —
        the backpressure loop of the multi-threaded server model.

        Under an armed fault injector every wait is bounded by the
        request's :class:`_Ladder` — the one recovery path for dropped
        messages and crashed servers.  Because striped transfers fan
        one operation out over many requests, resending just the
        timed-out request *is* job-level resume — the already-answered
        stripes are never re-shipped.  Every attempt reuses the request
        id, so writes are idempotent and duplicated responses
        deduplicate naturally.  A request whose every retry times out
        raises :class:`~repro.pvfs.errors.RetriesExhausted`.
        """
        armed = self.faults.armed
        rpc_spans = posted[1]
        responses: dict[int, IOResponse] = {}
        for req in requests:
            rid = req.req_id
            ladder = self._ladder(req) if armed else None
            while True:
                resp = yield from self._await_response(
                    rid, ladder.rto if armed else None
                )
                if resp is None:
                    rpc = rpc_spans.get(rid)
                    backoff = self._timed_out(req, ladder, rpc)
                    if backoff is None:
                        self._exhausted(req, ladder.attempts, rpc)
                    yield from self._resend(req, backoff)
                elif self._settle(req, resp, posted, ladder):
                    responses[rid] = resp
                    break
                else:
                    yield from self._resend(req, self.config.server_retry_backoff)
        return responses

    def _settle(self, req: IORequest, resp, posted, ladder=None) -> bool:
        """Account one response to ``req``; ``True`` once it is final.

        A rejection is counted and left to the caller to resend
        (``False``); an error response raises; an answer closes the
        request — it leaves the in-flight set, so later duplicates are
        dropped, and a success after timeouts counts as a failover.
        """
        t_sent, rpc_spans = posted
        rpc = rpc_spans.get(req.req_id)
        if resp.rejected:
            self.counters.retries += 1
            if self.metrics.enabled:
                self.metrics.retry()
            if rpc is not None:
                rpc.attrs["retries"] = rpc.attrs.get("retries", 0) + 1
            return False
        self._inflight.discard(req.req_id)
        if resp.error:
            if rpc is not None:
                self.tracer.end(rpc, error=resp.error)
            raise PVFSError(resp.error)
        if ladder is not None and ladder.attempts:
            self.counters.failovers += 1
            if self.metrics.enabled:
                self.metrics.failover()
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
            if ladder is None:
                self.tracer.end(rpc, nbytes=resp.nbytes)
            else:
                self.tracer.end(rpc, nbytes=resp.nbytes, timeouts=ladder.attempts)
        return True

    def _ladder(self, item=None) -> _Ladder:
        """A fresh RTO ladder starting now (armed fault configs only)."""
        return _Ladder(self.faults.config, self.env.now, item)

    def _timed_out(self, req: IORequest, ladder: _Ladder, rpc):
        """Count one missed response deadline of ``req``; returns the
        backoff before its resend (``None``: the ladder is spent)."""
        backoff = ladder.escalate()
        self.counters.timeouts += 1
        if self.metrics.enabled:
            self.metrics.timeout()
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
        """Ship one I/O request (counted; used for sends and resends);
        it is in flight from here until :meth:`_settle` closes it."""
        self._inflight.add(req.req_id)
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
