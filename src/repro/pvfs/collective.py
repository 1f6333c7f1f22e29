"""Server-side assembly state and failover plumbing for collective I/O.

A collective write round reaches a server as one aggregated
:class:`~repro.pvfs.protocol.IORequest` (control path, from the
aggregator) plus one :class:`~repro.pvfs.protocol.CollSegment` per
participating rank (data path, straight from each rank).  Control and
data race freely on the wire, so the daemon parks whichever side
arrives first: :class:`CollectiveState` keys both on
``(coll_id, round_no)`` and releases the request to the scheduler the
moment the round's last expected segment is in.

Completed rounds are retained (``keep_done``) so an idempotent resend
of the request — after an admission rejection or a fault-layer drop —
still finds its payload, and (armed fault configs only) so a replayed
write segment can be re-acknowledged and a lost read scatter segment
re-fetched (:class:`~repro.pvfs.protocol.CollFetch`) without charging
the expansion pipeline twice.

:class:`CollRecovery` is the client-side shared state of one
collective's fault story: the surviving-aggregator ladder, handoff
bookkeeping, and the completion gate that keeps every aggregator rank
servicing its mailbox until no re-elected work remains anywhere.
:class:`CollEngine` is one rank's completion engine on top of it: every
outstanding ack, read segment and aggregator request of the rank as one
set of obligations on the client's RTO ladder, including aggregator
re-election.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from .errors import RetriesExhausted
from .protocol import CollAck, CollFetch, CollSegment

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import CollOp

__all__ = [
    "CollectiveState",
    "CollRecovery",
    "CollHandoff",
    "CollEngine",
    "_CollWake",
]


class _Round:
    __slots__ = ("segments", "msg", "expected", "resp")

    def __init__(self):
        self.segments: dict[str, "CollSegment"] = {}
        self.msg = None  # parked request message, if any
        self.expected: Optional[frozenset] = None
        self.resp = None  # retained write response (resend replay)


class CollectiveState:
    """Per-server bookkeeping for in-flight collective rounds."""

    def __init__(self, keep_done: int = 4):
        self._rounds: dict[tuple, _Round] = {}
        self._done: dict[tuple, _Round] = {}
        self._done_order: deque = deque()
        self.keep_done = keep_done
        # Read-side retransmit buffer (armed fault configs only):
        # (coll_id, round_no, client) -> the scatter CollSegment, so a
        # CollFetch after a dropped delivery is served from memory
        # instead of re-running the expansion pipeline.
        self._read_cache: dict[tuple, "CollSegment"] = {}
        self._read_order: deque = deque()
        self.keep_reads = 4096

    def _round(self, key: tuple) -> _Round:
        e = self._rounds.get(key)
        if e is None:
            e = self._rounds[key] = _Round()
        return e

    @staticmethod
    def _complete(e: _Round) -> bool:
        return e.expected is not None and e.expected <= e.segments.keys()

    # ------------------------------------------------------------------
    def done_round(self, key: tuple) -> Optional[_Round]:
        """The retained state of an already-served write round, if any."""
        return self._done.get(key)

    def ingest_segment(self, seg: "CollSegment"):
        """File one rank's data segment.

        Returns the parked request *message* when this segment completes
        a waiting round (the caller submits it), else ``None``.  A
        segment replayed for an already-retired round is ignored — the
        caller re-acknowledges it from :meth:`done_round` instead of
        letting a ghost duplicate grow a fresh half-round entry.
        """
        if (seg.coll_id, seg.round_no) in self._done:
            return None
        e = self._round((seg.coll_id, seg.round_no))
        e.segments[seg.client] = seg
        if e.msg is not None and self._complete(e):
            msg, e.msg = e.msg, None
            return msg
        return None

    def park(self, msg, req) -> bool:
        """Try to park a collective write request until its data is in.

        Returns ``True`` when parked; ``False`` when every expected
        segment has already arrived (submit immediately).
        """
        c: "CollOp" = req.coll
        key = (c.coll_id, c.round_no)
        if key in self._done:
            return False  # idempotent resend of a completed round
        e = self._round(key)
        e.expected = frozenset(p.client for p in c.parts)
        if self._complete(e):
            return False
        e.msg = msg
        return True

    def abandon(self, c: "CollOp") -> None:
        """Forget a write round whose request failed: its parked
        message and the segments filed so far are dropped (the sender
        has been told; nothing will ever release them)."""
        self._rounds.pop((c.coll_id, c.round_no), None)

    # ------------------------------------------------------------------
    def _lookup(self, key: tuple) -> Optional[_Round]:
        e = self._rounds.get(key)
        if e is not None:
            return e
        return self._done.get(key)

    def assemble_payload(self, c: "CollOp") -> Optional[np.ndarray]:
        """Concatenate the round's segment payloads in participant
        order (``None`` when the round is phantom)."""
        e = self._lookup((c.coll_id, c.round_no))
        if e is None:
            raise KeyError(
                f"no assembled segments for collective round {c.coll_id}"
                f"#{c.round_no}"
            )
        payloads = []
        for part in c.parts:
            seg = e.segments[part.client]
            if seg.payload is None:
                return None  # phantom round: account sizes only
            payloads.append(seg.payload)
        if len(payloads) == 1:
            return payloads[0]
        return np.concatenate(payloads)

    def retire(self, coll_id: tuple, round_no: int, resp=None) -> None:
        """Move a served write round to the bounded done-ring.

        ``resp`` (the round's write response) is retained so an
        idempotent request resend is answered by replaying it instead
        of re-running the pipeline.
        """
        key = (coll_id, round_no)
        e = self._rounds.pop(key, None)
        if e is None:
            return
        e.resp = resp
        self._done[key] = e
        self._done_order.append(key)
        while len(self._done_order) > self.keep_done:
            self._done.pop(self._done_order.popleft(), None)

    # ------------------------------------------------------------------
    def cache_read_segment(self, seg: "CollSegment") -> None:
        """Retain one scattered read segment for CollFetch service."""
        key = (seg.coll_id, seg.round_no, seg.client)
        if key not in self._read_cache:
            self._read_order.append(key)
        self._read_cache[key] = seg
        while len(self._read_order) > self.keep_reads:
            self._read_cache.pop(self._read_order.popleft(), None)

    def fetch_read_segment(self, key: tuple) -> Optional["CollSegment"]:
        return self._read_cache.get(key)


class CollHandoff:
    """Mailbox marker: re-elected rounds handed to this rank.

    Dropped straight into the target aggregator's client mailbox (the
    zero-cost shared-state channel — like the client's own timeout
    markers, it models a local failure-detector signal, not wire
    traffic).  The receiving rank rebuilds and re-issues the composite
    requests for ``rounds`` on ``server``.
    """

    __slots__ = ("server", "rounds")

    def __init__(self, server: int, rounds):
        self.server = server
        self.rounds = tuple(rounds)


class _CollWake:
    """Mailbox marker: re-check the collective completion gate."""

    __slots__ = ()


class CollRecovery:
    """Shared per-collective failover state (one instance per coll_id).

    Lives in ``PVFS.coll_recovery`` so every participating rank's
    client sees the same aggregator death list, handoff counters and
    completion gate.  Pure shared memory — ranks on one simulated
    cluster coordinate through it exactly like the communicator's
    barrier state.
    """

    def __init__(
        self,
        coll_id: tuple,
        n_agg: int,
        agg_ranks: tuple,
        build_request: Callable[[int, int], Any],
    ):
        self.coll_id = coll_id
        self.n_agg = n_agg
        self.agg_ranks = tuple(agg_ranks)
        #: ``build_request(server, round_no) -> IORequest`` — rebuilds
        #: the aggregated descriptor for one (server, round) with views
        #: on the wire (the new aggregator never shipped them before).
        self.build_request = build_request
        #: Aggregator slots whose requests timed out past the ladder.
        self.dead: set[int] = set()
        #: Aggregator slot -> that rank's client mailbox (registered by
        #: every aggregator before any request is posted, so a handoff
        #: target is always addressable).
        self.mailboxes: dict[int, Any] = {}
        #: Handoffs issued but not yet fully re-served.
        self.pending_handoffs = 0
        #: Aggregator ranks that reached the completion gate.
        self.arrived = 0
        #: Gate waiters: client name -> mailbox to drop a wake into.
        self.waiting: dict[str, Any] = {}
        self.done = False

    def elect(self, from_agg: int) -> Optional[int]:
        """The next surviving aggregator slot after ``from_agg``.

        Deterministic: candidates are scanned in ring order from the
        failed slot, so every rank derives the same winner without any
        extra communication.  ``None`` when every slot is dead.
        """
        for k in range(1, self.n_agg):
            cand = (from_agg + k) % self.n_agg
            if cand not in self.dead:
                return cand
        return None

    # ------------------------------------------------------------------
    def arrive(self, client: str, mailbox) -> None:
        self.arrived += 1
        self.waiting[client] = mailbox
        self.maybe_release()

    def maybe_release(self) -> None:
        """Release the gate when every aggregator arrived and no
        re-elected work is still outstanding anywhere."""
        if self.done:
            return
        if self.arrived >= self.n_agg and self.pending_handoffs == 0:
            self.done = True
            for mb in self.waiting.values():
                mb._store.put(_CollWake())


class CollEngine:
    """Fault-tolerant completion engine for one rank's collective.

    One RTO loop drives every outstanding obligation of this rank —
    the same wait, ladder and settle the independent path uses, but
    over *all* items at once rather than request-by-request, because
    the collective's recovery paths are interdependent: a composite
    request completes only when every rank's segment is in, and a
    rank's segment ack arrives only after some aggregator re-delivers
    the round's request.  Sequential per-item waits would deadlock on
    exactly the fault patterns this exists for.

    Obligations (``pending``, each with its own ladder), in the order
    an expired deadline escalates them:

    * ``("segment", server, round)`` — a :class:`CollSegment` this rank
      streamed for a write, waiting for its :class:`CollAck`; resent
      idempotently (the server dedups by (coll id, round), and a replay
      of a completed round is re-acknowledged from the done-ring).
    * ``("fetch", server, round)`` — a read segment owed to this rank;
      overdue, it is re-requested with a :class:`CollFetch`, served
      from the server's retained scatter buffer.
    * ``req_id`` — a composite request of the aggregator role: the
      independent ladder plus **aggregator re-election** — at
      ``coll_reelect_after`` consecutive timeouts the server's rounds
      are handed to the next surviving aggregator slot (deterministic
      ring scan), and :class:`RetriesExhausted` surfaces only once
      every candidate slot is dead and the ladder is spent.

    Every deadline doubles per consecutive timeout and every resend
    backs off exponentially, so a crash window either ends inside the
    ladder or the run fails typed — never a hang.
    """

    def __init__(self, client, rec: CollRecovery, posted, my_agg, span):
        self.client = client
        self.rec = rec
        self.my_agg = my_agg
        self.span = span
        self.trace_id = span.trace_id if span is not None else -1
        #: (send times, rpc spans) of the composite requests, by id
        self.posted = posted if posted is not None else ({}, {})
        self.pending: dict = {}
        self.responses: dict = {}
        self.got: dict[tuple, CollSegment] = {}

    def run(self, sent_segs=None, expect=None, requests=()):
        """Complete ``sent_segs`` (``{(server, round): segment}``),
        ``expect`` (``(server, round)`` pairs) and ``requests``, and
        serve the handoffs queued for this rank meanwhile.  Returns
        ``(responses, segments)``."""
        c = self.client
        cid = self.rec.coll_id
        pending = self.pending
        c._coll_live.add(cid)
        for (server, rno), seg in (sent_segs or {}).items():
            if (cid, server, rno) in c._coll_acks:
                c._coll_acks.discard((cid, server, rno))
            else:
                pending[("segment", server, rno)] = c._ladder(seg)
        for server, rno in expect or ():
            seg = c._coll_stash.pop((cid, server, rno), None)
            if seg is not None:
                self.got[(server, rno)] = seg
            else:
                pending[("fetch", server, rno)] = c._ladder()
        for req in requests:
            pending[req.req_id] = c._ladder(req)

        while pending or c._coll_handoffs:
            while c._coll_handoffs:
                yield from self._integrate(c._coll_handoffs.pop(0))
            if not pending:
                break
            wait = min(lad.deadline for lad in pending.values()) - c.env.now
            item = None
            if wait > 0:
                item = yield from c._await_response(timeout=wait)
            if item is None:
                yield from self._overdue()
            else:
                yield from self._arrived(item)
        # nothing of this collective is owed to this rank any more:
        # whatever else of it is stashed is duplicate traffic
        c._coll_live.discard(cid)
        for key in [k for k in c._coll_stash if k[0] == cid]:
            del c._coll_stash[key]
        c._coll_acks -= {k for k in c._coll_acks if k[0] == cid}
        return self.responses, self.got

    # ------------------------------------------------------------------
    def _arrived(self, item):
        """Dispatch one classified arrival against the obligations (the
        client's wait has already stashed it; foreign traffic stays
        there for its own waiter)."""
        c = self.client
        cid = self.rec.coll_id
        if isinstance(item, (CollAck, CollSegment)):
            if item.coll_id != cid:
                return
            key = (item.server, item.round_no)
            if isinstance(item, CollAck):
                c._coll_acks.discard((cid, *key))
                self.pending.pop(("segment", *key), None)
            else:
                c._coll_stash.pop((cid, *key), None)
                # an unowed one duplicates an already-received round
                if self.pending.pop(("fetch", *key), None) is not None:
                    self.got[key] = item
            return
        # signals carry no request id and match nothing
        rid = getattr(item, "req_id", None)
        lad = self.pending.get(rid)
        if lad is None:
            return
        c._resp_stash.pop(rid, None)
        if c._settle(lad.item, item, self.posted, lad):
            del self.pending[rid]
            self.responses[rid] = item
            self._resolve(lad)
        else:
            yield from c._resend(
                lad.item, c.config.server_retry_backoff
            )
            lad.arm(c.env.now)

    def _overdue(self):
        """A deadline passed: escalate every overdue obligation."""
        now = self.client.env.now + 1e-12
        for key in [k for k, lad in self.pending.items() if lad.deadline <= now]:
            lad = self.pending.get(key)
            if lad is None:
                continue  # moved by a re-election this same pass
            if isinstance(key, tuple):
                yield from self._retry_segment(lad, *key)
            else:
                yield from self._retry_request(lad)

    def _retry_segment(self, lad, kind: str, server: int, rno: int):
        c = self.client
        backoff = lad.escalate()
        if backoff is None:
            self._exhaust(kind, server, rno, lad.attempts)
        if backoff > 0:
            yield c.env.timeout(backoff)
        c.faults.coll_resend(
            c.name, server, rno, lad.attempts,
            kind=kind, trace_id=self.trace_id, span=self.span,
        )
        if c.metrics.enabled:
            c.metrics.coll_resend()
        if kind == "segment":
            yield from c.coll_send_segment(server, lad.item)
        else:
            fetch = CollFetch(
                self.rec.coll_id, rno, server, c.name,
                reply_to=c.mailbox, trace_id=self.trace_id,
                trace_parent=self.span.span_id if self.span is not None else -1,
            )
            c.counters.requests_sent += 1
            c.counters.request_desc_bytes += c.costs.header_bytes
            yield from c._ship(server, fetch, fetch.wire_bytes(c.costs))
        lad.arm(c.env.now)

    def _exhaust(self, kind: str, server: int, rno: int, attempts: int):
        c = self.client
        c.faults.coll_exhausted(
            c.name, server, rno, attempts,
            trace_id=self.trace_id, span=self.span,
        )
        what = "write ack" if kind == "segment" else "read segment"
        raise RetriesExhausted(
            f"collective {what} for round {rno} on iod{server} from "
            f"{c.name} gave up after {attempts} timeouts",
            job_id=-1,
            server=server,
            client=c.name,
            attempts=attempts,
        )

    def _retry_request(self, lad):
        c = self.client
        req = lad.item
        rpc = self.posted[1].get(req.req_id)
        backoff = c._timed_out(req, lad, rpc)
        reelect_after = c.faults.config.coll_reelect_after
        if self.my_agg is not None and lad.attempts >= reelect_after:
            cand = self.rec.elect(self.my_agg)
            if cand is not None:
                self._reelect(cand, req.server)
                return
        if backoff is None:
            c._exhausted(req, lad.attempts, rpc)
        yield from c._resend(req, backoff)
        lad.arm(c.env.now)

    # ------------------------------------------------------------------
    def _integrate(self, h: CollHandoff):
        """Adopt a re-election handoff: rebuild and post its rounds
        (views on the wire — this rank never shipped them)."""
        c = self.client
        rec = self.rec
        built = [c.stamp(rec.build_request(h.server, rno)) for rno in h.rounds]
        yield c.env.timeout(c.costs.fs_op_client_cost)
        t_sent, rpc_spans = yield from c.coll_post(built, self.span)
        self.posted[0].update(t_sent)
        self.posted[1].update(rpc_spans)
        group = [len(built)]
        for req in built:
            lad = self.pending[req.req_id] = c._ladder(req)
            lad.group = group

    def _resolve(self, lad) -> None:
        """A handed-off round settled; the last one of its handoff
        releases the completion gate's hold."""
        if lad.group is not None:
            lad.group[0] -= 1
            if lad.group[0] == 0:
                self.rec.pending_handoffs -= 1
                self.rec.maybe_release()

    def _reelect(self, to_agg: int, server: int) -> None:
        """Hand every pending composite request for ``server`` to the
        elected surviving aggregator slot.

        Pure shared-state bookkeeping (the handoff marker models a
        local failure-detector signal, like the client's own timeout
        markers — no wire traffic, no simulated time): the moved
        requests leave the in-flight set so late responses are
        discarded, their rpc spans are closed, and ``pending_handoffs``
        is incremented *before* the marker lands so the completion gate
        can never release between the two.
        """
        c = self.client
        rec = self.rec
        rpc_spans = self.posted[1]
        rec.dead.add(self.my_agg)
        moved = [
            (rid, lad) for rid, lad in self.pending.items()
            if not isinstance(rid, tuple) and lad.item.server == server
        ]
        rounds = sorted(lad.item.coll.round_no for _, lad in moved)
        rec.pending_handoffs += 1
        for rid, lad in moved:
            del self.pending[rid]
            c._inflight.discard(rid)
            c._resp_stash.pop(rid, None)
            rpc = rpc_spans.pop(rid, None)
            if rpc is not None:
                c.tracer.end(rpc, reelected=True, timeouts=lad.attempts)
            # a handed-off handoff releases its old hold (the fresh
            # pending_handoffs above keeps the gate closed)
            self._resolve(lad)
        c.faults.coll_reelection(
            c.name, server, self.my_agg, to_agg, len(rounds),
            trace_id=self.trace_id, span=self.span,
        )
        if c.metrics.enabled:
            c.metrics.coll_reelect()
        rec.mailboxes[to_agg]._store.put(CollHandoff(server, rounds))
