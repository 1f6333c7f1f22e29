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
:class:`CollEngine` is one rank's side of the collective protocol on
top of it — the only one, armed or not: it posts the rank's aggregated
requests, streams its data segments through per-server send windows,
completes every outstanding ack, read segment and aggregator request of
the rank as one set of obligations, each settled as it arrives, and
holds an aggregator at the completion gate.  Under an armed injector
each obligation also rides the client's RTO ladder, including
aggregator re-election; unarmed, the engine waits untimed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..simulation.costs import REJECT_BACKOFF
from .client import _Receive
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

#: In-flight collective data segments per (rank, server) socket.  1 is
#: a blocking socket (NICs idle at every handoff, and one slow server
#: stalls the rank's sequential send loop); large values degenerate to
#: an unpaced blast whose wire order no longer tracks the round order
#: (an early-starting rank would park entire later rounds ahead of a
#: late rank's round 0, stalling the round pipeline).  Two keeps every
#: server's pipe full while bounding the order skew to one round.
COLL_SEND_WINDOW = 2


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
    """Mailbox marker: re-elected rounds of collective ``coll_id``
    handed to this rank.

    Dropped straight into the target aggregator's client mailbox (the
    zero-cost shared-state channel — like the client's own timeout
    markers, it models a local failure-detector signal, not wire
    traffic) and filed, like the collective's wire traffic, under the
    rank's receive for ``coll_id``.  The receiving rank rebuilds and
    re-issues the composite requests for ``rounds`` on ``server``.
    """

    __slots__ = ("coll_id", "server", "rounds")

    def __init__(self, coll_id: tuple, server: int, rounds):
        self.coll_id = coll_id
        self.server = server
        self.rounds = tuple(rounds)


class _CollWake:
    """Mailbox marker: re-check the completion gate of ``coll_id``."""

    __slots__ = ("coll_id",)

    def __init__(self, coll_id: tuple):
        self.coll_id = coll_id


class CollRecovery:
    """Shared per-collective plan and failover state (one per coll_id).

    Lives in ``PVFS.coll_recovery`` so every participating rank's
    client sees the same plan, aggregator death list, handoff counters
    and completion gate.  Pure shared memory — ranks on one simulated
    cluster coordinate through it exactly like the communicator's
    barrier state.
    """

    def __init__(self, plan):
        #: The collective's :class:`~repro.mpiio.methods.collective.CollPlan`;
        #: its ``build_request(server, round_no)`` rebuilds the
        #: aggregated descriptor for one (server, round) with views on
        #: the wire (a re-elected aggregator never shipped them before).
        self.plan = plan
        self.coll_id = plan.coll_id
        self.n_agg = plan.n_agg
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
        self.maybe_release(client)

    def maybe_release(self, releaser: str) -> None:
        """Release the gate when every aggregator arrived and no
        re-elected work is still outstanding anywhere, waking every
        waiter but ``releaser`` — the rank whose arrival or settled
        handoff releases it is running, and sees ``done`` itself."""
        if self.done:
            return
        if self.arrived >= self.n_agg and self.pending_handoffs == 0:
            self.done = True
            for client, mb in self.waiting.items():
                if client != releaser:
                    mb._store.put(_CollWake(self.coll_id))


class CollEngine:
    """Completion engine for one rank's collective, armed or not.

    One loop drives every outstanding obligation of this rank — the
    same wait, ladder and settle the independent path uses, but over
    *all* items at once, each settled the moment it arrives: a
    response is never held behind an earlier-posted one, and a
    rejected round is resent at once.  Under faults the recovery paths
    are interdependent too (a composite request completes only when
    every rank's segment is in; a segment's ack arrives only after some
    aggregator re-delivers the round's request), so sequential
    per-item waits would deadlock.  Deadlines exist only under an armed
    injector; unarmed, the loop waits untimed.  It waits on the rank's
    receive for the collective, under which the client files every
    arrival of it — acks, read segments, the composite requests'
    responses, handoffs — whichever wait reads it, and whenever.

    Obligations (``pending``, each with its own ladder):

    * ``("segment", server, round)`` — a :class:`CollSegment` this rank
      streamed for a write, waiting for its :class:`CollAck` (armed
      only: only then does a segment carry ``reply_to``); resent
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

    Armed, every obligation rides its server's connection timer
    (``pvfs.client._Conn``): the loop waits for the earliest of at
    most one deadline per server, every arrival from a server restarts
    that server's timer, and an expiry escalates only the oldest
    obligation to that server.  A server that is merely busy serving
    earlier rounds thus keeps its later obligations quiet; a silent
    one escalates its oldest obligation through a doubling deadline
    and exponential resend backoff, so a crash window either ends
    inside the ladder or the run fails typed — never a hang.
    """

    def __init__(self, client, rec: CollRecovery, my_agg, span):
        self.client = client
        self.rec = rec
        self.my_agg = my_agg
        self.span = span
        self.trace_id = client.tracer.trace_of(span) if span is not None else -1
        # this rank's receive for the collective, posted before anything
        # that answers it is sent: the client files every arrival of it
        # here (the rank removes it once past the gate)
        self.rx = client._posted[rec.coll_id] = _Receive(collective=True)
        #: (send times, rpc spans) of the composite requests, by id
        self.posted: tuple[dict, dict] = ({}, {})
        self.pending: dict = {}
        self.responses: dict = {}
        self.got: dict[tuple, CollSegment] = {}
        #: armed: server -> this rank's obligations outstanding to it
        self.owed: dict[int, int] = {}
        #: armed: (server, round) -> the composite request's id
        self.round_req: dict[tuple, int] = {}
        self.armed = client.faults.armed

    def post(self, requests):
        """Send aggregated collective requests without awaiting replies.

        The aggregator role posts its control requests *before*
        streaming its own data segments — awaiting inline (as the
        independent path does) would deadlock: every round needs this
        rank's segments to complete.  The requests are posted under the
        collective's receive, which their responses and the
        collective's read segments share with the engine's other
        traffic; :meth:`run` settles them.
        """
        c = self.client
        t_sent, rpc_spans = yield from c._post(requests, self.span, self.rx)
        self.posted[0].update(t_sent)
        self.posted[1].update(rpc_spans)

    def send_segment(self, server: int, seg: CollSegment):
        """Ship one collective data segment straight to a server.

        Segments are data-path messages: a fixed header plus the round
        slice of this rank's packed stream.  They sit inside the fault
        injector's drop set (a no-op unless a non-inert config is
        armed); recovery is the per-(round, server) ack ladder of
        :meth:`run`, which resends idempotently — the server dedups
        replayed rounds by (coll id, round).  Flow control is a sliding
        window of :data:`COLL_SEND_WINDOW` in-flight segments *per
        server socket* (kept on the client: a socket outlives the
        collective): an unpaced blast would order the whole run's bytes
        by send-initiation time (letting an early-starting rank park
        entire later rounds ahead of a late rank's round 0, stalling
        the round pipeline), while fully paced sends leave NICs idle at
        every segment handoff.  Per-server windows keep the wire order
        at each server tracking the round order without coupling
        independent sockets — one momentarily-backlogged server never
        starves the rest of the stripe.
        """
        c = self.client
        window = c.coll_windows.setdefault(server, deque())
        while len(window) >= COLL_SEND_WINDOW:
            t = window.popleft()
            if t > c.env.now:
                yield c.env.timeout(t - c.env.now)
        c.counters.request_desc_bytes += c.costs.header_bytes
        end = yield from c._ship(server, seg, seg.wire_bytes(c.costs))
        window.append(end)

    def run(self, sent_segs=None, expect=None, requests=()):
        """Complete ``sent_segs`` (``{(server, round): segment}``),
        ``expect`` (``(server, round)`` pairs) and ``requests`` (posted
        by :meth:`post`), and serve the handoffs filed for this rank
        meanwhile.  Each obligation is settled as it arrives; its
        ladder carries a deadline only under an armed injector.
        Returns ``(responses, segments)``."""
        c = self.client
        rx = self.rx
        self._owe_all(sent_segs or {}, expect or (), requests)
        pending = self.pending
        conns = c._conns
        while pending or rx.items:
            wait = None
            if self.owed:
                wait = min(conns[s].deadline for s in self.owed) - c.env.now
            item = None
            if rx.items or wait is None or wait > 0:
                item = yield from c._receive(rx, wait)
            if item is None:
                yield from self._overdue()
            else:
                yield from self._arrived(item)
        return self.responses, self.got

    def gate(self):
        """Completion gate for aggregator ranks (armed faults only).

        Collective semantics require that no aggregator leaves while
        re-elected work is outstanding anywhere: a rank already at the
        closing barrier stops servicing its mailbox, and a handoff
        parked there would strand the surviving aggregators' rounds.
        Each aggregator therefore *arrives* here and keeps waiting on
        the collective's receive — serving re-election handoffs, and
        ending each wait on stray traffic too (late duplicates) — until
        every aggregator has arrived and no handoff is pending; the
        releasing rank drops a zero-cost wake marker carrying the coll
        id into every waiter's mailbox.  Non-aggregator ranks never
        take handoffs and go straight to the barrier.
        """
        c, rec = self.client, self.rec
        # with its own obligations settled the engine serves exactly the
        # handoffs already filed for this rank (none: it returns at once)
        yield from self.run()
        rec.arrive(c.name, c.mailbox)
        while not rec.done:
            item = yield from c._receive(self.rx)
            yield from self._arrived(item)
            yield from self.run()

    # ------------------------------------------------------------------
    def _owe_all(self, sent_segs, expect, requests) -> None:
        """Open the obligations in round order, each round's request
        before its data: a connection's oldest obligation is then its
        lowest round's."""
        owed = [(req.coll.round_no, 0, req.req_id, req.server, req) for req in requests]
        owed += [
            (rno, 1, ("segment", server, rno), server, seg)
            for (server, rno), seg in sent_segs.items()
        ]
        owed += [(rno, 1, ("fetch", server, rno), server, None) for server, rno in expect]
        owed.sort(key=lambda o: o[:2])
        for _, _, key, server, item in owed:
            self._owe(key, server, item)

    def _owe(self, key, server: int, item=None):
        lad = self.pending[key] = self.client._ladder(server, key, item)
        if self.armed:
            self.owed[server] = self.owed.get(server, 0) + 1
            if not isinstance(key, tuple):
                self.round_req[(server, item.coll.round_no)] = key
        return lad

    def _drop(self, key, server: int):
        """Drop obligation ``key``, if still pending, and restart
        ``server``'s timer (something arrived from it); returns the
        dropped ladder, or ``None``."""
        lad = self.pending.pop(key, None)
        if self.armed:
            if lad is not None:
                n = self.owed[server] = self.owed[server] - 1
                if not n:
                    del self.owed[server]
            self.client._restart(server, lad)
        return lad

    def _arrived(self, item):
        """Dispatch one arrival against the obligations.  The engine's
        wait also ends on traffic that is not this collective's (see
        ``pvfs.client._Receive``), which matches nothing here."""
        if isinstance(item, (CollAck, CollSegment, CollHandoff)):
            if item.coll_id != self.rec.coll_id:
                return
            if isinstance(item, CollHandoff):
                yield from self._integrate(item)
                return
            if isinstance(item, CollAck):
                self._drop(("segment", item.server, item.round_no), item.server)
            # an unowed segment duplicates an already-received round
            elif self._drop(("fetch", item.server, item.round_no), item.server):
                self.got[(item.server, item.round_no)] = item
            return
        # a wake carries no request id; another wait's response has none
        # pending here
        rid = getattr(item, "req_id", None)
        lad = self.pending.get(rid)
        if lad is None:
            return
        c = self.client
        if c._settle(lad.item, item, self.posted, lad):
            self._drop(rid, lad.server)
            self.responses[rid] = item
            self._resolve(lad)
        else:
            yield from c._resend(lad.item, REJECT_BACKOFF)
            c._restart(lad.server)

    def _overdue(self):
        """Timers expired: on each expired connection, escalate the
        round of this rank's oldest obligation to that server, then
        restart the timer.  The round escalates through its composite
        request while this rank still owes one — a read segment is not
        served before its request, which re-scatters it, and a request
        handed to this rank joins its connection behind the fetches it
        serves — and a write round's own segment rides along, since
        the request is parked until every segment is in."""
        c = self.client
        now = c.env.now + 1e-12
        pending = self.pending
        # servers in the order this rank first owed them something
        for server in list(self.owed):
            if server not in self.owed or c._conns[server].deadline > now:
                continue  # not expired, or re-elected away this pass
            conn = c._conns[server]
            key = next(k for lad, k in conn.ladders.items() if pending.get(k) is lad)
            rno = key[2] if isinstance(key, tuple) else pending[key].item.coll.round_no
            rid = self.round_req.get((server, rno))
            keys = [key]
            if rid in pending:
                keys = [rid]
                if pending[rid].item.is_write:
                    keys.append(("segment", server, rno))
            for k in keys:
                lad = pending.get(k)
                if lad is None:
                    continue  # no segment owed, or re-elected away just now
                if isinstance(k, tuple):
                    yield from self._retry_segment(lad, *k)
                else:
                    yield from self._retry_request(lad)
            c._restart(server)

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
        if kind == "segment":
            yield from self.send_segment(server, lad.item)
        else:
            fetch = CollFetch(
                self.rec.coll_id, rno, server, c.name,
                reply_to=c.mailbox, trace_id=self.trace_id,
                trace_parent=self.span if self.span is not None else -1,
            )
            c.counters.requests_sent += 1
            c.counters.request_desc_bytes += c.costs.header_bytes
            yield from c._ship(server, fetch, fetch.wire_bytes(c.costs))

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

    # ------------------------------------------------------------------
    def _integrate(self, h: CollHandoff):
        """Adopt a re-election handoff: rebuild and post its rounds
        (views on the wire — this rank never shipped them)."""
        c = self.client
        rec = self.rec
        built = [c.stamp(rec.plan.build_request(h.server, rno)) for rno in h.rounds]
        yield c.env.timeout(c.costs.fs_op_client_cost)
        yield from self.post(built)
        group = [len(built)]
        for req in built:
            self._owe(req.req_id, req.server, req).group = group

    def _resolve(self, lad) -> None:
        """A handed-off round settled; the last one of its handoff
        releases the completion gate's hold."""
        if lad.group is not None:
            lad.group[0] -= 1
            if lad.group[0] == 0:
                self.rec.pending_handoffs -= 1
                self.rec.maybe_release(self.client.name)

    def _reelect(self, to_agg: int, server: int) -> None:
        """Hand every pending composite request for ``server`` to the
        elected surviving aggregator slot.

        Pure shared-state bookkeeping (the handoff marker models a
        local failure-detector signal, like the client's own timeout
        markers — no wire traffic, no simulated time): the moved
        requests' receives are removed so late responses are
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
            self._drop(rid, server)
            c._posted.pop(rid, None)
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
        rec.mailboxes[to_agg]._store.put(
            CollHandoff(rec.coll_id, server, rounds)
        )
