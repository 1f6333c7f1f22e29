"""PVFS I/O server (iod).

The daemon is a receive loop feeding a staged request pipeline
(decode → plan → storage → respond; see :mod:`repro.pvfs.pipeline`).
Every arriving message goes through one intake (:meth:`IOServer._intake`
— size probes, collective segments and re-fetches, replay, crash-drop,
park + pre-plan) shared by the FIFO loop and the weighted-fair tenanted
loop; what comes out is a request for the scheduler.  Request kinds
dispatch through the daemon's handler table, and the scheduler
policy chosen by ``PVFSConfig.server_threads`` decides how stages
interleave across requests:

* ``server_threads=1`` (default) — the paper's single-threaded loop:
  requests serialize, and the asymmetry between read and write region
  processing (reads: on the critical path before data can flow;
  writes: hidden behind sink-side buffering) produces the 3-D block
  read decline of paper §4.3;
* ``server_threads=N`` — a multi-threaded daemon with a bounded
  admission queue and overlapped plan/storage stages.

The daemon never looks inside the scheduler: it submits requests, asks
it to pre-plan a parked round, and reads ``pending()`` for the gauge.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from ..simulation.stats import StageTimes
from ..storage import BlockStore, DiskModel
from .collective import CollectiveState
from .expand_cache import ExpansionCache, expand_window
from .pipeline import TenantAdmission, make_scheduler
from .protocol import (
    OP_COLL,
    CollAck,
    CollFetch,
    CollSegment,
    IORequest,
    IOResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .system import PVFS

__all__ = ["IOServer"]


class IOServer:
    """One I/O daemon with its local store and disk."""

    def __init__(self, system: "PVFS", index: int, node, mailbox):
        #: the owning file system, held weakly (it owns this daemon)
        self.system = weakref.proxy(system)
        self.env = system.env
        self.costs = system.costs
        self.config = cfg = system.config
        self.net = system.net
        self.tracer = system.tracer
        self.metrics = system.metrics
        self.faults = system.faults
        self.expansions = system.expansions
        #: the manager's handle -> FileMeta table
        self.by_handle = system.metadata.by_handle
        self.index = index
        #: actor name on spans, fault events and ``server=`` labels
        self.actor = f"iod{index}"
        self.node = node
        self.mailbox = mailbox
        self.store = BlockStore()
        self.disk = DiskModel(system.costs)
        self.expand_cache = (
            ExpansionCache(
                cfg.expand_cache_max_regions,
                cfg.expand_cache_period_regions,
                system.expansions,
            )
            if cfg.expand_cache
            else None
        )
        self.scheduler = make_scheduler(self)
        #: Collective-round assembly (segment/request rendezvous).
        #: Armed fault configs keep a deep done-ring: a round must stay
        #: replayable (idempotent request resends, segment re-acks) for
        #: as long as some rank's recovery ladder may still replay it.
        self.coll = CollectiveState(
            keep_done=4096
            if cfg.faults is not None and cfg.faults.can_inject
            else 4
        )
        #: Weighted-fair admission (``PVFSConfig.tenants``); ``None``
        #: keeps the paper's FIFO mailbox admission bit for bit.
        self.admission = (
            TenantAdmission(self.env, cfg.tenants)
            if cfg.tenants is not None
            else None
        )
        # counters
        self.ops = 0
        self.accesses_built = 0
        self.regions_scanned = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.stage_times = StageTimes()

    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Requests waiting to be served: undrained mailbox messages
        plus anything parked in the per-tenant admission queues."""
        depth = len(self.mailbox)
        if self.admission is not None:
            depth += self.admission.queued
        return depth

    def queue_depth(self) -> int:
        """Requests waiting in the mailbox plus any admitted in flight.

        Pure observation (no clock movement) — the metrics sampler
        calls this from the engine clock hook.
        """
        return self.backlog() + self.scheduler.pending()

    # ------------------------------------------------------------------
    def expand(self, win, dist) -> tuple:
        """This daemon's share of a shipped dataloop window:
        ``(split, scanned, hit)``.  The expansion cache, when on, decides
        what is charged; the host work is shared through the file
        system's :class:`~repro.pvfs.expand_cache.ExpansionStore` either
        way."""
        batch = self.config.dataloop_batch_regions
        cache = self.expand_cache
        if cache is not None:
            return cache.expand(win, dist, self.index, batch)
        split, scanned = expand_window(
            win.loop,
            win.tile_count(),
            win.displacement,
            win.first,
            win.last,
            dist,
            self.index,
            batch,
            store=self.expansions,
        )
        return split, scanned, False

    def reply(self, to, nbytes: int, payload, faultable: bool = True):
        """Hand one message to the socket layer: sent from the daemon's
        own mailbox, unpaced (it drains while the daemon moves on) and,
        unless told otherwise, exposed to network fault injection."""
        return self.net.send(
            self.mailbox,
            to,
            nbytes,
            payload=payload,
            pace=False,
            faultable=faultable,
        )

    def record_plan(self, plan) -> None:
        """Account a finished plan stage (counters + cache snapshot)."""
        self.accesses_built += plan.built
        self.regions_scanned += plan.scanned
        cache = self.expand_cache
        if cache is not None:
            st = self.stage_times
            st.cache_hits = cache.hits
            st.cache_misses = cache.misses
            st.cache_evictions = cache.evictions
            st.cache_regions_held = cache.regions_held
            st.cache_bytes_held = cache.bytes_held

    # ------------------------------------------------------------------
    # collective data path
    # ------------------------------------------------------------------
    def _ingest_coll_segment(self, seg: CollSegment):
        """File one collective data segment.

        Returns the released parked request *message* when the segment
        completes a waiting round, else ``None``.  A replay of an
        already-applied round is re-acknowledged from the done-ring
        (armed fault configs only — ``reply_to`` is never set
        otherwise) because the original ack was evidently lost.
        """
        yield self.env.timeout(self.costs.per_message_cpu)
        done = self.coll.done_round((seg.coll_id, seg.round_no))
        if done is not None:
            if seg.reply_to is not None:
                ack = CollAck(
                    seg.coll_id,
                    seg.round_no,
                    self.index,
                    seg.client,
                    trace_id=seg.trace_id,
                    trace_parent=seg.trace_parent,
                )
                yield from self.reply(seg.reply_to, ack.wire_bytes(self.costs), ack)
            return None
        return self.coll.ingest_segment(seg)

    def _serve_coll_fetch(self, fetch: CollFetch):
        """Re-send a retained read scatter segment (armed configs only).

        A miss is deliberately silent: the round has not been served
        yet (its composite request is itself in some rank's recovery
        ladder), and the asking rank's fetch ladder simply retries.
        No stage time or stage span is charged — retransmit service is
        receive-loop work, mirroring the segment ingest cost model.
        """
        yield self.env.timeout(self.costs.per_message_cpu)
        seg = self.coll.fetch_read_segment(
            (fetch.coll_id, fetch.round_no, fetch.client)
        )
        if seg is not None:
            yield from self.reply(fetch.reply_to, seg.wire_bytes(self.costs), seg)

    def _replay_coll_request(self, req: IORequest):
        """Replay the stored response of an already-applied write round.

        Returns ``True`` when the response was replayed (the request
        is consumed).  Reached only by idempotent resends — the
        fault-free path never re-delivers a request for a retired round
        — so the pipeline is never re-run and no disk or stage work is
        double-charged.
        """
        done = self.coll.done_round((req.coll.coll_id, req.coll.round_no))
        if done is None or done.resp is None:
            return False
        yield self.env.timeout(self.costs.per_message_cpu)
        # re-stamp with the incoming request's identity: a re-elected
        # aggregator re-issues the round under a fresh req_id (and a
        # fresh rpc span), and the replay must resolve *that* waiter
        resp = IOResponse(
            req.req_id,
            nbytes=done.resp.nbytes,
            accesses_built=done.resp.accesses_built,
            trace_id=req.trace_id,
            trace_parent=req.trace_parent,
        )
        yield from self.reply(req.reply_to, resp.wire_bytes(self.costs, True), resp)
        return True

    # ------------------------------------------------------------------
    # receive path (shared by both receive loops)
    # ------------------------------------------------------------------
    def _intake(self, msg):
        """Take one arriving message off the wire.

        Control traffic — a ``localsize`` probe, a collective data
        segment, a read re-fetch, the replay of an already-applied
        round — is handled here, and a collective write whose data is
        still in flight is parked (and pre-planned: the control request
        outruns the data).  Returns the request *message* that is now
        ready for admission: ``msg`` itself, the parked message a
        segment has just completed, or ``None`` when ``msg`` was
        consumed.

        A crashed daemon keeps answering size probes (it loses its data
        path, not its host) and silently discards everything else
        before any CPU is charged — the sender's timer is the only
        recovery path.
        """
        payload = msg.payload
        if isinstance(payload, tuple) and payload[0] == "localsize":
            _, handle, reply_to = payload
            yield self.env.timeout(self.costs.fs_op_server_cost)
            yield from self.net.send(
                self.mailbox,
                reply_to,
                self.costs.header_bytes,
                payload=self.store.local_size(handle),
            )
            return None
        if self.faults.enabled and self.faults.server_down(self.index):
            self.faults.crash_drop(self.actor, payload)
            return None
        if isinstance(payload, CollSegment):
            return (yield from self._ingest_coll_segment(payload))
        if isinstance(payload, CollFetch):
            yield from self._serve_coll_fetch(payload)
            return None
        req: IORequest = payload
        if req.op_kind == OP_COLL and req.is_write:
            if (yield from self._replay_coll_request(req)):
                return None
            if self.coll.park(msg, req):
                yield from self.scheduler.preplan(self, req)
                return None
        return msg

    def run(self):
        """The receive loop, for ``env.process``."""
        ref = weakref.ref(self)
        if self.admission is not None:
            return _receive_tenanted(ref)
        return _receive(ref, self.env, self.tracer.enabled or self.metrics.enabled)

    def _admit_batch(self, batch: list):
        """One pass of the weighted-fair loop: absorb ``batch`` plus the
        mailbox backlog (no per-message event hop), file I/O requests
        per tenant, then serve what :class:`TenantAdmission` picks — or
        nap until the earliest bucket refill on a ``sleep`` verdict."""
        adm = self.admission
        batch.extend(self.mailbox.drain())
        for msg in batch:
            ready = yield from self._intake(msg)
            if ready is not None:
                adm.enqueue(ready)
        verdict = adm.next()
        if verdict is None:
            return
        if verdict[0] == "sleep":
            yield self.env.timeout(verdict[1])
            return
        _, msg, queue_wait = verdict
        req: IORequest = msg.payload
        if self.faults.enabled and self.faults.server_down(self.index):
            # the daemon crashed while this request sat in its tenant
            # queue: discarded like an arrival would be
            self.faults.crash_drop(self.actor, req)
            return
        yield from self.scheduler.submit(self, req, queue_wait)


# The receive loops park on the mailbox holding nothing but the weak
# ``ref`` (docs/architecture.md §5, "Ownership").
def _receive(ref, env, observed: bool):
    """FIFO admission: every message straight to the scheduler."""
    while True:
        msg = yield ref().mailbox.get()
        server = ref()
        ready = yield from server._intake(msg)
        if ready is not None:
            queue_wait = env.now - ready.t_enqueued if observed else 0.0
            # the scheduler turns a failing request into an error
            # response, never a dead daemon
            yield from server.scheduler.submit(server, ready.payload, queue_wait)
        del msg, server, ready


def _receive_tenanted(ref):
    """Weighted-fair admission (:meth:`IOServer._admit_batch`)."""
    while True:
        batch = [(yield ref().mailbox.get())] if not ref().backlog() else []
        yield from ref()._admit_batch(batch)
        del batch
