"""Staged server request pipeline.

Every I/O request moves through four explicit stages:

``decode`` → ``plan`` → ``storage`` → ``respond``

* **decode** — parse/validate the request and charge the per-operation
  dispatch cost (``fs_op_server_cost``);
* **plan** — build the access structures: intersect shipped regions
  with local strips, or expand a shipped dataloop window with partial
  processing (§3.2); produces a :class:`~repro.pvfs.jobs.ServerPlan`;
* **storage** — move bytes against the local :class:`BlockStore` and
  charge disk positioning + transfer time;
* **respond** — hand the reply to the socket layer.

Each request kind (contiguous/POSIX and list I/O share one, datatype
I/O, collective) has a :class:`RequestHandler` singleton; a daemon's
:func:`handler_table` maps op kinds to them, with the PVFS2-style
``direct_dataloop`` streaming variant chosen once per daemon.

One :class:`Scheduler` skeleton runs every request's lifecycle —
admission bookkeeping and the ``server.request`` span, the daemon's
error containment, decode → plan → busy period → data movement →
``finish`` → respond, then retirement and the request histogram — and
each stage charge is booked (StageTimes, stage histogram, span) by one
:class:`StageBook` method, shared with the eager pre-plan of parked
collective rounds.  Two policies plug into it:

* :class:`SerialScheduler` (``server_threads=1``, the default) is the
  paper's single-threaded iod: stages of one request run back-to-back
  inside the daemon loop, plan + storage charge one combined busy
  period, and read-side CPU work stalls the transmit pump — bit-for-bit
  the seed's timing (§4.3's read decline depends on it);
* :class:`ThreadedScheduler` (``server_threads=N``) models a modern
  multi-threaded daemon: a dispatcher admits requests into a bounded
  queue (rejecting with backpressure when full; clients back off and
  resend), up to N workers run plan/storage stages of distinct requests
  concurrently, the single disk arm still serializes media time, and
  responses are pumped by a dedicated network thread (no tx stall).

Serial is *not* threaded with one thread — one combined busy timeout
and two differ in the last ulp, the worker hop adds events, a bounded
queue rejects — so the policies stay two (docs/architecture.md §5.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import TYPE_CHECKING

from ..regions import Regions
from ..simulation.resources import Resource
from .errors import ProtocolError
from .jobs import ServerPlan
from .protocol import (
    OP_COLL,
    OP_CONTIG,
    OP_DTYPE,
    OP_LIST,
    CollAck,
    CollSegment,
    DataloopWindow,
    IORequest,
    IOResponse,
)

if TYPE_CHECKING:  # pragma: no cover
    from .server import IOServer

__all__ = [
    "RequestHandler",
    "ShippedRegionsHandler",
    "DatatypeHandler",
    "DirectDataloopHandler",
    "CollectiveHandler",
    "handler_table",
    "preplan_collective",
    "Scheduler",
    "SerialScheduler",
    "ThreadedScheduler",
    "TenantAdmission",
    "make_scheduler",
]


# ----------------------------------------------------------------------
# request handlers
# ----------------------------------------------------------------------
class RequestHandler:
    """One request kind's decode and plan stages.

    Handlers are stateless singletons (:func:`handler_table`);
    per-request state lives in the request and the
    :class:`~repro.pvfs.jobs.ServerPlan` they return.
    """

    #: optional post-storage hook, a generator
    #: ``finish(server, req, plan, resp, span)`` returning the response
    #: to send; ``None`` sends the storage stage's response as it is
    finish = None

    # -- decode --------------------------------------------------------
    def decode(self, server: "IOServer", req: IORequest) -> float:
        """Validate the request; return the parse/dispatch CPU cost."""
        req.validate()
        return server.costs.fs_op_server_cost * req.op_count

    # -- plan ----------------------------------------------------------
    def plan(self, server: "IOServer", req: IORequest) -> ServerPlan:
        """Build the access list and account its construction cost."""
        raise NotImplementedError


class ShippedRegionsHandler(RequestHandler):
    """POSIX-style contiguous operations (possibly sim-batched runs) and
    list I/O's bounded offset–length lists (§2.4): the request already
    carries this server's physical regions (the client did the striping
    split)."""

    def plan(self, server: "IOServer", req: IORequest) -> ServerPlan:
        costs = server.costs
        regions = req.regions
        built = regions.count
        per_region = (
            costs.server_region_write_cost
            if req.is_write
            else costs.server_region_read_cost
        )
        return ServerPlan(
            regions=regions, built=built, proc_cost=built * per_region
        )


class DatatypeHandler(RequestHandler):
    """Datatype I/O: expand the shipped dataloop window locally (§3.2).

    Uses partial processing: the window is expanded in bounded batches,
    each immediately intersected with the local strips, so intermediate
    offset–length storage never exceeds the batch bound.  When the
    server runs an expansion cache (``expand_cache=True``), the cache is
    consulted first: a hit replaces the per-region scan charge for the
    cached portion with a flat ``server_cache_hit_cost``.
    """

    def plan(self, server: "IOServer", req: IORequest) -> ServerPlan:
        costs = server.costs
        dist = server.by_handle[req.handle].dist
        split, scanned, hit = server.expand(req.window, dist)
        regions = split.regions
        built = regions.count
        # exclusive attribution: construction cost goes to the plan
        # stage, the flat hit charge to the cache stage — never both
        return ServerPlan(
            regions=regions,
            built=built,
            scanned=scanned,
            proc_cost=self._proc_cost(costs, req, built, scanned),
            cache_cost=costs.server_cache_hit_cost if hit else 0.0,
            cache_hit=hit,
        )

    def _proc_cost(self, costs, req, built: int, scanned: int) -> float:
        per_region = (
            costs.server_region_write_cost
            if req.is_write
            else costs.server_region_read_cost
        )
        return scanned * costs.server_region_scan_cost + built * per_region


class DirectDataloopHandler(DatatypeHandler):
    """PVFS2-style streaming variant (§5): data moves straight from the
    dataloop cursor, so only the scan arithmetic is charged — no
    job/access list construction cost."""

    def _proc_cost(self, costs, req, built: int, scanned: int) -> float:
        return scanned * costs.server_region_scan_cost


class CollectiveHandler(RequestHandler):
    """Collective datatype I/O: one aggregated request per (server,
    round) carrying the deduplicated views and every participating
    rank's round window.

    The server re-expands each participant's dataloop over its round
    window — through the expansion cache, so FLASH-style identical
    views collapse to one expansion plus cheap hits — and *coalesces*
    the union into one merged extent list: the job/access structures
    (and the disk arm's sweep) are built per merged extent, while data
    still moves per rank so each participant's bytes stay in its own
    packed-stream order.  Write payloads arrive out-of-band as
    :class:`~repro.pvfs.protocol.CollSegment` messages (the server
    parks the request until the round's segments are in); read results
    are scattered back to the ranks by :meth:`finish`.
    """

    def decode(self, server: "IOServer", req: IORequest) -> float:
        if req.preplanned is not None:
            # decode was already charged when the parked round was
            # pre-planned (preplan_collective)
            return 0.0
        return super().decode(server, req)

    def plan(self, server: "IOServer", req: IORequest) -> ServerPlan:
        pre = req.preplanned
        if pre is not None:
            # the construction work was charged while the round's data
            # was still arriving; only payload assembly remains.  The
            # clone keeps the real built/scanned counters (recorded
            # once, here) but zero CPU cost.
            req.preplanned = None
            plan = replace(
                pre, proc_cost=0.0, cache_cost=0.0, cache_hit=False
            )
        else:
            plan = self.build_plan(server, req)
        if req.is_write:
            req.payload = server.coll.assemble_payload(req.coll)
        return plan

    def build_plan(self, server: "IOServer", req: IORequest) -> ServerPlan:
        """The construction work of the plan stage, payload assembly
        excluded — callable before the round's data has arrived."""
        costs = server.costs
        c = req.coll
        dist = server.by_handle[req.handle].dist
        splits = []
        scanned = 0
        hit = False
        cache_cost = 0.0
        for part in c.parts:
            win = DataloopWindow(
                c.views[part.view], part.displacement, part.first, part.last
            )
            split, n, h = server.expand(win, dist)
            if h:
                hit = True
                cache_cost += costs.server_cache_hit_cost
            splits.append(split)
            scanned += n
        # data order: each rank's regions stay contiguous and in its own
        # stream order (payload/scatter correctness) ...
        regions = Regions.concat([s.regions for s in splits])
        # ... while the job/access structures and the disk arm work on
        # the merged extent list (adjacent ranks' blocks coalesce)
        merged = regions.normalized()
        built = merged.count
        per_region = (
            costs.server_region_write_cost
            if req.is_write
            else costs.server_region_read_cost
        )
        proc = (
            scanned * costs.server_region_scan_cost
            # one vectorized merge pass over the per-rank region union
            + regions.count * costs.server_region_scan_cost
            + built * per_region
        )
        return ServerPlan(
            regions=regions,
            built=built,
            scanned=scanned,
            proc_cost=proc,
            cache_cost=cache_cost,
            cache_hit=hit,
            disk_regions=merged,
        )
    def finish(self, server: "IOServer", req: IORequest, plan, resp, span=None):
        """Post-storage hook: scatter a read's composite stream back to
        the participating ranks (one data segment each) and ack the
        aggregator with a header-only response."""
        c = req.coll
        costs = server.costs
        faults = server.faults
        armed = faults.enabled and faults.armed
        # fan-out messages hang under this request's span
        trace = {}
        if span is not None:
            trace = {"trace_id": req.trace_id, "trace_parent": span}
        t0 = server.env.now
        if req.is_write:
            server.coll.retire(c.coll_id, c.round_no, resp)
            if not armed:
                return resp
            # Per-(round, server) acknowledgements (fault tolerance):
            # each rank's segment is confirmed applied, releasing its
            # ack-ladder entry.
            for part in c.parts:
                ack = CollAck(
                    coll_id=c.coll_id,
                    round_no=c.round_no,
                    server=server.index,
                    client=part.client,
                    **trace,
                )
                yield from server.reply(
                    part.reply_to, ack.wire_bytes(costs), ack
                )
            scattered = 0
        else:
            stream = resp.payload
            off = 0
            for part in c.parts:
                payload = None
                if stream is not None:
                    payload = stream[off : off + part.nbytes]
                off += part.nbytes
                seg = CollSegment(
                    coll_id=c.coll_id,
                    round_no=c.round_no,
                    server=server.index,
                    client=part.client,
                    nbytes=part.nbytes,
                    payload=payload,
                    **trace,
                )
                if armed:
                    # retain for CollFetch service (a dropped delivery
                    # is re-sent from memory, not re-expanded)
                    server.coll.cache_read_segment(seg)
                yield from server.reply(
                    part.reply_to, seg.wire_bytes(costs), seg, faultable=armed
                )
            scattered = resp.nbytes
            resp = IOResponse(req.req_id, nbytes=0, accesses_built=plan.built)
        # The ack fan-out is accounted exactly like the read scatter —
        # respond stage time plus one server.scatter span — so blame
        # reconciliation stays exact.
        StageBook(server, req, span).respond(
            "server.scatter", t0, scattered, parts=len(c.parts)
        )
        metrics = server.metrics
        if metrics.enabled and not req.is_write:
            metrics.tenant_bytes(req.tenant, scattered)
        return resp


_SHIPPED = ShippedRegionsHandler()
_DATATYPE = DatatypeHandler()
_DIRECT = DirectDataloopHandler()
_COLLECTIVE = CollectiveHandler()


def handler_table(config) -> dict[str, RequestHandler]:
    """One daemon's op kind → handler table; the datatype variant is
    chosen here, once (``direct_dataloop`` streams from the loop)."""
    return {
        OP_CONTIG: _SHIPPED,
        OP_LIST: _SHIPPED,
        OP_DTYPE: _DIRECT if config.direct_dataloop else _DATATYPE,
        OP_COLL: _COLLECTIVE,
    }


# ----------------------------------------------------------------------
# stage bodies and their booking
# ----------------------------------------------------------------------
_NO_ATTRS: dict = {}  # shared, never mutated


class StageBook:
    """Where one request's stage charges are booked, once each.

    Every charge lands in three ledgers at the same site: the server's
    :class:`StageTimes`, the stage histogram and — for a traced request
    — a span.  ``parent`` is what those spans hang under: the request's
    ``server.request`` span, or the aggregator's rpc span id for the
    pre-planned stages of a parked collective round (which also tag
    every span through ``attrs``: ``{"preplanned": True}``).
    """

    __slots__ = ("server", "req", "parent", "attrs", "traced", "metrics")

    def __init__(self, server: "IOServer", req: IORequest, parent, attrs=None):
        self.server = server
        self.req = req
        self.parent = parent
        self.attrs = attrs if attrs is not None else _NO_ATTRS
        self.traced = server.tracer.enabled and req.trace_id >= 0
        self.metrics = server.metrics if server.metrics.enabled else None

    def span(self, name: str, start: float, end: float, **attrs) -> None:
        """Record one closed span (callers test ``traced`` first)."""
        server = self.server
        if self.attrs:
            attrs.update(self.attrs)
        server.tracer.add(
            name,
            "server",
            server.actor,
            start,
            end,
            trace_id=self.req.trace_id,
            parent=self.parent,
            **attrs,
        )

    def decode(self, t0: float) -> None:
        """Book the decode stage's parse/dispatch charge, begun at
        ``t0`` and just finished."""
        now = self.server.env.now
        self.server.stage_times.decode += now - t0
        if self.metrics is not None:
            self.metrics.observe_stage("decode", now - t0)
        if self.traced:
            self.span("server.decode", t0, now)

    def plan(self, plan: ServerPlan, t1: float) -> None:
        """Book a plan's construction and cache-hit charges, laid end
        to end from ``t1`` in charge order.

        The stages end at ``(t1 + proc_cost) + cache_cost``, associated
        exactly so — ``t1 + (proc_cost + cache_cost)`` differs in the
        last ulp.  Laying them out this way is what lets per-stage span
        sums reconcile exactly with :class:`StageTimes` even under the
        serial scheduler's single combined timeout.
        """
        st = self.server.stage_times
        st.plan += plan.proc_cost
        st.cache += plan.cache_cost
        if self.metrics is not None:
            self.metrics.observe_stage("plan", plan.proc_cost)
            self.metrics.observe_stage("cache", plan.cache_cost)
        if not self.traced:
            return
        t2 = t1 + plan.proc_cost
        loop = {}
        if self.req.window is not None:
            loop["dataloop"] = self.req.window.loop.fingerprint().hex()
        self.span(
            "server.plan", t1, t2, built=plan.built, scanned=plan.scanned, **loop
        )
        if plan.cache_cost > 0 or plan.cache_hit:
            self.span("server.cache", t2, t2 + plan.cache_cost, hit=plan.cache_hit)

    def plan_stage(self, plan: ServerPlan):
        """Plan stage as its own busy period: one CPU timeout for the
        construction + cache-hit charges, then their booking."""
        env = self.server.env
        t1 = env.now
        cpu = plan.proc_cost + plan.cache_cost
        if cpu > 0:
            yield env.timeout(cpu)
        self.plan(plan, t1)

    def disk_time(self, plan: ServerPlan, t_start: float) -> float:
        """Media seconds of a plan's storage stage starting at
        ``t_start``.  An injected slowdown/stall folds into the
        effective media time, so StageTimes, the storage histogram and
        the storage span all agree without special-casing."""
        server = self.server
        seconds = server.disk.access_time(
            plan.regions if plan.disk_regions is None else plan.disk_regions
        )
        faults = server.faults
        if faults.enabled and seconds > 0:
            seconds += faults.disk_penalty(
                server.actor,
                seconds,
                t_start=t_start,
                trace_id=self.req.trace_id,
                parent=self.parent,
            )
        return seconds

    def storage(self, plan: ServerPlan, t3: float, seconds: float) -> None:
        """Book the storage stage's media time, served from ``t3``."""
        self.server.stage_times.storage += seconds
        if self.metrics is not None:
            self.metrics.observe_stage("storage", seconds)
        if self.traced:
            self.span(
                "server.storage",
                t3,
                t3 + seconds,
                nbytes=plan.regions.total_bytes,
                regions=plan.regions.count,
            )

    def respond(self, name: str, t0: float, nbytes: int, **attrs) -> None:
        """Book respond-stage time spent since ``t0`` under span
        ``name`` (the reply handoff, or a collective's fan-out)."""
        now = self.server.env.now
        self.server.stage_times.respond += now - t0
        if self.metrics is not None:
            self.metrics.observe_stage("respond", now - t0)
        if self.traced:
            self.span(name, t0, now, nbytes=nbytes, **attrs)


def preplan_collective(server: "IOServer", req: IORequest):
    """Decode + plan a parked collective write round eagerly.

    The aggregated request travels ahead of the round's data segments,
    so the daemon can do the expensive construction work (window
    re-expansion, striping split, extent merge) during wire time it
    would otherwise spend idle waiting for data.  When the last
    segment lands, only payload assembly, disk and respond remain —
    the post-reception tail of the collective shrinks from a full
    plan+storage period to (nearly) the disk time alone.

    Charges and stage accounting are identical to the deferred path;
    they just happen earlier.  ``record_plan`` is *not* called here —
    the submit-time pass records the built/scanned counters exactly
    once via the cached plan.  Spans, too, are recorded here rather
    than at submit time (where the stages are zero-width): they parent
    directly under the aggregator's rpc span, as siblings of the later
    ``server.request``.
    """
    if req.preplanned is not None:
        # an earlier delivery of the same round got here first, while
        # this one waited for a thread
        return
    env = server.env
    book = StageBook(server, req, req.trace_parent, {"preplanned": True})
    t0 = env.now
    yield env.timeout(_COLLECTIVE.decode(server, req))
    book.decode(t0)
    plan = _COLLECTIVE.build_plan(server, req)
    yield from book.plan_stage(plan)
    req.preplanned = plan


def move_data(server: "IOServer", req: IORequest, plan: ServerPlan):
    """The storage stage's data movement (no simulated time here; the
    scheduler charges the disk time).  Returns the response."""
    regions = plan.regions
    nbytes = regions.total_bytes
    if req.is_write:
        if req.payload is not None:
            server.store.write_regions(req.handle, regions, req.payload)
        else:
            server.store.note_write(req.handle, regions)
        server.bytes_written += nbytes
        return IOResponse(
            req.req_id, nbytes=nbytes, accesses_built=plan.built
        )
    if req.phantom:
        server.store.note_read(regions)
        data = None
    else:
        data = server.store.read_regions(req.handle, regions)
    server.bytes_read += nbytes
    return IOResponse(
        req.req_id, payload=data, nbytes=nbytes, accesses_built=plan.built
    )


def send_error(server: "IOServer", req: IORequest, exc: Exception):
    """Report a failed request back to the client (daemon survives)."""
    resp = IOResponse(req.req_id, error=f"{type(exc).__name__}: {exc}")
    resp.trace_id = req.trace_id
    resp.trace_parent = req.trace_parent
    yield from server.reply(
        req.reply_to, server.costs.header_bytes, resp
    )


def _respond(book: StageBook, resp: IOResponse):
    """Respond stage: non-blocking handoff to the socket layer; the
    reply drains while the daemon services the next request."""
    server, req = book.server, book.req
    if book.traced:
        # the response's net.xfer span parents under the client's RPC
        # span (the transfer outlives this respond span)
        resp.trace_id = req.trace_id
        resp.trace_parent = req.trace_parent
    t0 = server.env.now
    yield from server.reply(
        req.reply_to, resp.wire_bytes(server.costs, req.is_write), resp
    )
    book.respond("server.respond", t0, 0 if req.is_write else resp.nbytes)
    metrics = server.metrics
    if metrics.enabled:
        metrics.tenant_bytes(req.tenant, resp.nbytes)


# ----------------------------------------------------------------------
# schedulers: one request lifecycle, two policies
# ----------------------------------------------------------------------
class Scheduler:
    """The request lifecycle every daemon runs; subclasses add policy.

    ``submit`` admits (or rejects) a request, opens its
    ``server.request`` span and hands the *lifecycle* to the policy's
    placement: serve the request inside the daemon's error containment
    — a failing request becomes an error response, never a dead daemon
    — then retire it, close the span and observe the end-to-end
    request latency.  Serving is the paper's loop (§3.2): decode →
    plan → busy period → data movement → the handler's ``finish`` hook
    → respond.  ``preplan`` runs a parked collective round's decode +
    plan through the same placement and containment.

    The scheduler belongs to one daemon and holds nothing of it: the
    daemon passes itself (``server``) into every call.  A policy
    (subclass) answers four questions and nothing else:

    * ``_admit(server)`` — admit or reject: the queue length once the
      arriving request is in, or ``None`` to turn it away;
    * ``pending()`` — what a queue-depth sample adds to the backlog;
    * ``_place(server, req, work, kind, span, queue_wait)`` — where ``work``'s
      :meth:`_lifecycle` runs (inline in the daemon loop, or as a
      process of its own behind a pool thread); returns what the
      daemon loop waits on;
    * ``_busy(book, plan)`` — how plan, cache and storage time lie on
      the clock (booked through the request's :class:`StageBook`).
    """

    #: the policy's slot pools (threads, disk arm): none when serial
    pools: tuple = ()

    def __init__(self, server: "IOServer"):
        self.env = server.env
        #: op kind → the daemon's handler for it
        self.handlers = handler_table(server.config)
        #: requests admitted and not yet retired
        self.inflight = 0

    def submit(self, server: "IOServer", req: IORequest, queue_wait=0.0):
        """Admit ``req`` (or reject it) now; returns what the daemon
        loop waits on — ``yield from`` it."""
        st = server.stage_times
        queued = self._admit(server)
        if queued is None:
            st.rejected += 1
            return self._reject(server, req)
        self.inflight += 1
        if queued > st.peak_queue:
            st.peak_queue = queued
        metrics = server.metrics
        if metrics.enabled:
            metrics.observe_queue_wait(queue_wait)
            metrics.tenant_queue_wait(req.tenant, queue_wait)
        span = None
        if server.tracer.enabled and req.trace_id >= 0:
            attrs = {}
            if server.config.tenants is not None:
                attrs["tenant"] = req.tenant
            span = server.tracer.begin(
                "server.request",
                "server",
                server.actor,
                trace_id=req.trace_id,
                parent=req.trace_parent,
                op_kind=req.op_kind,
                is_write=req.is_write,
                op_count=req.op_count,
                queue_wait=queue_wait,
                **attrs,
            )
        work = self._serve(server, req, span)
        return self._place(server, req, work, "req", span, queue_wait)

    def preplan(self, server: "IOServer", req: IORequest):
        """Decode + plan a just-parked collective write round now: the
        control request outruns the round's data, and this is daemon
        CPU exactly like any other stage (:func:`preplan_collective`)."""
        # an idempotent resend (or a duplicated delivery) of a
        # still-parked round finds the plan already computed and
        # charged — re-planning would double-bill the daemon CPU
        if req.preplanned is not None:
            return ()
        work = preplan_collective(server, req)
        return self._place(server, req, work, "preplan")

    def _reject(self, server: "IOServer", req: IORequest):
        """Admission control: explicit rejection, client will retry."""
        resp = IOResponse(req.req_id, rejected=True)
        book = StageBook(server, req, req.trace_parent)
        if book.traced:
            resp.trace_id = req.trace_id
            resp.trace_parent = req.trace_parent
            now = server.env.now
            book.span("server.reject", now, now, inflight=self.inflight)
        yield from server.reply(
            req.reply_to,
            server.costs.header_bytes,
            resp,
            faultable=False,
        )

    def _lifecycle(self, server, req: IORequest, work, span=None, queue_wait=None):
        """Run ``work`` on ``req``'s behalf inside the daemon's error
        containment: whatever it raises is reported to ``req``'s sender,
        and a collective write round it leaves behind is abandoned
        rather than parked forever.  An admitted request (``queue_wait``
        given) is retired afterwards — in-flight count, span, end-to-end
        histogram; a pre-plan has nothing to retire."""
        t_start = self.env.now
        try:
            yield from work
        except Exception as exc:  # noqa: BLE001 - daemon must survive
            if span is not None:
                server.tracer.attrs(span)["error"] = f"{type(exc).__name__}: {exc}"
            if req.op_kind == OP_COLL and req.is_write:
                server.coll.abandon(req.coll)
            yield from send_error(server, req, exc)
        finally:
            if queue_wait is not None:
                self.inflight -= 1
                if span is not None:
                    server.tracer.end(span)
                metrics = server.metrics
                if metrics.enabled:
                    # end-to-end: mailbox wait + everything through
                    # respond
                    total = queue_wait + self.env.now - t_start
                    metrics.observe_request(total)
                    metrics.tenant_request(req.tenant, total)

    def _serve(self, server: "IOServer", req: IORequest, span=None):
        handler = self.handlers.get(req.op_kind)
        if handler is None:
            raise ProtocolError(
                f"no handler registered for op kind {req.op_kind!r}"
            )
        server.ops += req.op_count
        server.stage_times.requests += 1
        book = StageBook(server, req, span)
        t0 = self.env.now
        yield self.env.timeout(handler.decode(server, req))
        book.decode(t0)
        plan = handler.plan(server, req)
        server.record_plan(plan)
        yield from self._busy(book, plan)
        resp = move_data(server, req, plan)
        if handler.finish is not None:
            resp = yield from handler.finish(server, req, plan, resp, span)
        yield from _respond(book, resp)


class SerialScheduler(Scheduler):
    """The paper's single-threaded iod, expressed over the pipeline.

    Stage charging is bit-for-bit the seed implementation: one decode
    timeout, then plan + storage as a single combined busy period during
    which (for reads) the node's transmit horizon is pushed out — the
    stalled socket pump behind the §4.3 read decline.
    """

    def _admit(self, server):
        # the mailbox is the queue and it is unbounded: never reject
        return server.backlog() + 1  # waiting + the one in hand

    def pending(self):
        # the request in hand *is* the daemon loop, not a queued one
        return 0

    def _place(self, server, req, work, kind, span=None, queue_wait=None):
        # inline: the daemon loop, the only thread, runs it itself
        return self._lifecycle(server, req, work, span, queue_wait)

    def _busy(self, book, plan):
        t1 = self.env.now
        # storage starts where StageBook.plan ends the CPU charges:
        # (t1 + proc) + cache, the same association
        t3 = t1 + plan.proc_cost + plan.cache_cost
        seconds = book.disk_time(plan, t3)
        busy = plan.proc_cost + plan.cache_cost + seconds
        if busy > 0:
            if not book.req.is_write:
                # The iod is single-threaded: while its CPU builds
                # access lists (or blocks in read syscalls) it is not
                # pumping earlier responses out of the socket buffers.
                # Reads therefore stall the transmit pump — the effect
                # behind the 3-D block read decline (§4.3).  Writes are
                # sink-side; TCP buffering hides the processing.
                node = book.server.node
                node.tx_busy_until = max(node.tx_busy_until, self.env.now) + busy
            yield self.env.timeout(busy)
        book.plan(plan, t1)
        book.storage(plan, t3, seconds)


class ThreadedScheduler(Scheduler):
    """Multi-threaded iod with a bounded admission queue.

    The dispatcher (the daemon's receive loop) either admits a request —
    spawning a worker that queues on the thread pool — or, when
    ``server_queue_depth`` requests are already in the building, rejects
    it immediately so the client backs off and resends.  Workers overlap
    plan/storage stages of distinct requests; one disk arm per server
    still serializes media time; responses never stall on request CPU
    (a dedicated network thread pumps the sockets).
    """

    def __init__(self, server: "IOServer"):
        super().__init__(server)
        cfg = server.config
        self.queue_depth = cfg.server_queue_depth
        self.threads = Resource(
            self.env, capacity=cfg.server_threads, name=f"iod{server.index}.cpu"
        )
        self.disk_arm = Resource(
            self.env, capacity=1, name=f"iod{server.index}.disk"
        )
        self.pools = (self.threads, self.disk_arm)

    def _admit(self, server):
        if self.inflight >= self.queue_depth:
            return None
        return self.inflight + 1

    def pending(self):
        return self.inflight

    def _place(self, server, req, work, kind, span=None, queue_wait=None):
        # a process of its own, so the dispatcher keeps draining the
        # mailbox; the work itself queues for a pool thread
        self.env.process(
            self._lifecycle(
                server, req, self._on_thread(server, work, span), span, queue_wait
            ),
            name=f"iod{server.index}.{kind}{req.req_id}",
        )
        return ()

    def _on_thread(self, server, work, span=None):
        t0 = self.env.now
        yield self.threads.request()
        if span is not None:
            # admission-to-thread wait under the bounded pool
            server.tracer.attrs(span)["thread_wait"] = self.env.now - t0
        try:
            yield from work
        finally:
            self.threads.release()

    def _busy(self, book, plan):
        # plan: concurrent across requests, up to N threads
        yield from book.plan_stage(plan)
        # storage: one disk arm per server
        yield self.disk_arm.request()
        try:
            t3 = self.env.now
            seconds = book.disk_time(plan, t3)
            if seconds > 0:
                yield self.env.timeout(seconds)
        finally:
            self.disk_arm.release()
        book.storage(plan, t3, seconds)


# ----------------------------------------------------------------------
# multi-tenant admission
# ----------------------------------------------------------------------
class TenantAdmission:
    """Weighted-fair admission over per-tenant request queues.

    Classic deficit round-robin (DRR): each tenant owns a FIFO queue
    and a deficit counter.  When the rotation visits a backlogged
    tenant its deficit grows by a quantum proportional to its
    ``TenantConfig.weight``; the head request is admitted while the
    deficit covers its byte cost.  During sustained contention tenant
    *i* therefore receives ``weight_i / sum(weights)`` of the admitted
    bytes regardless of request sizes or arrival order.

    Optional per-tenant token buckets (``rate_limit`` bytes/s, depth
    ``burst``) pace admission below the fair share; when every
    backlogged tenant is token-blocked, :meth:`next` returns a
    deterministic ``("sleep", dt)`` verdict — the earliest instant a
    bucket refills — so the daemon parks without busy-waiting.
    Requests costing more than a bucket's depth drain the full bucket
    (the standard cap; otherwise they could never be admitted).

    Starvation accounting: per-tenant admitted counts/bytes and mean/
    max admission waits, exposed via :meth:`report` and the
    ``repro_tenant_*`` metrics.

    The class is pure bookkeeping — it never touches the simulation
    clock itself, so its decisions are exactly reproducible.
    """

    def __init__(self, env, tenants, quantum_bytes: int = 65536):
        self.env = env
        self.tenants = list(tenants)
        n = len(self.tenants)
        max_w = max(t.weight for t in self.tenants)
        #: DRR quantum per tenant, scaled so the heaviest tenant gains
        #: ``quantum_bytes`` per rotation.
        self.quantum = [
            quantum_bytes * t.weight / max_w for t in self.tenants
        ]
        self.queues: list[deque] = [deque() for _ in range(n)]
        self.deficit = [0.0] * n
        self.queued = 0  #: total requests waiting across all queues
        self._rr = 0  #: next tenant in the rotation
        self._serving: int | None = None  #: tenant mid-quantum, if any
        # token buckets (full at t=0)
        self.tokens = [t.burst for t in self.tenants]
        self._t_refill = env.now
        # starvation accounting
        self.admitted = [0] * n
        self.admitted_bytes = [0] * n
        self.total_wait = [0.0] * n
        self.max_wait = [0.0] * n

    # ------------------------------------------------------------------
    @staticmethod
    def _cost(req: IORequest) -> int:
        """Admission cost in bytes (descriptor-level knowledge only)."""
        if req.is_write or req.op_kind == OP_COLL:
            # collective reads also declare their round bytes up front
            nb = req.payload_nbytes
        elif req.regions is not None:
            nb = req.regions.total_bytes
        elif req.window is not None:
            nb = req.window.stream_bytes
        else:
            nb = 0
        return max(int(nb), 1)

    def enqueue(self, msg) -> None:
        """File an arriving request message under its tenant."""
        i = msg.payload.tenant
        if not (0 <= i < len(self.queues)):
            i = 0  # unknown tenant ids fall into the default queue
        self.queues[i].append(msg)
        self.queued += 1

    def _refill(self) -> None:
        now = self.env.now
        dt = now - self._t_refill
        if dt > 0:
            for i, t in enumerate(self.tenants):
                if t.rate_limit is not None:
                    self.tokens[i] = min(
                        t.burst, self.tokens[i] + t.rate_limit * dt
                    )
            self._t_refill = now

    def next(self):
        """The next admission decision.

        Returns ``("admit", msg, wait_s)`` for the request to serve,
        ``("sleep", dt)`` when every backlogged tenant is token-blocked
        (retry in ``dt`` simulated seconds), or ``None`` when idle.
        """
        if not self.queued:
            return None
        self._refill()
        n = len(self.queues)
        blocked: list[float] = []
        visits = 0
        deficit_growing = False
        while True:
            if self._serving is None:
                if visits >= n:
                    # one full rotation with no admission
                    if not deficit_growing:
                        dt = min(blocked) if blocked else 1e-3
                        return ("sleep", max(dt, 1e-9))
                    visits = 0
                    blocked = []
                    deficit_growing = False
                i = self._rr
                self._rr = (i + 1) % n
                visits += 1
                if not self.queues[i]:
                    self.deficit[i] = 0.0  # idle tenants bank nothing
                    continue
                self.deficit[i] += self.quantum[i]
                self._serving = i
            i = self._serving
            q = self.queues[i]
            if not q:
                self.deficit[i] = 0.0
                self._serving = None
                continue
            msg = q[0]
            cost = self._cost(msg.payload)
            if self.deficit[i] < cost:
                # quantum exhausted: the next rotation grows it
                deficit_growing = True
                self._serving = None
                continue
            t = self.tenants[i]
            if t.rate_limit is not None:
                charge = min(cost, t.burst)
                if self.tokens[i] < charge:
                    blocked.append((charge - self.tokens[i]) / t.rate_limit)
                    self._serving = None
                    continue
                self.tokens[i] -= charge
            q.popleft()
            self.queued -= 1
            self.deficit[i] -= cost
            wait = self.env.now - msg.t_enqueued
            self.admitted[i] += 1
            self.admitted_bytes[i] += cost
            self.total_wait[i] += wait
            if wait > self.max_wait[i]:
                self.max_wait[i] = wait
            return ("admit", msg, wait)

    # ------------------------------------------------------------------
    def report(self) -> list[dict]:
        """Per-tenant admission/starvation summary."""
        out = []
        for i, t in enumerate(self.tenants):
            a = self.admitted[i]
            out.append(
                {
                    "tenant": t.name,
                    "weight": t.weight,
                    "admitted": a,
                    "admitted_bytes": self.admitted_bytes[i],
                    "mean_wait_s": self.total_wait[i] / a if a else 0.0,
                    "max_wait_s": self.max_wait[i],
                    "queued": len(self.queues[i]),
                }
            )
        return out


def make_scheduler(server: "IOServer"):
    """Pick the scheduler for the configured concurrency level."""
    if server.config.server_threads == 1:
        return SerialScheduler(server)
    return ThreadedScheduler(server)
