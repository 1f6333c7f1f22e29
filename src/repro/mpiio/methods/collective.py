"""Collective datatype I/O — the sixth access method.

The fusion the paper's related work points at (Thakur's two-phase
optimizations + datatype I/O): a collective where *aggregator* ranks
merge the per-rank datatype views of the communicator into one
composite request per server, instead of every rank sending every
server its own.

Protocol, per collective call:

1. every rank expands its own file view once (client side, exactly the
   independent datatype path) and cuts its packed stream into pipelined
   *rounds* (``Hints.coll_round_bytes`` plus a small final drain round,
   ``Hints.coll_drain_bytes``);
2. writes: each rank ships one :class:`CollSegment` per (server,
   round) — data goes *directly* rank → server, never through an
   aggregator's NIC;
3. an allgather shares each rank's (dataloop fingerprint, view window,
   per-round byte matrix); identical views dedup by fingerprint — the
   FLASH many-identical-views case collapses to one view + rank list;
4. aggregators (``Hints.cb_nodes``, default all ranks) ship ONE
   aggregated ``OP_COLL`` request per owned (server, round):
   O(servers·rounds) control messages per collective, constant in the
   rank count, vs the independent path's O(ranks·servers);
5. servers re-expand each participant's round window themselves
   (through the expansion cache, so deduped views are expanded once),
   coalesce the union for the access structures and the disk arm, park
   write rounds until the round's segments arrive, and scatter read
   rounds straight back to the ranks as segments;
6. a closing barrier gives MPI collective semantics (writes are on the
   servers when any rank returns).

Memory side: unlike the independent methods, the packed stream is
produced by the PR-7 vectorized dataloop walk directly — the redundant
ROMIO-style flatten-to-offset/length-lists pass (``charge_flatten``) is
skipped, which is most of the win on FLASH-like noncontiguous memory.

Fault tolerance (armed fault configs only; the fault-free path is
bit-identical with and without this machinery):

* every write segment is acknowledged per (round, server)
  (:class:`~repro.pvfs.protocol.CollAck`) and resent idempotently on an
  RTO ladder; servers dedup replayed rounds by (coll id, round) and
  re-ack from the done-ring;
* lost read scatter segments are re-fetched
  (:class:`~repro.pvfs.protocol.CollFetch`) from the server's retained
  scatter buffer;
* an aggregator whose server times out past
  ``FaultConfig.coll_reelect_after`` hands its rounds to the next
  surviving aggregator slot (deterministic ring election through the
  shared :class:`~repro.pvfs.collective.CollRecovery` state);
  :class:`~repro.pvfs.errors.RetriesExhausted` surfaces only when every
  candidate is dead and the ladder is spent.

The recovery engine is :class:`repro.pvfs.collective.CollEngine`, run by
``PVFSClient.coll_complete`` over the same mailbox wait, RTO ladder and
response settle as the independent path; the closing barrier is
preceded by a completion gate so no aggregator leaves while re-elected
work is outstanding anywhere.
"""

from __future__ import annotations

import numpy as np

from ...dataloops import wire_size
from ...pvfs.collective import CollRecovery
from ...pvfs.distribution import ServerSplit
from ...pvfs.jobs import split_ops
from ...pvfs.protocol import OP_COLL, CollOp, CollPart, CollSegment, IORequest
from ..adio import AccessMethod, register_method
from .dtype import dtype_read, dtype_write

__all__ = ["collective_read", "collective_write", "round_cuts"]

_COLL_KEY = "colldt"

#: allgather record indices (plain tuple to keep the wire model honest)
_FP, _LOOP, _DISP, _FIRST, _NBYTES, _NAME, _MBOX, _TENANT, _MAT = range(9)


def round_cuts(total: int, round_bytes: int, drain_bytes: int) -> list[int]:
    """Cut positions of a rank's packed stream into pipelined rounds.

    Full rounds of ``round_bytes``, then a geometric *drain cascade*
    at the end: round sizes halve per step from ``round_bytes`` down
    to ``drain_bytes``.  Each cascade round's server-side disk work
    hides under the reception of the round before it (disk is several
    times faster than a server's share of the incoming wire), so the
    service tail left after the last byte lands is a drain-sized
    round, not a full one.  The cascade is deliberately deeper than
    the disk ratio alone requires: ranks drift out of lockstep by up
    to a round (the send window), and a long cascade keeps even a
    straggler's large rounds well clear of the wire's close.  A
    single partial round (if any) leads the stream rather than
    trailing it.

    >>> round_cuts(10, 4, 1)
    [0, 3, 7, 9, 10]
    >>> round_cuts(3, 4, 1)
    [0, 2, 3]
    >>> round_cuts(1, 4, 1)
    [0, 1]
    >>> round_cuts(0, 4, 1)
    [0]
    """
    if total <= 0:
        return [0]
    sizes_rev = []  # round sizes, last round first
    size = drain_bytes
    rem = total
    while rem > 0 and size < round_bytes:
        sizes_rev.append(min(size, rem))
        rem -= sizes_rev[-1]
        size *= 2
    while rem > 0:
        sizes_rev.append(min(round_bytes, rem))
        rem -= sizes_rev[-1]
    cuts = [0]
    for size in reversed(sizes_rev):
        cuts.append(cuts[-1] + size)
    return cuts


def _collective_op(op):
    ctx = op.ctx
    comm = ctx.comm
    if ctx.size == 1:
        # degenerate communicator: bit-identical to independent
        # datatype I/O (nothing to aggregate)
        if op.is_write:
            yield from dtype_write(op)
        else:
            yield from dtype_read(op)
        return

    fs = op.fs
    env = op.env
    costs = op.costs
    fh = op.fh
    dist = fh.dist
    hints = op.hints
    loop = op.view.loop
    disp = op.view.displacement
    first, last = op.first, op.last
    nbytes = op.nbytes
    tracer = fs.tracer
    metrics = fs.metrics
    span = None
    if tracer.enabled and op.span is not None:
        span = tracer.begin(
            "mpiio.collective",
            "mpiio",
            f"rank{comm.rank}",
            trace_id=op.span.trace_id,
            parent=op.span,
            nbytes=nbytes,
            ranks=ctx.size,
        )

    fs.counters.io_ops += 1
    stream = None
    if op.is_write:
        # pack straight from the dataloop walk — no redundant ROMIO
        # flatten pass (see module docstring)
        yield op.mem_cost()
        stream = op.pack_mem()

    # own view, expanded once (identical charges to the independent
    # datatype path: conversion + per-region construction)
    yield from fs.charge_convert(loop)
    regions = yield from fs.expand_view(loop, disp, first, last)
    yield env.timeout(costs.fs_op_client_cost)

    # cut the stream into rounds and split it per server once: a
    # round's share of a server is one slice, at absolute stream
    # positions.  The region bookkeeping is covered by the per-region
    # client charge above (same stance as the independent path's job
    # construction)
    cuts = round_cuts(nbytes, hints.coll_round_bytes, hints.coll_drain_bytes)
    R = len(cuts) - 1
    n_servers = dist.n_servers
    mat = np.zeros((R, n_servers), dtype=np.int64)
    rsplits: list[dict] = [{} for _ in range(R)]
    shares, cut = split_ops(regions.split_at_stream(cuts), cuts, dist)
    for (server, share), row in zip(shares, cut.tolist()):
        for r in range(R):
            lo, hi = row[r], row[r + 1]
            if lo < hi:
                sp = ServerSplit(
                    server, share.regions[lo:hi], share.stream_pos[lo:hi]
                )
                rsplits[r][server] = sp
                mat[r, server] = sp.nbytes

    epoch = comm.epoch(_COLL_KEY)
    coll_id = (fh.handle, epoch, op.is_write)

    # ---- control path: gather every rank's (fingerprint, window,
    # round matrix); int32 per-cell byte counts on the wire.  Control
    # runs BEFORE the data segments so the aggregated requests reach
    # the servers ahead of the data: a parked round is planned and
    # written the moment its last segment lands, overlapping server
    # CPU and disk with the reception of later rounds.
    rec = (
        loop.fingerprint(),
        loop,
        disp,
        first,
        nbytes,
        fs.name,
        fs.mailbox,
        fs.tenant,
        mat,
    )
    rec_bytes = wire_size(loop) + 48 + 4 * mat.size
    records = yield from comm.allgather(rec, nbytes=rec_bytes, key=_COLL_KEY)

    # fingerprint dedup: identical views ship once per request
    fp_index: dict[bytes, int] = {}
    view_loops: list = []
    rank_view: list[int] = []
    for r_ in records:
        idx = fp_index.get(r_[_FP])
        if idx is None:
            idx = len(view_loops)
            fp_index[r_[_FP]] = idx
            view_loops.append(r_[_LOOP])
        rank_view.append(idx)
    views = tuple(view_loops)
    views_merged = len(records) - len(views)

    # per-(round, server) totals across ranks (rows padded to max R)
    max_rounds = max((r_[_MAT].shape[0] for r_ in records), default=0)
    totals = np.zeros((max_rounds, n_servers), dtype=np.int64)
    for r_ in records:
        m = r_[_MAT]
        totals[: m.shape[0]] += m
    active = totals > 0
    actual_requests = int(active.sum())
    indep_requests = sum(
        int(((r_[_MAT] > 0).any(axis=0)).sum()) for r_ in records
    )
    requests_saved = indep_requests - actual_requests

    size = ctx.size
    n_agg = min(hints.cb_nodes or size, size)
    agg_ranks = [(i * size) // n_agg for i in range(n_agg)]
    rank_cuts = [
        round_cuts(r_[_NBYTES], hints.coll_round_bytes, hints.coll_drain_bytes)
        for r_ in records
    ]
    my_agg = agg_ranks.index(comm.rank) if comm.rank in agg_ranks else None

    def build_request(server: int, rno: int, views_on_wire=True) -> IORequest:
        # the aggregated descriptor for one (server, round), from the
        # allgathered records — identical on every rank, so a surviving
        # aggregator can rebuild a failed one's rounds.  Unaddressed:
        # the posting client stamps it.
        parts = []
        for i, r_ in enumerate(records):
            m = r_[_MAT]
            if rno >= m.shape[0] or m[rno, server] == 0:
                continue
            c_ = rank_cuts[i]
            parts.append(
                CollPart(
                    client=r_[_NAME],
                    reply_to=r_[_MBOX],
                    view=rank_view[i],
                    displacement=r_[_DISP],
                    first=r_[_FIRST] + c_[rno],
                    last=r_[_FIRST] + c_[rno + 1],
                    nbytes=int(m[rno, server]),
                )
            )
        return IORequest(
            handle=fh.handle,
            is_write=op.is_write,
            op_kind=OP_COLL,
            coll=CollOp(
                coll_id=coll_id,
                round_no=rno,
                rounds=max_rounds,
                views=views,
                parts=tuple(parts),
                views_on_wire=views_on_wire,
            ),
            payload_nbytes=int(totals[rno, server]),
            phantom=op.phantom,
            server=server,
        )

    # ---- failover state (armed fault configs only; pure Python
    # bookkeeping, no simulated time — the fault-free path is
    # bit-identical with ft False)
    faults = fs.faults
    ft = faults.enabled and faults.armed
    rec_state = None
    if ft:
        # a re-elected aggregator rebuilds rounds with the views ON the
        # wire: it never shipped them to that server before
        rec_state = fs.coll_recovery.setdefault(
            coll_id,
            CollRecovery(coll_id, n_agg, tuple(agg_ranks), build_request),
        )
        if my_agg is not None:
            # registered before any request is posted (and hence before
            # any timeout can elect), so a handoff target is always
            # addressable
            rec_state.mailboxes[my_agg] = fs.mailbox

    # ---- aggregator role: one request per owned (server, round); the
    # views ride only on a server's first request
    reqs = []
    if my_agg is not None:
        for s in range(my_agg, n_servers, n_agg):
            for r in range(max_rounds):
                if active[r, s]:
                    first_to_s = not reqs or reqs[-1].server != s
                    reqs.append(fs.stamp(build_request(s, r, first_to_s)))
    # post control first: the aggregated requests travel ahead of the
    # data, so servers plan and write each parked round the moment its
    # last segment lands (overlapped with later rounds' reception)
    posted = None
    if reqs:
        # one client fs-op charge for the whole posting: the aggregated
        # requests are one batched collective operation, not per-round
        # independent calls (servers still pay per-request decode)
        yield env.timeout(costs.fs_op_client_cost)
        posted = yield from fs.coll_post(reqs, span or op.span)

    # ---- data path (writes): stream this rank's segments, round by
    # round, straight to the servers (never through an aggregator NIC).
    # Each rank starts a round at a different server (rotated by rank)
    # so the paced sends spread over all server NICs instead of
    # convoying on server 0.
    sent_segs: dict = {}
    if op.is_write:
        for r in range(R):
            order = sorted(rsplits[r])
            rot = comm.rank % len(order) if order else 0
            for server in order[rot:] + order[:rot]:
                sp = rsplits[r][server]
                payload = None
                if stream is not None:
                    payload = sp.stream_regions().gather(stream)
                seg = CollSegment(
                    coll_id, r, server, fs.name, int(sp.nbytes), payload
                )
                if span is not None:
                    seg.trace_id = span.trace_id
                    seg.trace_parent = span.span_id
                if ft:
                    # ack-ladder bookkeeping: the server acks this
                    # (round, server) to our mailbox once applied
                    seg.reply_to = fs.mailbox
                    sent_segs[(server, r)] = seg
                yield from fs.coll_send_segment(server, seg)
        fs.counters.bytes_written += nbytes

    # reads: the (server, round) segments the servers owe this rank
    expected = None
    if not op.is_write:
        expected = [
            (s, r) for r in range(R) for s in rsplits[r] if mat[r, s] > 0
        ]
    segs: dict = {}
    if ft:
        _, segs = yield from fs.coll_complete(
            rec_state,
            sent_segs=sent_segs or None,
            expect=expected,
            requests=reqs,
            posted=posted,
            my_agg=my_agg,
            span=span or op.span,
        )
    elif posted is not None:
        yield from fs.coll_finish(reqs, posted)

    # ---- data path (reads): collect this rank's segments and scatter
    if not op.is_write:
        if not ft:
            segs = yield from fs.coll_collect(coll_id, expected)
        out = None if op.phantom else np.zeros(nbytes, dtype=np.uint8)
        if out is not None:
            for (s, r), seg in segs.items():
                if seg.payload is None:
                    continue
                rsplits[r][s].stream_regions().scatter(out, seg.payload)
        fs.counters.bytes_read += nbytes
        yield op.mem_cost()
        op.unpack_mem(out)

    if comm.rank == 0 and metrics.enabled:
        # the saved-requests counter is monotone; a small communicator
        # whose round pipeline issues more aggregated requests than the
        # independent path would clamps at zero (the trace span below
        # keeps the signed value)
        metrics.collective(views_merged, max(requests_saved, 0))
    if span is not None:
        tracer.end(
            span,
            rounds=R,
            views_merged=views_merged,
            requests_saved=requests_saved,
        )

    # collective semantics: nobody returns before the data is on the
    # servers (aggregators arrive here only after every round's ack).
    # Under armed faults, aggregators additionally hold at the
    # completion gate until no re-elected work is outstanding anywhere
    # — a rank parked at the barrier stops servicing its mailbox, and
    # a handoff stranded there would deadlock the survivors.
    if ft and my_agg is not None:
        yield from fs.coll_gate(rec_state, my_agg=my_agg, span=span or op.span)
    yield from comm.barrier()
    if ft and comm.rank == 0:
        # every rank is past the gate once the barrier releases; the
        # shared failover state is dead weight after that
        fs.coll_recovery.pop(coll_id, None)


def collective_read(op):
    yield from _collective_op(op)


def collective_write(op):
    yield from _collective_op(op)


register_method(
    AccessMethod(
        "collective_dtype",
        collective_read,
        collective_write,
        collective=True,
        description=(
            "aggregated per-server composite dataloops, O(servers) "
            "requests per collective (docs/methods.md §7)"
        ),
    )
)
