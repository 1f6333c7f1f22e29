"""Collective datatype I/O — the sixth access method.

The fusion the paper's related work points at (Thakur's two-phase
optimizations + datatype I/O): a collective where *aggregator* ranks
merge the per-rank datatype views of the communicator into one
composite request per server, instead of every rank sending every
server its own.

Protocol, per collective call:

1. every rank expands its own file view once (client side, exactly the
   independent datatype path) and cuts its packed stream into pipelined
   *rounds* (``Hints.coll_round_bytes`` plus a cascade down to a small
   final drain round, :func:`round_cuts`);
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
produced by the vectorized dataloop walk directly — the redundant
ROMIO-style flatten-to-offset/length-lists pass (``charge_flatten``) is
skipped, which is most of the win on FLASH-like noncontiguous memory.
A collective is planned once: the first rank past the allgather builds
the :class:`CollPlan` every rank reads.  A rank keeps its round byte
matrix to the end, its expanded view not past that matrix, and its
per-server shares only while its bytes still move (a write's until its
segments are sent, a read's until they are scattered; phantom, never).

Completion: every rank runs its side of the protocol through one
engine, :class:`repro.pvfs.collective.CollEngine`, which this module
builds once the plan is known: it posts the aggregator requests,
streams the data segments, and completes — this rank's aggregator
responses and owed read segments are one set of obligations, each
settled as it arrives, over the same mailbox wait and response settle
as the independent path.  Deadlines exist only under an armed fault
config; unarmed, the engine waits untimed.  Armed, the same engine adds fault tolerance:

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
  candidate is dead and the ladder is spent;
* the closing barrier is preceded by a completion gate so no
  aggregator leaves while re-elected work is outstanding anywhere.

Two sites stay armed-only, because arming them always would change a
fault-free run: write acks (only an armed server sends them) and the
completion gate (only an armed run can re-elect).
"""

from __future__ import annotations

import functools

import numpy as np

from ...dataloops import wire_size
from ...pvfs.collective import CollEngine, CollRecovery
from ...pvfs.jobs import charge_convert, expand_view, split_ops
from ...pvfs.protocol import OP_COLL, CollOp, CollPart, CollSegment, IORequest
from ..adio import AccessMethod, register_method
from .dtype import dtype_read, dtype_write

__all__ = ["CollPlan", "collective_read", "collective_write", "round_cuts"]

_COLL_KEY = "colldt"

#: allgather record indices (plain tuple to keep the wire model honest)
_FP, _LOOP, _DISP, _FIRST, _NBYTES, _NAME, _MBOX, _TENANT, _MAT = range(9)


def round_cuts(total: int, round_bytes: int) -> list[int]:
    """Cut positions of a rank's packed stream into pipelined rounds.

    Full rounds of ``round_bytes``, then a geometric *drain cascade*
    at the end: round sizes halve per step from ``round_bytes`` down
    to the drain target ``max(1, round_bytes >> 5)`` — five halvings,
    64 KiB at the 2 MiB default.  Each cascade round's server-side disk
    work hides under the reception of the round before it (disk is
    several times faster than a server's share of the incoming wire),
    so the service tail left after the last byte lands is a drain-sized
    round, not a full one.  The cascade is deliberately deeper than
    the disk ratio alone requires: ranks drift out of lockstep by up
    to a round (the send window), and a long cascade keeps even a
    straggler's large rounds well clear of the wire's close.  A
    single partial round (if any) leads the stream rather than
    trailing it.

    >>> round_cuts(10, 4)
    [0, 3, 7, 9, 10]
    >>> round_cuts(3, 4)
    [0, 2, 3]
    >>> round_cuts(1, 4)
    [0, 1]
    >>> round_cuts(0, 4)
    [0]
    """
    if round_bytes < 1:
        raise ValueError(f"round_bytes must be positive, got {round_bytes}")
    if total <= 0:
        return [0]
    sizes_rev = []  # round sizes, last round first
    size = max(1, round_bytes >> 5)
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


class CollPlan:
    """What one collective derives from its allgathered records, once.

    The first rank past the allgather builds it on the collective's
    shared :class:`~repro.pvfs.collective.CollRecovery` and every other
    rank reads it there: the deduplicated views, the per-(round,
    server) totals, the aggregator map, the round cuts of each distinct
    rank byte count, and :meth:`build_request`, with which aggregators
    (re-elected ones too) build their composite requests.
    """

    def __init__(self, op, coll_id: tuple, records: list):
        self.coll_id, self.records = coll_id, records
        self.handle, self.is_write = op.fh.handle, op.is_write
        self.phantom = op.phantom
        # fingerprint dedup: identical views ship once per request
        loops = {}
        for r_ in records:
            loops.setdefault(r_[_FP], r_[_LOOP])
        index = {fp: i for i, fp in enumerate(loops)}
        self.rank_view = [index[r_[_FP]] for r_ in records]
        self.views = tuple(loops.values())
        self.views_merged = len(records) - len(self.views)
        # per-(round, server) totals across ranks (rows padded to max R)
        self.rounds = max(r_[_MAT].shape[0] for r_ in records)
        self.totals = np.zeros((self.rounds, op.fh.dist.n_servers), np.int64)
        for r_ in records:
            self.totals[: r_[_MAT].shape[0]] += r_[_MAT]
        self.active = self.totals > 0
        size = len(records)
        self.n_agg = min(op.hints.cb_nodes or size, size)
        #: rank -> its aggregator slot
        self.agg_slot = {(i * size) // self.n_agg: i for i in range(self.n_agg)}
        self.cuts = {
            n: round_cuts(n, op.hints.coll_round_bytes)
            for n in {r_[_NBYTES] for r_ in records}
        }

    @functools.cached_property
    def requests_saved(self) -> int:
        """Requests the independent path would send (every rank to each
        server it touches) minus the aggregated ones; signed."""
        indep = sum(int((r_[_MAT] > 0).any(axis=0).sum()) for r_ in self.records)
        return indep - int(self.active.sum())

    def build_request(self, server: int, rno: int, views_on_wire=True) -> IORequest:
        """The aggregated descriptor for one (server, round).
        Unaddressed: the posting client stamps it."""
        parts = []
        for i, r_ in enumerate(self.records):
            m = r_[_MAT]
            if rno >= m.shape[0] or m[rno, server] == 0:
                continue
            c_ = self.cuts[r_[_NBYTES]]
            parts.append(
                CollPart(
                    client=r_[_NAME],
                    reply_to=r_[_MBOX],
                    view=self.rank_view[i],
                    displacement=r_[_DISP],
                    first=r_[_FIRST] + c_[rno],
                    last=r_[_FIRST] + c_[rno + 1],
                    nbytes=int(m[rno, server]),
                )
            )
        return IORequest(
            handle=self.handle,
            is_write=self.is_write,
            op_kind=OP_COLL,
            coll=CollOp(
                coll_id=self.coll_id,
                round_no=rno,
                rounds=self.rounds,
                views=self.views,
                parts=tuple(parts),
                views_on_wire=views_on_wire,
            ),
            payload_nbytes=int(self.totals[rno, server]),
            phantom=self.phantom,
            server=server,
        )


def _round_shares(regions, cuts, dist, keep: bool):
    """This rank's ``(rounds, servers)`` byte matrix — each server
    share's cumulative lengths read at the round cuts — and, when
    ``keep``, ``{server: (stream regions, cut row)}``, from which a
    (round, server) slice is cut where its bytes move."""
    shares, cut = split_ops(regions.split_at_stream(cuts), cuts, dist)
    mat = np.zeros((len(cuts) - 1, dist.n_servers), dtype=np.int64)
    pieces = {} if keep else None
    for (server, share), row in zip(shares, cut):
        ends = np.concatenate(([0], np.cumsum(share.regions.lengths)))
        mat[:, server] = np.diff(ends[row])
        if keep:
            pieces[server] = (share.stream_regions(), row.tolist())
    return mat, pieces


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
            "mpiio.collective", "mpiio", f"rank{comm.rank}",
            parent=op.span, nbytes=nbytes, ranks=ctx.size,
        )

    fs.counters.io_ops += 1
    stream = None
    if op.is_write:
        # pack straight from the dataloop walk — no redundant ROMIO
        # flatten pass (see module docstring)
        yield op.mem_cost()
        stream = op.pack_mem()

    # own view, expanded once (identical charges to the independent
    # datatype path: conversion + per-region construction, which also
    # covers the round bookkeeping), cut into rounds and split per
    # server; only a rank that moves bytes keeps its shares
    yield from charge_convert(fs, loop)
    cuts = round_cuts(nbytes, hints.coll_round_bytes)
    R = len(cuts) - 1
    mat, pieces = _round_shares(
        (yield from expand_view(fs, loop, disp, first, last)),
        cuts, dist, keep=not op.phantom,
    )
    yield env.timeout(costs.fs_op_client_cost)

    epoch = comm.epoch(_COLL_KEY)
    coll_id = (fh.handle, epoch, op.is_write)

    # ---- control path: gather every rank's (fingerprint, window,
    # round matrix); int32 per-cell byte counts on the wire.  Control
    # runs BEFORE the data segments so the aggregated requests reach
    # the servers ahead of the data: a parked round is planned and
    # written the moment its last segment lands, overlapping server
    # CPU and disk with the reception of later rounds.
    rec = (
        loop.fingerprint(), loop, disp, first, nbytes,
        fs.name, fs.mailbox, fs.tenant, mat,
    )
    rec_bytes = wire_size(loop) + 48 + 4 * mat.size
    records = yield from comm.allgather(rec, nbytes=rec_bytes, key=_COLL_KEY)

    # ---- shared completion state (pure Python bookkeeping, no
    # simulated time): the first rank here plans the collective
    armed = fs.faults.armed
    rec_state = fs.coll_recovery.get(coll_id)
    if rec_state is None:
        rec_state = CollRecovery(CollPlan(op, coll_id, records))
        fs.coll_recovery[coll_id] = rec_state
    plan = rec_state.plan
    my_agg = plan.agg_slot.get(comm.rank)
    if my_agg is not None:
        # registered before any request is posted (and hence before
        # any timeout can elect), so a handoff target is always
        # addressable
        rec_state.mailboxes[my_agg] = fs.mailbox
    engine = CollEngine(fs, rec_state, my_agg, span or op.span)

    # ---- aggregator role: one request per owned (server, round); the
    # views ride only on a server's first request (a re-elected
    # aggregator rebuilds rounds with the views ON the wire: it never
    # shipped them to that server before)
    reqs = []
    if my_agg is not None:
        for s in range(my_agg, dist.n_servers, plan.n_agg):
            for r in range(plan.rounds):
                if plan.active[r, s]:
                    first_to_s = not reqs or reqs[-1].server != s
                    reqs.append(fs.stamp(plan.build_request(s, r, first_to_s)))
    # post control first: the aggregated requests travel ahead of the
    # data, so servers plan and write each parked round the moment its
    # last segment lands (overlapped with later rounds' reception)
    if reqs:
        # one client fs-op charge for the whole posting: the aggregated
        # requests are one batched collective operation, not per-round
        # independent calls (servers still pay per-request decode)
        yield env.timeout(costs.fs_op_client_cost)
        yield from engine.post(reqs)

    # ---- data path (writes): stream this rank's segments, round by
    # round, straight to the servers (never through an aggregator NIC).
    # Each rank starts a round at a different server (rotated by rank)
    # so the paced sends spread over all server NICs instead of
    # convoying on server 0.
    sent_segs: dict = {}
    if op.is_write:
        for r in range(R):
            order = np.flatnonzero(mat[r]).tolist()
            rot = comm.rank % len(order) if order else 0
            for server in order[rot:] + order[:rot]:
                payload = None
                if stream is not None:
                    sr, row = pieces[server]
                    payload = sr[row[r] : row[r + 1]].gather(stream)
                seg = CollSegment(
                    coll_id, r, server, fs.name, int(mat[r, server]), payload
                )
                if span is not None:
                    seg.trace_id = tracer.trace_of(span)
                    seg.trace_parent = span
                if armed:
                    # ack-ladder bookkeeping: the server acks this
                    # (round, server) to our mailbox once applied.
                    # Armed only: only an armed server acks, so an
                    # unarmed write keeps its message count
                    seg.reply_to = fs.mailbox
                    sent_segs[(server, r)] = seg
                yield from engine.send_segment(server, seg)
        fs.counters.bytes_written += nbytes
        stream = pieces = None

    # reads: the (server, round) segments the servers owe this rank
    expected = None
    if not op.is_write:
        expected = [
            (s, r) for r in range(R) for s in np.flatnonzero(mat[r]).tolist()
        ]
    _, segs = yield from engine.run(sent_segs, expected, reqs)

    # ---- data path (reads): scatter this rank's segments
    if not op.is_write:
        out = None if op.phantom else np.zeros(nbytes, dtype=np.uint8)
        if out is not None:
            for (s, r), seg in segs.items():
                if seg.payload is None:
                    continue
                sr, row = pieces[s]
                sr[row[r] : row[r + 1]].scatter(out, seg.payload)
        fs.counters.bytes_read += nbytes
        yield op.mem_cost()
        op.unpack_mem(out)

    if comm.rank == 0 and metrics.enabled:
        # the saved-requests counter is monotone; a small communicator
        # whose round pipeline issues more aggregated requests than the
        # independent path would clamps at zero (the trace span below
        # keeps the signed value)
        metrics.collective(plan.views_merged, max(plan.requests_saved, 0))
    if span is not None:
        tracer.end(
            span, rounds=R, views_merged=plan.views_merged,
            requests_saved=plan.requests_saved,
        )

    # collective semantics: nobody returns before the data is on the
    # servers (aggregators arrive here only after every round's
    # response, and armed, every segment's ack).
    # Under armed faults, aggregators additionally hold at the
    # completion gate until no re-elected work is outstanding anywhere
    # — a rank parked at the barrier stops servicing its mailbox, and
    # a handoff stranded there would deadlock the survivors.  Armed
    # only: only an armed run can re-elect, and the gate's mailbox
    # hops would add same-instant events before every barrier
    if armed and my_agg is not None:
        yield from engine.gate()
    del fs._posted[coll_id]  # what still arrives for it is dropped
    yield from comm.barrier()
    if comm.rank == 0:
        # every rank is past the gate once the barrier releases; the
        # shared failover state is dead weight after that
        fs.coll_recovery.pop(coll_id, None)


collective_read = collective_write = _collective_op

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
