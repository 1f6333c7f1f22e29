"""Two-phase collective I/O (paper §2.3, Thakur & Choudhary).

All ranks participate.  The union of the collective access is split
into contiguous *file domains*, one per aggregator; aggregators move
data to/from storage in collective-buffer-sized rounds while the other
phase redistributes data between ranks over the (simulated) network:

* access ranges are allgathered;
* each rank pre-sends the offset–length lists of its pieces inside
  every aggregator's domain (ROMIO's ``ADIOI_Calc_others_req``) — this
  metadata rides the real network too;
* **write**: per round, ranks ship data into the owning aggregator,
  which assembles its collective buffer and writes one contiguous
  piece (prefixing a read-modify-write when the incoming data leaves
  holes — permitted without locks by MPI-IO's consistency semantics,
  paper §4.1);
* **read**: per round, the aggregator reads one contiguous piece and
  ships each rank its bytes.

``resent_bytes`` counts the file data exchanged with *other* ranks —
the paper's "Resent Data per Client" column.
"""

from __future__ import annotations

import numpy as np

from ...regions import Regions
from ..adio import AccessMethod, register_method
from .listio import list_io_cuts

__all__ = ["two_phase_read", "two_phase_write"]


class _Plan:
    """Everything both sides of the exchange can derive consistently."""

    def __init__(self, op, ranges):
        self.op = op
        self.ranges = ranges  # per-rank (lo, hi) or None
        present = [r for r in ranges if r is not None]
        if present:
            self.lo = min(r[0] for r in present)
            self.hi = max(r[1] for r in present)
        else:
            self.lo = self.hi = 0
        size = op.ctx.size
        cb_nodes = op.hints.cb_nodes or size
        self.aggregators = list(range(min(cb_nodes, size)))
        span = self.hi - self.lo
        n_agg = len(self.aggregators)
        fd = -(-span // n_agg) if span else 0
        self.domains = []
        for i in range(n_agg):
            d_lo = min(self.lo + i * fd, self.hi)
            d_hi = min(d_lo + fd, self.hi)
            self.domains.append((d_lo, d_hi))
        bufsize = op.hints.cb_buffer_size
        self.rounds = max(
            (-(-(d_hi - d_lo) // bufsize) for d_lo, d_hi in self.domains),
            default=0,
        )
        # (domains, rounds + 1) file offsets: row i cuts domain i into
        # its rounds, round r being [row[r], row[r + 1]) — empty once a
        # shorter domain has run out
        d = np.array(self.domains, dtype=np.int64)
        steps = np.arange(self.rounds + 1, dtype=np.int64) * bufsize
        self.grid = np.minimum(d[:, :1] + steps, d[:, 1:])

    def range_overlaps(self, rank: int, lo: int, hi: int) -> bool:
        r = self.ranges[rank]
        return r is not None and r[0] < hi and r[1] > lo


def _exchange_access_lists(op, plan, my_regions):
    """ROMIO's others_req: ship per-domain offset–length lists.

    Returns ``(theirs, my_agg_index)``: ``theirs`` (aggregators only)
    maps source rank → its file regions in each round of my domain.
    """
    comm = op.ctx.comm
    costs = op.costs
    my_rank = comm.rank

    outgoing = {}
    # file domains tile [plan.lo, plan.hi) contiguously (domain i ends
    # where domain i+1 begins), so every domain's share of my regions
    # comes out of one vectorized partition pass
    bounds = np.append(plan.grid[:, 0], plan.hi)
    parts = my_regions.partition_with_stream(bounds)
    for i, agg in enumerate(plan.aggregators):
        d_lo, d_hi = plan.domains[i]
        if plan.range_overlaps(my_rank, d_lo, d_hi):
            clipped = parts[i][0]
            outgoing[agg] = (
                clipped,
                16 + clipped.count * costs.listio_pair_bytes,
            )

    my_agg_index = (
        plan.aggregators.index(my_rank)
        if my_rank in plan.aggregators
        else None
    )
    expected = []
    my_rounds = None
    if my_agg_index is not None:
        d_lo, d_hi = plan.domains[my_agg_index]
        expected = [
            r
            for r in range(comm.size)
            if plan.range_overlaps(r, d_lo, d_hi)
        ]
        my_rounds = plan.grid[my_agg_index]
    received = yield from comm.alltoallv(outgoing, expected, tag="others_req")
    theirs = {
        src: [regs for regs, _ in payload.partition_with_stream(my_rounds)]
        for src, (payload, _n) in received.items()
    }
    return theirs, my_agg_index


def _two_phase(op):
    comm = op.ctx.comm
    my_rank = comm.rank

    regions = op.file_regions()
    yield op.charge_flatten(regions.count)
    yield op.mem_cost()
    stream = op.pack_mem()  # None when phantom or reading
    out_stream = (
        None
        if (op.is_write or op.phantom)
        else np.zeros(op.nbytes, dtype=np.uint8)
    )

    my_range = regions.extent() if regions.count else None
    ranges = yield from comm.allgather(my_range, nbytes=16, key="tp_ranges")
    plan = _Plan(op, ranges)
    if plan.hi <= plan.lo:
        yield from comm.barrier()
        return

    theirs, my_agg_index = yield from _exchange_access_lists(
        op, plan, regions
    )
    # my pieces in every (domain, round) interval, with their positions
    # in my packed stream: one partition pass at all domain × round
    # bounds, interval i * rounds + r
    rounds = plan.rounds
    mine = regions.partition_with_stream(
        np.append(plan.grid[:, :-1], plan.hi)
    )

    for rnd in range(rounds):
        # ----- outgoing data/requests for this round -----
        outgoing = {}
        sent_meta = []
        for i, agg in enumerate(plan.aggregators):
            clipped, spos = mine[i * rounds + rnd]
            if not clipped.count:
                continue
            if op.is_write:
                data = None
                if stream is not None:
                    data = Regions(
                        spos, clipped.lengths, _trusted=True
                    ).gather(stream)
                outgoing[agg] = ((clipped, data), clipped.total_bytes)
                if agg != my_rank:
                    op.file.counters.resent_bytes += clipped.total_bytes
            else:
                sent_meta.append((agg, clipped, spos))

        # ranks that exchange with me (as aggregator) this round
        wanted = [
            (src, parts[rnd])
            for src, parts in theirs.items()
            if parts[rnd].count
        ]
        expected = [src for src, _ in wanted]

        if op.is_write:
            received = yield from comm.alltoallv(
                outgoing, expected, tag=f"tpw{rnd}"
            )
            if my_agg_index is not None and (expected or received):
                yield from _aggregate_write(op, received)
        else:
            # aggregator reads, then ships pieces to requesters
            if wanted:
                yield from _aggregate_read(op, rnd, wanted)
            # receive my pieces (possibly from myself)
            for agg, clipped, spos in sent_meta:
                src, payload, _n = yield from comm.recv(
                    src=agg, tag=f"tpr{rnd}"
                )
                if out_stream is not None and payload is not None:
                    Regions(
                        spos, clipped.lengths, _trusted=True
                    ).scatter(out_stream, payload)
                if agg != my_rank:
                    op.file.counters.resent_bytes += clipped.total_bytes

    yield from comm.barrier()
    if out_stream is not None:
        op.unpack_mem(out_stream)


def _aggregate_write(op, received):
    """Assemble this round's collective buffer — exactly the round's
    span, never more than ``cb_buffer_size`` — and write it out.

    Dense rounds are one contiguous write.  Rounds with holes use
    ROMIO's lock-free read-modify-write by default, or — with the
    ``tp_sparse_method`` hint — a noncontiguous write through list or
    datatype I/O (the paper's §5 "leveraging datatype I/O underneath
    two-phase I/O" suggestion), which avoids reading the gaps back.
    """
    costs = op.costs
    pieces = [payload for payload, _n in received.values()]
    if not pieces:
        return
    all_regions = Regions.concat([regs for regs, _d in pieces])
    merged = all_regions.normalized()
    span_lo, span_hi = merged.extent()
    covered = all_regions.total_bytes
    # overlapping writers cover bytes twice: a gap shows in the union only
    holes = (span_hi - span_lo) - merged.total_bytes

    # buffer assembly cost
    yield op.charge(
        all_regions.count * costs.mem_region_cost
        + covered / costs.memcpy_bandwidth
    )

    if holes > 0 and op.hints.tp_sparse_method != "rmw":
        yield from _sparse_write(op, pieces, merged)
        return

    chunk = None
    if holes > 0:
        chunk = yield from op.fs.read(
            op.fh, span_lo, span_hi - span_lo, phantom=op.phantom,
            trace=op.span,
        )
    elif not op.phantom:
        chunk = np.zeros(span_hi - span_lo, dtype=np.uint8)
    if chunk is not None:
        for regs, data in pieces:
            if data is not None:
                regs.shift(-span_lo).scatter(chunk, data)
    yield from op.fs.write(
        op.fh,
        span_lo,
        data=None if op.phantom else chunk,
        nbytes=span_hi - span_lo,
        trace=op.span,
    )


def _sparse_write(op, pieces, merged):
    """Write a holey round through a noncontiguous FS interface."""
    stream = None
    if not op.phantom:
        # assemble the packed stream in merged (ascending) order
        span_lo, span_hi = merged.extent()
        scratch = np.zeros(span_hi - span_lo, dtype=np.uint8)
        for regs, data in pieces:
            if data is not None:
                regs.shift(-span_lo).scatter(scratch, data)
        stream = merged.shift(-span_lo).gather(scratch)
    if op.hints.tp_sparse_method == "datatype_io":
        from ...dataloops import Dataloop

        lo, hi = merged.extent()
        loop = Dataloop.final_indexed(
            (merged.lengths).tolist(),
            (merged.offsets - lo).tolist(),
            1,
            hi - lo,
        )
        yield from op.fs.write_dtype(
            op.fh, loop, displacement=lo, last=merged.total_bytes,
            data=stream, trace=op.span,
        )
        return
    # list I/O, respecting the request bound
    limit = op.fs.config.list_io_max_regions
    runs, bounds = list_io_cuts(
        Regions.single(0, merged.total_bytes), merged, limit
    )
    bounds = bounds.tolist()
    ops = [runs[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    yield from op.fs.write_list(op.fh, ops, stream, trace=op.span)


def _aggregate_read(op, rnd, wanted):
    """Read this round's span and ship each requester its pieces
    (``wanted``: ``(rank, file regions)`` pairs)."""
    comm = op.ctx.comm
    costs = op.costs
    needed = Regions.concat([regs for _, regs in wanted]).normalized()
    span_lo, span_hi = needed.extent()
    chunk = yield from op.fs.read(
        op.fh, span_lo, span_hi - span_lo, phantom=op.phantom, trace=op.span
    )
    yield op.charge(
        needed.count * costs.mem_region_cost
        + needed.total_bytes / costs.memcpy_bandwidth
    )
    for src, regs in wanted:
        data = None
        if chunk is not None:
            data = regs.shift(-span_lo).gather(chunk)
        yield from comm.send(src, regs.total_bytes, data, tag=f"tpr{rnd}")


def two_phase_read(op):
    yield from _two_phase(op)


def two_phase_write(op):
    yield from _two_phase(op)


register_method(
    AccessMethod(
        "two_phase",
        two_phase_read,
        two_phase_write,
        collective=True,
        description="collective aggregation with file domains (§2.3)",
    )
)
