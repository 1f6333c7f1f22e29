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

__all__ = ["two_phase_read", "two_phase_write"]


def _clip_positions(regions: Regions, spos: np.ndarray, lo: int, hi: int):
    """Clip regions (with absolute stream positions) to ``[lo, hi)``."""
    starts = np.maximum(regions.offsets, lo)
    ends = np.minimum(regions.offsets + regions.lengths, hi)
    lens = ends - starts
    keep = lens > 0
    if not keep.any():
        return Regions.empty(), spos[:0]
    return (
        Regions(starts[keep], lens[keep], _trusted=True),
        spos[keep] + (starts[keep] - regions.offsets[keep]),
    )


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
        self.bufsize = bufsize

    def interval(self, agg_index: int, rnd: int) -> tuple[int, int]:
        d_lo, d_hi = self.domains[agg_index]
        lo = min(d_lo + rnd * self.bufsize, d_hi)
        return lo, min(lo + self.bufsize, d_hi)

    def range_overlaps(self, rank: int, lo: int, hi: int) -> bool:
        r = self.ranges[rank]
        return r is not None and r[0] < hi and r[1] > lo


def _exchange_access_lists(op, plan, my_regions):
    """ROMIO's others_req: ship per-domain offset–length lists.

    Returns ``(mine_per_domain, others)`` where ``mine_per_domain`` maps
    aggregator index → (clipped regions, stream positions) of *my* data
    in that domain, and ``others`` (aggregators only) maps source rank →
    its file regions within my domain.
    """
    comm = op.ctx.comm
    costs = op.costs
    my_rank = comm.rank

    mine: dict[int, tuple[Regions, np.ndarray]] = {}
    outgoing = {}
    # file domains tile [plan.lo, plan.hi) contiguously, so every
    # domain's share of my regions comes out of one vectorized
    # partition pass instead of an O(n) clip per aggregator
    n_dom = len(plan.domains)
    if n_dom and all(
        plan.domains[i][1] == plan.domains[i + 1][0]
        for i in range(n_dom - 1)
    ):
        bounds = [plan.domains[0][0]] + [d_hi for _, d_hi in plan.domains]
        parts = my_regions.partition_with_stream(bounds)
    else:
        parts = [
            my_regions.clip_with_stream(d_lo, d_hi)
            for d_lo, d_hi in plan.domains
        ]
    for i, agg in enumerate(plan.aggregators):
        d_lo, d_hi = plan.domains[i]
        clipped, spos = parts[i]
        if clipped.count:
            mine[i] = (clipped, spos)
        if plan.range_overlaps(my_rank, d_lo, d_hi):
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
    if my_agg_index is not None:
        d_lo, d_hi = plan.domains[my_agg_index]
        expected = [
            r
            for r in range(comm.size)
            if plan.range_overlaps(r, d_lo, d_hi)
        ]
    received = yield from comm.alltoallv(outgoing, expected, tag="others_req")
    others = {src: payload for src, (payload, _n) in received.items()}
    return mine, others, my_agg_index


def _two_phase(op):
    comm = op.ctx.comm
    costs = op.costs
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

    mine, others, my_agg_index = yield from _exchange_access_lists(
        op, plan, regions
    )

    for rnd in range(plan.rounds):
        # ----- outgoing data/requests for this round -----
        outgoing = {}
        sent_meta = []
        for i, agg in enumerate(plan.aggregators):
            ilo, ihi = plan.interval(i, rnd)
            if ihi <= ilo or i not in mine:
                continue
            # my pieces in this round's interval, with their positions
            # in my packed stream (clipped within the pre-computed
            # per-domain subset, not the full region list)
            clipped, spos = _clip_positions(mine[i][0], mine[i][1], ilo, ihi)
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
        expected = []
        if my_agg_index is not None:
            ilo, ihi = plan.interval(my_agg_index, rnd)
            if ihi > ilo:
                for src, src_regions in others.items():
                    if src_regions.clip(ilo, ihi).count:
                        expected.append(src)

        if op.is_write:
            received = yield from comm.alltoallv(
                outgoing, expected, tag=f"tpw{rnd}"
            )
            if my_agg_index is not None and (expected or received):
                yield from _aggregate_write(op, received)
        else:
            # aggregator reads, then ships pieces to requesters
            if my_agg_index is not None and expected:
                yield from _aggregate_read(
                    op, plan, my_agg_index, rnd, expected, others
                )
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
    limit = op.fs.system.config.list_io_max_regions
    ops = list(merged.split_chunks(limit))
    yield from op.fs.write_list(op.fh, ops, stream, trace=op.span)


def _aggregate_read(op, plan, my_agg_index, rnd, expected, others):
    """Read this round's span and ship each requester its pieces."""
    comm = op.ctx.comm
    costs = op.costs
    ilo, ihi = plan.interval(my_agg_index, rnd)
    needed = Regions.concat(
        [others[src].clip(ilo, ihi) for src in expected]
    ).normalized()
    span_lo, span_hi = needed.extent()
    chunk = yield from op.fs.read(
        op.fh, span_lo, span_hi - span_lo, phantom=op.phantom, trace=op.span
    )
    yield op.charge(
        needed.count * costs.mem_region_cost
        + needed.total_bytes / costs.memcpy_bandwidth
    )
    for src in expected:
        src_clipped = others[src].clip(ilo, ihi)
        data = None
        if chunk is not None:
            data = src_clipped.shift(-span_lo).gather(chunk)
        yield from comm.send(
            src, src_clipped.total_bytes, data, tag=f"tpr{rnd}"
        )


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
