"""Critical-path extraction and exclusive per-resource blame.

The recorder (:mod:`repro.trace.core`) stores every I/O job as a tree
of spans.  A span's *duration* answers "how long did this take", but
the paper's arguments (fig 8/10/12, §4.3) are about something sharper:
*which resource's time determined the end-to-end latency*.  This module
answers that mechanically:

* :func:`critical_path` walks each trace's span tree **backwards** from
  the root's completion instant.  At every level it repeatedly picks
  the child whose completion determined the current cursor (latest
  ``end`` not after the cursor), blames the gap between that child's
  end and the cursor on the *parent's* own resource, then descends into
  the child.  The result is an exclusive partition of the root's
  duration into :class:`Segment`\\ s — per trace, segment durations sum
  to the root duration exactly (asserted within 1e-9), so blame shares
  always sum to 1.
* Spans are classified into the resource taxonomy of
  :data:`RESOURCE_ORDER` — client CPU, RPC wait (wire latency +
  response wait), retry backoff, network queue wait vs. wire time,
  admission/queue wait, the five server pipeline stages (with disk
  fault stalls carved out of storage), and threaded-server disk-arm
  waits.
* Two kinds of interval are *derived*, never recorded during the
  simulation (attribution is post-hoc, so attribution-enabled runs are
  trivially bit-identical to plain traced runs): a synthetic
  ``server.queue`` span reconstructed from ``server.request``'s
  ``queue_wait``/``thread_wait`` attributes, and the queue-vs-wire
  split of a ``net.xfer`` span (the last ``nbytes/bandwidth`` seconds
  are wire time; the front is NIC queue wait).
* :func:`reconcile_blame` cross-checks the spans against the
  ``StageTimes`` and ``NodeUtilization`` books, all within 1e-9.

``repro-bench trace --smoke`` runs :func:`reconcile_blame` on its cell
(:func:`repro.bench.artifacts.verify_trace`); ``repro-bench compare``
attaches blame deltas to bandwidth drifts; ``repro-bench json`` embeds
the per-method shares in ``BENCH_pipeline.json``.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Iterable, Optional

from .core import TraceRecorder
from .export import reconcile

__all__ = [
    "RESOURCE_ORDER",
    "Node",
    "Segment",
    "BlameReport",
    "classify_span",
    "critical_path",
    "reconcile_blame",
]

#: Every resource blame can land on, in report order.  ``seconds`` maps
#: of a :class:`BlameReport` carry exactly these keys.
RESOURCE_ORDER = (
    "client_cpu",  #: client/rank self time: packing, conversion, barriers
    "rpc_wait",  #: RPC self time: wire latency + response wait
    "retry_backoff",  #: client backoff after rejections/timeouts
    "net_queue",  #: NIC queue wait ahead of a transfer's wire time
    "net_wire",  #: bytes-on-the-wire seconds (nbytes / bandwidth)
    "queue_wait",  #: server admission/mailbox + thread-pool wait
    "decode",  #: server request parse/dispatch
    "plan",  #: server access-list construction
    "cache",  #: server expansion-cache hit charge
    "disk",  #: storage stage media time net of injected faults
    "fault_stall",  #: injected disk slowdown/stall seconds
    "respond",  #: server response handoff (incl. collective scatter)
    "server_wait",  #: threaded-server disk-arm / self gaps
    "other",  #: anything unclassified (should stay zero)
)

#: Span-name prefixes attributed to the client's own CPU/algorithm time.
_CLIENT_PREFIXES = ("mpiio.", "pvfs.")

#: Direct span-name → resource mapping for leaf/self time.
_SELF_RESOURCE = {
    "rpc": "rpc_wait",
    "server.queue": "queue_wait",
    "server.thread_wait": "queue_wait",
    "server.request": "server_wait",
    "server.decode": "decode",
    "server.plan": "plan",
    "server.cache": "cache",
    "server.storage": "disk",
    "server.respond": "respond",
    "server.scatter": "respond",
    "server.reject": "server_wait",
}

_EPS = 1e-12


def classify_span(name: str) -> str:
    """Resource charged for a span's *self* (exclusive) time."""
    if name in _SELF_RESOURCE:
        return _SELF_RESOURCE[name]
    if name.startswith(_CLIENT_PREFIXES):
        return "client_cpu"
    if name == "net.xfer":
        return "net_wire"
    if name.startswith("fault."):
        return "fault_stall"
    return "other"


#: One span of the walk: a closed row of the recorder (its columns in
#: this order), or a wait derived from a ``server.request`` row's
#: attributes.
Node = namedtuple("Node", "span_id trace_id name actor parent_id start end")


@dataclass
class Segment:
    """One exclusive slice of a trace's critical path."""

    trace_id: int
    span: Node  #: the span whose self time this slice is
    resource: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class BlameReport:
    """Exclusive critical-path blame aggregated over every trace."""

    total: float  #: summed root durations (seconds on the critical path)
    seconds: dict[str, float]  #: per-resource exclusive seconds
    traces: int  #: number of traces walked
    segments: list[Segment] = field(default_factory=list)
    #: Per-trace conservation residuals |Σ segments − root duration|;
    #: the walk asserts each stays within tolerance.
    residuals: dict[int, float] = field(default_factory=dict)

    def shares(self) -> dict[str, float]:
        """Per-resource fraction of the critical path (sums to 1)."""
        if self.total <= 0:
            return {r: 0.0 for r in RESOURCE_ORDER}
        return {r: self.seconds[r] / self.total for r in RESOURCE_ORDER}

    def trace_segments(self, trace_id: int) -> list[Segment]:
        """This trace's critical-path slices in chronological order."""
        segs = [s for s in self.segments if s.trace_id == trace_id]
        segs.sort(key=lambda s: (s.start, s.end))
        return segs


def _build_forest(rec: TraceRecorder):
    """Group the closed rows by trace; return (roots, children) per trace.

    Two structural fixes happen here, both pure derivation:

    * ``fault.disk.*`` spans are recorded as siblings of the
      ``server.storage`` span they overlap (both parent under
      ``server.request``); re-parenting them *under* storage lets the
      walk carve stall time out of disk time instead of double-counting
      the overlap.
    * ``server.request`` grows synthetic ``server.queue`` /
      ``server.thread_wait`` children reconstructed from its
      ``queue_wait`` / ``thread_wait`` attributes — the waits happen
      before/inside the span but are only recorded as numbers.
    """
    by_trace: dict[int, list[Node]] = {}
    rows = zip(
        count(1), rec.trace_ids, rec.names, rec.actors, rec.parent_ids,
        rec.starts, rec.ends,
    )
    for node in map(Node._make, rows):
        if node.end == node.end:  # an open span's end is NaN
            by_trace.setdefault(node.trace_id, []).append(node)

    forest: dict[int, tuple[list[Node], dict[int, list[Node]]]] = {}
    for tid, tspans in by_trace.items():
        ids = {s.span_id for s in tspans}
        synthetic: list[Node] = []
        next_id = max(ids) + 1
        for s in tspans:
            if s.name != "server.request":
                continue
            attrs = rec.attrs(s.span_id)
            qw = attrs.get("queue_wait", 0.0)
            if qw > 0:
                synthetic.append(Node(
                    next_id, tid, "server.queue", s.actor, s.parent_id,
                    s.start - qw, s.start,
                ))
                next_id += 1
            tw = attrs.get("thread_wait", 0.0)
            if tw > 0:
                synthetic.append(Node(
                    next_id, tid, "server.thread_wait", s.actor, s.span_id,
                    s.start, s.start + tw,
                ))
                next_id += 1
        tspans = tspans + synthetic

        children: dict[int, list[Node]] = {}
        roots: list[Node] = []
        for s in tspans:
            if s.parent_id >= 0 and s.parent_id in ids:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)

        # carve injected stalls out of the storage interval they overlap
        for s in tspans:
            if not s.name.startswith("fault.disk.") or s.end <= s.start:
                continue
            siblings = children.get(s.parent_id, ())
            for storage in siblings:
                if (
                    storage.name == "server.storage"
                    and storage.start - _EPS <= s.start
                    and s.end <= storage.end + _EPS
                ):
                    children[s.parent_id].remove(s)
                    children.setdefault(storage.span_id, []).append(s)
                    break
        forest[tid] = (roots, children)
    return forest


def _emit(segments, rec, nic_bandwidth, span, resource, start, end):
    """Append one self-time slice, splitting net.xfer queue vs. wire.

    A ``net.xfer`` span's interval is NIC-horizon queue wait followed by
    ``nbytes/bandwidth`` seconds of wire time; with a known bandwidth
    the slice is split at that boundary so queueing shows up as its own
    resource instead of inflating apparent wire time.
    """
    if end - start <= 0:
        return
    xfer = span.name == "net.xfer" and nic_bandwidth
    nbytes = xfer and rec.attrs(span.span_id).get("nbytes")
    if nbytes:
        wire_start = span.end - nbytes / nic_bandwidth
        if start < wire_start < end:
            segments.append(
                Segment(span.trace_id, span, "net_queue", start, wire_start)
            )
            segments.append(
                Segment(span.trace_id, span, "net_wire", wire_start, end)
            )
            return
        resource = "net_queue" if end <= wire_start else "net_wire"
    segments.append(Segment(span.trace_id, span, resource, start, end))


def _walk(span, children, lo, hi, emit):
    """Attribute ``[lo, hi]`` of ``span``'s interval exclusively.

    Backward sweep: the child with the latest ``end`` not after the
    cursor determined the timing at the cursor; the gap between that
    child's end and the cursor is the span's own (self) time; then the
    walk descends into the child and the cursor jumps to the child's
    start.  Children overlapping an already-attributed chain are
    skipped — they were not on the critical path.
    """
    resource = classify_span(span.name)
    cursor = hi
    kids = children.get(span.span_id)
    if kids:
        for c in sorted(kids, key=lambda s: s.end, reverse=True):
            if cursor - lo <= _EPS:
                break
            if c.end > cursor + _EPS or c.end <= lo + _EPS:
                continue  # overlaps the chain already attributed
            child_end = min(c.end, cursor)
            emit(span, resource, child_end, cursor)
            child_lo = max(lo, c.start)
            _walk(c, children, child_lo, child_end, emit)
            cursor = child_lo
    emit(span, resource, lo, cursor)


def _carve_backoff(segments, seconds, rec, config) -> None:
    """Reclassify estimated backoff sleep out of rpc self time.

    The client's backoff sleeps happen inside the ``rpc`` span but are
    not spans of their own; the retry counters on the span's attributes
    recover them analytically: ``retries`` rejection backoffs of
    ``REJECT_BACKOFF`` each, and timeouts' exponential backoff
    ``retry_backoff * (2^timeouts - 1)`` (see ``repro.pvfs.client``).
    The carve is capped by the rpc self time actually on the critical
    path, so totals stay conserved.
    """
    if config is None:
        return
    # not at module level: repro.simulation imports repro.faults, which
    # imports this package
    from ..simulation.costs import REJECT_BACKOFF

    faults = getattr(config, "faults", None)
    timeout_backoff = getattr(faults, "retry_backoff", 0.0) if faults else 0.0

    rpc_self: dict[int, float] = {}
    for seg in segments:
        if seg.span.name == "rpc" and seg.resource == "rpc_wait":
            span_id = seg.span.span_id
            rpc_self[span_id] = rpc_self.get(span_id, 0.0) + seg.duration
    for span_id, self_s in rpc_self.items():
        attrs = rec.attrs(span_id)
        est = attrs.get("retries", 0) * REJECT_BACKOFF
        timeouts = attrs.get("timeouts", 0)
        if timeouts and timeout_backoff > 0:
            est += timeout_backoff * (2**timeouts - 1)
        carve = min(self_s, est)
        if carve > 0:
            seconds["rpc_wait"] -= carve
            seconds["retry_backoff"] += carve


def critical_path(
    rec: TraceRecorder,
    *,
    nic_bandwidth: Optional[float] = None,
    config=None,
    tol: float = 1e-9,
) -> BlameReport:
    """Walk every trace's span tree; return exclusive per-resource blame.

    ``rec`` is a :class:`~repro.trace.core.TraceRecorder`; its open
    spans are skipped.  ``nic_bandwidth`` (bytes/s, e.g.
    ``CostModel().nic_bandwidth``) enables the queue-vs-wire split of
    ``net.xfer`` intervals; ``config`` (a ``PVFSConfig``) enables the
    retry-backoff carve.  Raises ``ValueError`` if any trace's segment
    durations fail to sum to its root duration within ``tol`` — the
    conservation law that makes "shares sum to 1" an invariant rather
    than a convention.
    """
    forest = _build_forest(rec)
    segments: list[Segment] = []
    emit = partial(_emit, segments, rec, nic_bandwidth)
    seconds = {r: 0.0 for r in RESOURCE_ORDER}
    total = 0.0
    residuals: dict[int, float] = {}

    for tid, (roots, children) in sorted(forest.items()):
        trace_total = 0.0
        mark = len(segments)
        for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
            trace_total += root.end - root.start
            _walk(root, children, root.start, root.end, emit)
        walked = sum(s.duration for s in segments[mark:])
        residuals[tid] = abs(walked - trace_total)
        if residuals[tid] > tol:
            raise ValueError(
                f"trace {tid}: critical-path segments sum to {walked!r}, "
                f"root duration is {trace_total!r} "
                f"(residual {residuals[tid]:.3e} > {tol:g})"
            )
        total += trace_total

    for seg in segments:
        seconds[seg.resource] += seg.duration
    _carve_backoff(segments, seconds, rec, config)

    return BlameReport(
        total=total,
        seconds=seconds,
        traces=len(forest),
        segments=segments,
        residuals=residuals,
    )


def reconcile_blame(
    rec: TraceRecorder,
    stage_times,
    network=None,
    *,
    nic_bandwidth: Optional[float] = None,
    loose_nodes: Iterable[str] = (),
    tol: float = 1e-9,
) -> list[str]:
    """Cross-check blame accounting against StageTimes/NodeUtilization.

    Three independent reconciliations of the run's recorder ``rec``
    (empty list = all agree):

    * summed server stage spans vs the scheduler's
      :class:`~repro.simulation.stats.StageTimes`
      (:func:`~repro.trace.export.reconcile`; ``respond`` includes the
      collective scatter spans, and a ``server.storage`` span already
      covers the disk faults injected into it);
    * critical-path conservation: per-trace segment sums equal root
      durations within ``tol`` (re-asserted here) and blame shares sum
      to 1;
    * per-node traced wire traffic vs ``NodeUtilization`` (pass the
      :class:`~repro.simulation.stats.NetworkSummary`): summed
      ``net.xfer`` bytes and ``nbytes/bandwidth`` seconds grouped by
      src/dst must match ``bytes_sent/received`` and ``tx/rx_busy``
      exactly for every I/O-server node.  Nodes named in
      ``loose_nodes`` — the metadata host (untraced ``MetaRequest``
      traffic) — and client nodes (untraced MPI exchanges) only check
      that traced traffic never exceeds the NIC accounting.
    """
    problems = [f"stage {p}" for p in reconcile(rec, stage_times, tol)]

    report = critical_path(rec, nic_bandwidth=nic_bandwidth, tol=tol)
    if report.total > 0:
        share_sum = sum(report.shares().values())
        if abs(share_sum - 1.0) > tol:
            problems.append(f"blame shares sum to {share_sum!r}, not 1.0")

    if network is not None:
        if not nic_bandwidth:
            raise ValueError("network reconciliation needs nic_bandwidth")
        loose = set(loose_nodes)
        traced_bytes: Counter = Counter()  # (side, node) -> bytes
        for span_id, (name, end) in enumerate(zip(rec.names, rec.ends), 1):
            if name != "net.xfer" or end != end:  # open: NaN end
                continue
            attrs = rec.attrs(span_id)
            nbytes = attrs.get("nbytes", 0)
            traced_bytes["tx", attrs.get("src")] += nbytes
            traced_bytes["rx", attrs.get("dst")] += nbytes
        for node in network.nodes:
            exact = node.name.startswith("ios") and node.name not in loose
            for side, want_bytes, want_busy in (
                ("tx", node.bytes_sent, node.tx_busy),
                ("rx", node.bytes_received, node.rx_busy),
            ):
                got_bytes = traced_bytes[side, node.name]
                got_busy = got_bytes / nic_bandwidth
                if exact:
                    if got_bytes != want_bytes:
                        problems.append(
                            f"nic {node.name}/{side}: traced {got_bytes} B "
                            f"!= NodeUtilization {want_bytes} B"
                        )
                    if abs(got_busy - want_busy) > tol:
                        problems.append(
                            f"nic {node.name}/{side}: traced wire "
                            f"{got_busy!r} s != busy {want_busy!r} s"
                        )
                elif got_bytes > want_bytes:
                    problems.append(
                        f"nic {node.name}/{side}: traced {got_bytes} B "
                        f"exceeds NodeUtilization {want_bytes} B"
                    )
    return problems
