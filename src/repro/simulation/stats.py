"""Utilization and traffic summaries of a finished simulation.

Used by the benchmark runner to explain *why* a configuration performs
as it does — which resource saturated (client NICs, server NICs, server
CPU time, disks) — the same analysis the paper walks through verbally
in §4.  Class map:

* :class:`StageTimes` — one I/O daemon's per-stage CPU/disk accounting
  for the decode → plan → storage → respond pipeline, the server-side
  cost decomposition of paper §3.2/§4.3 (request processing, access
  construction, disk service).  The ``cache`` stage isolates the
  expansion-cache hit cost so ``plan`` reports only genuine access-list
  construction; hit/miss/eviction counters ride along, and its
  ``requests`` is the daemon's one count of requests served.
* :class:`ServerPipelineSummary` / :func:`summarize_servers` — the
  aggregate across servers, the server-side cost split of §4.3.
* :class:`NodeUtilization` / :class:`NetworkSummary` /
  :func:`summarize_network` — per-NIC busy fractions and the
  ``bottleneck()`` guess, reproducing the §4 saturated-resource
  analysis (client NICs for few clients, server side at scale).

The metrics hub copies its message and byte counters from the
``Network`` totals that :class:`NetworkSummary` reports.  When tracing
is enabled, the per-stage span sums reconcile exactly with
:class:`StageTimes` (``repro.trace.reconcile``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = [
    "NodeUtilization",
    "NetworkSummary",
    "StageTimes",
    "ServerPipelineSummary",
    "summarize_network",
    "summarize_servers",
]


@dataclass
class StageTimes:
    """Per-stage accounting of one I/O server's request pipeline.

    Stage seconds are simulated CPU/disk charges attributed to the
    decode → plan → storage → respond stages; in single-threaded paper
    mode the plan and storage charges occur inside one combined busy
    period, but the decomposition is still recorded so benchmarks can
    report where server time goes per access method.
    """

    # Stage seconds carry ``unit: s`` metadata (their as_dict key gains
    # an ``_s`` suffix and they form :meth:`stage_fields`); counters
    # default to summing under :meth:`add` unless marked ``agg: max``.
    # Everything below — add/busy/as_dict/stage_fields — derives from
    # this single field list, so a new counter cannot silently drift
    # out of one of the aggregation sites.
    decode: float = field(default=0.0, metadata={"unit": "s"})
    #: request parse/dispatch seconds
    plan: float = field(default=0.0, metadata={"unit": "s"})
    #: access-list construction / dataloop expansion
    cache: float = field(default=0.0, metadata={"unit": "s"})
    #: expansion-cache hit lookup/assembly seconds
    storage: float = field(default=0.0, metadata={"unit": "s"})
    #: disk positioning + transfer seconds
    respond: float = field(default=0.0, metadata={"unit": "s"})
    #: response handoff seconds (send CPU)
    requests: int = 0  #: requests fully processed
    rejected: int = 0  #: requests refused by admission control
    peak_queue: int = field(default=0, metadata={"agg": "max"})
    #: deepest request queue observed
    cache_hits: int = 0  #: expansion-cache hits
    cache_misses: int = 0  #: expansion-cache misses (entry built)
    cache_evictions: int = 0  #: entries evicted under the region bound
    cache_regions_held: int = 0  #: regions currently held in the cache
    cache_bytes_held: int = 0  #: approximate bytes of cached arrays

    @classmethod
    def stage_fields(cls) -> tuple[str, ...]:
        """Names of the pipeline-stage second fields, in charge order."""
        return tuple(
            f.name for f in fields(cls) if f.metadata.get("unit") == "s"
        )

    def add(self, other: "StageTimes") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.metadata.get("agg") == "max":
                setattr(self, f.name, max(mine, theirs))
            else:
                setattr(self, f.name, mine + theirs)

    @property
    def busy(self) -> float:
        """Total seconds the pipeline charged across all stages."""
        total = 0.0
        for name in self.stage_fields():
            total += getattr(self, name)
        return total

    def as_dict(self) -> dict:
        return {
            f.name + ("_s" if f.metadata.get("unit") == "s" else ""): getattr(
                self, f.name
            )
            for f in fields(self)
        }


@dataclass
class ServerPipelineSummary:
    """Aggregate + per-server pipeline stage accounting."""

    total: StageTimes = field(default_factory=StageTimes)
    per_server: dict[int, StageTimes] = field(default_factory=dict)


def summarize_servers(servers) -> ServerPipelineSummary:
    """Collect :class:`StageTimes` from I/O servers (ducktyped: anything
    with ``index`` and ``stage_times`` attributes)."""
    summary = ServerPipelineSummary()
    for s in servers:
        st = s.stage_times
        summary.per_server[s.index] = st
        summary.total.add(st)
    return summary


@dataclass
class NodeUtilization:
    """One node's NIC usage over the run."""

    name: str
    tx_busy: float
    rx_busy: float
    bytes_sent: int
    bytes_received: int


@dataclass
class NetworkSummary:
    """Aggregate traffic statistics with per-group utilization."""

    elapsed: float
    total_bytes: int
    total_messages: int
    nodes: list[NodeUtilization] = field(default_factory=list)

    def group(self, prefix: str) -> list[NodeUtilization]:
        """Nodes whose name starts with ``prefix`` (e.g. 'ios', 'cn')."""
        return [n for n in self.nodes if n.name.startswith(prefix)]

    def mean_utilization(self, prefix: str, side: str = "rx") -> float:
        nodes = self.group(prefix)
        if not nodes or self.elapsed <= 0:
            return 0.0
        total = sum(
            (n.rx_busy if side == "rx" else n.tx_busy) for n in nodes
        )
        return total / (len(nodes) * self.elapsed)

    def bottleneck(self, stages: Optional["StageTimes"] = None) -> str:
        """A one-word guess at the saturated resource group.

        Pass the aggregate server :class:`StageTimes` to make the guess
        disk-aware: the mean per-server storage-stage busy fraction
        joins the NIC candidates and wins as ``"server-disk"`` when
        disks are the saturated resource (the dominant regime of
        several write-heavy workloads).
        """
        candidates = {
            "server-rx": self.mean_utilization("ios", "rx"),
            "server-tx": self.mean_utilization("ios", "tx"),
            "client-rx": self.mean_utilization("cn", "rx"),
            "client-tx": self.mean_utilization("cn", "tx"),
        }
        if stages is not None:
            n_ios = len(self.group("ios"))
            if n_ios and self.elapsed > 0:
                candidates["server-disk"] = stages.storage / (
                    n_ios * self.elapsed
                )
        name, value = max(candidates.items(), key=lambda kv: kv[1])
        return name if value > 0.5 else "cpu-or-latency"


def summarize_network(net: "Network", elapsed: float) -> NetworkSummary:
    """Snapshot a network's counters into a summary."""
    summary = NetworkSummary(
        elapsed=elapsed,
        total_bytes=net.bytes_transferred,
        total_messages=net.message_count,
    )
    for node in net.nodes.values():
        summary.nodes.append(
            NodeUtilization(
                name=node.name,
                tx_busy=node.tx_busy_time,
                rx_busy=node.rx_busy_time,
                bytes_sent=node.bytes_sent,
                bytes_received=node.bytes_received,
            )
        )
    return summary
