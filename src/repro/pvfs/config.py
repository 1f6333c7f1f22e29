"""File-system configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..faults import FaultConfig

__all__ = ["PVFSConfig", "TenantConfig"]


@dataclass(frozen=True)
class TenantConfig:
    """One tenant of a multi-tenant deployment.

    Requests are tagged with their tenant's index in
    ``PVFSConfig.tenants`` and classified into per-tenant admission
    queues at each I/O daemon, served by deficit round-robin: tenant
    *i*'s long-run share of admitted bytes during contention is
    ``weight_i / sum(weights)``.
    """

    #: Label used in metrics (`repro_tenant_*`), traces, and reports.
    name: str
    #: Relative weighted-fair share (deficit round-robin quantum scale).
    weight: float = 1.0
    #: Optional token-bucket rate limit, bytes of admitted I/O per
    #: simulated second.  ``None`` — no limit (weighted share only).
    rate_limit: Optional[float] = None
    #: Token-bucket depth in bytes; bounds how far a quiet tenant can
    #: burst above ``rate_limit``.  Defaults to 64 KiB or one second of
    #: tokens, whichever is larger.
    burst_bytes: Optional[int] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not (self.weight > 0):
            raise ValueError("tenant weight must be positive")
        if self.rate_limit is not None and not (self.rate_limit > 0):
            raise ValueError("tenant rate_limit must be positive")
        if self.burst_bytes is not None and self.burst_bytes < 1:
            raise ValueError("tenant burst_bytes must be positive")

    @property
    def burst(self) -> float:
        """Effective token-bucket depth in bytes."""
        if self.burst_bytes is not None:
            return float(self.burst_bytes)
        if self.rate_limit is None:
            return float("inf")
        return max(65536.0, self.rate_limit)


@dataclass(frozen=True)
class PVFSConfig:
    """Static parameters of a PVFS deployment.

    Defaults follow the paper's benchmark configuration (§4.1): 16 I/O
    servers, 64 KiB strips (1 MiB stripe across all servers), one of
    the I/O server nodes doubling as the metadata server, list I/O
    bounded at 64 regions per request, and no file locking (which is
    why ROMIO cannot do data-sieving *writes* on PVFS).
    """

    #: Number of I/O servers.
    n_servers: int = 16
    #: Strip size in bytes (contiguous run per server per stripe).
    strip_size: int = 65536
    #: Index of the I/O server whose node hosts the metadata server.
    metadata_server: int = 0
    #: Maximum offset–length pairs per list I/O request (paper §2.4:
    #: "in our implementation by a factor of 64").
    list_io_max_regions: int = 64
    #: Maximum regions a server materializes per processing batch while
    #: expanding a dataloop (partial-processing bound, §3.2).
    dataloop_batch_regions: int = 65536
    #: Full-featured datatype I/O (the PVFS2 forecast of §5): servers
    #: and clients stream directly from the dataloop instead of first
    #: materializing job/access lists.  Changes timing, never results.
    direct_dataloop: bool = False
    #: Datatype caching (§5, "similar to that seen in some remote
    #: memory access implementations"): clients cache converted
    #: dataloops and their expansions, and servers remember dataloops
    #: they have seen, so repeated operations skip the per-operation
    #: conversion cost and ship an 8-byte handle instead of the
    #: serialized dataloop.  Changes timing and wire sizes, never
    #: results.
    datatype_cache: bool = False
    #: Server-side dataloop expansion cache: each I/O daemon memoizes
    #: the per-server splits (physical regions + stream positions) its
    #: dataloop expansions produce, keyed by loop fingerprint +
    #: stripe-normalized displacement + window, exploiting the
    #: lcm(extent, stripe) periodicity of round-robin striping.  A hit
    #: charges ``server_cache_hit_cost`` instead of the per-region scan
    #: cost.  Changes timing, never results; ``False`` reproduces the
    #: uncached expansion bit for bit.
    expand_cache: bool = True
    #: Bound on total regions held across one server's cache entries
    #: (one region = three int64 words); the file system's host-level
    #: ``ExpansionStore`` is bounded by the same number.
    expand_cache_max_regions: int = 1_048_576
    #: Largest per-period region count the cache will store as a
    #: reusable period entry (periods beyond this fall back to exact
    #: per-window entries).
    expand_cache_period_regions: int = 262_144
    #: Worker threads per I/O daemon.  ``1`` (default) is the paper's
    #: single-threaded iod: requests serialize through one loop and the
    #: CPU work of read-side access-list construction stalls the
    #: transmit pump (§4.3).  ``N > 1`` models a modern multi-threaded
    #: server: plan and storage stages of distinct requests overlap (up
    #: to N at once, disk arm still serialized) and a dedicated network
    #: thread keeps pumping responses.  Changes timing, never results.
    server_threads: int = 1
    #: Bound on requests admitted per server (queued + in service) when
    #: ``server_threads > 1``.  Beyond it the server rejects the request
    #: outright and the client backs off and resends (admission control
    #: / backpressure).  Ignored in single-threaded mode, where the
    #: paper's unbounded mailbox queueing is preserved.
    server_queue_depth: int = 64
    #: Client back-off before resending a rejected request (seconds).
    server_retry_backoff: float = 2.0e-3
    #: End-to-end request tracing (``repro.trace``): every I/O job gets
    #: a trace id that follows it from the MPI-IO entry point through
    #: the client, across the simulated network, and through every
    #: server pipeline stage; spans collect in the file system's
    #: :class:`~repro.trace.TraceRecorder` for Chrome/Perfetto export.
    #: Recording is purely observational — enabling it never moves the
    #: simulated clock, so timings and counters are bit-identical with
    #: tracing on or off.  Off by default (zero overhead: every
    #: instrumentation site is a single attribute test).
    trace: bool = False
    #: Metrics collection (``repro.metrics``): counters, latency
    #: histograms per pipeline stage, and a periodic sampler that
    #: snapshots queue depths, cache hit rates, bytes in flight, and
    #: NIC utilization into time series keyed to the simulated clock.
    #: Like tracing, collection is purely observational — the sampler
    #: rides the engine's clock hook and never creates events, so
    #: metrics-on runs are bit-identical to metrics-off.  Off by
    #: default (every site is a single attribute test).
    metrics: bool = False
    #: Sampling cadence of the metrics time series, in simulated
    #: seconds (default 1 ms; typical paper-scale runs span tens of
    #: milliseconds to seconds).
    metrics_interval: float = 1e-3
    #: Deterministic fault injection (``repro.faults``): a
    #: :class:`~repro.faults.FaultConfig` arms seeded disk
    #: slowdown/stall, message drop/duplication and server-crash
    #: injection, plus the client's timeout + exponential-backoff
    #: failover path.  Every fault decision is drawn from counter-keyed
    #: streams seeded by ``FaultConfig.seed`` (never the wall clock),
    #: so a (workload, seed, fault config) triple replays bit-for-bit.
    #: ``None`` (default) disarms the machinery entirely and is
    #: float-equality identical to a build without it.
    faults: Optional[FaultConfig] = None
    #: Multi-tenant weighted-fair admission (``None`` — off): a tuple
    #: of :class:`TenantConfig`.  When set, each I/O daemon classifies
    #: incoming requests by their tenant id into per-tenant queues and
    #: admits them by deficit round-robin (weights), optionally paced
    #: by per-tenant token buckets (``rate_limit``), with starvation
    #: accounting.  ``None`` preserves the paper's FIFO mailbox
    #: admission bit for bit.
    tenants: Optional[tuple[TenantConfig, ...]] = None
    #: Whether byte-range locking is available (PVFS: no).
    supports_locking: bool = False
    #: Collapse runs of consecutive synchronous requests from one
    #: client to the same server set into one simulated exchange
    #: (preserves per-op cost accounting; see DESIGN.md §5).
    sim_batching: bool = True

    def __post_init__(self):
        if self.n_servers < 1:
            raise ValueError("need at least one I/O server")
        if self.strip_size < 1:
            raise ValueError("strip_size must be positive")
        if not (0 <= self.metadata_server < self.n_servers):
            raise ValueError("metadata_server out of range")
        if self.list_io_max_regions < 1:
            raise ValueError("list_io_max_regions must be positive")
        if self.dataloop_batch_regions < 1:
            raise ValueError("dataloop_batch_regions must be positive")
        if self.expand_cache_max_regions < 1:
            raise ValueError("expand_cache_max_regions must be positive")
        if self.expand_cache_period_regions < 1:
            raise ValueError("expand_cache_period_regions must be positive")
        if self.server_threads < 1:
            raise ValueError("server_threads must be positive")
        if self.server_queue_depth < self.server_threads:
            raise ValueError(
                "server_queue_depth must be at least server_threads"
            )
        if self.server_retry_backoff < 0:
            raise ValueError("server_retry_backoff must be non-negative")
        if self.metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        if self.tenants is not None:
            if not isinstance(self.tenants, tuple) or not self.tenants:
                raise ValueError(
                    "tenants must be None or a non-empty tuple of "
                    "TenantConfig"
                )
            for t in self.tenants:
                if not isinstance(t, TenantConfig):
                    raise ValueError(
                        "tenants entries must be TenantConfig instances"
                    )
            names = [t.name for t in self.tenants]
            if len(set(names)) != len(names):
                raise ValueError("tenant names must be unique")
        if self.faults is not None and not isinstance(
            self.faults, FaultConfig
        ):
            raise ValueError("faults must be a FaultConfig or None")
        if self.faults is not None:
            for s, _t0, _t1 in self.faults.server_crashes:
                if s >= self.n_servers:
                    raise ValueError(
                        f"crash window names server {s} but the file "
                        f"system has {self.n_servers}"
                    )
