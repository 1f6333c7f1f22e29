"""The live metrics hub: instrumentation sites + the periodic sampler.

One :class:`MetricsHub` per simulated file system (``PVFSConfig
(metrics=True)``).  It owns a :class:`~repro.metrics.registry.MetricsRegistry`
and exposes the narrow site API the instrumented layers call
(``observe_stage``, ``observe_rpc``, ``message`` …); every site guards
with ``if metrics.enabled:`` so the disabled singleton
(:data:`NULL_METRICS`) costs a single attribute test, exactly the
``repro.trace`` pattern.

The **sampler** runs off the simulation engine's clock hook
(:attr:`Environment.clock_hook <repro.simulation.engine.Environment>`):
whenever the event loop is about to advance the clock past a sampling
boundary (``metrics_interval`` cadence), the hub snapshots per-server
queue depth, cache hit rate and bytes served, global bytes in flight,
and per-NIC utilization over the elapsed interval into
:class:`~repro.metrics.registry.Series`.  The hook never creates
simulation events, so a metrics-on run is bit-identical to a
metrics-off run — same guarantee, and the same float-equality test, as
tracing.

:func:`reconcile_metrics` cross-checks the hub against the independent
:class:`~repro.simulation.stats.StageTimes` /
:class:`~repro.simulation.stats.NetworkSummary` accounting: per-stage
histogram sums must match stage seconds, NIC utilization series
integrals must match NIC busy seconds, and the message/byte counters
must match the network totals.  ``repro-bench metrics`` treats any
divergence as a hard failure.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Optional

from .registry import MetricsRegistry, SampleTable

if TYPE_CHECKING:  # pragma: no cover
    from ..pvfs.system import PVFS
    from ..simulation.stats import NetworkSummary, StageTimes

__all__ = ["MetricsHub", "NullMetrics", "NULL_METRICS", "reconcile_metrics"]

#: Pipeline stages, in charge order (mirrors StageTimes.stage_fields()).
STAGES = ("decode", "plan", "cache", "storage", "respond")

#: The three columns sampled per I/O daemon, in row order.
_SERVER_SERIES = (
    (
        "repro_server_queue_depth",
        "Requests queued or in flight at the I/O daemon",
    ),
    ("repro_server_cache_hit_rate", "Cumulative expansion-cache hit rate"),
    ("repro_server_bytes", "Cumulative bytes served (read + written)"),
)


class MetricsHub:
    """Registry + sampler + instrumentation sites for one file system."""

    enabled = True

    def __init__(self, env, interval: float):
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        # the file system owns this hub and its env's clock hook calls
        # it: both are held weakly (the env is read only at the end)
        self._env = weakref.ref(env)
        self.interval = interval
        self.registry = MetricsRegistry()
        self.samples = 0
        self._fs: Optional[weakref.ref] = None
        self._next_sample = interval
        self._last_sample_t = 0.0
        #: the compiled sampler: one ``(table, servers slice, gauge,
        #: nodes, prev_busy)`` entry per plan generation (:meth:`_compile`)
        self._plan: list[tuple] = []
        self._planned = (0, 0)  # servers, nodes the plan covers
        self._finalized = False

        reg = self.registry
        self._h_stage = {
            s: reg.histogram(
                "repro_stage_seconds",
                "Per-request pipeline stage latency",
                stage=s,
            )
            for s in STAGES
        }
        self._h_request = reg.histogram(
            "repro_request_seconds",
            "End-to-end server request latency (queue wait + service)",
        )
        self._h_queue_wait = reg.histogram(
            "repro_queue_wait_seconds",
            "Time a request sat in the server mailbox/admission queue",
        )
        self._h_rpc: dict[str, object] = {}
        self._h_op: dict[tuple[str, str], object] = {}
        self._c_messages = reg.counter(
            "repro_net_messages", "Messages sent over the simulated network"
        )
        self._c_net_bytes = reg.counter(
            "repro_net_bytes", "Bytes sent over the simulated network"
        )
        self._c_retries = reg.counter(
            "repro_client_retries",
            "Client resends after admission-control rejection",
        )
        self._g_inflight = reg.gauge(
            "repro_net_inflight_bytes",
            "Bytes reserved on NICs but not yet delivered",
        )
        # fault and collective families are created by their first
        # event (the registry get-or-creates; a hit costs two dict
        # probes), so a run without them exports none of them
        # multi-tenant instruments, created lazily per tenant so a
        # single-tenant run exports no repro_tenant_* families at all
        self._tenant_names: Optional[list[str]] = None
        self._h_tenant_request: dict[int, object] = {}
        self._h_tenant_wait: dict[int, object] = {}
        self._c_tenant_bytes: dict[int, object] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, fs: "PVFS") -> None:
        """Attach the file system whose state the sampler snapshots."""
        self._fs = weakref.ref(fs)
        tenants = fs.config.tenants
        if tenants is not None:
            self._tenant_names = [t.name for t in tenants]

    @property
    def env(self):
        return self._env()

    # ------------------------------------------------------------------
    # instrumentation sites (all pure observation)
    # ------------------------------------------------------------------
    def observe_stage(self, stage: str, seconds: float) -> None:
        self._h_stage[stage].observe(seconds)

    def observe_request(self, seconds: float) -> None:
        self._h_request.observe(seconds)

    def observe_queue_wait(self, seconds: float) -> None:
        self._h_queue_wait.observe(seconds)

    def observe_rpc(self, seconds: float, op_kind: str) -> None:
        h = self._h_rpc.get(op_kind)
        if h is None:
            h = self.registry.histogram(
                "repro_rpc_seconds",
                "Client round-trip latency, request sent to response "
                "accepted (includes rejection backoff and resends)",
                op=op_kind,
            )
            self._h_rpc[op_kind] = h
        h.observe(seconds)

    def observe_op(self, seconds: float, method: str, is_write: bool) -> None:
        key = (method, "write" if is_write else "read")
        h = self._h_op.get(key)
        if h is None:
            h = self.registry.histogram(
                "repro_mpiio_seconds",
                "Whole MPI-IO operation latency",
                method=key[0],
                op=key[1],
            )
            self._h_op[key] = h
        h.observe(seconds)

    def _tenant(self, cache: dict, make, tenant: int, name: str, help: str):
        """``tenant``'s child of one per-tenant family, created by its
        first event; ``None`` on an untenanted file system."""
        names = self._tenant_names
        if names is None:
            return None
        inst = cache.get(tenant)
        if inst is None:
            label = names[tenant] if 0 <= tenant < len(names) else names[0]
            inst = cache[tenant] = make(name, help, tenant=label)
        return inst

    def tenant_request(self, tenant: int, seconds: float) -> None:
        """Per-tenant end-to-end request latency (no-op untenanted)."""
        h = self._tenant(
            self._h_tenant_request, self.registry.histogram, tenant,
            "repro_tenant_request_seconds",
            "End-to-end server request latency, by tenant",
        )
        if h is not None:
            h.observe(seconds)

    def tenant_queue_wait(self, tenant: int, seconds: float) -> None:
        """Per-tenant admission queue wait (no-op untenanted)."""
        h = self._tenant(
            self._h_tenant_wait, self.registry.histogram, tenant,
            "repro_tenant_queue_wait_seconds",
            "Time a request waited for weighted-fair admission, by tenant",
        )
        if h is not None:
            h.observe(seconds)

    def tenant_bytes(self, tenant: int, nbytes: int) -> None:
        """Per-tenant data bytes served (no-op untenanted)."""
        c = self._tenant(
            self._c_tenant_bytes, self.registry.counter, tenant,
            "repro_tenant_bytes",
            "Data bytes served (read + written), by tenant",
        )
        if c is not None:
            c.inc(nbytes)

    def tenant_throughputs(self) -> dict[str, float]:
        """Served bytes per tenant / elapsed time — the vector to feed
        :func:`~repro.metrics.fairness.jain_index`."""
        now = self.env.now
        if self._tenant_names is None or now <= 0:
            return {}
        out = {}
        for i, name in enumerate(self._tenant_names):
            c = self._c_tenant_bytes.get(i)
            out[name] = (c.value / now) if c is not None else 0.0
        return out

    def message(self) -> None:
        self._c_messages.inc()

    def net_bytes(self, nbytes: int) -> None:
        """Wire bytes only — loopback sends count messages, not bytes,
        mirroring ``Network.bytes_transferred`` exactly."""
        self._c_net_bytes.inc(nbytes)

    def inflight(self, delta_bytes: int) -> None:
        self._g_inflight.inc(delta_bytes)

    def retry(self) -> None:
        self._c_retries.inc()

    def fault(self, kind: str) -> None:
        self.registry.counter(
            "repro_fault_events",
            "Injected faults (repro.faults), by kind",
            kind=kind,
        ).inc()

    def fault_stall(self, seconds: float) -> None:
        self.registry.counter(
            "repro_fault_stall_seconds",
            "Storage-stage seconds injected by disk faults",
        ).inc(seconds)

    def timeout(self) -> None:
        self.registry.counter(
            "repro_client_timeouts",
            "Client RPC response timeouts (fault injection)",
        ).inc()

    def failover(self) -> None:
        self.registry.counter(
            "repro_client_failovers",
            "Client requests that succeeded after >=1 timeout",
        ).inc()

    def collective(self, views_merged: int, requests_saved: int) -> None:
        """Account one collective datatype operation (rank 0 reports)."""
        self.registry.counter(
            "repro_collective_views_merged",
            "Per-rank file views deduplicated by fingerprint at the "
            "collective aggregators",
        ).inc(views_merged)
        self.registry.counter(
            "repro_collective_requests_saved",
            "Data-path requests avoided vs the independent datatype "
            "path (one per rank per touched server)",
        ).inc(requests_saved)

    def coll_resend(self) -> None:
        """One collective segment resent/re-fetched after an ack timeout."""
        self.registry.counter(
            "repro_coll_resends",
            "Collective data segments resent (write) or re-fetched "
            "(read) after a per-round ack timeout",
        ).inc()

    def coll_reelect(self) -> None:
        """One aggregator re-election (rounds handed to a survivor)."""
        self.registry.counter(
            "repro_coll_reelections",
            "Collective aggregator re-elections after a composite "
            "request timed out past the escalation ladder",
        ).inc()

    # ------------------------------------------------------------------
    # periodic sampling (engine clock hook)
    # ------------------------------------------------------------------
    def on_clock(self, prev_now: float, next_t: float) -> None:
        """Engine hook: the clock is about to advance to ``next_t``.

        Emits one sample per crossed boundary.  State read at boundary
        ``b`` reflects every event strictly before ``b`` plus none at or
        after it — deterministic, and independent of how many events
        share an instant.
        """
        due = self._next_sample
        if next_t < due or self._fs is None or self._finalized:
            return
        while due <= next_t:
            self._sample(due)
            due += self.interval
        self._next_sample = due

    def finalize(self) -> None:
        """Take the closing partial sample at the current instant.

        Called once after the simulation finishes so series cover the
        tail beyond the last whole interval (this is what makes the
        utilization integrals reconcile exactly with NIC busy totals).
        Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._fs is None:
            return
        now = self.env.now
        if now > self._last_sample_t:
            self._sample(now)

    def _compile(self) -> None:
        """Resolve every series the plan does not cover yet — all of
        them at the first tick, later only those of servers and nodes
        registered since — into the columns of one new table.  A node's
        previous busy seconds start at 0, so its first delta carries
        everything accrued before it was planned."""
        fs = self._fs()
        reg = self.registry
        n_servers, n_nodes = self._planned
        table = SampleTable()
        servers = slice(n_servers, len(fs.servers))
        for server in fs.servers[servers]:
            for name, help in _SERVER_SERIES:
                reg.series(name, help, table, server=server.actor)
        gauge = None
        if not self._plan:
            gauge = self._g_inflight
            reg.series(
                "repro_net_inflight_bytes_sampled",
                "Bytes reserved on NICs but not yet delivered, sampled",
                table,
            )
        nodes = list(fs.net.nodes.values())[n_nodes:]
        for node in nodes:
            for side in ("tx", "rx"):
                reg.series(
                    f"repro_nic_{side}_utilization",
                    f"NIC {side} busy fraction over the sample interval "
                    "(can exceed 1: reservations book busy time up "
                    "front)",
                    table,
                    node=node.name,
                )
        self._plan.append((table, servers, gauge, nodes, [0.0] * 2 * len(nodes)))
        self._planned = (len(fs.servers), len(fs.net.nodes))

    def _sample(self, t: float) -> None:
        fs = self._fs()
        dt = t - self._last_sample_t
        self._last_sample_t = t
        self.samples += 1
        if (len(fs.servers), len(fs.net.nodes)) != self._planned:
            self._compile()

        for table, servers, gauge, nodes, prev in self._plan:
            row = []
            put = row.append
            for server in fs.servers[servers]:
                put(float(server.queue_depth()))
                cache = server.expand_cache
                lookups = (cache.hits + cache.misses) if cache is not None else 0
                put(cache.hits / lookups if lookups else 0.0)
                put(float(server.bytes_read + server.bytes_written))
            if gauge is not None:
                put(gauge.value)
            i = 0
            for node in nodes:
                tx = node.tx_busy_time
                rx = node.rx_busy_time
                put((tx - prev[i]) / dt if dt > 0 else 0.0)
                put((rx - prev[i + 1]) / dt if dt > 0 else 0.0)
                prev[i] = tx
                prev[i + 1] = rx
                i += 2
            table.append(t, dt, row)


class NullMetrics:
    """Disabled metrics: every site is a no-op behind ``enabled=False``."""

    enabled = False
    samples = 0

    def bind(self, fs) -> None:
        pass

    def observe_stage(self, stage, seconds) -> None:
        pass

    def observe_request(self, seconds) -> None:
        pass

    def observe_queue_wait(self, seconds) -> None:
        pass

    def observe_rpc(self, seconds, op_kind) -> None:
        pass

    def observe_op(self, seconds, method, is_write) -> None:
        pass

    def tenant_request(self, tenant, seconds) -> None:
        pass

    def tenant_queue_wait(self, tenant, seconds) -> None:
        pass

    def tenant_bytes(self, tenant, nbytes) -> None:
        pass

    def tenant_throughputs(self) -> dict:
        return {}

    def message(self) -> None:
        pass

    def net_bytes(self, nbytes) -> None:
        pass

    def inflight(self, delta_bytes) -> None:
        pass

    def retry(self) -> None:
        pass

    def fault(self, kind) -> None:
        pass

    def fault_stall(self, seconds) -> None:
        pass

    def timeout(self) -> None:
        pass

    def failover(self) -> None:
        pass

    def collective(self, views_merged, requests_saved) -> None:
        pass

    def coll_resend(self) -> None:
        pass

    def coll_reelect(self) -> None:
        pass

    def on_clock(self, prev_now, next_t) -> None:
        pass

    def finalize(self) -> None:
        pass


#: Shared disabled singleton; ``PVFS`` uses it when ``config.metrics`` is off.
NULL_METRICS = NullMetrics()


def reconcile_metrics(
    hub: MetricsHub,
    stage_times: "StageTimes",
    net_summary: "NetworkSummary",
    tol: float = 1e-9,
) -> list[str]:
    """Cross-check hub instruments against the independent accounting.

    Three reconciliations, all maintained by disjoint code paths so
    agreement is a real invariant, not a tautology:

    * per-stage histogram sums vs :class:`StageTimes` stage seconds;
    * per-NIC utilization series integrals vs ``NodeUtilization`` busy
      seconds (requires :meth:`MetricsHub.finalize` to have captured
      the tail interval);
    * message/byte counters vs the network's global totals (exact).

    Returns the list of divergences (empty = reconciled).
    """
    problems: list[str] = []
    for stage in STAGES:
        want = getattr(stage_times, stage)
        got = hub._h_stage[stage].sum
        if abs(want - got) > tol:
            problems.append(
                f"stage {stage}: histogram sum {got!r} != "
                f"StageTimes {want!r}"
            )

    fams = hub.registry.families
    for side in ("tx", "rx"):
        fam = fams.get(f"repro_nic_{side}_utilization")
        children = (
            {dict(k)["node"]: v for k, v in fam.children.items()}
            if fam is not None
            else {}
        )
        for node in net_summary.nodes:
            busy = node.tx_busy if side == "tx" else node.rx_busy
            series = children.get(node.name)
            got = series.integral() if series is not None else 0.0
            if abs(busy - got) > tol:
                problems.append(
                    f"nic {node.name}/{side}: series integral {got!r} "
                    f"!= busy {busy!r}"
                )

    if hub._c_messages.value != net_summary.total_messages:
        problems.append(
            f"messages: counter {hub._c_messages.value!r} != "
            f"network {net_summary.total_messages!r}"
        )
    if hub._c_net_bytes.value != net_summary.total_bytes:
        problems.append(
            f"bytes: counter {hub._c_net_bytes.value!r} != "
            f"network {net_summary.total_bytes!r}"
        )
    return problems
