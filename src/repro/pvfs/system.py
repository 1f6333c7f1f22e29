"""PVFS cluster assembly.

:class:`PVFS` wires together the network, the I/O servers, the metadata
server and a lock manager, and hands out clients.  It also offers a few
non-simulated inspection helpers (``logical_size``, ``read_back``) used
by tests and examples to verify data without perturbing the simulated
clock.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..regions import Regions
from ..simulation import (
    CostModel,
    Environment,
    Network,
    ServerPipelineSummary,
    summarize_servers,
)
from ..faults import NULL_FAULTS, FaultInjector
from ..metrics import NULL_METRICS, MetricsHub
from ..trace import NULL_TRACER, TraceRecorder
from .client import PVFSClient
from .config import PVFSConfig
from .expand_cache import ExpansionStore
from .locks import LockManager
from .metadata import MetadataServer
from .server import IOServer

__all__ = ["PVFS"]


class PVFS:
    """A running parallel file system inside a simulation environment."""

    def __init__(
        self,
        env: Environment,
        config: Optional[PVFSConfig] = None,
        costs: Optional[CostModel] = None,
        net: Optional[Network] = None,
        **config_overrides,
    ):
        if config is None:
            config = PVFSConfig(**config_overrides)
        elif config_overrides:
            raise ValueError("pass either config or overrides, not both")
        self.env = env
        self.config = config
        self.costs = costs or CostModel()
        self.net = net or Network(env, self.costs)
        #: Span recorder (``repro.trace``); live only with
        #: ``config.trace``, otherwise the zero-overhead singleton.
        self.tracer = TraceRecorder(env) if config.trace else NULL_TRACER
        self.net.tracer = self.tracer
        #: Metrics hub (``repro.metrics``); live only with
        #: ``config.metrics``, otherwise the zero-overhead singleton.
        self.metrics = (
            MetricsHub(env, config.metrics_interval)
            if config.metrics
            else NULL_METRICS
        )
        self.net.metrics = self.metrics
        #: Fault injector (``repro.faults``); live only with
        #: ``config.faults``, otherwise the disarmed singleton.
        self.faults = (
            FaultInjector(
                env, config.faults, tracer=self.tracer, metrics=self.metrics
            )
            if config.faults is not None
            else NULL_FAULTS
        )
        self.net.faults = self.faults
        #: Shared per-collective completion state: coll_id ->
        #: :class:`~repro.pvfs.collective.CollRecovery`.
        #: Ranks on one simulated cluster coordinate re-elections and
        #: the completion gate through it; rank 0 clears the entry at
        #: the collective's closing barrier.
        self.coll_recovery: dict = {}
        #: Host-level memo of dataloop-window expansions shared by this
        #: file system's daemons (invisible to the simulation).
        self.expansions = ExpansionStore(config.expand_cache_max_regions)

        # the file system owns its parts; they get the shared services
        # here and refer back only weakly (docs/architecture.md §5)
        self.servers: list[IOServer] = []
        self.metadata = MetadataServer(
            env, self.net, self.costs, config, self.servers
        )
        for i in range(config.n_servers):
            node = self.net.node(f"ios{i}")
            mailbox = self.net.mailbox(node, f"iod{i}")
            server = IOServer(self, i, node, mailbox)
            self.servers.append(server)
            env.process(server.run(), name=f"iod{i}")

        # I/O server 0's node doubles as the metadata server (§4.1)
        self.metadata.mailbox = self.net.mailbox(self.servers[0].node, "mgr")
        env.process(self.metadata.run(), name="mgr")

        self.locks = LockManager(env, config)
        self._clients: list[PVFSClient] = []

        if config.metrics:
            # the sampler snapshots server/NIC state from the engine's
            # clock hook — never from simulation events, so enabling
            # metrics cannot perturb event ordering or timings
            self.metrics.bind(self)
            env.clock_hook = self.metrics.on_clock

    # ------------------------------------------------------------------
    def client(
        self,
        node_name: str,
        name: Optional[str] = None,
        tenant: int = 0,
    ) -> PVFSClient:
        """Create a client on the named node (created if needed).

        ``tenant`` indexes into ``PVFSConfig.tenants`` and is stamped on
        every request the client issues; ignored when tenancy is off.
        """
        node = self.net.node(node_name)
        client = PVFSClient(
            self, node, name or f"c{len(self._clients)}", tenant=tenant
        )
        self._clients.append(client)
        return client

    @property
    def clients(self) -> list[PVFSClient]:
        return list(self._clients)

    # ------------------------------------------------------------------
    # non-simulated inspection helpers (no clock movement)
    # ------------------------------------------------------------------
    def logical_size(self, handle: int) -> int:
        """Current logical file size, computed directly."""
        return self.metadata.logical_size(handle)

    def read_back(self, handle: int, offset: int, nbytes: int) -> np.ndarray:
        """Directly read logical bytes (tests/examples verification)."""
        meta = self.metadata.lookup(handle)
        out = np.zeros(nbytes, dtype=np.uint8)
        split = meta.dist.split(Regions.single(offset, nbytes))
        for s, share in split.items():
            data = self.servers[s].store.read_regions(
                handle, share.regions
            )
            share.stream_regions().scatter(out, data)
        return out

    def write_direct(self, handle: int, offset: int, data) -> None:
        """Directly write logical bytes (test fixture setup)."""
        data = np.asarray(data).view(np.uint8).reshape(-1)
        meta = self.metadata.lookup(handle)
        split = meta.dist.split(Regions.single(offset, data.size))
        for s, share in split.items():
            self.servers[s].store.write_regions(
                handle, share.regions, share.stream_regions().gather(data)
            )

    # ------------------------------------------------------------------
    def total_server_stats(self) -> dict[str, int]:
        """Aggregate counters across all I/O servers."""
        out = {"requests": sum(s.stage_times.requests for s in self.servers)}
        for k in ("ops", "accesses_built", "regions_scanned",
                  "bytes_read", "bytes_written"):
            out[k] = sum(getattr(s, k) for s in self.servers)
        out["disk_seeks"] = sum(s.disk.total_seeks for s in self.servers)
        return out

    def assert_quiescent(self) -> None:
        """Raise ``AssertionError`` unless the run left nothing behind:
        an empty engine queue and mailboxes, no receive posted at any
        client (no request or collective unfinished), no obligation
        left on any client's connection timer, no recovery record,
        every scheduler idle with no pool slot (thread, disk arm) held,
        no byte-range lock held or queued and no collective write round
        parked at a server."""
        stats = self.env.queue_stats()
        left = [f"queue {stats}"] if any(stats.values()) else []
        left += [f"mailbox {n}" for n, mb in self.net.mailboxes.items() if len(mb)]
        left += [
            f"{c.name} posted {list(c._posted)}"
            for c in self._clients if c._posted
        ]
        left += [f"{c.name} owes iod{s}" for c in self._clients for s in c._conns]
        left += [f"iod{s.index} busy" for s in self.servers if s.scheduler.inflight]
        left += [
            f"{pool.name} held"
            for s in self.servers
            for pool in s.scheduler.pools
            if pool.in_use
        ]
        left += [f"lock {t.owner} held" for t in self.locks._held]
        left += [f"lock {t.owner} queued" for t, _ in self.locks._waiters]
        left += [
            f"iod{s.index} parked round {key}"
            for s in self.servers
            for key in s.coll._rounds
        ]
        if self.coll_recovery or left:
            raise AssertionError(f"not quiescent: {left} {self.coll_recovery}")

    def pipeline_summary(self) -> ServerPipelineSummary:
        """Per-stage (decode/plan/storage/respond) server time, queue
        depths and admission-control rejections across all servers."""
        return summarize_servers(self.servers)
