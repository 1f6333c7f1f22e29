"""Run one (workload, method) pair through the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..metrics import MetricsHub
from ..mpiio import File, Hints, MPIIOCounters, SimMPI
from ..mpiio.adio import get_method
from ..pvfs import PVFS, PVFSConfig
from ..pvfs.errors import LockUnsupported
from ..regions.core import as_u8
from ..simulation import CostModel, Environment, summarize_network
from ..simulation.stats import NetworkSummary, ServerPipelineSummary
from ..trace import TraceRecorder, summarize_trace

__all__ = ["RunResult", "run_workload"]

MIB = 1024 * 1024


@dataclass
class RunResult:
    """Outcome of one benchmark run."""

    workload: str
    method: str
    n_clients: int
    supported: bool = True
    elapsed: float = 0.0  #: simulated seconds of the I/O phase
    desired_bytes: int = 0  #: per client
    accessed_bytes: int = 0  #: per client (mean)
    io_ops: float = 0  #: per client (mean)
    resent_bytes: float = 0  #: per client (mean)
    request_desc_bytes: float = 0  #: per client (mean)
    server_stats: dict = field(default_factory=dict)
    network: Optional[NetworkSummary] = None
    pipeline: Optional[ServerPipelineSummary] = None  #: per-stage server time
    #: Span recorder + aggregate summary; populated only when the run
    #: used ``PVFSConfig(trace=True)``.
    tracer: Optional[TraceRecorder] = None
    trace_summary: Optional[dict] = None
    #: Metrics hub (finalized); populated only when the run used
    #: ``PVFSConfig(metrics=True)``.
    metrics: Optional[MetricsHub] = None
    #: Fault injector of the finished run; populated only when the run
    #: used ``PVFSConfig(faults=...)``.
    faults: Optional[object] = None
    #: True iff at least one fault was actually injected.
    degraded: bool = False
    #: The I/O servers of the finished run (imbalance reporting).
    servers: list = field(default_factory=list)
    #: The finished file system.  Its parts refer back to it only
    #: weakly, so the result keeps it alive (``servers[0].system``).
    fs: Optional[PVFS] = field(default=None, repr=False)
    #: rank -> (io_start, io_end) simulated seconds; io_end is taken
    #: before the closing barrier, so per-rank makespans are honest.
    rank_times: dict = field(default_factory=dict)
    note: str = ""

    @property
    def total_desired(self) -> int:
        return self.desired_bytes * self.n_clients

    @property
    def bandwidth_mbps(self) -> float:
        """Aggregate MiB/s of desired data over the I/O phase."""
        if self.elapsed <= 0 or not self.supported:
            return 0.0
        return self.total_desired / MIB / self.elapsed

    def row(self) -> dict:
        """Tabular form used by the reports."""
        if not self.supported:
            return {
                "method": self.method,
                "desired": None,
                "accessed": None,
                "ops": None,
                "resent": None,
            }
        return {
            "method": self.method,
            "desired": self.desired_bytes,
            "accessed": self.accessed_bytes,
            "ops": self.io_ops,
            "resent": self.resent_bytes,
        }


def run_workload(
    workload,
    method: str,
    *,
    phantom: bool = True,
    verify: bool = False,
    costs: Optional[CostModel] = None,
    config: Optional[PVFSConfig] = None,
    hints: Optional[Hints] = None,
    tenant_of: Optional[Callable[[int], int]] = None,
) -> RunResult:
    """Simulate the workload with the given access method.

    ``phantom=True`` (default) accounts all sizes without moving real
    bytes — used for paper-scale runs.  ``verify=True`` moves real data
    and checks the write→read-back roundtrip (small scales only).
    """
    if verify and phantom:
        raise ValueError("verify requires phantom=False")
    env = Environment()
    costs = costs or CostModel()
    fs = PVFS(env, config=config or PVFSConfig(), costs=costs)
    mpi = SimMPI(
        fs,
        workload.n_clients,
        procs_per_node=workload.procs_per_node,
        tenant_of=tenant_of,
    )
    hints = hints or Hints()
    collective = get_method(method).collective

    start_times: list[float] = []
    rank_times: dict[int, tuple[float, float]] = {}
    unsupported: list[bool] = []

    def rank_main(ctx):
        f = yield from File.open(ctx, workload.path, hints)
        etype = workload.etype()
        memtype = workload.memtype(ctx.rank)
        mcount = workload.mem_count(ctx.rank)
        buf = None if phantom else _make_buffer(workload, ctx.rank, memtype)
        yield from ctx.comm.barrier()
        t_io_start = env.now
        start_times.append(t_io_start)
        reps = workload.repetitions_for(ctx.rank)
        for rep in range(reps):
            f.set_view(
                workload.displacement(ctx.rank, rep),
                etype,
                workload.filetype(ctx.rank),
            )
            io = (
                (f.write_at_all if collective else f.write_at)
                if workload.is_write
                else (f.read_at_all if collective else f.read_at)
            )
            try:
                yield from io(0, memtype, mcount, buf, method=method)
            except LockUnsupported:
                unsupported.append(True)
                yield from ctx.comm.barrier()
                return f.counters
        rank_times[ctx.rank] = (t_io_start, env.now)
        if verify and workload.is_write:
            # read back with the always-correct datatype path and compare
            back = np.zeros_like(as_u8(buf))
            f.set_view(
                workload.displacement(ctx.rank, reps - 1),
                etype,
                workload.filetype(ctx.rank),
            )
            yield from f.read_at(0, memtype, mcount, back, method="datatype_io")
            mem_regions = memtype.flatten(mcount)
            if not np.array_equal(
                mem_regions.gather(back), mem_regions.gather(buf)
            ):
                raise AssertionError(
                    f"rank {ctx.rank}: read-back mismatch for {method}"
                )
        yield from ctx.comm.barrier()
        return f.counters

    counters: list[MPIIOCounters] = mpi.run(rank_main)

    result = RunResult(
        workload=workload.name,
        method=method,
        n_clients=workload.n_clients,
        fs=fs,
    )
    if unsupported:
        result.supported = False
        result.note = "requires file locking (unavailable on PVFS)"
        return result
    t0 = min(start_times) if start_times else 0.0
    result.elapsed = env.now - t0
    n = workload.n_clients
    result.desired_bytes = workload.bytes_per_client()
    result.accessed_bytes = int(
        round(sum(c.accessed_bytes for c in counters) / n)
    )
    result.io_ops = sum(c.io_ops for c in counters) / n
    result.resent_bytes = sum(c.resent_bytes for c in counters) / n
    result.request_desc_bytes = (
        sum(c.request_desc_bytes for c in counters) / n
    )
    result.rank_times = dict(rank_times)
    result.server_stats = fs.total_server_stats()
    result.network = summarize_network(fs.net, result.elapsed)
    result.pipeline = fs.pipeline_summary()
    if fs.tracer.enabled:
        result.tracer = fs.tracer
        result.trace_summary = summarize_trace(fs.tracer)
    result.servers = fs.servers
    if fs.metrics.enabled:
        # capture the tail sample so series integrals cover the full run
        fs.metrics.finalize()
        result.metrics = fs.metrics
    if fs.faults.enabled:
        result.faults = fs.faults
        result.degraded = fs.faults.degraded
    return result


def _make_buffer(workload, rank, memtype) -> np.ndarray:
    buf = workload.fill_buffer(rank)
    need = memtype.true_ub
    if buf.size < need:
        buf = np.concatenate(
            [buf, np.zeros(need - buf.size, dtype=np.uint8)]
        )
    return buf
