"""Run one (workload, method) pair through the simulated cluster.

Every run ``repro.bench`` makes is a :class:`Spec`: :func:`run` runs it,
:func:`cell` runs it at most once per process and keeps only what its
observer read off, and :func:`mesh` lays a document's cells out axis by
axis.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional

from ..metrics import MetricsHub
from ..mpiio import File, Hints, MPIIOCounters, SimMPI
from ..mpiio.adio import get_method
from ..pvfs import PVFS, PVFSConfig
from ..pvfs.errors import LockUnsupported
from ..simulation import Environment, summarize_network
from ..simulation.stats import NetworkSummary, ServerPipelineSummary
from ..trace import TraceRecorder, summarize_trace

__all__ = [
    "Cell",
    "RunResult",
    "Spec",
    "cell",
    "divergence",
    "mesh",
    "row",
    "run",
    "run_workload",
]

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
    #: The spec :func:`run` ran (``None`` from :func:`run_workload`).
    spec: Optional["Spec"] = field(default=None, repr=False)

    @property
    def total_desired(self) -> int:
        return self.desired_bytes * self.n_clients

    @property
    def bandwidth_mbps(self) -> float:
        """Aggregate MiB/s of desired data over the I/O phase."""
        if self.elapsed <= 0 or not self.supported:
            return 0.0
        return self.total_desired / MIB / self.elapsed


@dataclass(frozen=True)
class Cell:
    """What the paper's tables and figures read off one plain run: the
    per-client characteristics counters (means, as on
    :class:`RunResult`), the simulated I/O-phase seconds and the data
    requests the servers handled."""

    method: str
    supported: bool
    desired_bytes: int = 0
    accessed_bytes: int = 0
    io_ops: float = 0.0
    resent_bytes: float = 0.0
    request_desc_bytes: float = 0.0
    n_clients: int = 0
    elapsed: float = 0.0
    requests: int = 0

    @property
    def bandwidth_mbps(self) -> Optional[float]:
        """Aggregate MiB/s of desired data; ``None`` when unsupported
        (a gap in the figure)."""
        if not self.supported:
            return None
        if self.elapsed <= 0:
            return 0.0
        return self.desired_bytes * self.n_clients / MIB / self.elapsed


def run_workload(
    workload,
    method: str,
    *,
    config: Optional[PVFSConfig] = None,
    hints: Optional[Hints] = None,
    tenant_of: Optional[Callable[[int], int]] = None,
) -> RunResult:
    """Simulate the workload with the given access method.

    Sizes are accounted without moving payload bytes, so paper-scale
    runs stay cheap; ``tests/test_byte_oracle.py`` moves real bytes.
    """
    env = Environment()
    fs = PVFS(env, config=config or PVFSConfig())
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
        yield from ctx.comm.barrier()
        t_io_start = env.now
        start_times.append(t_io_start)
        for rep in range(workload.repetitions_for(ctx.rank)):
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
                yield from io(0, memtype, mcount, None, method=method)
            except LockUnsupported:
                unsupported.append(True)
                yield from ctx.comm.barrier()
                return f.counters
        rank_times[ctx.rank] = (t_io_start, env.now)
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


def cell_of(r: RunResult) -> Cell:
    """The default observer: the :class:`Cell` the tables and figures
    read."""
    read = {f.name: getattr(r, f.name) for f in fields(Cell) if f.name != "requests"}
    return Cell(**read, requests=r.server_stats.get("requests", 0))


@dataclass(frozen=True)
class Spec:
    """One run of the matrix and what is read off it.

    ``observe`` is a module-level function of the finished
    :class:`RunResult`; its output is the row :func:`cell` keeps.
    """

    workload: Any
    method: str
    config: PVFSConfig = PVFSConfig()
    observe: Callable[[RunResult], Any] = cell_of

    @property
    def key(self) -> tuple:
        """The workload's class and every dataclass field value, then
        the rest of the spec: two equal specs built apart share a key."""
        wl = self.workload
        value = (getattr(wl, f.name) for f in fields(wl))
        rest = (self.method, self.config, self.observe)
        return (type(wl), *value, *rest)


def run(spec: Spec) -> RunResult:
    """Run ``spec`` afresh.  Every replay and determinism gate calls
    this, never :func:`cell`, so its second execution is a real one.

    Ranks join the config's tenants by the workload's ``tenant_of``.
    An unarmed run must end quiescent (``PVFS.assert_quiescent``).
    """
    wl = spec.workload
    n = len(spec.config.tenants or ()) or 1
    r = run_workload(
        wl,
        spec.method,
        config=spec.config,
        tenant_of=lambda rank: wl.tenant_of(rank, n),
    )
    if spec.config.faults is None:
        r.fs.assert_quiescent()
    r.spec = spec
    return r


_CELLS: dict[tuple, Any] = {}


def cell(spec: Spec) -> Any:
    """``spec.observe(run(spec))``, run at most once per process for
    each :attr:`Spec.key`.  Only the observer's row is kept, never the
    result or its file system; every caller gets a copy of it."""
    key = spec.key
    if key not in _CELLS:
        _CELLS[key] = spec.observe(run(spec))
    return copy.deepcopy(_CELLS[key])


def row(observe: Callable[[RunResult], dict]) -> Callable[[RunResult], dict]:
    """A document's observer: ``observe``'s fields under
    ``"supported": True``, or ``{"supported": False, "note": …}`` for a
    run its method cannot do."""

    def observer(r: RunResult) -> dict:
        if not r.supported:
            return {"supported": False, "note": r.note}
        return {"supported": True, **observe(r)}

    return observer


def mesh(spec_at: Callable[..., Optional[Spec]], **axes) -> dict:
    """A record's rows: ``cell(spec_at(**point))`` for every point of
    the axes' cross product, nested one dict per axis, first axis
    outermost (dlup's ``indexed_ndmesh`` with ``ij`` indexing).  Name
    the axes after the document's ``Gate.levels``; the unsupported row
    comes from the :func:`row` observer.  A point whose spec is
    ``None`` is a gap: nothing runs and its row is ``None``."""
    rows: dict = {}
    for point in itertools.product(*axes.values()):
        node = rows
        for key in point[:-1]:
            node = node.setdefault(key, {})
        spec = spec_at(**dict(zip(axes, point)))
        node[point[-1]] = None if spec is None else cell(spec)
    return rows


def _record(r: RunResult) -> dict:
    """Everything simulated: the cell counters, the server totals, the
    per-stage seconds and the network summary."""
    return {
        **{k: v for k, v in asdict(cell_of(r)).items() if k != "method"},
        "server_stats": r.server_stats,
        "pipeline": r.pipeline and r.pipeline.total.as_dict(),
        "network": r.network and asdict(r.network),
    }


def divergence(a: RunResult, b: RunResult) -> list[str]:
    """Every simulated quantity on which two runs differ (empty: none).

    Exact equality, field for field: switching on what only observes
    (tracing, metrics, an inert fault config) may not move the
    simulation by a single ULP.
    """
    ra, rb = _record(a), _record(b)
    return [f"{k} differs: {ra[k]!r} != {rb[k]!r}" for k in ra if ra[k] != rb[k]]

