"""The five benchmark workloads, as lists of cells.

A *cell* is one ``(geometry, access method, PVFSConfig)`` run through
the stack's public API with a fresh workload object, the way
``repro.bench.figures`` drives it.  A *repetition* is one pass over a
workload's cells.  ``build(name, seed, quick)`` returns the cells; the
``quick`` sizes are the same cells on smaller geometries (smoke runs and
the untimed warm-up pass).

Sizes were trimmed (grid, frames, blocks, client counts; never the cell
list) until one repetition takes 1-2 host seconds, so that a run of
``BENCHMARK.json``'s ``run_seconds`` holds several repetitions in each
of its worker processes.  README.md records why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bench import (
    Block3DWorkload,
    FlashWorkload,
    TileWorkload,
    Workload,
    run_workload,
)
from repro.bench.workloads import ScaleWorkload
from repro.datatypes import BYTE, contiguous, hindexed
from repro.faults import FaultConfig, severity_config
from repro.mpiio import METHODS, File, SimMPI
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.pvfs.errors import LockUnsupported
from repro.simulation import Environment

import oracle

MIB = 1024 * 1024
SIX = ("posix", "data_sieving", "two_phase", "list_io", "datatype_io",
       "collective_dtype")


@dataclass
class CellResult:
    """What one cell run produced (host time is added by the caller)."""

    ok: bool = True
    error: str = ""
    #: simulated aggregate MiB/s; 0 for an expected-unsupported cell
    mib_s: float = 0.0
    #: every simulated figure of the run, for the exact fingerprint
    figures: tuple = ()
    #: public counters of the finished file system, per layer
    counters: dict = field(default_factory=dict)
    #: ``observed`` only: host seconds of the off and on halves
    off_s: float = 0.0
    on_s: float = 0.0
    host_s: float = 0.0


@dataclass
class Cell:
    name: str
    fn: Callable[[], CellResult]


# ----------------------------------------------------------------------
# reading a finished run from outside
# ----------------------------------------------------------------------
def _counters(fs: PVFS) -> dict:
    pipe = fs.pipeline_summary().total
    clients = [c.counters for c in fs.clients]
    lookups = pipe.cache_hits + pipe.cache_misses
    return {
        "engine.events": fs.env.scheduled_events,
        "network.messages": fs.net.message_count,
        "network.wire_bytes": fs.net.bytes_transferred,
        "client.io_ops": sum(c.io_ops for c in clients),
        # resends of either kind: admission rejections and RPC timeouts
        "client.retries": sum(c.retries + c.timeouts for c in clients),
        "server.requests": pipe.requests,
        "server.regions_scanned": sum(s.regions_scanned for s in fs.servers),
        "server.rejected": pipe.rejected,
        "server.busy_sim_s": pipe.busy,
        "expand_cache.hits": pipe.cache_hits,
        "expand_cache.lookups": lookups,
        "expand_cache.evictions": pipe.cache_evictions,
        "storage.disk_seeks": sum(s.disk.total_seeks for s in fs.servers),
        "storage.store_bytes": sum(
            s.store.bytes_read + s.store.bytes_written for s in fs.servers
        ),
        "obs.spans": len(fs.tracer),
        "obs.samples": getattr(fs.metrics, "samples", 0),
        "faults.injected": len(fs.faults.events) if fs.faults.enabled else 0,
    }


def _figures(fs: PVFS, elapsed, io_ops, accessed, resent) -> tuple:
    pipe = fs.pipeline_summary().total
    stages = tuple(getattr(pipe, s) for s in pipe.stage_fields())
    return (
        elapsed, io_ops, accessed, resent, *stages,
        fs.net.bytes_transferred, fs.net.message_count,
    )


def _from_run(r) -> CellResult:
    if not r.supported:
        return CellResult(ok=False, error="unexpectedly unsupported")
    fs = r.servers[0].system
    return CellResult(
        mib_s=r.bandwidth_mbps,
        figures=_figures(
            fs, r.elapsed, r.io_ops, r.accessed_bytes, r.resent_bytes
        ),
        counters=_counters(fs),
    )


def fingerprint(named_figures) -> str:
    """sha256 over every cell's name and ``float.hex`` figures."""
    h = hashlib.sha256()
    for name, figures in named_figures:
        h.update(name.encode())
        for x in figures:
            h.update(b"|" + float(x).hex().encode())
        h.update(b"\n")
    return h.hexdigest()


def gmean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# cell kinds
# ----------------------------------------------------------------------
def sim(name, make, method, config=None, tenants=False) -> Cell:
    """Phantom-payload run through ``run_workload``."""

    def fn() -> CellResult:
        wl = make()
        return _from_run(run_workload(
            wl, method, config=config,
            tenant_of=wl.tenant_of if tenants else None,
        ))

    return Cell(name, fn)


def pair(name, make, method, seed) -> Cell:
    """The cell with every observer off, then on (trace, metrics and an
    armed-inert fault config).  Observation must not move a simulated
    figure, so the two halves have to agree exactly."""
    on = PVFSConfig(trace=True, metrics=True, faults=FaultConfig(seed=seed))

    def fn() -> CellResult:
        t0 = time.perf_counter()
        off_r = _from_run(run_workload(make(), method))
        t1 = time.perf_counter()
        on_r = _from_run(run_workload(make(), method, config=on))
        t2 = time.perf_counter()
        on_r.off_s, on_r.on_s = t1 - t0, t2 - t1
        if not (off_r.ok and on_r.ok):
            on_r.ok, on_r.error = False, off_r.error or on_r.error
        elif off_r.figures != on_r.figures:
            on_r.ok, on_r.error = False, "observers moved a simulated figure"
        return on_r

    return Cell(name, fn)


def real(case: oracle.Case, writer: str) -> Cell:
    """Write the case with ``writer``, read it back with all six
    methods, and hold every read and the file image to the oracle."""

    def fn() -> CellResult:
        wl = case.make()
        env = Environment()
        fs = PVFS(env, config=PVFSConfig())
        mpi = SimMPI(fs, wl.n_clients, procs_per_node=wl.procs_per_node)
        bad: list[str] = []
        unsupported: list[int] = []

        def io(f, rank, method, is_write, bufs):
            call = {
                (True, True): f.write_at_all, (True, False): f.write_at,
                (False, True): f.read_at_all, (False, False): f.read_at,
            }[is_write, METHODS[method].collective]
            for frame in range(len(bufs)):
                f.set_view(
                    wl.displacement(rank, frame), BYTE, wl.filetype(rank)
                )
                yield from call(
                    0, wl.memtype(rank), 1, bufs[frame], method=method
                )

        def rank_main(ctx):
            rank = ctx.rank
            f = yield from File.open(ctx, wl.path)
            try:
                yield from io(f, rank, writer, True, case.bufs[rank])
            except LockUnsupported:
                unsupported.append(rank)
                yield from ctx.comm.barrier()
                return f.counters
            yield from ctx.comm.barrier()
            for reader in SIX:
                outs = [np.zeros_like(b) for b in case.bufs[rank]]
                yield from io(f, rank, reader, False, outs)
                for frame, out in enumerate(outs):
                    if not np.array_equal(out, case.expect[rank][frame]):
                        bad.append(f"{reader} rank {rank} frame {frame}")
            yield from ctx.comm.barrier()
            return f.counters

        counters = mpi.run(rank_main)
        if unsupported:
            # ROMIO cannot sieve writes without locks, and PVFS has none
            if writer == "data_sieving" and len(unsupported) == wl.n_clients:
                return CellResult(figures=(0.0,))
            return CellResult(ok=False, error="unexpectedly unsupported")
        handle = fs.metadata.files[wl.path].handle
        got = fs.read_back(handle, 0, fs.logical_size(handle))
        if not np.array_equal(got, case.image):
            bad.append("file image")
        desired = sum(c.desired_bytes for c in counters)
        return CellResult(
            ok=not bad,
            error="oracle mismatch: " + ", ".join(bad[:4]) if bad else "",
            mib_s=desired / MIB / env.now,
            figures=_figures(
                fs, env.now,
                sum(c.io_ops for c in counters),
                sum(c.accessed_bytes for c in counters),
                sum(c.resent_bytes for c in counters),
            ),
            counters=_counters(fs),
        )

    return Cell(f"{case.name}.w_{writer}", fn)


# ----------------------------------------------------------------------
# the seeded irregular view
# ----------------------------------------------------------------------
class IrregularWorkload(Workload):
    """Every rank reads its own random-gap ``hindexed`` view.

    No two ranks share a dataloop fingerprint, so nothing deduplicates
    and every expansion-cache lookup misses; run with a period bound
    below the view's region count so the cache also falls back from
    period entries to exact ones.
    """

    name = "irregular"
    path = "/irregular"

    def __init__(self, seed: int, n_clients: int, blocks: int):
        self.n_clients = n_clients
        self._views = []
        for rank in range(n_clients):
            rng = np.random.default_rng([seed, 4, rank])
            lens = rng.integers(8, 64, blocks)
            gaps = rng.integers(8, 256, blocks)
            disps = np.cumsum(lens + gaps) - lens - gaps[0]
            self._views.append(hindexed(lens.tolist(), disps.tolist(), BYTE))
        self._span = max(v.extent for v in self._views)
        size = min(v.size for v in self._views)
        self._mem = contiguous(size, BYTE)

    def filetype(self, rank):
        return self._views[rank]

    def memtype(self, rank):
        return self._mem

    def displacement(self, rank, rep):
        return rank * self._span


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
def _scale_cell(n_clients: int) -> Cell:
    """The ``repro-bench scale`` cell shape: strip-aligned reads from
    ``n_clients`` ranks in 4 tenants over 16 daemons (timer wheel,
    deficit-round-robin admission)."""
    strip, tenants = 16384, 4
    config = PVFSConfig(
        n_servers=16, strip_size=strip,
        tenants=tuple(TenantConfig(name=f"t{i}") for i in range(tenants)),
    )
    return sim(
        f"scale_c{n_clients}_t4_i16.datatype_io",
        lambda: ScaleWorkload(
            n_clients=n_clients, block_bytes=strip, blocks=2,
            n_tenants=tenants, tenant_reps=(4,) * tenants, is_write=False,
        ),
        "datatype_io", config, tenants=True,
    )


def rpc_storm(seed, quick):
    g2, blocks, g4, frames, clients = (
        (96, 2, 64, 1, 64) if quick else (240, 12, 160, 4, 256)
    )
    return [
        sim("block3d_m2_read.posix",
            lambda: Block3DWorkload(grid=g2, clients_per_dim=2), "posix"),
        sim("flash_n8_write.posix",
            lambda: FlashWorkload(n_clients=8, nblocks=blocks), "posix"),
        sim("block3d_m4_read.list_io",
            lambda: Block3DWorkload(grid=g4, clients_per_dim=4), "list_io"),
        sim("tile_read.list_io.threads4",
            lambda: TileWorkload.paper(frames), "list_io",
            PVFSConfig(server_threads=4)),
        _scale_cell(clients),
    ]


def dtype_expand(seed, quick):
    grid, f_dt, f_co, n_flash, blocks = (
        (48, 2, 1, 8, 512) if quick else (120, 8, 3, 32, 4096)
    )
    cells = [
        sim(f"block3d_m4_{'write' if w else 'read'}.{m}",
            lambda w=w: Block3DWorkload(
                grid=grid, clients_per_dim=4, is_write=w), m)
        for w in (False, True)
        for m in ("datatype_io", "collective_dtype", "two_phase")
    ]
    cells += [
        sim("tile_read.datatype_io",
            lambda: TileWorkload.paper(f_dt), "datatype_io"),
        sim("tile_read.collective_dtype",
            lambda: TileWorkload.paper(f_co), "collective_dtype"),
    ]
    cells += [
        sim(f"flash_n{n_flash}_write.{m}",
            lambda: FlashWorkload.paper(n_flash), m)
        for m in ("datatype_io", "collective_dtype", "two_phase")
    ]
    cells.append(sim(
        "irregular_read.datatype_io",
        lambda: IrregularWorkload(seed, 8, blocks), "datatype_io",
        PVFSConfig(expand_cache_period_regions=blocks // 4),
    ))
    return cells


def real_bytes(seed, quick):
    if quick:
        cases = [oracle.block3d_case(seed, 24, 2),
                 oracle.flash_case(seed, 2, 1),
                 oracle.tile_case(seed, 64, 48, 2)]
    else:
        cases = [oracle.block3d_case(seed, 48, 2),
                 oracle.flash_case(seed, 4, 1),
                 oracle.tile_case(seed, 192, 144, 2)]
    return [real(case, writer) for case in cases for writer in SIX]


def observed(seed, quick):
    frames, grid = (1, 48) if quick else (3, 120)
    return [
        pair("tile_read.list_io",
             lambda: TileWorkload.paper(frames), "list_io", seed),
        pair("tile_read.collective_dtype",
             lambda: TileWorkload.paper(frames), "collective_dtype", seed),
        pair("block3d_m4_read.datatype_io",
             lambda: Block3DWorkload(grid=grid, clients_per_dim=4),
             "datatype_io", seed),
    ]


def degraded(seed, quick):
    frames = 1 if quick else 5
    config = PVFSConfig(faults=severity_config("moderate", seed))
    return [
        sim(f"tile_read.{m}.moderate",
            lambda: TileWorkload.paper(frames), m, config)
        for m in SIX
    ]


BUILDERS = {
    "rpc_storm": rpc_storm,
    "dtype_expand": dtype_expand,
    "real_bytes": real_bytes,
    "observed": observed,
    "degraded": degraded,
}
NAMES = tuple(BUILDERS)


def build(name: str, seed: int, quick: bool) -> list[Cell]:
    return BUILDERS[name](seed, quick)


def run_pass(cells, wrap=None) -> list[CellResult]:
    """One repetition.  A cell that raises is a failed cell, not a
    crashed benchmark.  ``wrap(cell, fn)`` lets the traced pass put a
    profiler around the call."""
    out = []
    for cell in cells:
        t0 = time.perf_counter()
        try:
            res = wrap(cell, cell.fn) if wrap else cell.fn()
        except Exception as exc:  # boundary: count it, keep measuring
            res = CellResult(ok=False, error=f"{type(exc).__name__}: {exc}")
        res.host_s = time.perf_counter() - t0
        out.append(res)
    return out
