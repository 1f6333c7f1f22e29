"""A finished run frees itself.

The file system owns its parts and every part refers back up only
weakly, daemons parked on their mailboxes included, so dropping the last
outside reference to a finished run frees the whole simulated cluster by
reference counting alone.  With the cyclic collector disabled, weak
references to the ``PVFS``, its ``Environment``, every ``IOServer`` and
the ``ExpansionStore`` must all die at that ``del``; a collection right
afterwards must find no ``repro.pvfs`` / ``repro.mpiio`` object, i.e.
nothing of the run was waiting for it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.bench import Block3DWorkload, run_workload
from repro.datatypes import BYTE
from repro.faults import FaultConfig
from repro.mpiio import METHODS, File, SimMPI
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.pvfs.protocol import CollSegment
from repro.simulation import Environment

from ..conftest import ALL_METHODS

SHAPES = {
    "serial": (PVFSConfig(), None),
    "threads4": (PVFSConfig(server_threads=4), None),
    "tenants4": (
        PVFSConfig(tenants=tuple(TenantConfig(name=f"t{i}") for i in range(4))),
        lambda rank: rank % 4,
    ),
}
OBSERVED = {"trace": True, "metrics": True, "faults": FaultConfig(seed=1)}


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_reclaimed(holder: dict) -> None:
    """Drop ``holder["fs"]`` (the only outside reference) and check
    that the run was freed by reference counting alone."""
    fs = holder.pop("fs")
    refs = [weakref.ref(o) for o in (fs, fs.env, fs.expansions, *fs.servers)]
    del fs
    alive = [type(r()).__name__ for r in refs if r() is not None]
    assert not alive, f"still alive without the collector: {alive}"
    saved = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        cyclic = {
            type(o).__qualname__
            for o in gc.garbage
            if type(o).__module__.startswith(("repro.pvfs", "repro.mpiio"))
        }
    finally:
        gc.set_debug(saved)
        gc.garbage.clear()
    assert not cyclic, f"left for the cyclic collector: {sorted(cyclic)}"


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("method", ALL_METHODS)
def test_finished_run_is_freed(method, shape, observed):
    config, tenant_of = SHAPES[shape]
    if observed:
        config = dataclasses.replace(config, **OBSERVED)
    with collector_off():
        result = run_workload(
            Block3DWorkload(grid=24, clients_per_dim=2),
            method,
            config=config,
            tenant_of=tenant_of,
        )
        assert result.supported and result.elapsed > 0
        # the result keeps its file system alive for readers
        assert result.servers[0].system.env is result.fs.env
        holder = {"fs": result.fs}
        holder["fs"].assert_quiescent()
        del result
        assert_reclaimed(holder)


def test_payload_drive_is_freed():
    """A direct ``PVFS`` + ``SimMPI`` + ``File`` drive moving real bytes:
    write a Block3D view collectively, read it back with every method."""
    wl = Block3DWorkload(grid=24, clients_per_dim=2, is_write=True)
    rng = np.random.default_rng(1234)
    bufs = [rng.integers(0, 256, wl.memtype(r).true_ub, dtype=np.uint8) for r in range(wl.n_clients)]
    bad = []

    def io(f, rank, method, is_write, buf):
        call = {
            (True, True): f.write_at_all, (True, False): f.write_at,
            (False, True): f.read_at_all, (False, False): f.read_at,
        }[is_write, METHODS[method].collective]
        f.set_view(wl.displacement(rank, 0), BYTE, wl.filetype(rank))
        yield from call(0, wl.memtype(rank), 1, buf, method=method)

    def rank_main(ctx):
        f = yield from File.open(ctx, wl.path)
        yield from io(f, ctx.rank, "collective_dtype", True, bufs[ctx.rank])
        yield from ctx.comm.barrier()
        mem = wl.memtype(ctx.rank).flatten(1)
        for method in ALL_METHODS:
            out = np.zeros_like(bufs[ctx.rank])
            yield from io(f, ctx.rank, method, False, out)
            if not np.array_equal(mem.gather(out), mem.gather(bufs[ctx.rank])):
                bad.append((method, ctx.rank))
        yield from ctx.comm.barrier()

    with collector_off():
        env = Environment()
        holder = {"fs": PVFS(env, config=PVFSConfig())}
        mpi = SimMPI(holder["fs"], wl.n_clients, procs_per_node=wl.procs_per_node)
        mpi.run(rank_main)
        assert not bad
        holder["fs"].assert_quiescent()
        del env, mpi
        assert_reclaimed(holder)


def test_quiescence_check_reports_leftovers():
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=2))
    env.run()
    fs.assert_quiescent()
    fs.servers[0].scheduler.inflight += 1
    fs.coll_recovery["x"] = object()
    with pytest.raises(AssertionError, match="iod0 busy"):
        fs.assert_quiescent()


@pytest.mark.parametrize("pool, name", [("threads", "cpu"), ("disk_arm", "disk")])
def test_quiescence_check_reports_a_held_pool_slot(pool, name):
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=2, server_threads=2))
    env.run()
    fs.assert_quiescent()
    getattr(fs.servers[1].scheduler, pool).request()  # granted, never released
    env.run()
    with pytest.raises(AssertionError, match=f"iod1\\.{name} held"):
        fs.assert_quiescent()


@pytest.mark.parametrize("owners, left", [(1, "cn0 held"), (2, "cn1 queued")])
def test_quiescence_check_reports_a_byte_range_lock(owners, left):
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=2, supports_locking=True))

    def take(owner):  # granted or queued, never released
        yield from fs.locks.acquire(1, 0, 64, owner)

    for i in range(owners):
        env.process(take(f"cn{i}"))
    env.run()
    with pytest.raises(AssertionError, match=f"lock {left}"):
        fs.assert_quiescent()


def test_quiescence_check_reports_a_parked_collective_round():
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=2))
    env.run()
    fs.assert_quiescent()
    # a write round's segment whose aggregated request never comes
    fs.servers[1].coll.ingest_segment(CollSegment((1, 0, True), 3, 1, "cn0", 8))
    with pytest.raises(
        AssertionError, match=r"iod1 parked round \(\(1, 0, True\), 3\)"
    ):
        fs.assert_quiescent()


def test_quiescence_check_reports_an_uncompleted_receive():
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=2))
    c = fs.client("cn0")
    env.run()
    fs.assert_quiescent()
    c._posted[7] = object()  # a receive nobody will ever complete
    with pytest.raises(AssertionError, match=f"{c.name} posted \\[7\\]"):
        fs.assert_quiescent()
