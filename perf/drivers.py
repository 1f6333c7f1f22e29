"""Layer drivers: each layer's public functions, timed from outside.

Every driver builds its input from the benchmark workloads' own
datatypes (tile and 3-D block file types, the seeded irregular view),
calls one public function of one layer in a loop for a time slice and
reports a rate.  A driver predicts its layer's ``self_s`` on the
workload README.md names; it imports nothing from ``tools/`` or
``benchmarks/``, which later changes may delete.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import Block3DWorkload, TileWorkload
from repro.dataloops import DataloopStream, build_dataloop, dumps, loads
from repro.pvfs.distribution import Distribution
from repro.pvfs.expand_cache import ExpansionCache
from repro.pvfs.protocol import DataloopWindow
from repro.regions import Regions
from repro.simulation import CostModel, Environment, Network
from repro.storage import BlockStore, DiskModel

from workloads import MIB, IrregularWorkload

EVENTS = 20_000
MESSAGES = 2_000


def _per_call(fn, slice_s: float) -> float:
    """Seconds per call of ``fn`` over about ``slice_s`` seconds."""
    fn()  # first call pays one-off caches; not what the layer costs
    n = 0
    t0 = time.perf_counter()
    while True:
        fn()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= slice_s:
            return elapsed / n


def _timeouts(delay_of):
    def run():
        env = Environment()

        def proc():
            for i in range(EVENTS):
                yield env.timeout(delay_of(i))

        env.process(proc())
        env.run()

    return run


def _cancels():
    env = Environment()

    def proc():
        for _ in range(EVENTS // 10):
            timers = [env.call_later(10.0, lambda _ev: None) for _ in range(10)]
            for t in timers:
                t.cancel()
            yield env.timeout(1e-3)

    env.process(proc())
    env.run()


def _messages():
    env = Environment()
    net = Network(env)
    a = net.mailbox(net.node("a"), "a")
    b = net.mailbox(net.node("b"), "b")

    def sender():
        for _ in range(MESSAGES):
            yield from net.send(a, b, 1024)

    def receiver():
        for _ in range(MESSAGES):
            yield b.get()

    env.process(sender())
    env.process(receiver())
    env.run()


def run_all(seed: int, slice_s: float) -> dict:
    """Every ``drv.*`` metric of ``schema.DRIVERS``."""
    tile = TileWorkload.paper(4)
    tile_type = tile.filetype(1)
    tile_flat = tile_type.flatten()
    frames = tile_flat.tile(4, tile.frame_bytes)
    irregular = IrregularWorkload(seed, 1, 4096).filetype(0)
    irregular_loop = build_dataloop(irregular)
    tile_loop = build_dataloop(tile_type)
    dist = Distribution(16, 65536)

    out = {}
    for name, delay_of in (
        ("fifo", lambda i: 0.0),
        ("heap", lambda i: 1e-4),
        ("wheel", lambda i: 5e-3 + (i % 7) * 1e-3),
    ):
        out[f"drv.engine.{name}_ev_per_s"] = EVENTS / _per_call(
            _timeouts(delay_of), slice_s
        )
    out["drv.engine.cancel_per_s"] = EVENTS / _per_call(_cancels, slice_s)
    out["drv.network.msgs_per_s"] = MESSAGES / _per_call(_messages, slice_s)

    out["drv.regions.tile_us"] = 1e6 * _per_call(
        lambda: tile_flat.tile(16, tile.frame_bytes), slice_s
    )
    strips = Regions(
        np.arange(0, tile.frame_bytes, 4 * 65536, dtype=np.int64),
        np.full(-(-tile.frame_bytes // (4 * 65536)), 65536, dtype=np.int64),
    )
    out["drv.regions.intersect_us"] = 1e6 * _per_call(
        lambda: tile_flat.intersect(strips), slice_s
    )
    frame = np.random.default_rng([seed, 5]).integers(
        0, 256, tile.frame_bytes, dtype=np.uint8
    )
    out["drv.regions.gather_mib_s"] = tile_flat.total_bytes / MIB / _per_call(
        lambda: tile_flat.gather(frame), slice_s
    )
    out["drv.distribution.split_us"] = 1e6 * _per_call(
        lambda: dist.split(frames), slice_s
    )

    def expand():
        return DataloopStream(irregular_loop, count=8).regions()

    out["drv.dataloops.expand_mregions_s"] = (
        expand().count / 1e6 / _per_call(expand, slice_s)
    )
    out["drv.dataloops.serialize_us"] = 1e6 * _per_call(
        lambda: loads(dumps(irregular_loop)), slice_s
    )

    def flatten():
        # a fresh type every call: flattenings are cached per instance
        return Block3DWorkload(grid=120, clients_per_dim=4).filetype(21).flatten()

    out["drv.datatypes.flatten_mregions_s"] = (
        flatten().count / 1e6 / _per_call(flatten, slice_s)
    )

    disk = DiskModel(CostModel())
    one = Regions.single(8192, 4096)
    out["drv.storage.access_time_us"] = 1e6 * _per_call(
        lambda: disk.access_time(one), slice_s
    )
    share = dist.split(tile_flat)[0]
    payload = frame[: share.nbytes]
    store = BlockStore()

    def store_rw():
        store.write_regions(1, share.regions, payload)
        store.read_regions(1, share.regions)

    out["drv.storage.store_rw_mib_s"] = 2 * share.nbytes / MIB / _per_call(
        store_rw, slice_s
    )

    cache = ExpansionCache(1 << 20, 1 << 18)
    # three stripe periods in: a hit also shifts the cached split
    window = DataloopWindow(tile_loop, 3 * 16 * 65536, 0, tile_loop.data_size)
    out["drv.expand_cache.hit_us"] = 1e6 * _per_call(
        lambda: cache.expand(window, dist, 3, 65536), slice_s
    )
    return out
