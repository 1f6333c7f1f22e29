"""Micro-benchmarks of the datatype/dataloop engine (paper §3.2).

These measure the reproduction's own processing costs: datatype →
dataloop conversion, dataloop stream expansion (the server-side path),
full flattening, and wire encoding.
"""

import numpy as np
import pytest

from repro.datatypes import INT, subarray, vector
from repro.dataloops import (
    Dataloop,
    DataloopStream,
    build_dataloop,
    dumps,
    loads,
    stream_regions,
)
from repro.pvfs.distribution import Distribution
from repro.pvfs.expand_cache import ExpansionCache
from repro.pvfs.protocol import DataloopWindow

BLOCK_3D = subarray([600, 600, 600], [150, 150, 150], [0, 0, 0], INT)
VECTOR_BIG = vector(100_000, 2, 5, INT)
BLOCK_CACHE = subarray([64, 64, 64], [32, 32, 32], [16, 16, 16], INT)


@pytest.fixture(scope="module")
def block_loop():
    return build_dataloop(BLOCK_3D)


@pytest.fixture(scope="module")
def vector_loop():
    return build_dataloop(VECTOR_BIG)


def bench_build_dataloop_subarray(benchmark):
    loop = benchmark(build_dataloop, BLOCK_3D)
    assert loop.data_size == BLOCK_3D.size


def bench_build_dataloop_vector(benchmark):
    loop = benchmark(build_dataloop, VECTOR_BIG)
    assert loop.node_count() == 1


def bench_stream_expand_full(benchmark, block_loop):
    """Expand the 3-D block filetype (22,500 regions) — server path."""
    regions = benchmark(stream_regions, block_loop)
    assert regions.count == 150 * 150


def bench_stream_expand_window(benchmark, block_loop):
    size = block_loop.data_size

    def run():
        return stream_regions(block_loop, first=size // 3, last=2 * size // 3)

    regions = benchmark(run)
    assert regions.total_bytes == 2 * size // 3 - size // 3


def bench_partial_batches_64(benchmark, vector_loop):
    """Bounded-batch iteration (the partial-processing mode)."""

    def run():
        n = 0
        for batch in DataloopStream(vector_loop, max_regions=64):
            n += batch.count
        return n

    assert benchmark(run) == 100_000


def _irregular_loop(kind, n=20_000):
    rng = np.random.default_rng(3)
    bls = rng.integers(1, 4, n)
    offs = np.cumsum(rng.integers(40, 80, n)) - 40
    child = Dataloop.final_vector(2, 1, 6, 2, extent=16)
    extent = int(offs[-1]) + 64
    if kind == "indexed":
        return Dataloop.indexed(bls, offs, child, extent)
    return Dataloop.struct(bls, offs, [child] * n, extent)


@pytest.mark.parametrize("kind", ["indexed", "struct"])
def bench_stream_irregular_window(benchmark, kind):
    """Partial window over a 20k-block indexed/struct loop (run table)."""
    loop = _irregular_loop(kind)
    size = loop.data_size

    def run():
        return DataloopStream(
            loop, first=size // 3, last=2 * size // 3, cache_threshold=1 << 30
        ).regions()

    regions = benchmark(run)
    assert regions.total_bytes == 2 * size // 3 - size // 3


def bench_datatype_flatten(benchmark):
    t = subarray([600, 600, 600], [150, 150, 150], [0, 0, 0], INT)

    def run():
        t._dataloop = None  # defeat the memo: convert and expand again
        return t.flatten()

    regions = benchmark(run)
    assert regions.count == 22_500


@pytest.fixture(scope="module")
def cache_window():
    loop = build_dataloop(BLOCK_CACHE)
    win = DataloopWindow(loop, 0, 0, 32 * loop.data_size)
    return win, Distribution(4, 65536)


def bench_expand_cache_miss(benchmark, cache_window):
    """Server-side expansion with a cold cache every call (miss path)."""
    win, dist = cache_window

    def run():
        cache = ExpansionCache(1 << 20, 1 << 18)
        return cache.expand(win, dist, 0, 65536)

    split, _, hit = benchmark(run)
    assert not hit and split.regions.count


def bench_expand_cache_hit(benchmark, cache_window):
    """The same expansion through a warm cache (hit path)."""
    win, dist = cache_window
    cache = ExpansionCache(1 << 20, 1 << 18)
    cache.expand(win, dist, 0, 65536)

    split, _, hit = benchmark(cache.expand, win, dist, 0, 65536)
    assert hit and split.regions.count


def bench_expand_cache_periodic_hit(benchmark, cache_window):
    """A different window assembled from the cached period entry."""
    win, dist = cache_window
    ds = win.loop.data_size
    cache = ExpansionCache(1 << 20, 1 << 18)
    cache.expand(win, dist, 0, 65536)
    other = DataloopWindow(win.loop, 0, 2 * ds, 30 * ds)

    split, _, hit = benchmark(cache.expand, other, dist, 0, 65536)
    assert hit and split.regions.count


def bench_serialize(benchmark, block_loop):
    data = benchmark(dumps, block_loop)
    assert len(data) < 200  # concise for regular patterns


def bench_deserialize(benchmark, block_loop):
    data = dumps(block_loop)
    loop = benchmark(loads, data)
    assert loop.data_size == block_loop.data_size
