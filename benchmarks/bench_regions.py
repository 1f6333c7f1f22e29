"""Micro-benchmarks of region algebra and data movement."""

import numpy as np
import pytest

from repro.pvfs.distribution import Distribution
from repro.regions import Regions


@pytest.fixture(scope="module")
def big_regions():
    return Regions.from_pairs([(i * 24, 12) for i in range(100_000)])


@pytest.fixture(scope="module")
def buf():
    return np.random.default_rng(0).integers(
        0, 255, 24 * 100_000 + 64, dtype=np.uint8
    )


def bench_gather_100k_regions(benchmark, big_regions, buf):
    out = benchmark(big_regions.gather, buf)
    assert out.size == big_regions.total_bytes


def bench_scatter_100k_regions(benchmark, big_regions, buf):
    data = big_regions.gather(buf)
    target = np.zeros_like(buf)
    benchmark(big_regions.scatter, target, data)


def bench_coalesce_dense(benchmark):
    r = Regions.from_pairs([(i * 4, 4) for i in range(100_000)])
    out = benchmark(r.coalesce)
    assert out.count == 1


def bench_tile(benchmark):
    r = Regions.from_pairs([(0, 8), (16, 8)])
    out = benchmark(r.tile, 50_000, 32)
    assert out.count == 100_000


def bench_slice_stream(benchmark, big_regions):
    """A stream window by cut and select: ``split_at_stream`` at both
    ends, then the one slice of pieces between them."""
    total = big_regions.total_bytes
    window = [total // 4, 3 * total // 4]

    def cut_and_select():
        pieces = big_regions.split_at_stream(window)
        a, b = np.searchsorted(pieces.stream_ends, window, side="right")
        return pieces[int(a) : int(b)]

    out = benchmark(cut_and_select)
    assert out.total_bytes == 3 * total // 4 - total // 4


def bench_split_at_stream(benchmark, big_regions):
    cuts = np.arange(0, big_regions.total_bytes, 512)
    out = benchmark(big_regions.split_at_stream, cuts)
    assert out.total_bytes == big_regions.total_bytes


def bench_intersect_100k(benchmark, big_regions):
    other = Regions.from_pairs([(i * 20 + 6, 10) for i in range(100_000)])
    out = benchmark(big_regions.intersect, other)
    assert out.count > 0


def bench_normalized_unsorted(benchmark):
    rng = np.random.default_rng(1)
    r = Regions(
        rng.integers(0, 1 << 20, 100_000), rng.integers(1, 64, 100_000)
    )
    out = benchmark(r.normalized)
    assert out.total_bytes <= r.total_bytes


def bench_coalesce_sparse(benchmark, big_regions):
    out = benchmark(big_regions.coalesce)
    assert out.count == big_regions.count  # 12-byte runs, 12-byte gaps


def bench_partition_with_stream(benchmark, big_regions):
    lo, hi = big_regions.extent()
    bounds = np.linspace(lo, hi, 257).astype(np.int64)
    parts = benchmark(big_regions.partition_with_stream, bounds)
    assert sum(c.total_bytes for c, _ in parts) == big_regions.total_bytes


def bench_distribution_split(benchmark, big_regions):
    """Striping split of a 100k-region access (client job building)."""
    dist = Distribution(16, 65536)
    split = benchmark(dist.split, big_regions)
    assert sum(sp.nbytes for sp in split.values()) == big_regions.total_bytes


def bench_server_regions(benchmark, big_regions):
    """One server's share (the server-side dataloop intersection)."""
    dist = Distribution(16, 65536)
    share = benchmark(dist.server_regions, big_regions, 3)
    assert share.nbytes > 0
