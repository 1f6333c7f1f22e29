"""Bit-identity of the vectorized core across the full method matrix.

The tentpole acceptance bar of the hot-path vectorization: running on
the per-block references of ``tests/reference/core.py`` (substituted by
the ``reference_core`` fixture) may change wall-clock only — every
simulated figure (elapsed, ops, bytes, per-stage server time, network
totals) must agree to the last ULP for the shared ``method_scheduler``
matrix (all six access methods × both scheduler configurations).
"""

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import FlashWorkload, TileWorkload
from repro.mpiio.methods.sieving import _sieve_plan
from repro.pvfs import PVFSConfig
from repro.regions import Regions

from ..conftest import assert_bit_identical
from ..reference import core as reference


def _workload(name):
    if name == "tile":
        return TileWorkload.reduced(frames=1)
    return FlashWorkload.reduced(2)


@pytest.mark.parametrize("workload", ["tile", "flash"])
def test_scalar_fallback_bit_identical(
    reference_core, method_scheduler, workload
):
    method, sched = method_scheduler

    def run():
        return run_workload(
            _workload(workload),
            method,
            phantom=True,
            config=PVFSConfig(n_servers=4, **sched),
        )

    fast = run()
    with reference_core():
        ref = run()
    assert fast.supported == ref.supported
    if fast.supported:
        assert_bit_identical(fast, ref)


class TestSievePlan:
    def _regions(self):
        rng = np.random.default_rng(7)
        offs = np.cumsum(rng.integers(10, 200, 40)) - 10
        lens = rng.integers(1, 9, 40)
        return Regions(offs, lens)

    @pytest.mark.parametrize("bufsize", [64, 128, 256, 1 << 20])
    def test_matches_per_chunk_clip(self, bufsize):
        regions = self._regions()
        plan = _sieve_plan(regions, bufsize)
        lo, hi = regions.extent()
        starts = list(range(lo, hi, bufsize))
        assert [(a, b) for a, b, _, _ in plan] == list(
            zip(starts, starts[1:] + [hi])
        )
        for a, b, clipped, spos in plan:
            want, want_pos = reference.clip_with_stream(regions, a, b)
            assert clipped == want
            assert np.array_equal(spos, want_pos)

    def test_empty_regions(self):
        assert _sieve_plan(Regions.empty(), 256) == []
