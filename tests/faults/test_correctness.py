"""Degraded-mode correctness: faults may slow I/O, never corrupt it.

Property tests over a small real-data cluster: under fault schedules
that drop, duplicate and stall aggressively, every write that returns
has landed its exact bytes (verified out-of-band via ``read_back``) and
every read returns the exact bytes previously planted — resends are
idempotent and duplicated responses deduplicate, so at-least-once
delivery stays byte-correct.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FaultConfig
from repro.pvfs import PVFS, PVFSConfig
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists


def make_fs(faults, **kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64, faults=faults)
    defaults.update(kw)
    return PVFS(env, config=PVFSConfig(**defaults))


def run_client(fs, fn):
    p = fs.env.process(fn(fs.client("cl0")))
    return fs.env.run(p)


def chaos_config(seed, crash=False):
    """Aggressive but recoverable: every fault family armed."""
    return FaultConfig(
        seed=seed,
        disk_slow_prob=0.2,
        disk_slow_factor=3.0,
        disk_stall_prob=0.05,
        disk_stall_seconds=1e-3,
        net_drop_prob=0.15,
        net_dup_prob=0.1,
        server_crashes=((2, 0.0, 5e-3),) if crash else (),
        rpc_timeout=5e-3,
        retry_backoff=1e-4,
    )


def payload(nbytes, seed):
    return (np.arange(nbytes, dtype=np.int64) * (seed + 3) % 251).astype(
        np.uint8
    )


@settings(max_examples=8, deadline=None)
@given(pairs=sorted_region_lists(max_regions=8), seed=st.integers(0, 2**16))
def test_faulty_list_write_lands_exact_bytes(pairs, seed):
    regions = Regions.from_pairs(pairs)
    fs = make_fs(chaos_config(seed))
    data = payload(regions.total_bytes, seed)

    def main(c):
        fh = yield from c.open("/w")
        yield from c.write_list(fh, regions, data=data)
        return fh.handle

    handle = run_client(fs, main)
    # verify out-of-band: no client/fault code on this path
    for i in range(regions.count):
        off, ln = int(regions.offsets[i]), int(regions.lengths[i])
        lo = int(regions.lengths[:i].sum())
        got = fs.read_back(handle, off, ln)
        assert np.array_equal(got, data[lo : lo + ln])


@settings(max_examples=8, deadline=None)
@given(pairs=sorted_region_lists(max_regions=8), seed=st.integers(0, 2**16))
def test_faulty_list_read_returns_exact_bytes(pairs, seed):
    regions = Regions.from_pairs(pairs)
    fs = make_fs(chaos_config(seed))
    extent = int(regions.offsets[-1] + regions.lengths[-1]) if regions.count else 0
    file_bytes = payload(max(extent, 1), seed ^ 0x5A5A)

    def main(c):
        fh = yield from c.open("/r")
        fs.write_direct(fh.handle, 0, file_bytes)  # plant out-of-band
        out = yield from c.read_list(fh, regions)
        return out

    out = run_client(fs, main)
    expected = regions.gather(file_bytes)
    assert np.array_equal(out, expected)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_contig_roundtrip_survives_server_crash(seed):
    fs = make_fs(chaos_config(seed, crash=True))
    data = payload(1024, seed)  # striped over all 4 servers incl. crashed

    def main(c):
        fh = yield from c.open("/c")
        yield from c.write(fh, 0, data)
        out = yield from c.read(fh, 0, data.size)
        return out

    out = run_client(fs, main)
    assert np.array_equal(out, data)


def test_duplication_only_stays_byte_correct():
    # 100% duplication: every data-path message arrives twice; dedup by
    # request id must keep the roundtrip exact with zero timeouts
    fs = make_fs(FaultConfig(seed=1, net_dup_prob=1.0))
    data = payload(512, 17)

    def main(c):
        fh = yield from c.open("/dup")
        yield from c.write(fh, 0, data)
        out = yield from c.read(fh, 0, data.size)
        return out

    out = run_client(fs, main)
    assert np.array_equal(out, data)
    s = fs.faults.summary()
    assert s["dups"] > 0
    assert s["timeouts"] == 0


def test_drop_recovery_is_attributed():
    # high drop rate: the run must record drops, timeouts and matching
    # failovers, and still finish with correct data
    fs = make_fs(
        FaultConfig(
            seed=4, net_drop_prob=0.3, rpc_timeout=5e-3, retry_backoff=1e-4
        )
    )
    data = payload(2048, 9)

    def main(c):
        fh = yield from c.open("/drop")
        yield from c.write(fh, 0, data)
        out = yield from c.read(fh, 0, data.size)
        return out

    out = run_client(fs, main)
    assert np.array_equal(out, data)
    s = fs.faults.summary()
    assert s["drops"] > 0
    assert s["timeouts"] > 0
    assert s["failovers"] > 0
    assert s["exhausted"] == 0
    assert fs.faults.degraded
