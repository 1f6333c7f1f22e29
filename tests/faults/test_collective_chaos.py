"""Collective fault tolerance: chaos correctness, re-election, replay.

The contracts of the collective failover layer (per-round acks with
idempotent resend, read-segment re-fetch, aggregator re-election):

* under fault schedules that drop, duplicate and stall aggressively —
  including a crash window over an aggregator's server — every
  collective write lands its exact bytes and every collective read
  returns them, byte for byte;
* a crash window covering an aggregator-owned server deterministically
  triggers re-election, and the traced run still reconciles exactly
  (stage spans vs counters, NIC bytes, blame partition);
* the whole story replays bit-for-bit: one ``FaultConfig.seed`` is one
  fault schedule, one event log, one elapsed time;
* 100 % duplication is pure dedup load — every message arrives twice
  and the data is still exact;
* an armed-but-inert config stays float-equality identical to
  ``faults=None`` on the collective path, under both schedulers.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes import BYTE, DOUBLE, contiguous, vector
from repro.faults import FaultConfig
from repro.mpiio import File, Hints, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment

from ..conftest import assert_bit_identical

NR, NC = 3, 16  # FLASH-style vector view: NR rows of NC doubles
NBYTES = NR * NC * 8


def run_collective(n_ranks, faults, hints=None, seed=300, **cfg):
    """One collective write + readback across ``n_ranks``; returns
    ``(fs, per-rank byte-exactness)``."""
    env = Environment()
    defaults = dict(n_servers=4, strip_size=256, faults=faults)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, n_ranks, procs_per_node=2)

    def rank_main(ctx):
        f = yield from File.open(ctx, "/chaos", hints or Hints())
        ft = vector(NR, NC, ctx.size * NC, DOUBLE)
        f.set_view(ctx.rank * NC * 8, BYTE, ft)
        rng = np.random.default_rng(seed + ctx.rank)
        buf = rng.integers(0, 255, NBYTES, dtype=np.uint8)
        yield from f.write_at_all(
            0, contiguous(NBYTES, BYTE), 1, buf, method="collective_dtype"
        )
        out = np.zeros_like(buf)
        yield from f.read_at_all(
            0, contiguous(NBYTES, BYTE), 1, out, method="collective_dtype"
        )
        return bool(np.array_equal(out, buf))

    return fs, mpi.run(rank_main)


def chaos_config(seed, crash=False, **overrides):
    """Every fault family armed, aggressively but recoverably."""
    kw = dict(
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
    kw.update(overrides)
    return FaultConfig(**kw)


def reelection_config(crash_server, seed=7):
    """A crash window long enough that the aggregator owning
    ``crash_server`` exhausts ``coll_reelect_after`` and hands off."""
    return FaultConfig(
        seed=seed,
        server_crashes=((crash_server, 0.0, 0.03),),
        rpc_timeout=2e-3,
        retry_backoff=1e-4,
        coll_reelect_after=2,
    )


# ----------------------------------------------------------------------
# byte-exactness under chaos
# ----------------------------------------------------------------------
@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), crash=st.booleans())
def test_chaos_roundtrip_is_byte_exact(seed, crash):
    fs, results = run_collective(4, chaos_config(seed, crash=crash))
    assert all(results)
    assert fs.faults.summary()["exhausted"] == 0


@pytest.mark.slow
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_chaos_roundtrip_threaded_scheduler(seed):
    fs, results = run_collective(
        4, chaos_config(seed), server_threads=4
    )
    assert all(results)


def test_full_duplication_is_pure_dedup_load():
    # every wire message delivered twice: segments, acks, requests and
    # responses must all deduplicate without corrupting a byte
    cfg = chaos_config(11, net_drop_prob=0.0, net_dup_prob=1.0)
    fs, results = run_collective(4, cfg)
    assert all(results)
    assert fs.faults.summary()["dups"] > 0


def test_drop_heavy_write_still_lands():
    cfg = chaos_config(5, net_drop_prob=0.3, net_dup_prob=0.0)
    fs, results = run_collective(4, cfg)
    assert all(results)
    assert fs.faults.summary()["coll_resends"] > 0


# ----------------------------------------------------------------------
# aggregator re-election
# ----------------------------------------------------------------------
@pytest.mark.parametrize("crash_server", [0, 1, 2, 3])
def test_crash_window_forces_reelection(crash_server):
    # cb_nodes=2 over 4 servers: agg slot 0 owns iod0/iod2, slot 1
    # owns iod1/iod3 — whichever server crashes, exactly one slot's
    # requests time out past the ladder and its rounds hand off
    fs, results = run_collective(
        4, reelection_config(crash_server), hints=Hints(cb_nodes=2)
    )
    assert all(results)
    s = fs.faults.summary()
    assert s["coll_reelections"] >= 1
    assert s["exhausted"] == 0
    kinds = {ev[2] for ev in fs.faults.event_log()}
    assert "coll.reelect" in kinds


def test_reelected_run_reconciles_exactly():
    from repro.bench.runner import run_workload
    from repro.bench.artifacts import verify_trace
    from repro.bench.workloads import reduced

    cfg = PVFSConfig(
        trace=True,
        metrics=True,
        faults=FaultConfig(
            seed=7,
            server_crashes=((0, 0.0, 0.03),),
            rpc_timeout=2e-3,
            retry_backoff=1e-4,
            coll_reelect_after=2,
        ),
    )
    result = run_workload(
        reduced("flash"), "collective_dtype",
        config=cfg,
    )
    assert result.supported
    # stage sums, blame conservation and the per-server NIC books
    assert verify_trace(result) == []
    # the re-election actually happened inside the traced run
    s = result.faults.summary()
    assert s["coll_reelections"] >= 1
    assert s["exhausted"] == 0


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------
def _elapsed(fs):
    return fs.env.now


@pytest.mark.parametrize("crash", [False, True])
def test_same_seed_replays_bit_for_bit(crash):
    fs1, r1 = run_collective(4, chaos_config(42, crash=crash))
    fs2, r2 = run_collective(4, chaos_config(42, crash=crash))
    assert all(r1) and all(r2)
    assert fs1.faults.event_log() == fs2.faults.event_log()
    assert _elapsed(fs1) == _elapsed(fs2)


def test_different_seed_differs():
    fs1, _ = run_collective(4, chaos_config(42))
    fs2, _ = run_collective(4, chaos_config(43))
    assert fs1.faults.event_log() != fs2.faults.event_log()


def test_reelection_replays_bit_for_bit():
    logs = []
    for _ in range(2):
        fs, results = run_collective(
            4, reelection_config(1), hints=Hints(cb_nodes=2)
        )
        assert all(results)
        logs.append((fs.faults.event_log(), _elapsed(fs)))
    assert logs[0] == logs[1]
    assert any(ev[2] == "coll.reelect" for ev in logs[0][0])


# ----------------------------------------------------------------------
# inert configs: the failover machinery must cost nothing when idle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threads", [1, 4])
def test_inert_config_is_bit_identical_to_disabled(threads):
    from repro.bench.runner import run_workload
    from repro.bench.workloads import reduced

    wl = reduced("flash")
    on = run_workload(
        wl, "collective_dtype",
        config=PVFSConfig(faults=FaultConfig(), server_threads=threads),
    )
    off = run_workload(
        wl, "collective_dtype",
        config=PVFSConfig(server_threads=threads),
    )
    assert on.supported and off.supported
    assert_bit_identical(on, off)


def test_metrics_counters_appear_only_when_recovering():
    fs, results = run_collective(
        4, chaos_config(5, net_drop_prob=0.3, net_dup_prob=0.0),
        metrics=True,
    )
    assert all(results)
    fam = fs.metrics.registry.families.get("repro_coll_resends")
    assert fam is not None
    assert sum(inst.value for _, inst in fam.labeled()) == (
        fs.faults.summary()["coll_resends"]
    )
