"""Multi-tenant admission: bit-identity, DRR shares, token buckets.

The contract of ``PVFSConfig.tenants``:

* single-tenant config is *provably inert* — every method under both
  schedulers finishes at the bit-identical simulated state of the
  FIFO (``tenants=None``) path;
* under sustained contention, deficit round-robin admits bytes in
  exact weight proportion;
* token buckets pace admission and park the daemon with a
  deterministic ``("sleep", dt)`` verdict instead of busy-waiting;
* the tenant id survives the full trip: client tag → wire →
  admission → trace span.
"""

import numpy as np
import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import ScaleWorkload, TileWorkload
from repro.datatypes import BYTE, DOUBLE, contiguous, vector
from repro.faults import FaultConfig
from repro.mpiio import File, SimMPI
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.pvfs.pipeline import TenantAdmission
from repro.simulation import Environment

from ..conftest import assert_bit_identical

METHODS = ["posix", "data_sieving", "two_phase", "list_io", "datatype_io"]


# ----------------------------------------------------------------------
# synthetic admission harness
# ----------------------------------------------------------------------
class FakeReq:
    is_write = True

    def __init__(self, tenant, nbytes=65536):
        self.tenant = tenant
        self.payload_nbytes = nbytes


class FakeMsg:
    def __init__(self, tenant, t_enqueued=0.0, nbytes=65536):
        self.payload = FakeReq(tenant, nbytes)
        self.t_enqueued = t_enqueued


def make_admission(weights, **tenant_kwargs):
    env = Environment()
    tenants = tuple(
        TenantConfig(name=f"t{i}", weight=w, **tenant_kwargs)
        for i, w in enumerate(weights)
    )
    return env, TenantAdmission(env, tenants)


# ----------------------------------------------------------------------
# satellite (c): single-tenant admission is bit-identical to FIFO
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("threads", [1, 4])
def test_single_tenant_bit_identical(method, threads):
    def run(tenants):
        return run_workload(
            TileWorkload.reduced(frames=2),
            method,
            phantom=True,
            config=PVFSConfig(
                n_servers=4, server_threads=threads, tenants=tenants
            ),
        )

    on = run((TenantConfig(name="only"),))
    off = run(None)
    assert on.supported == off.supported
    if on.supported:
        assert_bit_identical(on, off)


# ----------------------------------------------------------------------
# DRR shares
# ----------------------------------------------------------------------
def test_drr_shares_proportional_to_weights():
    env, adm = make_admission([1.0, 2.0, 4.0, 8.0])
    served = [0, 0, 0, 0]
    for tenant in range(4):
        for _ in range(4):
            adm.enqueue(FakeMsg(tenant))
    for _ in range(3000):
        verdict = adm.next()
        assert verdict is not None and verdict[0] == "admit"
        tenant = verdict[1].payload.tenant
        served[tenant] += 1
        adm.enqueue(FakeMsg(tenant))  # sustain the backlog
    assert served == [200, 400, 800, 1600]


def test_drr_oversized_requests_still_progress():
    """Cost above the per-rotation quantum accrues deficit, not deadlock."""
    env, adm = make_admission([1.0, 8.0])
    for tenant in (0, 1):
        for _ in range(3):
            adm.enqueue(FakeMsg(tenant, nbytes=300_000))
    admitted = []
    while adm.queued:
        verdict = adm.next()
        assert verdict is not None and verdict[0] == "admit"
        admitted.append(verdict[1].payload.tenant)
    assert sorted(admitted) == [0, 0, 0, 1, 1, 1]


def test_drr_work_conserving_when_one_tenant_idle():
    env, adm = make_admission([1.0, 8.0])
    for _ in range(5):
        adm.enqueue(FakeMsg(0))
    admitted = 0
    while adm.queued:
        verdict = adm.next()
        assert verdict is not None and verdict[0] == "admit"
        assert verdict[1].payload.tenant == 0
        admitted += 1
    assert admitted == 5
    assert adm.next() is None


def test_unknown_tenant_ids_fall_into_default_queue():
    env, adm = make_admission([1.0, 1.0])
    adm.enqueue(FakeMsg(7))  # out of range
    verdict = adm.next()
    assert verdict[0] == "admit"
    assert adm.report()[0]["admitted"] == 1


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------
def test_token_bucket_blocks_then_sleeps_deterministically():
    env, adm = make_admission(
        [1.0], rate_limit=65536.0, burst_bytes=65536
    )
    adm.enqueue(FakeMsg(0))
    adm.enqueue(FakeMsg(0))
    # the full bucket covers the first request
    assert adm.next()[0] == "admit"
    # the second is token-blocked: one bucket refill away
    verdict = adm.next()
    assert verdict[0] == "sleep"
    assert verdict[1] == pytest.approx(1.0)
    # after the nap the bucket covers it again
    env.run(until=verdict[1])
    assert adm.next()[0] == "admit"
    assert adm.next() is None


def test_token_bucket_charge_capped_at_burst():
    """A request larger than the bucket drains it, not blocks forever."""
    env, adm = make_admission(
        [1.0], rate_limit=65536.0, burst_bytes=32768
    )
    adm.enqueue(FakeMsg(0, nbytes=1_000_000))
    verdict = adm.next()
    if verdict[0] == "sleep":  # bucket must refill at most once
        env.run(until=env.now + verdict[1])
        verdict = adm.next()
    assert verdict[0] == "admit"


def test_starvation_accounting_in_report():
    env, adm = make_admission([1.0, 1.0])
    adm.enqueue(FakeMsg(0, t_enqueued=-2.5))  # waited 2.5 s
    adm.enqueue(FakeMsg(1))
    while adm.queued:
        adm.next()
    rows = {r["tenant"]: r for r in adm.report()}
    assert rows["t0"]["admitted"] == 1
    assert rows["t0"]["max_wait_s"] == pytest.approx(2.5)
    assert rows["t0"]["admitted_bytes"] == 65536
    assert rows["t1"]["mean_wait_s"] == pytest.approx(0.0)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
def test_tenant_config_validation():
    with pytest.raises(ValueError):
        TenantConfig(name="")
    with pytest.raises(ValueError):
        TenantConfig(name="x", weight=0.0)
    with pytest.raises(ValueError):
        TenantConfig(name="x", rate_limit=-1.0)
    with pytest.raises(ValueError):
        PVFSConfig(tenants=())
    with pytest.raises(ValueError):
        PVFSConfig(
            tenants=(TenantConfig(name="a"), TenantConfig(name="a"))
        )


# ----------------------------------------------------------------------
# end-to-end propagation: client tag → wire → span → metrics
# ----------------------------------------------------------------------
def test_tenant_id_propagates_to_spans_and_metrics():
    workload = ScaleWorkload(
        n_clients=4, block_bytes=16384, n_tenants=2, repetitions=2,
        is_write=False,
    )
    config = PVFSConfig(
        n_servers=2,
        strip_size=16384,
        trace=True,
        metrics=True,
        tenants=(
            TenantConfig(name="alpha"),
            TenantConfig(name="beta", weight=2.0),
        ),
    )
    result = run_workload(
        workload,
        "datatype_io",
        phantom=True,
        config=config,
        tenant_of=workload.tenant_of,
    )
    seen = {
        s.attrs["tenant"]
        for s in result.tracer.spans
        if s.name == "server.request"
    }
    assert seen == {0, 1}
    # per-tenant instruments exist and account every request
    families = result.metrics.registry.families
    assert "repro_tenant_request_seconds" in families
    assert "repro_tenant_queue_wait_seconds" in families
    assert "repro_tenant_bytes" in families
    tp = result.metrics.tenant_throughputs()
    assert set(tp) == {"alpha", "beta"}
    assert all(v > 0 for v in tp.values())
    # admission reports cover all requests: 4 ranks x 2 reps
    admitted = sum(
        row["admitted"]
        for server in result.servers
        for row in server.admission.report()
    )
    assert admitted == 8


def test_untenanted_run_exports_no_tenant_metrics():
    result = run_workload(
        TileWorkload.reduced(frames=1),
        "datatype_io",
        phantom=True,
        config=PVFSConfig(metrics=True),
    )
    names = set(result.metrics.registry.families)
    assert not any(n.startswith("repro_tenant_") for n in names)


# ----------------------------------------------------------------------
# a crashed daemon drops at intake, tenanted or not
# ----------------------------------------------------------------------
@pytest.mark.parametrize("threads", [1, 4])
def test_crashed_tenanted_daemon_drops_before_park_and_preplan(threads):
    """A collective write reaching a daemon inside its crash window is
    discarded on arrival: the round is neither parked nor pre-planned
    (no daemon CPU is charged) — exactly what the FIFO loop does."""
    down, until = 1, 0.2
    env = Environment()
    config = PVFSConfig(
        n_servers=4,
        strip_size=256,
        server_threads=threads,
        tenants=(TenantConfig(name="alpha"), TenantConfig(name="beta")),
        faults=FaultConfig(
            seed=5, server_crashes=((down, 0.0, until),), rpc_timeout=0.05
        ),
    )
    fs = PVFS(env, config=config)
    mpi = SimMPI(fs, 4, tenant_of=lambda r: r % 2)
    nbytes = 3 * 16 * 8

    def rank_main(ctx):
        f = yield from File.open(ctx, "/crashed")
        f.set_view(ctx.rank * 128, BYTE, vector(3, 16, ctx.size * 16, DOUBLE))
        buf = np.full(nbytes, ctx.rank + 1, dtype=np.uint8)
        mt = contiguous(nbytes, BYTE)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        out = np.zeros_like(buf)
        yield from f.read_at_all(0, mt, 1, out, method="collective_dtype")
        return bool(np.array_equal(out, buf))

    procs = mpi.spawn(rank_main)
    env.run(until=until)
    crashed = fs.servers[down]
    assert fs.faults.crash_drops > 0  # the round did reach the daemon
    assert crashed.stage_times.decode == 0.0
    assert crashed.stage_times.plan == 0.0
    assert not crashed.coll._rounds  # nothing parked, no segment filed
    assert crashed.admission.queued == 0
    # once the window closes the resends are served and the data lands
    assert env.run(env.all_of(procs)) == [True] * 4
    assert crashed.stage_times.requests > 0
