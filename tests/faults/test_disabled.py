"""Fault injection must cost nothing when disarmed or inert.

Two bit-identity bars, mirroring tracing and metrics:

* ``faults=None`` (the default) leaves the ``NULL_FAULTS`` singleton in
  place — a run is float-equality identical to one that never heard of
  fault injection;
* an *armed but inert* config (all probabilities zero, no crash
  windows) runs every decision site yet draws nothing and injects
  nothing — still float-equality identical.
"""

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.faults import NULL_FAULTS, FaultConfig
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment

from ..conftest import assert_bit_identical


def run(method, faults, **kw):
    wl = TileWorkload.reduced(frames=2)
    return run_workload(
        wl, method, config=PVFSConfig(faults=faults, **kw)
    )


def test_inert_config_is_bit_identical(method_scheduler):
    # the full six-method × scheduler matrix: an armed-but-inert config
    # must not move any method's simulation by a single ULP
    method, sched = method_scheduler
    on = run(method, FaultConfig(), **sched)
    off = run(method, None, **sched)
    assert on.supported == off.supported
    if on.supported:
        assert_bit_identical(on, off)


def test_inert_config_injects_nothing():
    r = run("datatype_io", FaultConfig())
    assert r.faults is not None
    assert not r.degraded
    assert r.faults.event_log() == []
    assert r.faults.summary()["events"] == 0


def test_default_config_uses_null_faults():
    fs = PVFS(Environment())
    assert fs.faults is NULL_FAULTS
    assert fs.net.faults is NULL_FAULTS
    assert not fs.faults.enabled
    assert not fs.faults.armed


def test_disarmed_run_records_nothing():
    r = run("datatype_io", None)
    assert r.faults is None
    assert not r.degraded


def test_armed_run_attaches_injector():
    env = Environment()
    cfg = FaultConfig(net_drop_prob=0.5)
    fs = PVFS(env, config=PVFSConfig(faults=cfg))
    assert fs.faults.enabled
    assert fs.faults.config is cfg
    assert fs.net.faults is fs.faults
