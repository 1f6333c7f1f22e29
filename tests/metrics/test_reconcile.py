"""Hub totals must reconcile with the simulation's own accounting.

The histograms and series are maintained by code paths disjoint from
``StageTimes`` / ``summarize_network``, so agreement is a real
cross-check of the instrumentation, not a tautology.  (The traffic
counters are read from those ledgers at ``finalize``.)
"""

import math

import pytest

from repro.bench import runner
from repro.bench.artifacts import verify_metrics
from repro.bench.runner import Spec, divergence, run_workload
from repro.bench.workloads import FlashWorkload, TileWorkload, reduced
from repro.metrics import (
    MetricsHub,
    openmetrics,
    reconcile_metrics,
    validate_openmetrics,
)
from repro.pvfs import PVFSConfig
from repro.simulation.stats import summarize_network

from .test_sampler_goldens import late_registration

METHODS = ["posix", "list_io", "datatype_io", "two_phase"]


def run(method, **kw):
    wl = TileWorkload.reduced(frames=2)
    return run_workload(
        wl, method, config=PVFSConfig(metrics=True, **kw)
    )


@pytest.mark.parametrize("method", METHODS)
def test_reconciles_per_method(method):
    r = run(method)
    assert reconcile_metrics(r.metrics, r.pipeline.total, r.network) == []


def test_reconciles_with_threaded_scheduler():
    r = run("datatype_io", server_threads=4)
    assert reconcile_metrics(r.metrics, r.pipeline.total, r.network) == []


def test_reconciles_flash_write():
    wl = FlashWorkload.reduced(2)
    r = run_workload(
        wl, "datatype_io", config=PVFSConfig(metrics=True)
    )
    assert reconcile_metrics(r.metrics, r.pipeline.total, r.network) == []


def test_request_count_matches_stage_times():
    r = run("datatype_io")
    hub = r.metrics
    assert hub._h_request.count == r.pipeline.total.requests
    for stage in ("decode", "respond"):
        assert hub._h_stage[stage].count == r.pipeline.total.requests


def test_reconcile_detects_divergence():
    r = run("datatype_io")
    r.metrics._h_stage["decode"].observe(1.0)  # corrupt one histogram
    problems = reconcile_metrics(r.metrics, r.pipeline.total, r.network)
    assert any("stage decode" in p for p in problems)


def test_sampler_boundaries_and_finalize():
    r = run("datatype_io", metrics_interval=1e-3)
    hub = r.metrics
    fam = hub.registry.families["repro_server_queue_depth"]
    (_, series) = fam.labeled()[0]
    # samples sit on interval multiples, except the final partial one
    for t in series.t[:-1]:
        k = round(t / hub.interval)
        assert t == pytest.approx(k * hub.interval)
    assert series.t[-1] == pytest.approx(r.metrics.env.now)
    # dt covers the timeline with no gaps: sum(dt) == last sample time
    assert sum(series.dt) == pytest.approx(series.t[-1])


def test_finalize_is_idempotent():
    r = run("datatype_io")
    before = r.metrics.samples
    r.metrics.finalize()  # runner already finalized once
    assert r.metrics.samples == before


def test_nodes_registered_after_the_first_tick_join_the_sampler():
    # the sampler's plan is compiled at the first tick; what it must not
    # lose is whatever registers later (bytes pinned by the
    # late-registration cell of sampler_goldens.json)
    fs, before = late_registration()
    hub = fs.metrics
    assert before > 2
    fams = hub.registry.families
    nic = {
        side: {
            dict(k)["node"]: v
            for k, v in fams[f"repro_nic_{side}_utilization"].children.items()
        }
        for side in ("tx", "rx")
    }
    early, late = nic["tx"]["cn0"], nic["tx"]["late0"]
    # earlier series are uninterrupted: one point per tick, on one clock
    assert len(early) == hub.samples
    assert len(fams["repro_server_bytes"].labeled()[0][1]) == hub.samples
    # the late nodes start at the first tick after they appeared ...
    assert len(late) == hub.samples - before
    assert late.t[0] == early.t[before]
    assert list(late.t) == list(early.t[before:])
    # ... and no busy second from before that tick is lost: the late
    # group opens its file as soon as it is built, mid-interval
    summary = summarize_network(fs.net, fs.env.now)
    for side, attr in (("tx", "tx_busy"), ("rx", "rx_busy")):
        for node in summary.nodes:
            assert nic[side][node.name].integral() == pytest.approx(
                getattr(node, attr), abs=1e-12
            )
    assert late.values[0] > 0
    assert reconcile_metrics(hub, fs.pipeline_summary().total, summary) == []
    hub.finalize()  # idempotent, also across plan generations
    assert len(early) == hub.samples and len(late) == hub.samples - before


def test_nic_series_integral_matches_busy_time():
    r = run("datatype_io")
    fams = r.metrics.registry.families
    for side in ("tx", "rx"):
        children = {
            dict(k)["node"]: v
            for k, v in fams[f"repro_nic_{side}_utilization"].children.items()
        }
        for node in r.network.nodes:
            busy = node.tx_busy if side == "tx" else node.rx_busy
            got = children[node.name].integral() if node.name in children else 0
            assert got == pytest.approx(busy, abs=1e-9)


def test_cache_hit_rate_series_matches_counters():
    # two frames with the expansion cache on: second frame hits
    r = run("datatype_io")
    fam = r.metrics.registry.families["repro_server_cache_hit_rate"]
    hits = misses = 0
    for k, series in fam.children.items():
        idx = int(dict(k)["server"].removeprefix("iod"))
        st = r.pipeline.per_server[idx]
        lookups = st.cache_hits + st.cache_misses
        want = st.cache_hits / lookups if lookups else 0.0
        assert series.last == pytest.approx(want)
        hits += st.cache_hits
        misses += st.cache_misses
    assert hits + misses > 0


def metered(name, method, *, metrics=True):
    """The reduced cell ``name`` as ``repro-bench metrics`` runs it."""
    config = PVFSConfig(metrics=metrics)
    return runner.run(Spec(reduced(name), method, config=config))


def test_run_metered_and_verify():
    r = metered("tile", "datatype_io")
    assert r.metrics is not None
    assert verify_metrics(r) == []
    assert validate_openmetrics(openmetrics(r.metrics)) == []


def test_run_metered_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        reduced("nope")


def test_check_bit_identity_clean():
    on = metered("tile", "datatype_io")
    off = metered("tile", "datatype_io", metrics=False)
    assert divergence(on, off) == []


def test_rpc_and_op_histograms_populated():
    r = run("datatype_io")
    fams = r.metrics.registry.families
    assert "repro_rpc_seconds" in fams
    assert "repro_mpiio_seconds" in fams
    op_labels = [dict(k) for k in fams["repro_mpiio_seconds"].children]
    assert {"method": "datatype_io", "op": "read"} in op_labels


def test_hub_rejects_bad_interval():
    from repro.simulation import Environment

    with pytest.raises(ValueError):
        MetricsHub(Environment(), 0.0)
    with pytest.raises(ValueError):
        PVFSConfig(metrics_interval=-1.0)


def test_hub_rejects_nan_interval():
    # ``nan <= 0`` is False: a NaN cadence must not reach the sampler
    from repro.simulation import Environment

    with pytest.raises(ValueError, match="interval must be positive"):
        MetricsHub(Environment(), math.nan)
    with pytest.raises(ValueError, match="metrics_interval must be positive"):
        PVFSConfig(metrics_interval=math.nan)
