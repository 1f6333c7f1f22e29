"""Metrics must be pure observation: zero cost off, zero skew on.

Same acceptance bar as tracing (``tests/trace/test_disabled.py``): a
run with ``metrics=True`` reports *exactly* the same simulated timings
and counters as one with ``metrics=False`` — the sampler rides the
engine's clock hook and watches the clock, it never advances it.
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.metrics import NULL_METRICS
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment

from ..conftest import assert_bit_identical

METHODS = ["posix", "list_io", "datatype_io", "two_phase"]


def run(method, metrics, **kw):
    wl = TileWorkload.reduced(frames=2)
    return run_workload(
        wl, method, config=PVFSConfig(metrics=metrics, **kw)
    )


@pytest.mark.parametrize("method", METHODS)
def test_metered_run_is_bit_identical(method):
    assert_bit_identical(run(method, True), run(method, False))


def test_sampling_cadence_does_not_skew_timing():
    # a 100x finer sampling interval takes 100x more samples but must
    # not move the simulated clock by a single ULP
    coarse = run("datatype_io", True, metrics_interval=1e-3)
    fine = run("datatype_io", True, metrics_interval=1e-5)
    assert fine.metrics.samples > coarse.metrics.samples
    assert fine.elapsed == coarse.elapsed


def test_disabled_run_records_nothing():
    off = run("datatype_io", False)
    assert off.metrics is None
    # server handles ride along regardless (the scale sweep reads
    # admission reports off them), but none carries an admission stage
    assert off.servers and all(s.admission is None for s in off.servers)


def test_default_config_uses_null_metrics():
    fs = PVFS(Environment())
    assert fs.metrics is NULL_METRICS
    assert fs.net.metrics is NULL_METRICS
    assert fs.env.clock_hook is None


def test_enabled_run_attaches_hub():
    on = run("datatype_io", True)
    assert on.metrics is not None
    assert on.metrics.samples > 0
    assert len(on.metrics.registry) > 0
    assert len(on.servers) == 16


def test_metered_run_with_threads_is_bit_identical():
    on = run("datatype_io", True, server_threads=4)
    off = run("datatype_io", False, server_threads=4)
    assert on.elapsed == off.elapsed
    assert on.pipeline.total.as_dict() == off.pipeline.total.as_dict()


def test_tracing_and_metrics_compose():
    both = run("datatype_io", True, trace=True)
    neither = run("datatype_io", False)
    assert both.elapsed == neither.elapsed
    assert both.tracer is not None and both.metrics is not None
    # observation schedules nothing: same events, messages, queue state
    assert _engine_counts(both) == _engine_counts(neither)


def _engine_counts(result):
    fs = result.servers[0].system
    return fs.env.scheduled_events, fs.net.message_count, fs.env.queue_stats()
