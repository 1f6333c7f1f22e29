"""Tracing must be pure observation: zero cost when off, zero skew when on.

The acceptance bar from the issue: a run with ``trace=False`` is
byte-identical to one that never heard of tracing, and a run with
``trace=True`` reports *exactly* the same simulated timings and
counters — the recorder watches the clock, it never advances it.
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment
from repro.trace import NULL_TRACER, NullTracer, TraceRecorder

from ..conftest import assert_bit_identical, assert_null_mirrors

METHODS = ["posix", "list_io", "datatype_io", "two_phase"]


def run(method, trace):
    wl = TileWorkload.reduced(frames=2)
    return run_workload(
        wl, method, phantom=True, config=PVFSConfig(trace=trace)
    )


@pytest.mark.parametrize("method", METHODS)
def test_traced_run_is_bit_identical(method):
    assert_bit_identical(run(method, True), run(method, False))


def test_disabled_run_records_nothing():
    off = run("datatype_io", False)
    assert off.tracer is None and off.trace_summary is None


def test_default_config_uses_null_tracer():
    fs = PVFS(Environment())
    assert fs.tracer is NULL_TRACER
    assert fs.net.tracer is NULL_TRACER
    assert len(fs.tracer) == 0


def test_enabled_run_attaches_recorder():
    on = run("datatype_io", True)
    assert on.tracer is not None and len(on.tracer) > 0
    assert on.trace_summary["spans"] == len(on.tracer)


def test_null_tracer_mirrors_every_recorder_method():
    assert_null_mirrors(TraceRecorder, NullTracer)
    assert len(NULL_TRACER) == 0 and not NULL_TRACER.spans
