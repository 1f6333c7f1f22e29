"""Parent-recorded goldens of every trace export.

``trace_goldens.json`` was recorded at the commit named in its
``recorded_at`` key — the last one that stored each span as a ``Span``
object with an attribute dict — before the recorder became an
append-only columnar span table (the ``tests/metrics/sampler_goldens.json``
pattern).  Each cell pins the sha256 of the Chrome ``trace_event``
document (canonical ``sort_keys`` JSON and the file
``write_chrome_trace`` writes, which keeps ``args`` insertion order),
of ``summarize_trace`` and of the critical-path blame report, so span
order, ids, parent links, attribute order and every float must survive
a change to ``repro/trace`` or to a recording site byte for byte.

It is re-recorded (``python -m tests.trace.test_trace_goldens`` from the
repository root, on a clean checkout of the commit to pin) only by a
change that argues the old exports were wrong.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import ScaleWorkload, TileWorkload
from repro.faults import severity_config
from repro.pvfs import PVFSConfig, TenantConfig
from repro.simulation.costs import CostModel
from repro.trace import chrome_trace, critical_path, summarize_trace

GOLDENS_PATH = Path(__file__).parent / "trace_goldens.json"

STRIP, TENANTS = 16384, 4


def _tile():
    return TileWorkload.reduced(frames=2)


def _scale():
    return ScaleWorkload(
        n_clients=16, block_bytes=STRIP, blocks=2, n_tenants=TENANTS,
        tenant_reps=(2,) * TENANTS, is_write=False,
    )


def _cell(make, method, tenanted=False, **overrides):
    def run():
        wl = make()
        config = PVFSConfig(trace=True, **overrides)
        r = run_workload(
            wl, method, config=config,
            tenant_of=wl.tenant_of if tenanted else None,
        )
        return r.tracer, config

    return run


#: name -> callable returning ``(recorder, config)`` of a finished run
CELLS = {
    "tile-list_io-serial": _cell(_tile, "list_io"),
    "tile-collective_dtype-threads4": _cell(
        _tile, "collective_dtype", server_threads=4
    ),
    "tile-datatype_io-moderate": _cell(
        _tile, "datatype_io", faults=severity_config("moderate", 1)
    ),
    "scale-datatype_io-tenants4": _cell(
        _scale, "datatype_io", tenanted=True,
        n_servers=16, strip_size=STRIP,
        tenants=tuple(TenantConfig(name=f"t{i}") for i in range(TENANTS)),
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blame_doc(report) -> dict:
    return {
        "total": report.total.hex(),
        "traces": report.traces,
        "seconds": {r: s.hex() for r, s in report.seconds.items()},
        "residuals": {str(t): r.hex() for t, r in report.residuals.items()},
        "segments": [
            [seg.trace_id, seg.span.span_id, seg.span.name, seg.span.actor,
             seg.resource, seg.start.hex(), seg.end.hex()]
            for seg in report.segments
        ],
    }


def snapshot(rec, config) -> dict:
    doc = chrome_trace(rec)
    blame = critical_path(
        rec, nic_bandwidth=CostModel().nic_bandwidth, config=config
    )
    return {
        "spans": len(rec),
        "chrome_sha256": _sha(json.dumps(doc, sort_keys=True)),
        "chrome_file_sha256": _sha(json.dumps(doc, indent=1) + "\n"),
        "summary_sha256": _sha(json.dumps(summarize_trace(rec))),
        "blame_sha256": _sha(json.dumps(_blame_doc(blame))),
    }


def record():
    """Write the goldens file from the working tree's behaviour."""
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True, cwd=GOLDENS_PATH.parent,
    ).stdout.strip()
    doc = {
        "recorded_at": head,
        "cells": {name: snapshot(*CELLS[name]()) for name in CELLS},
    }
    GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


GOLDENS = (
    json.loads(GOLDENS_PATH.read_text())["cells"]
    if GOLDENS_PATH.exists()
    else {}
)


@pytest.mark.parametrize("name", CELLS)
def test_trace_golden(name):
    assert snapshot(*CELLS[name]()) == GOLDENS[name]


def test_goldens_reach_fault_and_tenant_spans():
    """The cells record what a span table must still carry: fault
    spans under a seeded chaos run, tenant attributes under the
    tenanted scale cell."""
    rec, _ = CELLS["tile-datatype_io-moderate"]()
    assert summarize_trace(rec)["fault_spans"]
    rec, _ = CELLS["scale-datatype_io-tenants4"]()
    doc = chrome_trace(rec)
    assert any("tenant" in ev.get("args", {}) for ev in doc["traceEvents"])


if __name__ == "__main__":  # pragma: no cover
    print(f"recorded {len(record()['cells'])} cells -> {GOLDENS_PATH}")
