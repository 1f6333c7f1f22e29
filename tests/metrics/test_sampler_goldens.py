"""Parent-recorded goldens of both metrics exports.

``sampler_goldens.json`` was recorded at the commit named in its
``recorded_at`` key — the last one whose sampler looked every series up
by name on every tick — before the sampler became a compiled plan over
a columnar sample table (the ``tests/pvfs/pipeline_goldens.json``
pattern).  Each cell pins the sha256 of the canonical JSON export and of
the OpenMetrics text, so family order, child order, help strings, every
``(t, value, dt)`` triple and every integral must survive a change to
``metrics/registry.py`` / ``metrics/hub.py`` byte for byte.

It is re-recorded (``python -m tests.metrics.test_sampler_goldens`` from
the repository root, on a clean checkout of the commit to pin) only by a
change that argues the old exports were wrong.
"""

import hashlib
import json
import subprocess
from pathlib import Path

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import (
    Block3DWorkload,
    ScaleWorkload,
    TileWorkload,
)
from repro.datatypes import BYTE, DOUBLE, contiguous, vector
from repro.faults import severity_config
from repro.metrics import metrics_json, openmetrics
from repro.mpiio import File, SimMPI
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.simulation import Environment

GOLDENS_PATH = Path(__file__).parent / "sampler_goldens.json"

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
        return run_workload(
            wl, method, config=PVFSConfig(metrics=True, **overrides),
            tenant_of=wl.tenant_of if tenanted else None,
        ).metrics

    return run


def late_registration():
    """Two rank groups on one metered file system, the second (on nodes
    of its own) built only after the first has finished and the sampler
    has ticked: its NIC series are registered late.  Returns ``(fs,
    samples when the second group was built)``."""
    env = Environment()
    fs = PVFS(
        env,
        config=PVFSConfig(n_servers=4, metrics=True, metrics_interval=2e-4),
    )

    def rank_main(ctx, path):
        f = yield from File.open(ctx, path)
        f.set_view(ctx.rank * 128, BYTE, vector(6, 16, ctx.size * 16, DOUBLE))
        mt = contiguous(6 * 16 * 8, BYTE)
        yield from f.write_at(0, mt, 1, None, method="datatype_io")
        yield from f.read_at(0, mt, 1, None, method="list_io")

    SimMPI(fs, 4).run(rank_main, "/early")
    before = fs.metrics.samples
    SimMPI(fs, 4, node_prefix="late").run(rank_main, "/late")
    env.run()
    fs.metrics.finalize()
    return fs, before


#: name -> callable returning the finalized hub
CELLS = {
    "tile-list_io-serial": _cell(_tile, "list_io"),
    "tile-list_io-serial-fine": _cell(
        _tile, "list_io", metrics_interval=1e-5
    ),
    "tile-collective_dtype-threads4": _cell(
        _tile, "collective_dtype", server_threads=4
    ),
    "block3d_m4_read-datatype_io": _cell(
        lambda: Block3DWorkload(grid=48, clients_per_dim=4), "datatype_io"
    ),
    "scale-datatype_io-tenants4": _cell(
        _scale, "datatype_io", tenanted=True,
        n_servers=16, strip_size=STRIP,
        tenants=tuple(TenantConfig(name=f"t{i}") for i in range(TENANTS)),
    ),
    "tile-datatype_io-moderate-traced": _cell(
        _tile, "datatype_io",
        trace=True, faults=severity_config("moderate", 1),
    ),
    "late-registration": lambda: late_registration()[0].metrics,
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def snapshot(hub) -> dict:
    doc = metrics_json(hub)
    return {
        "samples": hub.samples,
        "families": [f["name"] for f in doc["families"]],
        "json_sha256": _sha(json.dumps(doc, sort_keys=True)),
        "openmetrics_sha256": _sha(openmetrics(hub)),
    }


def record():
    """Write the goldens file from the working tree's behaviour."""
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        check=True, cwd=GOLDENS_PATH.parent,
    ).stdout.strip()
    doc = {
        "recorded_at": head,
        "cells": {name: snapshot(CELLS[name]()) for name in CELLS},
    }
    GOLDENS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


GOLDENS = (
    json.loads(GOLDENS_PATH.read_text())["cells"]
    if GOLDENS_PATH.exists()
    else {}
)


@pytest.mark.parametrize("name", CELLS)
def test_sampler_golden(name):
    assert snapshot(CELLS[name]()) == GOLDENS[name]


def test_goldens_cover_every_sampled_family():
    """The cells reach what a compiled plan must still export: the six
    sampled families everywhere, the per-tenant and the fault families
    where armed, and a cadence fine enough for thousands of ticks."""
    sampled = {
        "repro_server_queue_depth",
        "repro_server_cache_hit_rate",
        "repro_server_bytes",
        "repro_net_inflight_bytes_sampled",
        "repro_nic_tx_utilization",
        "repro_nic_rx_utilization",
    }
    for cell in GOLDENS.values():
        assert sampled <= set(cell["families"])
    assert "repro_tenant_bytes" in GOLDENS["scale-datatype_io-tenants4"]["families"]
    assert "repro_fault_events" in (
        GOLDENS["tile-datatype_io-moderate-traced"]["families"]
    )
    assert (
        GOLDENS["tile-list_io-serial-fine"]["samples"]
        > 50 * GOLDENS["tile-list_io-serial"]["samples"]
    )


if __name__ == "__main__":  # pragma: no cover
    print(f"recorded {len(record()['cells'])} cells -> {GOLDENS_PATH}")
