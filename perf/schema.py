"""The metric sheet and the module -> layer map.

Everything that names a metric lives here so that ``run.py`` (printing),
``compare.py`` (verdicts), ``test_perf.py`` and ``BENCHMARK.json`` agree
on one list.  A metric is ``(name, unit, better)``; end-to-end metrics
add the regression bound (share of the base median by which the metric
may worsen).
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = SRC / "repro"
OUT = pathlib.Path(__file__).resolve().parent / "out"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOAD_WHY = {
    "rpc_storm": (
        "many small requests (posix, list_io, 256-client scale cell): "
        "engine+network+client+server dominate, array layers are bypassed"
    ),
    "dtype_expand": (
        "few requests with big descriptors (datatype_io, collective_dtype, "
        "two_phase, seeded irregular views): expansion layers dominate"
    ),
    "real_bytes": (
        "payload on, six writers x six readers checked against a numpy "
        "oracle: block store, gather/scatter, pack; the byte-correctness check"
    ),
    "observed": (
        "same cells run off then with trace+metrics+armed-inert faults: "
        "isolates observability host cost, simulated figures must not move"
    ),
    "degraded": (
        "six methods under seeded moderate faults: timers, RTO ladder, "
        "resends, collective acks; the only workload with client retries"
    ),
}

#: (name, unit, better, bound).  The bounds are three times the
#: run-to-run spread measured on the shared 2-core box (README.md,
#: "Steadiness"), capped at the contract's 0.25.  ``obs_overhead_ratio``
#: exists only on ``observed`` and ``fail_frac`` is 0 on a healthy tree,
#: so the driver contract (every metric on every workload, never 0)
#: cannot carry them; they are printed, written and compared by
#: ``run.py``/``compare.py``.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
    ("sim_gmean_mib_s", "MiB/s", "higher", 0.18),
    ("setup_s", "s", "lower", 0.25),
]
END_TO_END_LOCAL = [
    ("fail_frac", "ratio", "lower", 0.0),
    ("obs_overhead_ratio", "ratio", "lower", 0.10),
]

#: Layers in report order.  ``other`` is numpy/builtins/stdlib,
#: ``harness`` is this directory's own frames inside the profile.
LAYERS = [
    "engine", "network", "client", "server", "expand_cache",
    "distribution", "regions", "dataloops", "datatypes", "mpiio",
    "storage", "obs", "bench", "other", "harness",
]

#: Path below ``src/repro`` -> layer.  A trailing ``/`` maps a whole
#: package; packages whose files belong to different layers list every
#: file, so a new module there is unmapped until someone places it.
LAYER_RULES = [
    ("simulation/__init__.py", "engine"),
    ("simulation/engine.py", "engine"),
    ("simulation/costs.py", "engine"),
    ("simulation/network.py", "network"),
    ("simulation/resources.py", "network"),
    ("simulation/stats.py", "server"),
    ("pvfs/client.py", "client"),
    ("pvfs/jobs.py", "client"),
    ("pvfs/collective.py", "client"),
    ("pvfs/__init__.py", "server"),
    ("pvfs/server.py", "server"),
    ("pvfs/pipeline.py", "server"),
    ("pvfs/protocol.py", "server"),
    ("pvfs/metadata.py", "server"),
    ("pvfs/locks.py", "server"),
    ("pvfs/system.py", "server"),
    ("pvfs/config.py", "server"),
    ("pvfs/errors.py", "server"),
    ("pvfs/expand_cache.py", "expand_cache"),
    ("pvfs/distribution.py", "distribution"),
    ("regions/", "regions"),
    ("vectorize.py", "regions"),
    ("dataloops/", "dataloops"),
    ("datatypes/", "datatypes"),
    ("mpiio/", "mpiio"),
    ("storage/", "storage"),
    ("trace/", "obs"),
    ("metrics/", "obs"),
    ("faults/", "obs"),
    ("bench/", "bench"),
    ("__init__.py", "bench"),
]


def layer_of_module(rel: str) -> str | None:
    """Layer of a path relative to ``src/repro`` (``None``: unmapped)."""
    for rule, layer in LAYER_RULES:
        if rel == rule or (rule.endswith("/") and rel.startswith(rule)):
            return layer
    return None


def layer_of_file(filename: str) -> str:
    """Layer of a profiled frame's file name."""
    marker = "/src/repro/"
    at = filename.rfind(marker)
    if at >= 0:
        return layer_of_module(filename[at + len(marker):]) or "other"
    if "/perf/" in filename:
        return "harness"
    return "other"


#: Boundary functions whose inclusive time the trace records:
#: (span name, file suffix, function name).
BOUNDARIES = [
    ("Environment.run", "simulation/engine.py", "run"),
    ("Network.send", "simulation/network.py", "send"),
    ("Distribution.split", "pvfs/distribution.py", "split"),
    ("Distribution.server_regions", "pvfs/distribution.py", "server_regions"),
    ("Regions.tile", "regions/core.py", "tile"),
    ("Regions.gather", "regions/core.py", "gather"),
    ("Regions.scatter", "regions/core.py", "scatter"),
    ("ExpansionCache.expand", "pvfs/expand_cache.py", "expand"),
    ("DiskModel.access_time", "storage/disk_model.py", "access_time"),
    ("BlockStore.read_regions", "storage/block_store.py", "read_regions"),
    ("BlockStore.write_regions", "storage/block_store.py", "write_regions"),
]

DRIVERS = [
    ("drv.engine.fifo_ev_per_s", "1/s", "higher"),
    ("drv.engine.heap_ev_per_s", "1/s", "higher"),
    ("drv.engine.wheel_ev_per_s", "1/s", "higher"),
    ("drv.engine.cancel_per_s", "1/s", "higher"),
    ("drv.network.msgs_per_s", "1/s", "higher"),
    ("drv.regions.tile_us", "us", "lower"),
    ("drv.regions.intersect_us", "us", "lower"),
    ("drv.regions.gather_mib_s", "MiB/s", "higher"),
    ("drv.distribution.split_us", "us", "lower"),
    ("drv.dataloops.expand_mregions_s", "Mregions/s", "higher"),
    ("drv.dataloops.serialize_us", "us", "lower"),
    ("drv.datatypes.flatten_mregions_s", "Mregions/s", "higher"),
    ("drv.storage.access_time_us", "us", "lower"),
    ("drv.storage.store_rw_mib_s", "MiB/s", "higher"),
    ("drv.expand_cache.hit_us", "us", "lower"),
]

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("engine.events", "count", "lower"),
        ("engine.us_per_event", "us", "lower"),
        ("engine.events_per_io_op", "count", "lower"),
        ("network.messages", "count", "lower"),
        ("network.wire_bytes", "bytes", "lower"),
        ("client.io_ops", "count", "lower"),
        ("client.retries", "count", "lower"),
        ("server.requests", "count", "lower"),
        ("server.regions_scanned", "count", "lower"),
        ("server.rejected", "count", "lower"),
        ("server.busy_sim_s", "s", "lower"),
        ("expand_cache.hit_rate", "ratio", "higher"),
        ("expand_cache.evictions", "count", "lower"),
        ("distribution.split_calls", "count", "lower"),
        ("regions.tile_calls", "count", "lower"),
        ("regions.gather_scatter_s", "s", "lower"),
        ("dataloops.calls", "count", "lower"),
        ("datatypes.flatten_calls", "count", "lower"),
        ("storage.access_time_calls", "count", "lower"),
        ("storage.disk_seeks", "count", "lower"),
        ("storage.store_bytes", "bytes", "lower"),
        ("obs.spans", "count", "lower"),
        ("obs.samples", "count", "lower"),
        ("obs.overhead_ratio", "ratio", "lower"),
        ("faults.injected", "count", "lower"),
        ("harness.cpu_s", "s", "lower"),
        ("harness.cells", "count", "higher"),
        ("harness.calib_us", "us", "lower"),
        ("harness.profile_overhead_ratio", "ratio", "lower"),
    ]
    + DRIVERS
)

UNITS = {n: u for n, u, *_ in END_TO_END + END_TO_END_LOCAL + PER_LAYER}
BOUNDS = {n: b for n, _u, _d, b in END_TO_END + END_TO_END_LOCAL}
BETTER = {n: d for n, _u, d, *_ in END_TO_END + END_TO_END_LOCAL + PER_LAYER}

#: Per-layer metrics that are counts of simulated or profiled work and
#: must repeat exactly between two runs of one commit at one seed.
EXACT = {
    n for n, u, _d in PER_LAYER
    if u in ("count", "bytes") or n in ("server.busy_sim_s", "expand_cache.hit_rate")
}
