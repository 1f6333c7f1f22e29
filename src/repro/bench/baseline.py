"""Machine-readable benchmark baseline (``BENCH_pipeline.json``).

``repro-bench json`` (or ``python -m repro.bench json``) runs the three
paper benchmarks at reduced scale — the fig8 tile reader, the fig10
3-D block read/write and the fig12 FLASH write — across every access
method and emits one JSON document with per-method aggregate MB/s and
the server pipeline's per-stage second breakdown.  Subsequent PRs diff
against this file to prove a hot path got faster (or at least did not
regress) without re-deriving paper-scale runs.
"""

from __future__ import annotations

from typing import Sequence

from ..pvfs import PVFSConfig
from ..simulation.costs import CostModel
from ..trace.critical import critical_path
from .characteristics import METHOD_ORDER
from .document import Document, Gate
from .runner import run_workload
from .workloads import Block3DWorkload, FlashWorkload, TileWorkload

__all__ = ["DOCUMENT", "collect_pipeline_baseline"]

#: Schema version of the emitted document; bump on layout changes.
SCHEMA = 1

#: Stage-seconds keys of ``server_stages`` summed into server busy time.
_STAGE_KEYS = ("decode_s", "plan_s", "cache_s", "storage_s", "respond_s")


def _bench_cases():
    """(name, workload) pairs at reduced scale, one per paper figure."""
    return [
        ("fig8_tile_read", TileWorkload.reduced(frames=2)),
        ("fig10_block3d_read", Block3DWorkload.reduced(2, is_write=False)),
        ("fig10_block3d_write", Block3DWorkload.reduced(2, is_write=True)),
        ("fig12_flash_write", FlashWorkload.reduced(2)),
    ]


def collect_pipeline_baseline(
    methods: Sequence[str] = METHOD_ORDER,
    *,
    trace: bool = False,
) -> dict:
    """Run the reduced benchmark matrix and collect results as a dict.

    Every run executes under ``PVFSConfig(trace=True)`` so each entry
    carries the coarse ``"bottleneck"`` verdict
    (:meth:`~repro.simulation.stats.NetworkSummary.bottleneck`) and the
    exact ``"critical_blame"`` shares (:func:`repro.trace.critical
    .critical_path`) — the fields ``repro-bench compare`` uses to name
    the resource behind a drift.  Timings are bit-identical to an
    untraced run: the tracer observes the simulated clock but never
    advances it (a gated invariant).  With ``trace=True`` the entries
    additionally carry the full ``"trace"`` block — the aggregated span
    summary (span/trace counts, per-category seconds, per-server-stage
    seconds and per-family fault span counts).
    """
    costs = CostModel()
    doc: dict = {"schema": SCHEMA, "scale": "reduced", "benchmarks": {}}
    for name, wl in _bench_cases():
        per_method: dict = {}
        for method in methods:
            config = PVFSConfig(trace=True)
            r = run_workload(
                wl, method, phantom=True, costs=costs, config=config
            )
            if not r.supported:
                per_method[method] = {"supported": False, "note": r.note}
                continue
            blame = critical_path(
                r.tracer, nic_bandwidth=costs.nic_bandwidth, config=config
            )
            per_method[method] = {
                "supported": True,
                "mbps": round(r.bandwidth_mbps, 3),
                "elapsed_s": r.elapsed,
                "n_clients": r.n_clients,
                "io_ops_per_client": r.io_ops,
                "server_stages": r.pipeline.total.as_dict(),
                "bottleneck": r.network.bottleneck(r.pipeline.total),
                "critical_blame": {
                    res: round(share, 6)
                    for res, share in blame.shares().items()
                },
            }
            if trace and r.trace_summary is not None:
                s = r.trace_summary
                per_method[method]["trace"] = {
                    "spans": s["spans"],
                    "traces": s["traces"],
                    "by_category_s": s["by_category_s"],
                    "server_stages_s": s["server_stages_s"],
                    "fault_spans": s["fault_spans"],
                }
        doc["benchmarks"][name] = per_method
    return doc


def _collect(replay_of=None, trace=False, **_) -> dict:
    return collect_pipeline_baseline(trace=trace)


def _busy_s(row: dict) -> float:
    stages = row["server_stages"]
    return sum(stages[k] for k in _STAGE_KEYS)


DOCUMENT = Document(
    name="pipeline",
    command="json",
    collect=_collect,
    gates=(
        Gate(
            rows=lambda doc: doc.get("benchmarks", {}),
            levels=("benchmark", "method"),
            metrics=(
                ("mbps", "higher"),
                ("elapsed_s", "lower"),
                ("server_busy_s", "lower", _busy_s),
            ),
            supported=True,
            # any flagged drift gets the attribution story: which
            # resource's critical-path share moved ("it got slower"
            # becomes "disk went from 41% to 58% of the critical path")
            blame="critical_blame",
        ),
    ),
)
