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
from .runner import RunResult, Spec, mesh, row
from .workloads import REDUCED

__all__ = ["DOCUMENT", "collect_pipeline_baseline"]

#: Schema version of the emitted document; bump on layout changes.
SCHEMA = 1

#: Stage-seconds keys of ``server_stages`` summed into server busy time.
_STAGE_KEYS = ("decode_s", "plan_s", "cache_s", "storage_s", "respond_s")

#: benchmark -> its reduced cell's constructor
_BENCHMARKS = dict(REDUCED.values())


@row
def _pipeline_row(r: RunResult) -> dict:
    blame = critical_path(
        r.tracer, nic_bandwidth=CostModel().nic_bandwidth, config=r.spec.config
    )
    return {
        "mbps": round(r.bandwidth_mbps, 3),
        "elapsed_s": r.elapsed,
        "n_clients": r.n_clients,
        "io_ops_per_client": r.io_ops,
        "server_stages": r.pipeline.total.as_dict(),
        "bottleneck": r.network.bottleneck(r.pipeline.total),
        "critical_blame": {
            res: round(share, 6) for res, share in blame.shares().items()
        },
    }


@row
def _traced_row(r: RunResult) -> dict:
    keys = ("spans", "traces", "by_category_s", "server_stages_s", "fault_spans")
    trace = {k: r.trace_summary[k] for k in keys}
    return {**_pipeline_row(r), "trace": trace}


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
    observe = _traced_row if trace else _pipeline_row
    benchmarks = mesh(
        lambda benchmark, method: Spec(
            _BENCHMARKS[benchmark](),
            method,
            config=PVFSConfig(trace=True),
            observe=observe,
        ),
        benchmark=_BENCHMARKS,
        method=methods,
    )
    return {"schema": SCHEMA, "scale": "reduced", "benchmarks": benchmarks}


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
