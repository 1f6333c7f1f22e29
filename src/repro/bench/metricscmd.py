"""``repro-bench metrics``: run one metered workload, export artifacts.

Runs a reduced-scale workload with :class:`~repro.pvfs.config.PVFSConfig`
``metrics=True``, verifies the collected metrics (histogram/series
totals reconciling with :class:`~repro.simulation.stats.StageTimes` and
the network summary within 1e-9, OpenMetrics text passing the grammar
validator), and writes two artifacts:

* ``METRICS_<workload>_<method>.json`` — the full registry dump
  (:func:`repro.metrics.metrics_json`) plus run context and the
  per-server load-imbalance report;
* ``METRICS_<workload>_<method>.prom`` — OpenMetrics/Prometheus text
  exposition, scrapeable by any Prometheus-compatible collector.

``--smoke`` (used by CI) additionally replays the same run with metrics
*off* and requires float-equal elapsed time — the bit-identity gate —
then skips writing artifacts unless ``--out`` is given.  See
``docs/observability.md`` for the metric taxonomy and the compare-gate
workflow.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

from ..metrics import (
    imbalance_report,
    metrics_json,
    openmetrics,
    reconcile_metrics,
    validate_openmetrics,
)
from ..pvfs import PVFSConfig
from .runner import RunResult, run_workload
from .tracecmd import reduced_workload

__all__ = [
    "check_bit_identity",
    "run_metered",
    "verify_metrics",
    "write_metrics_artifacts",
]

def run_metered(
    workload: str = "tile",
    method: str = "datatype_io",
    *,
    interval: float = 1e-3,
) -> RunResult:
    """Run one (workload, method) pair with metrics collection on."""
    result = run_workload(
        reduced_workload(workload),
        method,
        phantom=True,
        config=PVFSConfig(metrics=True, metrics_interval=interval),
    )
    if result.supported and result.metrics is None:
        raise RuntimeError("metered run produced no metrics hub")
    return result


def verify_metrics(result: RunResult) -> list[str]:
    """All metrics well-formedness problems for a run (empty = OK).

    Checks two independent invariants:

    * histogram sums / series integrals / counters reconcile with the
      simulation's own :class:`~repro.simulation.stats.StageTimes` and
      network accounting (:func:`repro.metrics.reconcile_metrics`);
    * the OpenMetrics exposition parses under the grammar validator
      (:func:`repro.metrics.validate_openmetrics`).
    """
    hub = result.metrics
    if hub is None:
        return ["run was not metered (metrics is None)"]
    problems = list(
        reconcile_metrics(hub, result.pipeline.total, result.network)
    )
    problems.extend(validate_openmetrics(openmetrics(hub)))
    return problems


def check_bit_identity(
    workload: str = "tile", method: str = "datatype_io"
) -> list[str]:
    """Replay the workload with metrics *off*; require float equality.

    Metrics are pure observation: the sampler rides the engine's clock
    hook and never creates events, so a metered run must finish at the
    *bit-identical* simulated time of an unmetered one.  Returns a list
    of discrepancies (empty = identical).
    """
    on, off = (
        run_workload(
            reduced_workload(workload),
            method,
            phantom=True,
            config=PVFSConfig(metrics=metrics),
        )
        for metrics in (True, False)
    )
    problems: list[str] = []
    if on.elapsed != off.elapsed:
        problems.append(
            f"elapsed differs with metrics on/off: "
            f"{on.elapsed!r} != {off.elapsed!r}"
        )
    if on.network.total_messages != off.network.total_messages:
        problems.append(
            f"message count differs with metrics on/off: "
            f"{on.network.total_messages} != {off.network.total_messages}"
        )
    return problems


def write_metrics_artifacts(
    result: RunResult,
    out_dir: Optional[pathlib.Path] = None,
    *,
    stem: Optional[str] = None,
) -> list[pathlib.Path]:
    """Write the metrics JSON + OpenMetrics text; returns the paths."""
    out_dir = out_dir or pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = stem or f"METRICS_{result.workload}_{result.method}"
    hub = result.metrics
    doc = {
        "schema": 1,
        "workload": result.workload,
        "method": result.method,
        "n_clients": result.n_clients,
        "elapsed_s": result.elapsed,
        "server_stages": result.pipeline.total.as_dict(),
        "imbalance": imbalance_report(result.servers),
        "metrics": metrics_json(hub),
        "reconciled": not reconcile_metrics(
            hub, result.pipeline.total, result.network
        ),
    }
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    prom_path = out_dir / f"{stem}.prom"
    prom_path.write_text(openmetrics(hub))
    return [json_path, prom_path]
