"""The checks and files of a traced or metered run (``repro-bench
trace`` / ``metrics``):
``TRACE_<workload>_<method>.json`` (Chrome ``trace_event``, loadable in
Perfetto) with its ``_summary.json``, and
``METRICS_<workload>_<method>.json`` (registry dump, run context,
per-server imbalance) with its OpenMetrics ``.prom`` text.  See
``docs/observability.md`` for the span and metric taxonomies.
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
from ..trace import (
    chrome_trace,
    reconcile_blame,
    validate_chrome,
    write_chrome_trace,
)
from .runner import RunResult

__all__ = [
    "verify_metrics",
    "verify_trace",
    "write_metrics_artifacts",
    "write_trace_artifacts",
]


def verify_trace(result: RunResult) -> list[str]:
    """All trace well-formedness problems for a traced run (empty = OK).

    Checks three independent invariants:

    * every span is closed (an open span means a begin/end pairing bug);
    * the Chrome export passes :func:`repro.trace.validate_chrome`;
    * the spans reconcile with the run's own books within 1e-9
      (:func:`_reconciled`).
    """
    problems: list[str] = []
    rec = result.tracer
    if rec is None:
        return ["run was not traced (tracer is None)"]
    open_spans = rec.open_spans()
    if open_spans:
        problems.append(
            f"{len(open_spans)} open span(s): "
            + ", ".join(s.name for s in open_spans[:5])
        )
        return problems  # chrome_trace would raise; stop here
    problems.extend(validate_chrome(chrome_trace(rec)))
    if result.pipeline is not None:
        problems.extend(_reconciled(result))
    return problems


def _reconciled(result: RunResult) -> list[str]:
    """:func:`repro.trace.reconcile_blame` on a traced run: per-stage span
    sums against :class:`~repro.simulation.stats.StageTimes`, blame
    conservation, and each I/O server's ``net.xfer`` bytes and wire
    seconds against its ``NodeUtilization`` at the run's own NIC
    bandwidth.  The metadata host also carries untraced requests, so
    its traffic is only held to "traced ≤ accounted"."""
    fs = result.fs
    return reconcile_blame(
        result.tracer,
        result.pipeline.total,
        result.network,
        nic_bandwidth=fs.costs.nic_bandwidth,
        loose_nodes=(fs.metadata.mailbox.node.name,),
    )


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


def _artifact(result: RunResult, out_dir, stem: str, **fields) -> pathlib.Path:
    """Write ``<stem>.json``: the run's context plus ``fields``."""
    out_dir = pathlib.Path(out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 1,
        "workload": result.workload,
        "method": result.method,
        "n_clients": result.n_clients,
        "elapsed_s": result.elapsed,
        "server_stages": result.pipeline.total.as_dict(),
        **fields,
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_trace_artifacts(
    result: RunResult,
    out_dir: Optional[pathlib.Path] = None,
    *,
    stem: Optional[str] = None,
) -> list[pathlib.Path]:
    """Write the Chrome trace + summary JSON; returns the paths."""
    stem = stem or f"TRACE_{result.workload}_{result.method}"
    summary = _artifact(
        result,
        out_dir,
        f"{stem}_summary",
        trace=result.trace_summary,
        reconciled=not _reconciled(result),
    )
    trace_path = summary.with_name(f"{stem}.json")
    write_chrome_trace(result.tracer, trace_path)
    return [trace_path, summary]


def write_metrics_artifacts(
    result: RunResult,
    out_dir: Optional[pathlib.Path] = None,
    *,
    stem: Optional[str] = None,
) -> list[pathlib.Path]:
    """Write the metrics JSON + OpenMetrics text; returns the paths."""
    hub = result.metrics
    path = _artifact(
        result,
        out_dir,
        stem or f"METRICS_{result.workload}_{result.method}",
        imbalance=imbalance_report(result.servers),
        metrics=metrics_json(hub),
        reconciled=not reconcile_metrics(
            hub, result.pipeline.total, result.network
        ),
    )
    prom_path = path.with_suffix(".prom")
    prom_path.write_text(openmetrics(hub))
    return [path, prom_path]
