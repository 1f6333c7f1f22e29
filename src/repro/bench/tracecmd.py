"""``repro-bench trace``: run one traced workload, export both artifacts.

Runs a reduced-scale workload with :class:`~repro.pvfs.config.PVFSConfig`
``trace=True``, verifies the recorded span set (no open spans, valid
Chrome ``trace_event`` schema, per-stage span sums reconciling with the
server :class:`~repro.simulation.stats.StageTimes` within 1e-9), and
writes two artifacts:

* ``TRACE_<workload>_<method>.json`` — Chrome ``trace_event`` JSON,
  loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* ``TRACE_<workload>_<method>_summary.json`` — the aggregated
  per-category / per-span-name / per-server-stage summary.

``--smoke`` (used by CI) runs the verification but skips writing the
artifacts unless ``--out`` is given.  See ``docs/observability.md`` for
the span taxonomy and a worked Perfetto walkthrough.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

from ..pvfs import PVFSConfig
from ..trace import (
    chrome_trace,
    reconcile,
    validate_chrome,
    write_chrome_trace,
)
from .runner import RunResult, run_workload
from .workloads import Block3DWorkload, FlashWorkload, TileWorkload

__all__ = [
    "TRACE_WORKLOADS",
    "reduced_workload",
    "run_traced",
    "verify_trace",
    "write_trace_artifacts",
]

#: Named reduced-scale workloads selectable with ``--workload``.
TRACE_WORKLOADS = {
    "tile": lambda: TileWorkload.reduced(frames=2),
    "block3d-read": lambda: Block3DWorkload.reduced(2, is_write=False),
    "block3d-write": lambda: Block3DWorkload.reduced(2, is_write=True),
    "flash": lambda: FlashWorkload.reduced(2),
}


def reduced_workload(name: str):
    """A fresh instance of the reduced workload ``--workload`` names."""
    if name not in TRACE_WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; "
            f"choose from {sorted(TRACE_WORKLOADS)}"
        )
    return TRACE_WORKLOADS[name]()


def run_traced(
    workload: str = "tile", method: str = "datatype_io"
) -> RunResult:
    """Run one (workload, method) pair with tracing enabled."""
    result = run_workload(
        reduced_workload(workload),
        method,
        phantom=True,
        config=PVFSConfig(trace=True),
    )
    if result.supported and result.tracer is None:
        raise RuntimeError("traced run produced no recorder")
    return result


def verify_trace(result: RunResult) -> list[str]:
    """All trace well-formedness problems for a traced run (empty = OK).

    Checks three independent invariants:

    * every span is closed (an open span means a begin/end pairing bug);
    * the Chrome export passes :func:`repro.trace.validate_chrome`;
    * per-stage span sums reconcile with the aggregate
      :class:`~repro.simulation.stats.StageTimes` within 1e-9 seconds.
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
        problems.extend(reconcile(rec, result.pipeline.total))
    return problems


def write_trace_artifacts(
    result: RunResult,
    out_dir: Optional[pathlib.Path] = None,
    *,
    stem: Optional[str] = None,
) -> list[pathlib.Path]:
    """Write the Chrome trace + summary JSON; returns the paths."""
    out_dir = out_dir or pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = stem or f"TRACE_{result.workload}_{result.method}"
    trace_path = out_dir / f"{stem}.json"
    write_chrome_trace(result.tracer, trace_path)
    summary = {
        "schema": 1,
        "workload": result.workload,
        "method": result.method,
        "n_clients": result.n_clients,
        "elapsed_s": result.elapsed,
        "server_stages": result.pipeline.total.as_dict(),
        "trace": result.trace_summary,
        "reconciled": not reconcile(result.tracer, result.pipeline.total),
    }
    summary_path = out_dir / f"{stem}_summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return [trace_path, summary_path]
