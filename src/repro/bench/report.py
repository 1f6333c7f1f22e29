"""The paper's Tables 1–3 and Figures 8, 10 and 12, one record each.

A record collects its axes as a :func:`~.runner.mesh` of
:class:`~.runner.Cell` rows over :mod:`~repro.bench.characteristics`'
cell specs and renders ``results/<name>.txt`` (``--plot`` appends a
figure's charts).  Also: traced/metered run summaries and the paper's
published values.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..trace import SERVER_STAGE_SPANS
from .characteristics import (
    INDEPENDENT_METHODS,
    METHOD_LABELS,
    METHOD_ORDER,
    block3d_spec,
    flash_spec,
    tile_spec,
)
from .document import Document
from .plots import figure_methods, plot_figure
from .runner import Cell, mesh

__all__ = [
    "bandwidths",
    "format_mib",
    "render_characteristics",
    "render_figure",
    "render_metrics_summary",
    "render_trace_summary",
    "PAPER",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
]

MIB = 1024 * 1024


def format_mib(nbytes: Optional[float], dash: str = "—") -> str:
    """Format a byte count the way the paper's tables do (MiB)."""
    if nbytes is None:
        return dash
    mb = nbytes / MIB
    if mb == 0:
        return dash
    if mb >= 100:
        return f"{mb:.0f} MB"
    if mb >= 10:
        return f"{mb:.1f} MB"
    return f"{mb:.2f} MB"


def _ops(x: Optional[float]) -> str:
    if x is None:
        return "—"
    if x == int(x):
        return f"{int(x):,}"
    return f"{x:,.1f}"


def render_characteristics(title: str, rows: Sequence[Cell]) -> str:
    """Render one characteristics table (paper Tables 1–3 layout)."""
    header = (
        f"{'':18s} {'Desired Data':>14s} {'Data Accessed':>14s} "
        f"{'# I/O Ops':>12s} {'Resent Data':>13s}"
    )
    sub = (
        f"{'':18s} {'per Client':>14s} {'per Client':>14s} "
        f"{'per Client':>12s} {'per Client':>13s}"
    )
    lines = [title, "=" * len(header), header, sub, "-" * len(header)]
    for row in rows:
        label = METHOD_LABELS.get(row.method, row.method)
        if not row.supported:
            lines.append(
                f"{label:18s} {'—':>14s} {'—':>14s} {'—':>12s} {'—':>13s}"
            )
            continue
        resent = (
            format_mib(row.resent_bytes) if row.resent_bytes > 0 else "—"
        )
        lines.append(
            f"{label:18s} {format_mib(row.desired_bytes):>14s} "
            f"{format_mib(row.accessed_bytes):>14s} "
            f"{_ops(row.io_ops):>12s} {resent:>13s}"
        )
    return "\n".join(lines)


def render_figure(name: str, points: dict, unit: str = "MiB/s") -> str:
    """Render a figure's points (``{clients: {method: MiB/s or None}}``)
    as an aligned table; a missing or ``None`` point is a dash."""
    methods = figure_methods(points)
    header = f"{'clients':>10s} " + " ".join(
        f"{METHOD_LABELS.get(m, m):>17s}" for m in methods
    )
    lines = [f"{name}  (aggregate {unit})", "=" * len(header), header]
    for x in sorted(points):
        cells = []
        for m in methods:
            v = points[x].get(m)
            cells.append(f"{v:17.1f}" if v is not None else f"{'—':>17s}")
        lines.append(f"{x:>10d} " + " ".join(cells))
    return "\n".join(lines)


def render_trace_summary(result) -> str:
    """Render a traced run's span aggregate, paper-report style.

    Takes a :class:`~repro.bench.runner.RunResult` from a run with
    ``PVFSConfig(trace=True)``.  The second block cross-checks the
    per-stage span sums against the scheduler's own ``StageTimes``
    accounting — the two are independent code paths, so a nonzero delta
    would mean the trace is lying about where server time went.
    """
    s = result.trace_summary
    if s is None:
        raise ValueError("run was not traced (trace_summary is None)")
    title = (
        f"Trace summary: {result.workload} / {result.method} "
        f"({result.n_clients} clients, {s['spans']} spans, "
        f"{s['traces']} traces, {result.elapsed:.6f} s simulated)"
    )
    header = f"{'span':>16s} {'count':>7s} {'seconds':>12s}"
    lines = [title, "=" * len(title), header, "-" * len(header)]
    for name in sorted(s["by_name"]):
        entry = s["by_name"][name]
        lines.append(
            f"{name:>16s} {entry['count']:>7d} {entry['seconds']:>12.6f}"
        )
    lines.append("")
    st = result.pipeline.total
    header2 = (
        f"{'server stage':>16s} {'span sum':>12s} "
        f"{'StageTimes':>12s} {'delta':>10s}"
    )
    lines += [header2, "-" * len(header2)]
    for span_name, stage in SERVER_STAGE_SPANS.items():
        span_sum = s["server_stages_s"].get(stage, 0.0)
        stage_sum = getattr(st, stage)
        lines.append(
            f"{stage:>16s} {span_sum:>12.6f} {stage_sum:>12.6f} "
            f"{span_sum - stage_sum:>10.1e}"
        )
    return "\n".join(lines)


def render_metrics_summary(result) -> str:
    """Render a metered run's metrics, paper-report style.

    Takes a :class:`~repro.bench.runner.RunResult` from a run with
    ``PVFSConfig(metrics=True)``: per-stage latency quantiles from the
    log-bucketed histograms, end-to-end request latency, traffic
    counters, and the per-server load-imbalance report.
    """
    from ..metrics import STAGES, imbalance_report

    hub = result.metrics
    if hub is None:
        raise ValueError("run was not metered (metrics is None)")
    title = (
        f"Metrics summary: {result.workload} / {result.method} "
        f"({result.n_clients} clients, {hub.samples} samples @ "
        f"{hub.interval:g} s, {result.elapsed:.6f} s simulated)"
    )
    header = (
        f"{'latency':>16s} {'count':>7s} {'p50':>11s} "
        f"{'p95':>11s} {'p99':>11s} {'sum':>12s}"
    )
    lines = [title, "=" * len(title), header, "-" * len(header)]

    def hist_row(label, h):
        lines.append(
            f"{label:>16s} {h.count:>7d} {h.quantile(0.5):>11.3e} "
            f"{h.quantile(0.95):>11.3e} {h.quantile(0.99):>11.3e} "
            f"{h.sum:>12.6f}"
        )

    for stage in STAGES:
        hist_row(f"stage:{stage}", hub._h_stage[stage])
    hist_row("request", hub._h_request)
    hist_row("queue-wait", hub._h_queue_wait)
    lines.append("")
    net = result.network
    retries = sum(c.counters.retries for c in result.fs.clients)
    lines.append(
        f"traffic: {net.total_messages:g} messages, "
        f"{net.total_bytes:g} bytes, {retries:g} client retries"
    )
    rep = imbalance_report(result.servers)
    busy, byt = rep["busy"], rep["bytes"]
    lines.append(
        f"imbalance: busy max/mean {busy['max_over_mean']:.3f} "
        f"(hottest {busy['hottest_server']}), "
        f"bytes max/mean {byt['max_over_mean']:.3f} "
        f"(hottest {byt['hottest_server']})"
    )
    lines.append(
        f"bottleneck: {result.network.bottleneck(result.pipeline.total)}"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The six records
# ----------------------------------------------------------------------
def bandwidths(rows: dict) -> dict:
    """``{method: Cell or None}`` -> ``{method: MiB/s or None}``."""
    return {m: None if c is None else c.bandwidth_mbps for m, c in rows.items()}


def _table(blocks):
    """A characteristics table per ``(title, rows)`` of ``blocks(doc)``."""
    return lambda doc, **_: "\n\n".join(
        render_characteristics(title, rows.values()) for title, rows in blocks(doc)
    )


def _figure(panels):
    """A figure table per ``(name, points)`` of ``panels(doc)``; under
    ``plot`` a chart of each follows."""

    def render(doc: dict, plot: bool = False, **_) -> str:
        figs = panels(doc)
        text = "\n\n".join(render_figure(*fig) for fig in figs)
        return text + "".join("\n\n" + plot_figure(*fig) for fig in figs if plot)

    return render


def _paper(name: str, collect, render) -> Document:
    return Document(name=name, command=name, collect=collect, render=render)


# Each record collects ``mesh(spec, **axes)``; ``--quick`` shrinks the
# figures' sweeps, never a table.
TABLE1 = _paper(
    "table1",
    lambda **_: mesh(partial(tile_spec, frames=1), method=INDEPENDENT_METHODS),
    _table(lambda doc: [(
        "Table 1: I/O characteristics of the tile reader benchmark (per frame)",
        doc,
    )]),
)

TABLE2 = _paper(
    "table2",
    lambda **_: mesh(
        block3d_spec, clients_per_dim=(2, 3, 4), method=INDEPENDENT_METHODS
    ),
    _table(lambda doc: [
        (f"Table 2 ({cpd**3} clients): ROMIO 3-D block test", rows)
        for cpd, rows in doc.items()
    ]),
)

TABLE3 = _paper(
    "table3",
    lambda **_: mesh(partial(flash_spec, 4), method=INDEPENDENT_METHODS),
    _table(lambda doc: [("Table 3: FLASH I/O characteristics (4 clients)", doc)]),
)

FIG8 = _paper(
    "fig8",
    lambda quick=False, **_: mesh(
        partial(tile_spec, frames=3 if quick else 10), method=METHOD_ORDER
    ),
    _figure(lambda doc: [(
        "fig8-tile-read", {next(iter(doc.values())).n_clients: bandwidths(doc)}
    )]),
)

FIG10 = _paper(
    "fig10",
    lambda quick=False, **_: mesh(
        block3d_spec,
        clients_per_dim=(2, 3) if quick else (2, 3, 4),
        method=METHOD_ORDER,
        direction=("read", "write"),
    ),
    _figure(lambda doc: [
        (f"fig10-3dblock-{way}", {
            cpd**3: bandwidths({m: row[way] for m, row in rows.items()})
            for cpd, rows in doc.items()
        })
        for way in ("read", "write")
    ]),
)

FIG12 = _paper(
    "fig12",
    lambda quick=False, **_: mesh(
        flash_spec,
        clients=(2, 8, 32) if quick else (2, 4, 8, 16, 32, 48, 64, 96, 128),
        method=METHOD_ORDER,
    ),
    _figure(lambda doc: [
        ("fig12-flash-write", {n: bandwidths(rows) for n, rows in doc.items()})
    ]),
)

#: The paper's artifacts, in ``repro-bench all`` order
PAPER = (TABLE1, TABLE2, TABLE3, FIG8, FIG10, FIG12)


# ----------------------------------------------------------------------
# The paper's published values, for side-by-side comparison in reports
# and the claims of tests/bench/test_claims.py.  Units: bytes (MiB-based, as
# printed in the paper), operations, or None for "—".
# ----------------------------------------------------------------------
def _mb(x: float) -> int:
    return int(x * MIB)


#: Table 1 (tile reader): method -> (desired, accessed, ops, resent)
PAPER_TABLE1 = {
    "posix": (_mb(2.25), _mb(2.25), 768, None),
    "data_sieving": (_mb(2.25), _mb(5.56), 2, None),
    "two_phase": (_mb(2.25), _mb(1.70), 1, _mb(1.50)),
    "list_io": (_mb(2.25), _mb(2.25), 12, None),
    "datatype_io": (_mb(2.25), _mb(2.25), 1, None),
}

#: Table 2 (3-D block): clients -> method -> (desired, accessed, ops, resent)
PAPER_TABLE2 = {
    8: {
        "posix": (_mb(103), _mb(103), 90_000, None),
        "data_sieving": (_mb(103), _mb(412), 103, None),
        "two_phase": (_mb(103), _mb(103), 26, _mb(77.2)),
        "list_io": (_mb(103), _mb(103), 1408, None),
        "datatype_io": (_mb(103), _mb(103), 1, None),
    },
    27: {
        "posix": (_mb(30.5), _mb(30.5), 40_000, None),
        "data_sieving": (_mb(30.5), _mb(274.7), 69, None),
        "two_phase": (_mb(30.5), _mb(30.5), 8, _mb(27.1)),
        "list_io": (_mb(30.5), _mb(30.5), 626, None),
        "datatype_io": (_mb(30.5), _mb(30.5), 1, None),
    },
    64: {
        "posix": (_mb(12.9), _mb(12.9), 22_500, None),
        "data_sieving": (_mb(12.9), _mb(206.0), 52, None),
        "two_phase": (_mb(12.9), _mb(12.9), 4, _mb(12.1)),
        "list_io": (_mb(12.9), _mb(12.9), 352, None),
        "datatype_io": (_mb(12.9), _mb(12.9), 1, None),
    },
}

#: Table 3 (FLASH): method -> (desired, accessed, ops, resent_fraction)
#: resent is 7.5 MB × (n-1)/n for two-phase.
PAPER_TABLE3 = {
    "posix": (_mb(7.50), _mb(7.50), 983_040, None),
    "data_sieving": None,  # unavailable: write test without locking
    "two_phase": (_mb(7.50), _mb(7.50), 2, "n-1/n"),
    "list_io": (_mb(7.50), _mb(7.50), 15_360, None),
    "datatype_io": (_mb(7.50), _mb(7.50), 1, None),
}
