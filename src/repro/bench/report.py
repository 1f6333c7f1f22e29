"""Text rendering of tables and figures, paper-style."""

from __future__ import annotations

from typing import Optional, Sequence

from ..trace import SERVER_STAGE_SPANS
from .characteristics import METHOD_LABELS
from .figures import FigureSeries
from .runner import Cell

__all__ = [
    "format_mib",
    "render_characteristics",
    "render_figure",
    "render_metrics_summary",
    "render_trace_summary",
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


def render_figure(fig: FigureSeries, unit: str = "MiB/s") -> str:
    """Render a figure's series as an aligned table."""
    xs = fig.xs()
    methods = [m for m in fig.series]
    header = f"{fig.xlabel:>10s} " + " ".join(
        f"{METHOD_LABELS.get(m, m):>17s}" for m in methods
    )
    lines = [f"{fig.name}  (aggregate {unit})", "=" * len(header), header]
    for x in xs:
        cells = []
        for m in methods:
            v = fig.series[m].get(x)
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
