"""``repro-bench dash``: one self-contained performance dashboard.

Runs one reduced-scale (workload, method) cell with tracing *and*
metrics on, attributes the critical path (:mod:`repro.trace.critical`),
then renders everything as a single HTML file with inline SVG — no
matplotlib, no scripts, no network assets.  The same seed/config always
produces a byte-identical ``DASH_<workload>_<method>.html``, which is
what the CI ``--smoke`` gate asserts (along with blame conservation and
document well-formedness).

Composable knobs mirror the rest of the bench family: ``--faults
SEVERITY`` arms the chaos presets, ``--tenants N`` runs N equal-weight
tenants through weighted-fair admission, ``--trace``/``--metrics``
additionally write the raw Chrome trace / OpenMetrics artifacts next to
the dashboard.

Sections: run header (with the coarse ``NetworkSummary.bottleneck``
verdict next to the exact critical-path blame so the two can be
cross-checked), NIC utilization and cache/inflight time series, the
per-server × time queue-depth heat map, the slowest request's
critical-path waterfall, and a per-method blame breakdown across every
supported access method.
"""

from __future__ import annotations

import pathlib
from typing import Optional

from ..faults import severity_config
from ..pvfs import PVFSConfig, TenantConfig
from ..simulation.costs import CostModel
from ..trace.critical import critical_path, reconcile_blame
from .characteristics import METHOD_ORDER
from .plots import (
    fmt_num,
    html_page,
    svg_blame_bars,
    svg_heatmap,
    svg_time_series,
    svg_waterfall,
)
from .runner import RunResult, run_workload
from .tracecmd import reduced_workload

__all__ = [
    "collect_dash",
    "render_dash",
    "write_dash",
    "smoke_dash",
    "verify_html",
]

MIB = float(1 << 20)


def _dash_config(
    faults: Optional[str], tenants: Optional[int]
) -> PVFSConfig:
    kwargs: dict = {"trace": True, "metrics": True}
    if faults and faults != "none":
        kwargs["faults"] = severity_config(faults)
    if tenants and tenants > 1:
        kwargs["tenants"] = tuple(
            TenantConfig(name=f"t{i}") for i in range(tenants)
        )
    return PVFSConfig(**kwargs)


def _run(
    workload: str,
    method: str,
    *,
    faults: Optional[str] = None,
    tenants: Optional[int] = None,
) -> RunResult:
    cfg = _dash_config(faults, tenants)
    tenant_of = None
    if tenants and tenants > 1:
        n = tenants
        tenant_of = lambda rank: rank % n  # noqa: E731
    return run_workload(
        reduced_workload(workload),
        method,
        phantom=True,
        config=cfg,
        tenant_of=tenant_of,
    )


def _series_children(result: RunResult, family: str, label_key: str):
    """{label value: Series} for one metric family (empty if absent)."""
    fam = result.metrics.registry.families.get(family)
    if fam is None:
        return {}
    return {dict(k)[label_key]: v for k, v in fam.children.items()}


def _mean_series(children: dict):
    """Pointwise mean across same-clock Series (columns of one sample
    table, so the t vectors are identical)."""
    if not children:
        return [], []
    ordered = [children[k] for k in sorted(children)]
    ts = ordered[0].t
    n = len(ordered)
    means = [sum(vs) / n for vs in zip(*(s.values for s in ordered))]
    return ts, means


def collect_dash(
    workload: str = "block3d-read",
    method: str = "datatype_io",
    *,
    faults: Optional[str] = None,
    tenants: Optional[int] = None,
    blame_methods: tuple = tuple(METHOD_ORDER),
) -> dict:
    """Run the cell + per-method blame sweep; return the render inputs.

    The main run is verified before anything renders: the blame walk
    must conserve (shares sum to 1 within 1e-9) and must reconcile with
    ``StageTimes``/``NodeUtilization`` — a dashboard built on
    unreconciled attribution would be confidently wrong.
    """
    costs = CostModel()
    result = _run(workload, method, faults=faults, tenants=tenants)
    if not result.supported:
        raise ValueError(
            f"{method} unsupported for {workload}: {result.note}"
        )
    cfg = _dash_config(faults, tenants)
    loose = (f"ios{cfg.metadata_server}",)
    problems = reconcile_blame(
        result.tracer,
        result.pipeline.total,
        result.network,
        nic_bandwidth=costs.nic_bandwidth,
        loose_nodes=loose,
    )
    if problems:
        raise ValueError(
            f"{len(problems)} blame reconciliation problem(s): "
            + "; ".join(problems[:3])
        )
    report = critical_path(
        result.tracer, nic_bandwidth=costs.nic_bandwidth, config=cfg
    )

    blames: dict[str, dict[str, float]] = {}
    for m in blame_methods:
        if m == method:
            blames[m] = report.shares()
            continue
        other = _run(workload, m, faults=faults, tenants=tenants)
        if not other.supported:
            continue
        blames[m] = critical_path(
            other.tracer, nic_bandwidth=costs.nic_bandwidth, config=cfg
        ).shares()

    return {
        "workload": workload,
        "method": method,
        "faults": faults or "none",
        "tenants": tenants or 1,
        "result": result,
        "report": report,
        "blames": blames,
    }


def _waterfall_rows(report) -> list[tuple[str, str, float, float]]:
    """The slowest trace's critical-path slices, labelled for humans."""
    if not report.residuals:
        return []
    slowest = max(
        report.residuals,
        key=lambda tid: sum(
            s.duration for s in report.segments if s.trace_id == tid
        ),
    )
    return [
        (f"{seg.span.name} @{seg.span.actor}", seg.resource,
         seg.start, seg.end)
        for seg in report.trace_segments(slowest)
    ]


def render_dash(data: dict) -> str:
    """Render :func:`collect_dash` output as the final HTML document."""
    result: RunResult = data["result"]
    report = data["report"]
    shares = report.shares()
    dominant = report.dominant()

    header = [
        ("workload", data["workload"]),
        ("method", data["method"]),
        ("clients", str(result.n_clients)),
        ("elapsed", f"{fmt_num(result.elapsed)} s"),
        ("bandwidth", f"{fmt_num(result.bandwidth_mbps)} MiB/s"),
        (
            "bottleneck (coarse)",
            result.network.bottleneck(result.pipeline.total),
        ),
        (
            "critical-path blame",
            f"{dominant} ({fmt_num(shares[dominant] * 100)}%)",
        ),
        ("faults", data["faults"]),
        ("tenants", str(data["tenants"])),
    ]
    if result.faults is not None and result.faults.armed:
        fs = result.faults.summary()
        header.append(
            (
                "injected faults",
                f"{fs['events']} events "
                f"({fs['disk_slowdowns']} slow, {fs['disk_stalls']} "
                f"stall, {fs['drops']} drop, {fs['dups']} dup)",
            )
        )

    nic = {}
    for side in ("tx", "rx"):
        children = _series_children(
            result, f"repro_nic_{side}_utilization", "node"
        )
        for prefix in ("ios", "cn"):
            grp = {k: v for k, v in children.items() if k.startswith(prefix)}
            ts, means = _mean_series(grp)
            if ts:
                nic[f"{prefix} {side}"] = (ts, means)
    panels = [
        (
            "NIC utilization (mean busy fraction per sample)",
            svg_time_series(nic, title="NIC utilization", unit="busy frac"),
        )
    ]

    aux = {}
    hit = _series_children(result, "repro_server_cache_hit_rate", "server")
    ts, means = _mean_series(hit)
    if ts:
        aux["cache hit rate"] = (ts, means)
    fam = result.metrics.registry.families.get(
        "repro_net_inflight_bytes_sampled"
    )
    if fam is not None and fam.children:
        series = next(iter(fam.children.values()))
        if series.t:
            aux["net inflight (MiB)"] = (
                series.t,
                [v / MIB for v in series.values],
            )
    panels.append(
        (
            "Cache + network pressure",
            svg_time_series(aux, title="cache hit rate / inflight MiB"),
        )
    )

    depth = _series_children(result, "repro_server_queue_depth", "server")
    rows, edges, grid = [], [], []
    if depth:
        rows = sorted(depth, key=lambda n: int(n[3:]))
        first = depth[rows[0]]
        if first.t:
            edges = [first.t[0] - first.dt[0]] + list(first.t)
            grid = [depth[r].values for r in rows]
    panels.append(
        (
            "Server queue depth over time",
            svg_heatmap(
                rows, edges, grid,
                title="queue depth per I/O daemon", unit="requests",
            ),
        )
    )

    panels.append(
        (
            "Critical path of the slowest request",
            svg_waterfall(
                _waterfall_rows(report),
                title="exclusive blame, chronological",
            ),
        )
    )
    panels.append(
        (
            "Critical-path blame by access method",
            svg_blame_bars(
                data["blames"],
                title=f"share of critical path — {data['workload']}",
            ),
        )
    )
    return html_page(
        f"repro dash — {data['workload']} / {data['method']}",
        panels,
        header_rows=header,
    )


def write_dash(
    data: dict, out_dir: Optional[pathlib.Path] = None
) -> pathlib.Path:
    out_dir = out_dir or pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"DASH_{data['workload']}_{data['method']}.html"
    path.write_text(render_dash(data))
    return path


def verify_html(html: str) -> list[str]:
    """Self-containment + well-formedness problems (empty = OK)."""
    problems = []
    if not html.startswith("<!DOCTYPE html>"):
        problems.append("missing DOCTYPE")
    for tag in ("html", "head", "body", "title"):
        if html.count(f"<{tag}") != html.count(f"</{tag}>"):
            problems.append(f"unbalanced <{tag}> tags")
    if html.count("<svg") != html.count("</svg>"):
        problems.append("unbalanced <svg> tags")
    if html.count("<svg") == 0:
        problems.append("no SVG panels")
    if "<script" in html:
        problems.append("contains a script element")
    # the only permitted URL is the SVG namespace declaration
    stripped = html.replace('xmlns="http://www.w3.org/2000/svg"', "")
    if "http://" in stripped or "https://" in stripped:
        problems.append("references an external URL")
    return problems


def smoke_dash(
    workload: str = "block3d-read", method: str = "datatype_io"
) -> list[str]:
    """CI gate: determinism, conservation, self-containment.

    Collects the dashboard twice from scratch; the two renders must be
    byte-identical, every method's blame shares must sum to 1 within
    1e-9, and the HTML must pass :func:`verify_html`.
    """
    problems = []
    data = collect_dash(workload, method)
    html = render_dash(data)
    problems.extend(verify_html(html))
    for m, shares in data["blames"].items():
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-9:
            problems.append(
                f"{m}: blame shares sum to {total!r}, not 1.0"
            )
    again = render_dash(collect_dash(workload, method))
    if again != html:
        problems.append("re-collected dashboard is not byte-identical")
    return problems
