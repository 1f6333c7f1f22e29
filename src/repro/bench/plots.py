"""Figure rendering with zero plotting dependencies.

Two layers, both stdlib-only:

* ASCII charts — `repro-bench fig... --plot` draws the same points the
  paper's figures show: a horizontal bar chart for single-x figures
  (Figure 8) and a multi-series line chart on a character grid for the
  sweeps (Figures 10 and 12).
* SVG charts — the building blocks of ``repro-bench dash``:
  :func:`svg_time_series` panels for metric series,
  :func:`svg_heatmap` for per-server × time grids,
  :func:`svg_waterfall` for one request's critical-path slices,
  :func:`svg_blame_bars` for per-method blame breakdowns, and
  :func:`html_page` to bind them into one self-contained document.

Every SVG helper formats floats through :func:`fmt_num` (shortest
``%.6g``-style repr) and emits attributes in a fixed order, so the same
inputs always render byte-identical markup — the property the dash
CI gate asserts.  No external assets, fonts, scripts, or network
references are ever emitted.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .characteristics import METHOD_LABELS

__all__ = [
    "bar_chart",
    "figure_methods",
    "line_chart",
    "plot_figure",
    "fmt_num",
    "svg_time_series",
    "svg_heatmap",
    "svg_waterfall",
    "svg_blame_bars",
    "html_page",
    "RESOURCE_COLORS",
    "SERIES_COLORS",
]

_MARKERS = "ox+*#@%&"


def figure_methods(points: dict) -> list[str]:
    """A figure's methods in the order its rows first list them.

    ``points`` is ``{clients: {method: MiB/s or None}}``: a mesh's
    nested dict read through ``bandwidth_mbps``, clients outermost.
    """
    return list(dict.fromkeys(m for row in points.values() for m in row))


def bar_chart(
    name: str, points: dict, width: int = 56, unit: str = "MiB/s"
) -> str:
    """Horizontal bars, one per method (for single-x figures)."""
    if len(points) != 1:
        raise ValueError("bar_chart needs a single-x figure")
    ((x, values),) = points.items()
    vmax = max((v for v in values.values() if v), default=1.0)
    lines = [f"{name} at {x} clients ({unit})"]
    for m, v in values.items():
        label = METHOD_LABELS.get(m, m)
        if v is None:
            lines.append(f"{label:>18s} | (unavailable)")
            continue
        n = int(round(v / vmax * width))
        lines.append(f"{label:>18s} | {'█' * max(n, 1)} {v:.1f}")
    return "\n".join(lines)


def line_chart(
    name: str,
    points: dict,
    width: int = 64,
    height: int = 18,
    unit: str = "MiB/s",
    methods: Optional[list[str]] = None,
) -> str:
    """Multi-series chart on a character grid (x = clients, log-ish)."""
    xs = sorted(points)
    if len(xs) < 2:
        raise ValueError("line_chart needs at least two x values")
    series = {
        m: {x: points[x][m] for x in xs if points[x].get(m) is not None}
        for m in figure_methods(points)
    }
    methods = methods or [m for m in series if any(series[m].values())]
    vmax = max(v for m in methods for v in series[m].values())
    if vmax <= 0:
        vmax = 1.0
    grid = [[" "] * width for _ in range(height)]

    def col(x):
        i = xs.index(x)
        return int(i / max(len(xs) - 1, 1) * (width - 1))

    def row(v):
        return height - 1 - int(v / vmax * (height - 1))

    legend = []
    for k, m in enumerate(methods):
        marker = _MARKERS[k % len(_MARKERS)]
        legend.append(f"{marker}={METHOD_LABELS.get(m, m)}")
        pts = [(col(x), row(v)) for x, v in series[m].items()]
        # connect consecutive points with linear interpolation
        for (c0, r0), (c1, r1) in zip(pts[:-1], pts[1:]):
            steps = max(abs(c1 - c0), 1)
            for s in range(steps + 1):
                c = c0 + (c1 - c0) * s // steps
                r = r0 + (r1 - r0) * s // steps
                if grid[r][c] == " ":
                    grid[r][c] = "."
        for c, r in pts:
            grid[r][c] = marker

    lines = [f"{name} (aggregate {unit}, max={vmax:.0f})"]
    for r, rowchars in enumerate(grid):
        axis = f"{vmax * (height - 1 - r) / (height - 1):7.0f} |"
        lines.append(axis + "".join(rowchars))
    ticks = "        +" + "-" * width
    lines.append(ticks)
    labels = [" "] * width
    for x in xs:
        s = str(x)
        c = min(col(x), width - len(s))
        for i, ch in enumerate(s):
            labels[c + i] = ch
    lines.append("         " + "".join(labels) + "  (clients)")
    lines.append("  " + "  ".join(legend))
    return "\n".join(lines)


def plot_figure(name: str, points: dict, **kw) -> str:
    """Pick the chart type by the number of x values."""
    if len(points) == 1:
        return bar_chart(name, points, **kw)
    return line_chart(name, points, **kw)


# ----------------------------------------------------------------------
# SVG layer (stdlib-only, byte-deterministic)
# ----------------------------------------------------------------------

#: Fill per critical-path resource (see ``repro.trace.critical``).
RESOURCE_COLORS = {
    "client_cpu": "#4e79a7",
    "rpc_wait": "#a0cbe8",
    "retry_backoff": "#f28e2b",
    "net_queue": "#ffbe7d",
    "net_wire": "#59a14f",
    "queue_wait": "#e15759",
    "decode": "#b6992d",
    "plan": "#499894",
    "cache": "#86bcb6",
    "disk": "#79706e",
    "fault_stall": "#d4a6c8",
    "respond": "#9d7660",
    "server_wait": "#d7b5a6",
    "other": "#bab0ac",
}

#: Line colors for time-series panels, cycled in label order.
SERIES_COLORS = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2",
    "#59a14f", "#edc948", "#b07aa1", "#9c755f",
)


def fmt_num(x: float) -> str:
    """Shortest stable decimal repr (no exponent surprises per-platform).

    ``%.6g`` is deterministic across CPython builds for doubles, which
    makes every coordinate — and therefore the whole SVG byte stream —
    a pure function of the input values.
    """
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


_FONT = 'font-family="monospace"'


def _svg_open(width: int, height: int, title: str) -> list[str]:
    return [
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">'
        ),
        f'<title>{_esc(title)}</title>',
        (
            f'<rect x="0" y="0" width="{width}" height="{height}" '
            f'fill="#ffffff"/>'
        ),
        (
            f'<text x="10" y="16" {_FONT} font-size="13" '
            f'fill="#333333">{_esc(title)}</text>'
        ),
    ]


def _heat_color(frac: float) -> str:
    """White → deep blue ramp; input clamped to [0, 1]."""
    frac = min(max(frac, 0.0), 1.0)
    r = round(255 + (20 - 255) * frac)
    g = round(255 + (60 - 255) * frac)
    b = round(255 + (140 - 255) * frac)
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_time_series(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    *,
    title: str,
    unit: str = "",
    width: int = 640,
    height: int = 220,
) -> str:
    """Multi-line time-series panel.

    ``series`` maps label → ``(ts, values)`` (equal-length sequences,
    simulated seconds on x).  Empty series and single-point series
    render without error: a single point draws as a dot, an empty panel
    states "no samples" instead of dividing by zero.
    """
    pad_l, pad_r, pad_t, pad_b = 58, 12, 28, 34
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    out = _svg_open(width, height, title)

    pts_all = [
        (t, v)
        for ts, vs in series.values()
        for t, v in zip(ts, vs)
    ]
    if not pts_all:
        out.append(
            f'<text x="{pad_l + plot_w // 2}" y="{pad_t + plot_h // 2}" '
            f'{_FONT} font-size="12" fill="#999999" '
            f'text-anchor="middle">no samples</text>'
        )
        out.append("</svg>")
        return "\n".join(out)

    t0 = min(t for t, _ in pts_all)
    t1 = max(t for t, _ in pts_all)
    vmax = max((v for _, v in pts_all), default=0.0)
    if vmax <= 0:
        vmax = 1.0
    tspan = (t1 - t0) or 1.0

    def x(t):
        return pad_l + (t - t0) / tspan * plot_w

    def y(v):
        return pad_t + plot_h - v / vmax * plot_h

    # frame + horizontal gridlines with value labels
    out.append(
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#cccccc"/>'
    )
    for i in range(5):
        gy = pad_t + plot_h * i / 4
        gv = vmax * (1 - i / 4)
        out.append(
            f'<line x1="{pad_l}" y1="{fmt_num(gy)}" '
            f'x2="{pad_l + plot_w}" y2="{fmt_num(gy)}" '
            f'stroke="#eeeeee"/>'
        )
        out.append(
            f'<text x="{pad_l - 4}" y="{fmt_num(gy + 4)}" {_FONT} '
            f'font-size="10" fill="#666666" '
            f'text-anchor="end">{fmt_num(gv)}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        tx = t0 + tspan * frac
        out.append(
            f'<text x="{fmt_num(x(tx))}" y="{height - pad_b + 14}" '
            f'{_FONT} font-size="10" fill="#666666" '
            f'text-anchor="middle">{fmt_num(tx)}s</text>'
        )

    lx = pad_l
    for i, (label, (ts, vs)) in enumerate(series.items()):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        pts = list(zip(ts, vs))
        if len(pts) == 1:
            t, v = pts[0]
            out.append(
                f'<circle cx="{fmt_num(x(t))}" cy="{fmt_num(y(v))}" '
                f'r="2.5" fill="{color}"/>'
            )
        elif pts:
            coords = " ".join(
                f"{fmt_num(x(t))},{fmt_num(y(v))}" for t, v in pts
            )
            out.append(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
        out.append(
            f'<rect x="{lx}" y="{height - 14}" width="9" height="9" '
            f'fill="{color}"/>'
        )
        out.append(
            f'<text x="{lx + 12}" y="{height - 6}" {_FONT} '
            f'font-size="10" fill="#333333">{_esc(label)}</text>'
        )
        lx += 12 + 7 * len(label) + 18
    if unit:
        out.append(
            f'<text x="{pad_l}" y="{pad_t - 6}" {_FONT} font-size="10" '
            f'fill="#666666">{_esc(unit)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def svg_heatmap(
    rows: Sequence[str],
    col_edges: Sequence[float],
    values: Sequence[Sequence[float]],
    *,
    title: str,
    unit: str = "",
    width: int = 640,
    cell_h: int = 14,
) -> str:
    """Per-row × time heat map (rows = servers, columns = time bins).

    ``values[r][c]`` colors the cell for ``rows[r]`` between
    ``col_edges[c]`` and ``col_edges[c + 1]``; the ramp normalizes to
    the grid maximum (an all-zero grid renders all-white, not NaN).
    """
    pad_l, pad_t, pad_b = 64, 28, 30
    n_rows, n_cols = len(rows), max(len(col_edges) - 1, 0)
    height = pad_t + n_rows * cell_h + pad_b
    out = _svg_open(width, max(height, 60), title)
    if n_rows == 0 or n_cols == 0:
        out.append(
            f'<text x="{pad_l}" y="{pad_t + 14}" {_FONT} font-size="12" '
            f'fill="#999999">no samples</text>'
        )
        out.append("</svg>")
        return "\n".join(out)

    plot_w = width - pad_l - 12
    vmax = max((v for row in values for v in row), default=0.0)
    t0, t1 = col_edges[0], col_edges[-1]
    tspan = (t1 - t0) or 1.0
    for r, name in enumerate(rows):
        cy = pad_t + r * cell_h
        out.append(
            f'<text x="{pad_l - 4}" y="{cy + cell_h - 3}" {_FONT} '
            f'font-size="10" fill="#333333" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
        for c in range(n_cols):
            cx = pad_l + (col_edges[c] - t0) / tspan * plot_w
            cw = (col_edges[c + 1] - col_edges[c]) / tspan * plot_w
            frac = values[r][c] / vmax if vmax > 0 else 0.0
            out.append(
                f'<rect x="{fmt_num(cx)}" y="{cy}" '
                f'width="{fmt_num(cw)}" height="{cell_h - 1}" '
                f'fill="{_heat_color(frac)}"/>'
            )
    base = pad_t + n_rows * cell_h
    for frac in (0.0, 0.5, 1.0):
        tx = t0 + tspan * frac
        px = pad_l + frac * plot_w
        out.append(
            f'<text x="{fmt_num(px)}" y="{base + 14}" {_FONT} '
            f'font-size="10" fill="#666666" '
            f'text-anchor="middle">{fmt_num(tx)}s</text>'
        )
    label = f"max={fmt_num(vmax)}" + (f" {unit}" if unit else "")
    out.append(
        f'<text x="{width - 12}" y="{pad_t - 6}" {_FONT} font-size="10" '
        f'fill="#666666" text-anchor="end">{_esc(label)}</text>'
    )
    out.append("</svg>")
    return "\n".join(out)


def svg_waterfall(
    segments: Sequence[tuple[str, str, float, float]],
    *,
    title: str,
    width: int = 760,
    row_h: int = 16,
    max_rows: int = 40,
) -> str:
    """Critical-path waterfall: one bar per exclusive slice.

    ``segments`` is ``(label, resource, start, end)`` in chronological
    order (``BlameReport.trace_segments`` output).  Rows beyond
    ``max_rows`` are folded into a trailing "… n more" line so a
    thousand-segment trace still renders a readable panel.
    """
    pad_l, pad_t, pad_b = 150, 28, 26
    segs = list(segments)
    folded = 0
    if len(segs) > max_rows:
        folded = len(segs) - max_rows
        segs = segs[:max_rows]
    n = len(segs) + (1 if folded else 0)
    height = pad_t + max(n, 1) * row_h + pad_b
    out = _svg_open(width, height, title)
    if not segs:
        out.append(
            f'<text x="{pad_l}" y="{pad_t + 14}" {_FONT} font-size="12" '
            f'fill="#999999">no segments</text>'
        )
        out.append("</svg>")
        return "\n".join(out)

    plot_w = width - pad_l - 70
    t0 = min(s[2] for s in segs)
    t1 = max(s[3] for s in segs)
    tspan = (t1 - t0) or 1.0
    for i, (label, resource, start, end) in enumerate(segs):
        cy = pad_t + i * row_h
        bx = pad_l + (start - t0) / tspan * plot_w
        bw = max((end - start) / tspan * plot_w, 0.5)
        color = RESOURCE_COLORS.get(resource, RESOURCE_COLORS["other"])
        out.append(
            f'<text x="{pad_l - 4}" y="{cy + row_h - 4}" {_FONT} '
            f'font-size="10" fill="#333333" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        out.append(
            f'<rect x="{fmt_num(bx)}" y="{cy + 2}" '
            f'width="{fmt_num(bw)}" height="{row_h - 4}" '
            f'fill="{color}"/>'
        )
        out.append(
            f'<text x="{fmt_num(bx + bw + 4)}" y="{cy + row_h - 4}" '
            f'{_FONT} font-size="9" fill="#666666">'
            f'{fmt_num((end - start) * 1e3)}ms</text>'
        )
    if folded:
        cy = pad_t + len(segs) * row_h
        out.append(
            f'<text x="{pad_l}" y="{cy + row_h - 4}" {_FONT} '
            f'font-size="10" fill="#999999">… {folded} more</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def svg_blame_bars(
    blames: dict[str, dict[str, float]],
    *,
    title: str,
    width: int = 760,
    row_h: int = 22,
) -> str:
    """Stacked horizontal blame bars, one row per method.

    ``blames`` maps method → resource → share (shares sum to 1 per
    method); resources stack in :data:`RESOURCE_COLORS` order and the
    legend lists only resources that actually appear (≥ 0.1 %).
    """
    pad_l, pad_t = 150, 28
    n = len(blames)
    used = [
        r
        for r in RESOURCE_COLORS
        if any(shares.get(r, 0.0) > 1e-3 for shares in blames.values())
    ]
    legend_rows = (len(used) + 3) // 4 if used else 0
    height = pad_t + max(n, 1) * row_h + 14 + legend_rows * 16 + 8
    out = _svg_open(width, height, title)
    if not blames:
        out.append(
            f'<text x="{pad_l}" y="{pad_t + 14}" {_FONT} font-size="12" '
            f'fill="#999999">no data</text>'
        )
        out.append("</svg>")
        return "\n".join(out)

    plot_w = width - pad_l - 16
    for i, (method, shares) in enumerate(blames.items()):
        cy = pad_t + i * row_h
        out.append(
            f'<text x="{pad_l - 4}" y="{cy + row_h - 7}" {_FONT} '
            f'font-size="10" fill="#333333" text-anchor="end">'
            f'{_esc(METHOD_LABELS.get(method, method))}</text>'
        )
        acc = 0.0
        for r in RESOURCE_COLORS:
            share = shares.get(r, 0.0)
            if share <= 0:
                continue
            bx = pad_l + acc * plot_w
            bw = share * plot_w
            out.append(
                f'<rect x="{fmt_num(bx)}" y="{cy + 2}" '
                f'width="{fmt_num(bw)}" height="{row_h - 6}" '
                f'fill="{RESOURCE_COLORS[r]}"><title>'
                f'{_esc(r)}: {fmt_num(share * 100)}%</title></rect>'
            )
            if share >= 0.12:
                out.append(
                    f'<text x="{fmt_num(bx + bw / 2)}" '
                    f'y="{cy + row_h - 8}" {_FONT} font-size="9" '
                    f'fill="#ffffff" text-anchor="middle">'
                    f'{fmt_num(share * 100)}%</text>'
                )
            acc += share
    ly = pad_t + n * row_h + 16
    for j, r in enumerate(used):
        lx = 12 + (j % 4) * ((width - 24) // 4)
        cy = ly + (j // 4) * 16
        out.append(
            f'<rect x="{lx}" y="{cy}" width="9" height="9" '
            f'fill="{RESOURCE_COLORS[r]}"/>'
        )
        out.append(
            f'<text x="{lx + 12}" y="{cy + 8}" {_FONT} font-size="10" '
            f'fill="#333333">{_esc(r)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)


def html_page(
    title: str,
    sections: Sequence[tuple[str, str]],
    *,
    header_rows: Sequence[tuple[str, str]] = (),
) -> str:
    """Bind SVG panels into one self-contained HTML document.

    ``sections`` is ``(heading, inner_html)``; ``header_rows`` renders
    as a key/value strip under the title.  The output references no
    external resource of any kind — inline CSS, inline SVG, no scripts
    — so the file opens identically offline and archives byte-stably.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8"/>',
        f"<title>{_esc(title)}</title>",
        "<style>",
        "body{font-family:monospace;margin:24px;color:#222;"
        "background:#fafafa}",
        "h1{font-size:20px}h2{font-size:15px;margin:28px 0 8px}",
        ".meta{border-collapse:collapse;margin:12px 0}",
        ".meta td{border:1px solid #ddd;padding:3px 10px;"
        "font-size:12px}",
        ".panel{background:#fff;border:1px solid #ddd;padding:8px;"
        "display:inline-block;margin:4px 0}",
        "</style>",
        "</head>",
        "<body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if header_rows:
        parts.append('<table class="meta">')
        for k, v in header_rows:
            parts.append(
                f"<tr><td>{_esc(k)}</td><td>{_esc(v)}</td></tr>"
            )
        parts.append("</table>")
    for heading, inner in sections:
        parts.append(f"<h2>{_esc(heading)}</h2>")
        parts.append(f'<div class="panel">{inner}</div>')
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"
