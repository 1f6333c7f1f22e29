"""Figure rendering with zero plotting dependencies.

ASCII charts, stdlib-only: `repro-bench fig... --plot` draws the same
points the paper's figures show: a horizontal bar chart for single-x
figures (Figure 8) and a multi-series line chart on a character grid
for the sweeps (Figures 10 and 12).
"""

from __future__ import annotations

from typing import Optional

from .characteristics import METHOD_LABELS

__all__ = [
    "bar_chart",
    "figure_methods",
    "line_chart",
    "plot_figure",
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
