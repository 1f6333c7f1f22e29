"""Timed figure reproductions (paper Figures 8, 10 and 12).

Each function returns a :class:`FigureSeries` holding aggregate
bandwidth (MiB/s of desired data) per method (and per client count for
the sweeps).  Runs are paper-scale, phantom-payload simulations; see
EXPERIMENTS.md for the shape claims versus the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .characteristics import METHOD_ORDER
from .runner import run_workload
from .workloads import Block3DWorkload, FlashWorkload, TileWorkload

__all__ = ["FigureSeries", "fig8", "fig10", "fig12"]


@dataclass
class FigureSeries:
    """One figure's data: {method: {x: bandwidth}} plus metadata."""

    name: str
    xlabel: str
    series: dict[str, dict[int, Optional[float]]] = field(default_factory=dict)

    def add(self, method: str, x: int, bandwidth: Optional[float]) -> None:
        self.series.setdefault(method, {})[x] = bandwidth

    def xs(self) -> list[int]:
        out: set[int] = set()
        for pts in self.series.values():
            out.update(pts)
        return sorted(out)


def fig8(
    frames: int = 10, methods: Sequence[str] = METHOD_ORDER
) -> FigureSeries:
    """Tile reader bandwidth per method (Figure 8, lower half)."""
    fig = FigureSeries("fig8-tile-read", "clients")
    for method in methods:
        r = run_workload(TileWorkload.paper(frames=frames), method, phantom=True)
        fig.add(method, r.n_clients, r.bandwidth_mbps if r.supported else None)
    return fig


def fig10(
    client_dims: Sequence[int] = (2, 3, 4),
    methods: Sequence[str] = METHOD_ORDER,
    grid: int = 600,
) -> tuple[FigureSeries, FigureSeries]:
    """3-D block read and write bandwidth vs clients (Figure 10)."""
    read_fig = FigureSeries("fig10-3dblock-read", "clients")
    write_fig = FigureSeries("fig10-3dblock-write", "clients")
    for cpd in client_dims:
        for method in methods:
            for fig, is_write in ((read_fig, False), (write_fig, True)):
                wl = Block3DWorkload(
                    grid=grid, clients_per_dim=cpd, is_write=is_write
                )
                r = run_workload(wl, method, phantom=True)
                fig.add(
                    method,
                    wl.n_clients,
                    r.bandwidth_mbps if r.supported else None,
                )
    return read_fig, write_fig


def fig12(
    client_counts: Sequence[int] = (2, 4, 8, 16, 32, 48, 64, 96, 128),
    methods: Sequence[str] = METHOD_ORDER,
    posix_limit: int = 32,
) -> FigureSeries:
    """FLASH write bandwidth vs clients (Figure 12).

    POSIX needs ~10⁶ operations per client; above ``posix_limit``
    clients its points are skipped (its line is indistinguishable from
    zero there anyway — the paper calls it "nearly unusable").  The
    limit is about the figure, no longer about host cost: the client
    plans those operations over file runs and strip edges without
    enumerating them, so the five POSIX points up to 32 clients take
    about 2 s and 60 MiB together (15 s and 1.7 GiB when every rank
    held its operation list).
    """
    fig = FigureSeries("fig12-flash-write", "clients")
    for n in client_counts:
        for method in methods:
            if method == "posix" and n > posix_limit:
                continue
            r = run_workload(FlashWorkload.paper(n), method, phantom=True)
            fig.add(method, n, r.bandwidth_mbps if r.supported else None)
    return fig
