#!/usr/bin/env python
"""3-D block method sweep with chart output (paper §4.3 in miniature).

Sweeps the five access methods over the block-decomposed 3-D array at
8/27/64 clients (reduced grid), prints bandwidth as an ASCII line chart,
and attributes each configuration's bottleneck using the network
summary — the analysis §4.3 does verbally.

Run:  python examples/block3d_sweep.py
"""

from repro.bench import Block3DWorkload, run_workload
from repro.bench.plots import line_chart

GRID = 120  # divisible by 2, 3 and 4
METHODS = ["two_phase", "list_io", "datatype_io"]


def main():
    points = {}  # clients -> method -> MiB/s
    print(f"{'clients':>8s} {'method':>14s} {'MiB/s':>8s} "
          f"{'server-rx util':>14s} {'bottleneck':>16s}")
    for cpd in (2, 3, 4):
        for method in METHODS:
            wl = Block3DWorkload(
                grid=GRID, clients_per_dim=cpd, is_write=True
            )
            r = run_workload(wl, method)
            points.setdefault(wl.n_clients, {})[method] = r.bandwidth_mbps
            util = r.network.mean_utilization("ios", "rx")
            print(
                f"{wl.n_clients:>8d} {method:>14s} "
                f"{r.bandwidth_mbps:8.1f} {util:14.0%} "
                f"{r.network.bottleneck(r.pipeline.total):>16s}"
            )
    print()
    print(line_chart("3dblock-write (reduced grid)", points))
    print("\n(the full 600-cube sweep: `repro-bench fig10`)")


if __name__ == "__main__":
    main()
