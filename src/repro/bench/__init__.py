"""Benchmark harness: regenerates every table and figure of the paper.

* :mod:`~repro.bench.workloads` — the three evaluation applications
  (§4): the tile reader, the ROMIO 3-D block test (``coll_perf``), and
  the FLASH I/O checkpoint simulation, each parameterized at *paper*
  scale (exact §4 geometry) and reducible for tests;
* :mod:`~repro.bench.runner` — drives one (workload, method) pair
  through the simulated cluster and collects counters + elapsed time;
  every command describes its runs as ``Spec`` values, ``cell`` runs
  each at most once per process and ``mesh`` lays out a record's rows;
* :mod:`~repro.bench.characteristics` — the six methods and what one
  cell of each table and figure is;
* :mod:`~repro.bench.report` — Tables 1–3 and Figures 8, 10 and 12, one
  record each, and their text;
* :mod:`~repro.bench.registry` — every ``results/`` file as one record
  (:mod:`~repro.bench.document`);
* :mod:`~repro.bench.cli` — ``repro-bench`` / ``python -m repro.bench``.

Importing the package loads the workloads and the runner only.
"""

from .runner import RunResult, run_workload
from .workloads import (
    Block3DWorkload,
    FlashWorkload,
    TileWorkload,
    Workload,
)

__all__ = [
    "RunResult",
    "run_workload",
    "Workload",
    "TileWorkload",
    "Block3DWorkload",
    "FlashWorkload",
]
