"""Host memory of the independent methods: an access keeps only what it
still moves.

Phantom Block3D reads, traced with ``tracemalloc``.  What each method
holds for the whole call:

* POSIX — the file runs (offsets, lengths, their stream ends) and one
  ``(first, stop, server)`` row per exchange, not five more per-run
  arrays (starts, strip indices, servers, change points);
* list I/O — the file runs and its per-server shares, not a cut copy of
  the runs plus a per-operation list concatenated straight back, nor
  the cut matrix as nested lists, nor (phantom) the shares' stream
  positions;
* datatype I/O — the per-server requests, not the expanded view and its
  per-server shares (kept only to scatter a real-data read).

Each bound sits between the traced peak of the parent commit, which
held all of that, and today's.
"""

import pytest

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload

from ..conftest import traced_peak

MIB = 2**20


@pytest.mark.parametrize(
    "method, grid, m, bound_mib",
    [
        # parent 7.3 MiB, now 4.1
        ("posix", 240, 2, 4.8),
        # parent 9.8 MiB, now 6.8
        ("list_io", 160, 4, 7.5),
        # parent 5.2 MiB, now 4.5
        ("datatype_io", 120, 4, 4.85),
    ],
)
def test_phantom_block3d_read_keeps_only_what_it_moves(method, grid, m, bound_mib):
    wl = Block3DWorkload(grid=grid, clients_per_dim=m, is_write=False)
    result, peak = traced_peak(lambda: run_workload(wl, method))
    assert result.n_clients == m**3
    assert peak < bound_mib * MIB, f"traced peak {peak / MIB:.2f} MiB"
