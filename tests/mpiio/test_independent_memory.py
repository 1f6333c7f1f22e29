"""Host memory of the independent methods: an access keeps only what it
still moves.

Phantom Block3D reads, traced with ``tracemalloc``.  What each method
holds for the whole call:

* POSIX — the file runs (offsets, lengths, their stream ends) and one
  ``(first, stop, server)`` row per exchange, not five more per-run
  arrays (starts, strip indices, servers, change points);
* list I/O — the file runs and one operation group's per-server
  shares at a time, not the whole access's shares (nor their cut
  matrix), nor the runs' memoised stream ends;
* datatype I/O — the per-server requests, not the expanded view and its
  per-server shares (kept only to scatter a real-data read).

Each bound sits between the traced peak of the commit that last held
all of that and today's.  Since a flatten keeps no memo below the loop
it was asked for, a view is held flattened once, not once per nesting
level: that took about 0.8 MiB off each of the three.

Phantom FLASH writes through POSIX and list I/O, also traced: neither
flattens the memory type, whose 983 040 runs per rank repeat one
pattern.
"""

import pytest

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload, FlashWorkload

from ..conftest import traced_peak

MIB = 2**20


@pytest.mark.parametrize(
    "method, grid, m, bound_mib",
    [
        # 7.3 MiB with per-run arrays, 4.1 with per-level loop memos, now 3.3
        ("posix", 240, 2, 4.8),
        # 6.8 MiB with the whole access's shares held, now 3.1
        ("list_io", 160, 4, 3.6),
        # 5.2 MiB with the view kept, 4.5 with per-level loop memos, now 4.0
        ("datatype_io", 120, 4, 4.85),
    ],
)
def test_phantom_block3d_read_keeps_only_what_it_moves(method, grid, m, bound_mib):
    wl = Block3DWorkload(grid=grid, clients_per_dim=m, is_write=False)
    result, peak = traced_peak(lambda: run_workload(wl, method))
    assert result.n_clients == m**3
    assert peak < bound_mib * MIB, f"traced peak {peak / MIB:.2f} MiB"


@pytest.mark.parametrize("method", ["posix", "list_io"])
def test_phantom_flash_never_flattens_its_memory_type(method):
    """FLASH at the paper's geometry over 2 clients: each rank's memory
    type is 983 040 eight-byte runs.  Flattening it (the memo kept on its
    loop: offsets, lengths and stream ends) made the traced peak 24.8 MiB
    for both methods; read as a repeated pattern and one exchange's cuts
    at a time, the run peaks near 1 MiB and the loop keeps no flattening.
    """
    wl = FlashWorkload.paper(2)
    result, peak = traced_peak(lambda: run_workload(wl, method))
    assert result.io_ops == {"posix": 983040, "list_io": 15360}[method]
    assert peak < 3 * MIB, f"traced peak {peak / MIB:.2f} MiB"
    assert wl.memtype(0).dataloop()._flat_cache is None
