"""Paper-scale cells in tier-1, each under a host-memory bound.

*Block3D at 600³ ints over 8 clients.*  Each rank's memory type is
``contiguous(300³, INT)``.  Until dense runs were repeated at run
granularity, flattening it cost one offset and one length per int
(703 MiB and ~5 s for one run), which kept every paper-size cell out of
the test suite.

*FLASH POSIX, 4 clients of 983 040 eight-byte operations each* (Table
3).  Until the one-op-per-piece sequence was planned over (file runs,
memory cuts), every rank enumerated its pieces and kept seven arrays
over them for the whole call (234 MiB traced and 1.35 s here; 1.7 GiB
at the 32 clients of Figure 12).  What a rank retains is now
O(runs + strips), so the peak no longer grows with the client count —
the second FLASH test pins exactly that on a trimmed geometry.

``RECORDED`` was printed by running this very file at the parent commit
of each change (``python -m tests.bench.test_paper_scale`` from the
repository root: ``block3d`` at fdf659b, ``flash_posix`` at 9b89c4f);
both changes are host-only, so the simulated figures must not move by a
bit.
"""

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload, FlashWorkload

RECORDED = {
    "block3d": {
        "elapsed": "0x1.2d9b61b2f8656p+4",
        "io_ops": 1.0,
        "accessed_bytes": 108000000,
    },
    "flash_posix": {
        "elapsed": "0x1.6473c1e2c3af2p+12",
        "io_ops": 983040.0,
        "accessed_bytes": 7864320,
    },
}

CELLS = {
    "block3d": lambda: (Block3DWorkload.paper(2), "datatype_io"),
    "flash_posix": lambda: (FlashWorkload.paper(4), "posix"),
}

MIB = 2**20


def measure(cell: str) -> dict:
    r = run_workload(*CELLS[cell]())
    return {
        "elapsed": float.hex(r.elapsed),
        "io_ops": r.io_ops,
        "accessed_bytes": r.accessed_bytes,
    }


def _traced(fn):
    # imported here so that the module still runs as a recorder at a
    # commit whose conftest has no such helper
    from ..conftest import traced_peak

    return traced_peak(fn)


def test_block3d_paper_cell_matches_parent_and_stays_small():
    got, peak = _traced(lambda: measure("block3d"))
    assert got == RECORDED["block3d"]
    assert peak < 128 * MIB, f"traced peak {peak / MIB:.1f} MiB"


def test_flash_posix_paper_cell_matches_parent_and_stays_small():
    got, peak = _traced(lambda: measure("flash_posix"))
    assert got == RECORDED["flash_posix"]
    assert peak < 64 * MIB, f"traced peak {peak / MIB:.1f} MiB"


def test_flash_posix_memory_does_not_grow_with_clients():
    """A quarter of the paper's blocks: 245 760 operations per rank,
    whose enumeration alone was ~14 MiB per rank held by all ranks at
    once (traced peak 32 MiB at 2 clients, 111 MiB at 8 at the parent)."""

    def peak(n_clients):
        wl = FlashWorkload(n_clients=n_clients, nblocks=20)
        r, peak = _traced(lambda: run_workload(wl, "posix"))
        assert r.io_ops == 245760.0
        return peak

    small, large = peak(2), peak(8)
    assert large < small + 8 * MIB, (
        f"traced peak {small / MIB:.1f} MiB at 2 clients, "
        f"{large / MIB:.1f} MiB at 8"
    )


if __name__ == "__main__":  # pragma: no cover
    for name in CELLS:
        print(name, measure(name))
