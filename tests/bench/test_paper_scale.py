"""One paper-scale cell in tier-1: Block3D at 600³ ints over 8 clients.

Each rank's memory type is ``contiguous(300³, INT)``.  Until dense runs
were repeated at run granularity, flattening it cost one offset and one
length per int (703 MiB and ~5 s for one run), which kept every
paper-size cell out of the test suite.  ``RECORDED`` was printed by
running this very file at the parent commit fdf659b (``python -m
tests.bench.test_paper_scale`` from the repository root, 4.9 s and
703 MiB there); the flattening is host-only, so the simulated figures
must not move by a bit.
"""

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload

RECORDED = {
    "elapsed": "0x1.2d9b61b2f8656p+4",
    "io_ops": 1.0,
    "accessed_bytes": 108000000,
}


def measure() -> dict:
    r = run_workload(Block3DWorkload.paper(2), "datatype_io")
    return {
        "elapsed": float.hex(r.elapsed),
        "io_ops": r.io_ops,
        "accessed_bytes": r.accessed_bytes,
    }


def test_block3d_paper_cell_matches_parent_and_stays_small():
    # imported here so that the module still runs as a recorder at a
    # commit whose conftest has no such helper
    from ..conftest import traced_peak

    got, peak = traced_peak(measure)
    assert got == RECORDED
    assert peak < 128 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


if __name__ == "__main__":  # pragma: no cover
    print(measure())
