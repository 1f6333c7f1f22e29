"""The access methods' entry points, and the 6 × 6 cross of three small
decompositions: row blocks (contiguous in memory and file), column
blocks (strided in the file) and AoS → SoA (strided in both).  Each
writer's run reads the view back with all six methods, and
``tests/test_byte_oracle.py`` holds the file and every buffer to the
MPI typemap.
"""

import numpy as np
import pytest

from repro.datatypes import BYTE, INT, contiguous, vector
from repro.mpiio import File, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment

from ..conftest import ALL_METHODS, COLLECTIVE_METHODS
from ..test_byte_oracle import check

INDEPENDENT_WRITERS = [m for m in ALL_METHODS if m not in COLLECTIVE_METHODS]


def run_ranks(n, rank_main, ppn=2, **cfg):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=256)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, n, procs_per_node=ppn)
    return fs, mpi.run(rank_main)


SCENARIOS = ["rows", "cols", "aos-soa"]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("write_method", INDEPENDENT_WRITERS)
def test_write_then_read_all_methods(scenario, write_method):
    check(scenario, write_method)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("coll_method", COLLECTIVE_METHODS)
def test_collective_write_read(scenario, coll_method):
    check(scenario, coll_method)


def test_collective_call_with_independent_method_synchronizes():
    def rank_main(ctx):
        f = yield from File.open(ctx, "/y")
        buf = np.full(16, ctx.rank, dtype=np.uint8)
        f.set_view(ctx.rank * 16, BYTE, contiguous(16, BYTE))
        yield from f.write_at_all(
            0, contiguous(16, BYTE), 1, buf, method="datatype_io"
        )
        return True

    fs, results = run_ranks(3, rank_main)
    assert all(results)
    handle = fs.metadata.files["/y"].handle
    got = fs.read_back(handle, 0, 48)
    assert got.reshape(3, 16).std(axis=1).sum() == 0


def test_collective_method_via_independent_call_rejected():
    def rank_main(ctx):
        f = yield from File.open(ctx, "/z")
        yield from f.write_at(
            0, contiguous(4, BYTE), 1, None, method="two_phase"
        )

    env = Environment()
    fs = PVFS(env, n_servers=2)
    mpi = SimMPI(fs, 1)
    with pytest.raises(ValueError, match="collective"):
        mpi.run(rank_main)


def test_counters_desired_and_ops():
    def rank_main(ctx):
        f = yield from File.open(ctx, "/c")
        t = vector(10, 1, 2, INT)
        f.set_view(0, BYTE, t)
        yield from f.write_at(0, contiguous(40, BYTE), 1, None, method="posix")
        return (f.counters.desired_bytes, f.counters.io_ops)

    _, results = run_ranks(1, rank_main)
    desired, ops = results[0]
    assert desired == 40
    assert ops == 10  # one per noncontiguous file region


def test_phantom_and_real_identical_ops():
    """Phantom runs must charge exactly the same operation counts."""

    def make_main(buf_factory):
        def rank_main(ctx):
            f = yield from File.open(ctx, "/p")
            t = vector(16, 1, 3, INT)
            f.set_view(0, BYTE, t)
            buf = buf_factory()
            yield from f.write_at(
                0, contiguous(64, BYTE), 1, buf, method="list_io"
            )
            return (f.counters.io_ops, f.counters.accessed_bytes)

        return rank_main

    _, phantom = run_ranks(1, make_main(lambda: None))
    _, real = run_ranks(
        1, make_main(lambda: np.arange(64, dtype=np.uint8))
    )
    assert phantom == real
