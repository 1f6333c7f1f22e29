"""File views whose regions run backwards or out of order, end to end.

A descending or shuffled ``hindexed`` filetype is what sends a file
range through ``partition_with_stream``'s per-interval masked clip and
two-phase through its unsorted path.  Every method writes such a view
from 2 ranks with real bytes, and every method reads it back.
"""

import numpy as np
import pytest

from repro.bench.characteristics import METHOD_ORDER
from repro.datatypes import BYTE, contiguous, hindexed
from repro.mpiio import File, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.errors import LockUnsupported
from repro.simulation import Environment

VIEWS = {
    "descending": ([8] * 4, [96, 64, 32, 0]),
    "shuffled": ([40, 8, 70, 8], [200, 0, 90, 50]),
}
COUNT = 2  # two instances of the filetype: the view tiles too
SPAN = 1024  # per-rank displacement, past both views' two instances


@pytest.mark.parametrize("writer", METHOD_ORDER)
@pytest.mark.parametrize("view", sorted(VIEWS))
def test_every_reader_gets_what_every_writer_wrote(view, writer):
    filetype = hindexed(*VIEWS[view], BYTE)
    size = filetype.size * COUNT
    memtype = contiguous(size, BYTE)
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=3, strip_size=64))

    def rank_main(ctx):
        payload = np.random.default_rng([ctx.rank, size]).integers(
            0, 256, size, dtype=np.uint8
        )
        f = yield from File.open(ctx, "/nonmonotone")
        f.set_view(ctx.rank * SPAN, BYTE, filetype)
        try:
            yield from f.write_at_all(0, memtype, 1, payload, method=writer)
        except LockUnsupported:
            return "locked"
        got = {}
        for reader in METHOD_ORDER:
            out = np.zeros(size, dtype=np.uint8)
            yield from f.read_at_all(0, memtype, 1, out, method=reader)
            got[reader] = np.array_equal(out, payload)
        return got

    results = SimMPI(fs, 2).run(rank_main)
    if writer == "data_sieving":
        assert results == ["locked", "locked"]
        return
    for got in results:
        assert got == {reader: True for reader in METHOD_ORDER}
