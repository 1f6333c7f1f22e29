"""Adding the sixth method may not move the other five.

Collective datatype I/O keeps all of its state inside the run that
invoked it (per-``PVFS`` collective rendezvous, per-comm epochs, lazy
metrics instruments).  This pins that: every independent method ×
scheduler cell produces float-identical results whether or not a
collective run executed in between — i.e. configs that never call a
collective behave exactly as they did before the method existed.
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import FlashWorkload
from repro.pvfs import PVFSConfig

from ..conftest import assert_bit_identical

INDEPENDENT = ["posix", "data_sieving", "two_phase", "list_io", "datatype_io"]


def _run(method, threads):
    return run_workload(
        FlashWorkload.reduced(2),
        method,
        config=PVFSConfig(n_servers=4, server_threads=threads),
    )


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("method", INDEPENDENT)
def test_collective_leaves_no_residue(method, threads):
    before = _run(method, threads)
    # exercise the whole collective machinery (registry, protocol ops,
    # server-side rendezvous) between the two baseline runs
    coll = _run("collective_dtype", threads)
    assert coll.supported
    after = _run(method, threads)
    assert before.supported == after.supported
    if before.supported:
        assert_bit_identical(before, after)
