"""``runner.cell``: the tables and figures share one run per cell."""

import pytest

from repro.bench import collectivecmd, runner
from repro.bench.characteristics import table2
from repro.bench.figures import fig10
from repro.bench.runner import cell
from repro.bench.workloads import Block3DWorkload, FlashWorkload

GRID = 24


@pytest.fixture
def runs(monkeypatch):
    """Every ``run_workload`` call from here on, against an empty memo."""
    calls = []

    def counted(workload, method, **kw):
        calls.append((workload, method))
        return real(workload, method, **kw)

    real = runner.run_workload
    monkeypatch.setattr(runner, "_CELLS", {})
    monkeypatch.setattr(runner, "run_workload", counted)
    monkeypatch.setattr(collectivecmd, "run_workload", counted)
    return calls


def test_table2_reads_fig10s_read_cells(runs):
    read, _ = fig10(client_dims=(2,), grid=GRID)
    swept = len(runs)
    assert swept == 2 * len(read.series)
    rows = table2(2, grid=GRID)
    assert len(runs) == swept
    assert [row.bandwidth_mbps for row in rows] == [
        read.series[row.method][8] for row in rows
    ]


@pytest.mark.parametrize("method", ["posix", "data_sieving", "collective_dtype"])
def test_cell_equals_a_fresh_run(runs, method):
    wl = FlashWorkload.reduced(2)
    c = cell(wl, method)
    r = runner.run_workload(wl, method)
    assert c.supported == r.supported
    assert c.elapsed.hex() == r.elapsed.hex()
    assert (
        c.n_clients,
        c.desired_bytes,
        c.accessed_bytes,
        c.io_ops,
        c.resent_bytes,
        c.request_desc_bytes,
        c.requests,
    ) == (
        r.n_clients,
        r.desired_bytes,
        r.accessed_bytes,
        r.io_ops,
        r.resent_bytes,
        r.request_desc_bytes,
        r.server_stats.get("requests", 0),
    )
    assert c.bandwidth_mbps == (r.bandwidth_mbps if r.supported else None)


def test_key_is_the_workload_value(runs):
    first = cell(Block3DWorkload(grid=GRID, clients_per_dim=2), "list_io")
    again = cell(Block3DWorkload(grid=GRID, clients_per_dim=2), "list_io")
    assert again is first and len(runs) == 1
    cell(Block3DWorkload(grid=GRID, clients_per_dim=2, is_write=True), "list_io")
    cell(Block3DWorkload(grid=2 * GRID, clients_per_dim=2), "list_io")
    cell(Block3DWorkload(grid=GRID, clients_per_dim=2), "datatype_io")
    assert len(runs) == 4


def test_smoke_replay_is_a_fresh_run(runs):
    spec = {"clients": (2,), "methods": ("collective_dtype",)}
    memo = cell(FlashWorkload.paper(2), "collective_dtype")
    runs.clear()
    doc = collectivecmd.collect_smoke(spec)
    # the sweep and the replay both run, the memo is not consulted
    assert len(runs) == 2
    assert doc["replay"]["elapsed_s"].hex() == memo.elapsed.hex()
