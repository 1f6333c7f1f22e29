"""``runner.cell``: one run per spec; every replay gate runs again."""

from functools import partial

import pytest

from repro.bench import characteristics, collectivecmd, report, runner
from repro.bench.characteristics import INDEPENDENT_METHODS, METHOD_ORDER
from repro.bench.cli import main
from repro.bench.faultscmd import fault_spec, smoke
from repro.bench.runner import Spec, cell
from repro.bench.workloads import Block3DWorkload, FlashWorkload, reduced
from repro.faults import FaultConfig, severity_config
from repro.pvfs import PVFSConfig

GRID = 24


@pytest.fixture
def runs(monkeypatch):
    """Every run from here on as ``(workload, method, config)``,
    against an empty memo."""
    calls = []

    def counted(workload, method, **kw):
        calls.append((workload, method, kw.get("config")))
        return real(workload, method, **kw)

    real = runner.run_workload
    monkeypatch.setattr(runner, "_CELLS", {})
    monkeypatch.setattr(runner, "run_workload", counted)
    return calls


def _bandwidths(rows):
    return {m: c.bandwidth_mbps for m, c in rows.items()}


def test_table2_reads_fig10s_read_cells(runs, monkeypatch):
    small = partial(characteristics.block3d_spec, grid=GRID)
    monkeypatch.setattr(report, "block3d_spec", small)
    fig = report.FIG10.collect()
    swept = len(runs)
    assert swept == 3 * len(METHOD_ORDER) * 2
    table = report.TABLE2.collect()
    assert len(runs) == swept
    assert list(table) == list(fig) == [2, 3, 4]
    for cpd, rows in table.items():
        reads = {m: fig[cpd][m]["read"] for m in INDEPENDENT_METHODS}
        assert _bandwidths(rows) == _bandwidths(reads)


def test_table3_reads_fig12s_four_client_cells(runs, monkeypatch):
    """Zero extra runs: Table 3 is Figure 12's 4-client column, here
    over the reduced FLASH geometry."""

    def small(clients, method):
        spec = characteristics.flash_spec(clients, method)
        return spec and Spec(FlashWorkload.reduced(clients), method)

    monkeypatch.setattr(report, "flash_spec", small)
    fig = report.FIG12.collect()
    swept = len(runs)
    assert 4 in fig and swept == sum(c is not None for r in fig.values() for c in r.values())
    table = report.TABLE3.collect()
    assert len(runs) == swept
    assert list(table) == INDEPENDENT_METHODS
    assert _bandwidths(table) == _bandwidths({m: fig[4][m] for m in table})


@pytest.mark.parametrize("method", ["posix", "data_sieving", "collective_dtype"])
def test_cell_equals_a_fresh_run(runs, method):
    wl = FlashWorkload.reduced(2)
    c = cell(Spec(wl, method))
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
    first = cell(Spec(Block3DWorkload(grid=GRID, clients_per_dim=2), "list_io"))
    again = cell(Spec(Block3DWorkload(grid=GRID, clients_per_dim=2), "list_io"))
    assert again == first and len(runs) == 1
    cell(Spec(Block3DWorkload(grid=GRID, clients_per_dim=2, is_write=True), "list_io"))
    cell(Spec(Block3DWorkload(grid=2 * GRID, clients_per_dim=2), "list_io"))
    cell(Spec(Block3DWorkload(grid=GRID, clients_per_dim=2), "datatype_io"))
    assert len(runs) == 4


def test_equal_specs_built_apart_share_one_run(runs):
    def spec():
        config = PVFSConfig(
            trace=True, faults=severity_config("light", seed=5)
        )
        return Spec(reduced("tile"), "list_io", config=config)

    assert spec() is not spec() and spec().key == spec().key
    assert cell(spec()) == cell(spec())
    assert len(runs) == 1


def test_a_cell_is_a_copy_of_its_row(runs):
    spec = fault_spec("datatype_io", "light")
    cell(spec)["mbps"] = -1.0
    assert cell(spec)["mbps"] > 0 and len(runs) == 1


@pytest.mark.parametrize(
    "other",
    [
        {"trace": True},
        {"metrics": True},
        {"faults": severity_config("light", seed=6)},
    ],
    ids=["trace", "metrics", "fault-seed"],
)
def test_observation_and_seed_are_part_of_the_key(runs, other):
    base = {"faults": severity_config("light", seed=5)} if "faults" in other else {}
    for config in (PVFSConfig(**base), PVFSConfig(**other)):
        cell(Spec(reduced("tile"), "datatype_io", config=config))
    assert len(runs) == 2


def _runs_of(runs, workload, method, config=PVFSConfig()):
    return sum(
        (w, m, c or PVFSConfig()) == (workload, method, config)
        for w, m, c in runs
    )


def test_smoke_replay_is_a_fresh_run(runs):
    spec = {"clients": (2,), "methods": ("collective_dtype",)}
    memo = cell(Spec(FlashWorkload.paper(2), "collective_dtype"))
    runs.clear()
    doc = collectivecmd.collect_smoke(spec)
    # the sweep and the replay both run, the memo is not consulted
    assert _runs_of(runs, FlashWorkload.paper(2), "collective_dtype") == 2
    assert len(runs) == 2
    assert doc["replay"]["elapsed_s"].hex() == memo.elapsed.hex()


def test_faults_smoke_replays_its_same_seed_pair(runs):
    heavy = PVFSConfig(
        faults=severity_config("heavy"), trace=True, metrics=True
    )
    cell(Spec(reduced("tile"), "datatype_io", config=heavy))
    runs.clear()
    assert smoke("datatype_io") == []
    # heavy twice, the other seed, faults=None and an inert armed config
    assert len(runs) == 5
    assert _runs_of(runs, reduced("tile"), "datatype_io", heavy) == 2
    assert _runs_of(runs, reduced("tile"), "datatype_io") == 1
    inert = PVFSConfig(faults=FaultConfig())
    assert _runs_of(runs, reduced("tile"), "datatype_io", inert) == 1


def test_metrics_smoke_runs_metrics_on_and_off(runs, capsys):
    for config in (PVFSConfig(metrics=True), PVFSConfig()):
        cell(Spec(reduced("tile"), "datatype_io", config=config))
    runs.clear()
    assert main(["metrics", "--smoke"]) == 0
    assert [c or PVFSConfig() for _, _, c in runs] == [
        PVFSConfig(metrics=True),
        PVFSConfig(),
    ]
