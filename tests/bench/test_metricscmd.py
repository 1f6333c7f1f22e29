"""``repro-bench metrics`` artifacts and the rendered summary."""

import json

import pytest

from repro.bench.artifacts import verify_metrics, write_metrics_artifacts
from repro.bench.report import render_metrics_summary
from repro.bench.runner import Spec, run
from repro.bench.workloads import reduced
from repro.metrics import validate_openmetrics
from repro.pvfs import PVFSConfig


@pytest.fixture(scope="module")
def result():
    config = PVFSConfig(metrics=True)
    return run(Spec(reduced("tile"), "datatype_io", config=config))


def test_artifacts_written_and_valid(result, tmp_path):
    paths = write_metrics_artifacts(result, tmp_path)
    assert [p.name for p in paths] == [
        "METRICS_tile_datatype_io.json",
        "METRICS_tile_datatype_io.prom",
    ]
    doc = json.loads(paths[0].read_text())
    assert doc["schema"] == 1
    assert doc["workload"] == "tile"
    assert doc["reconciled"] is True
    assert doc["metrics"]["samples"] == result.metrics.samples
    assert doc["imbalance"]["busy"]["max_over_mean"] >= 1.0
    assert doc["server_stages"]["requests"] > 0
    assert validate_openmetrics(paths[1].read_text()) == []


def test_custom_stem(result, tmp_path):
    paths = write_metrics_artifacts(result, tmp_path, stem="CUSTOM")
    assert [p.name for p in paths] == ["CUSTOM.json", "CUSTOM.prom"]


def test_verify_unmetered_run():
    from repro.bench.runner import run_workload
    from repro.bench.workloads import TileWorkload

    r = run_workload(TileWorkload.reduced(frames=1), "datatype_io")
    assert verify_metrics(r) == ["run was not metered (metrics is None)"]


def test_render_metrics_summary(result):
    text = render_metrics_summary(result)
    assert "Metrics summary: tile / datatype_io" in text
    for stage in ("decode", "plan", "cache", "storage", "respond"):
        assert f"stage:{stage}" in text
    assert "request" in text and "queue-wait" in text
    assert "traffic:" in text
    assert "imbalance:" in text
    assert "bottleneck:" in text


def test_render_rejects_unmetered():
    from repro.bench.runner import RunResult

    with pytest.raises(ValueError, match="not metered"):
        render_metrics_summary(
            RunResult(workload="x", method="y", n_clients=1)
        )


def test_cli_metrics_smoke(tmp_path, capsys):
    from repro.bench import cli

    assert cli.main(["metrics", "--smoke"]) == 0
    out = capsys.readouterr()
    assert "Metrics summary" in out.out
    assert "metrics smoke OK" in out.err

    assert (
        cli.main(["metrics", "--out", str(tmp_path)]) == 0
    )
    capsys.readouterr()
    assert (tmp_path / "METRICS_tile_datatype_io.prom").exists()
