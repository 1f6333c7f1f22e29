"""The ``repro-bench trace`` command and the baseline trace flow."""

import json

import pytest

from repro.bench.baseline import collect_pipeline_baseline
from repro.bench.cli import main
from repro.bench.artifacts import verify_trace, write_trace_artifacts
from repro.bench.report import render_trace_summary
from repro.bench.runner import Spec, run
from repro.bench.workloads import REDUCED, reduced
from repro.pvfs import PVFSConfig
from repro.trace import validate_chrome

STAGES = ("decode", "plan", "cache", "storage", "respond")


def traced(name, method):
    """The reduced cell ``name`` as ``repro-bench trace`` runs it."""
    return run(Spec(reduced(name), method, config=PVFSConfig(trace=True)))


class TestTracecmd:
    def test_run_traced_verifies_clean(self):
        r = traced("tile", "datatype_io")
        assert verify_trace(r) == []
        assert r.trace_summary["spans"] == len(r.tracer)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            reduced("nope")

    def test_every_named_workload_traces(self):
        for name in REDUCED:
            r = traced(name, "datatype_io")
            assert r.supported and verify_trace(r) == []

    def test_artifacts_written(self, tmp_path):
        r = traced("flash", "datatype_io")
        trace_path, summary_path = write_trace_artifacts(r, tmp_path)
        assert trace_path.name == "TRACE_flash_datatype_io.json"
        doc = json.loads(trace_path.read_text())
        assert validate_chrome(doc) == []
        summary = json.loads(summary_path.read_text())
        assert summary["reconciled"] is True
        for stage in STAGES:
            assert summary["trace"]["server_stages_s"][stage] == (
                pytest.approx(summary["server_stages"][f"{stage}_s"], abs=1e-9)
            )

    def test_render_trace_summary(self):
        r = traced("tile", "datatype_io")
        text = render_trace_summary(r)
        assert "Trace summary: tile / datatype_io" in text
        assert "server.plan" in text and "StageTimes" in text

    def test_verify_catches_one_byte_on_a_server_nic(self):
        """At a 4 KiB strip the tile cell's reads leave servers other
        than iod0, the metadata host whose NIC is only checked loosely;
        one byte more on such a server's ``net.xfer`` span no longer
        matches its ``NodeUtilization``."""
        r = run(Spec(
            reduced("tile"), "datatype_io",
            config=PVFSConfig(trace=True, strip_size=4096),
        ))
        assert verify_trace(r) == []
        rec, meta = r.tracer, r.fs.metadata.mailbox.node.name
        span_id = next(
            i for i, name in enumerate(rec.names, 1)
            if name == "net.xfer"
            and rec.attrs(i)["src"].startswith("ios")
            and rec.attrs(i)["src"] != meta
        )
        row = span_id - 1
        at = rec.attr_offsets[row] + rec.attr_keys[row].index("nbytes")
        rec.attr_values[at] += 1
        src = rec.attrs(span_id)["src"]
        assert any(
            p.startswith(f"nic {src}/tx: traced") for p in verify_trace(r)
        )

    def test_verify_flags_untraced_run(self):
        from repro.bench.runner import run_workload
        from repro.bench.workloads import FlashWorkload

        r = run_workload(FlashWorkload.reduced(2), "datatype_io")
        assert verify_trace(r) == ["run was not traced (tracer is None)"]


class TestCli:
    def test_trace_smoke(self, capsys):
        assert main(["trace", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "TRACE_tile_datatype_io.json").exists()
        assert (tmp_path / "TRACE_tile_datatype_io_summary.json").exists()

    def test_every_cell_writes_its_own_files(self, tmp_path, capsys):
        """block3d-read and block3d-write are one workload class; their
        trace and metrics files are named after the ``--workload`` cell,
        so no cell overwrites another's (the default tile cell keeps its
        names)."""
        for kind in ("trace", "metrics"):
            for name in REDUCED:
                assert main([kind, "--workload", name, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        names = {p.name for p in tmp_path.iterdir()}
        assert len(names) == 2 * 2 * len(REDUCED)
        assert {
            "TRACE_tile_datatype_io.json",
            "TRACE_block3d-read_datatype_io_summary.json",
            "METRICS_block3d-write_datatype_io.prom",
            "METRICS_flash_datatype_io.json",
        } <= names


class TestBaselineFlow:
    def test_trace_block_flows_into_json(self):
        on = collect_pipeline_baseline(methods=["datatype_io"], trace=True)
        off = collect_pipeline_baseline(methods=["datatype_io"])
        for name, per in on["benchmarks"].items():
            m_on = per["datatype_io"]
            m_off = off["benchmarks"][name]["datatype_io"]
            assert "trace" in m_on and "trace" not in m_off
            # tracing never skews the simulated clock
            assert m_on["elapsed_s"] == m_off["elapsed_s"]
            assert m_on["io_ops_per_client"] == m_off["io_ops_per_client"]
            tr = m_on["trace"]
            assert tr["spans"] > 0 and tr["traces"] > 0
            # span-derived stage sums agree with the StageTimes block
            for stage in STAGES:
                assert tr["server_stages_s"][stage] == pytest.approx(
                    m_on["server_stages"][f"{stage}_s"], abs=1e-9
                )
