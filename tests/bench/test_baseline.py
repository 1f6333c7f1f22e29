"""Machine-readable benchmark baseline (BENCH_pipeline.json)."""

import json

from repro.bench.baseline import DOCUMENT, collect_pipeline_baseline
from repro.bench.cli import main
from repro.bench.document import write_document


class TestPipelineBaseline:
    def test_collect_covers_figures_and_methods(self):
        doc = collect_pipeline_baseline(methods=("list_io", "datatype_io"))
        assert doc["schema"] == 1
        assert set(doc["benchmarks"]) == {
            "fig8_tile_read",
            "fig10_block3d_read",
            "fig10_block3d_write",
            "fig12_flash_write",
        }
        for bench, per_method in doc["benchmarks"].items():
            for method, row in per_method.items():
                assert row["supported"], (bench, method)
                assert row["mbps"] > 0, (bench, method)
                stages = row["server_stages"]
                assert stages["requests"] > 0
                assert stages["decode_s"] > 0

    def test_write_emits_valid_json(self, tmp_path):
        path = write_document(
            DOCUMENT,
            tmp_path,
            collect_pipeline_baseline(methods=("datatype_io",)),
        )
        assert path.name == "BENCH_pipeline.json"
        doc = json.loads(path.read_text())
        row = doc["benchmarks"]["fig8_tile_read"]["datatype_io"]
        assert row["n_clients"] == 6
        assert row["elapsed_s"] > 0

    def test_cli_json_command(self, tmp_path, capsys):
        assert main(["json", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
        # full method matrix, including the unsupported data-sieving write
        flash = doc["benchmarks"]["fig12_flash_write"]
        assert flash["data_sieving"]["supported"] is False
        assert flash["datatype_io"]["supported"] is True
