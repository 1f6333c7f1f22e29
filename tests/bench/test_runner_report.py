"""Runner, report formatting, and CLI."""

import pytest

from repro.bench import (
    Block3DWorkload,
    FlashWorkload,
    TileWorkload,
    run_workload,
)
from repro.bench.characteristics import (
    INDEPENDENT_METHODS,
    block3d_spec,
    flash_spec,
)
from repro.bench.report import (
    PAPER_TABLE2,
    format_mib,
    render_characteristics,
    render_figure,
)
from repro.bench.cli import main as cli_main
from repro.bench.runner import Cell, Spec, cell, mesh

MIB = 1024 * 1024


class TestRunner:
    def test_phantom_run_result_fields(self):
        r = run_workload(Block3DWorkload.reduced(2), "datatype_io")
        assert r.supported
        assert r.elapsed > 0
        assert r.n_clients == 8
        assert r.desired_bytes == (24 // 2) ** 3 * 4
        assert r.bandwidth_mbps > 0
        assert r.total_desired == r.desired_bytes * 8
        assert r.server_stats["requests"] > 0

    def test_unsupported_method_reported(self):
        wl = FlashWorkload.reduced(2)  # write test
        r = run_workload(wl, "data_sieving")
        assert not r.supported
        assert r.bandwidth_mbps == 0.0
        assert "locking" in r.note
        assert cell(Spec(wl, "data_sieving")).bandwidth_mbps is None

    def test_repetitions_scale_desired(self):
        one = run_workload(TileWorkload.reduced(frames=1), "datatype_io")
        two = run_workload(TileWorkload.reduced(frames=2), "datatype_io")
        assert two.desired_bytes == 2 * one.desired_bytes
        assert two.io_ops == 2 * one.io_ops

    def test_row_shape(self):
        wl = TileWorkload.reduced()
        r = run_workload(wl, "datatype_io")
        row = cell(Spec(wl, "datatype_io"))
        assert (row.method, row.n_clients) == ("datatype_io", r.n_clients)
        assert (row.desired_bytes, row.accessed_bytes, row.io_ops) == (
            r.desired_bytes,
            r.accessed_bytes,
            r.io_ops,
        )
        assert row.resent_bytes == r.resent_bytes
        assert row.bandwidth_mbps == r.bandwidth_mbps


class TestReport:
    def test_format_mib(self):
        assert format_mib(None) == "—"
        assert format_mib(0) == "—"
        assert format_mib(2.25 * MIB) == "2.25 MB"
        assert format_mib(30.5 * MIB) == "30.5 MB"
        assert format_mib(412 * MIB) == "412 MB"

    def test_render_characteristics(self):
        rows = [
            Cell("posix", True, int(2.25 * MIB), int(2.25 * MIB), 768, 0),
            Cell("data_sieving", False),
        ]
        text = render_characteristics("T", rows)
        assert "POSIX I/O" in text
        assert "768" in text
        assert "2.25 MB" in text
        # unsupported row renders as dashes
        assert text.splitlines()[-1].count("—") == 4

    def test_render_figure(self):
        text = render_figure(
            "f", {27: {"posix": None}, 8: {"posix": 1.5, "datatype_io": 43.7}}
        )
        assert "43.7" in text
        # rows by client count; a None or missing point is a dash
        assert [l.split() for l in text.splitlines()[3:]] == [
            ["8", "1.5", "43.7"],
            ["27", "—", "—"],
        ]


class TestCLI:
    def test_table1(self, capsys, tmp_path):
        rc = cli_main(["table1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Datatype I/O" in out
        assert (tmp_path / "table1.txt").exists()

    def test_table3(self):
        rows = mesh(lambda method: flash_spec(2, method), method=INDEPENDENT_METHODS)
        assert rows["posix"].io_ops == 983_040
        assert rows["list_io"].io_ops == 15_360
        assert rows["two_phase"].resent_bytes == pytest.approx(
            rows["two_phase"].desired_bytes / 2, rel=0.01
        )

    @pytest.mark.slow  # paper-scale Table 2 cells, ~10 s
    def test_table2_single_dim(self):
        """The 8-client section of Table 2 at 600³, as the paper prints
        it: exact, but list I/O's ``ceil(90,000/64) = 1,407`` operations
        against the paper's 1,408."""
        rows = mesh(lambda method: block3d_spec(2, method), method=INDEPENDENT_METHODS)
        assert list(rows) == INDEPENDENT_METHODS
        for row in rows.values():
            desired, accessed, ops, resent = PAPER_TABLE2[8][row.method]
            assert row.n_clients == 8
            assert row.desired_bytes == pytest.approx(desired, rel=0.01)
            assert row.accessed_bytes == pytest.approx(accessed, rel=0.01)
            assert abs(row.io_ops - ops) <= (row.method == "list_io")
            assert row.resent_bytes == pytest.approx(resent or 0, rel=0.02)

    def test_fig8_quick(self, capsys):
        rc = cli_main(["fig8", "--quick"])
        assert rc == 0
        assert "fig8-tile-read" in capsys.readouterr().out

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["figure99"])
        with pytest.raises(SystemExit):  # bytes are checked by tests/test_byte_oracle.py
            cli_main(["validate"])
