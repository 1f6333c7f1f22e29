"""Text report rendering: golden determinism and edge cases."""

import pytest

from repro.bench.report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    format_mib,
    render_characteristics,
    render_figure,
    render_metrics_summary,
    render_trace_summary,
)
from repro.bench.runner import Cell, run_workload
from repro.bench.workloads import TileWorkload
from repro.pvfs import PVFSConfig

MIB = 1024 * 1024


class TestFormatMib:
    def test_none_and_zero_are_dashes(self):
        assert format_mib(None) == "—"
        assert format_mib(0) == "—"
        assert format_mib(None, dash="n/a") == "n/a"

    def test_precision_scales_with_magnitude(self):
        assert format_mib(2.25 * MIB) == "2.25 MB"
        assert format_mib(77.2 * MIB) == "77.2 MB"
        assert format_mib(412 * MIB) == "412 MB"

    def test_precision_boundaries(self):
        # exactly at the 10/100 MiB precision steps
        assert format_mib(10 * MIB) == "10.0 MB"
        assert format_mib(100 * MIB) == "100 MB"
        # just below each boundary keeps the finer precision
        assert format_mib(10 * MIB - 1).endswith(" MB")
        assert format_mib(10 * MIB - 1).count(".") == 1

    def test_tiny_nonzero_rounds_to_zero_display(self):
        # a single byte is nonzero, so it renders (as 0.00 MB) rather
        # than being mistaken for "no data" (the dash)
        assert format_mib(1) == "0.00 MB"


def sample_rows():
    return [
        Cell(
            "datatype_io", True,
            desired_bytes=int(2.25 * MIB), accessed_bytes=int(2.25 * MIB),
            io_ops=1, resent_bytes=0.0,
        ),
        Cell(
            "two_phase", True,
            desired_bytes=int(2.25 * MIB), accessed_bytes=int(1.70 * MIB),
            io_ops=1, resent_bytes=1.5 * MIB,
        ),
        Cell("data_sieving", False),
    ]


class TestCharacteristics:
    def test_table_layout(self):
        text = render_characteristics("Table 1", sample_rows())
        lines = text.splitlines()
        assert lines[0] == "Table 1"
        assert "Desired Data" in lines[2] and "Resent Data" in lines[2]
        assert "Datatype I/O" in text and "Two-Phase" in text
        # unsupported rows are all dashes, resent only shows when > 0
        sieving = next(l for l in lines if "Data Sieving" in l)
        assert sieving.count("—") == 4
        dt = next(l for l in lines if "Datatype I/O" in l)
        assert dt.rstrip().endswith("—")
        tp = next(l for l in lines if "Two-Phase" in l)
        assert "1.50 MB" in tp

    def test_deterministic(self):
        a = render_characteristics("T", sample_rows())
        b = render_characteristics("T", sample_rows())
        assert a == b

    def test_unknown_method_label_falls_back_to_name(self):
        rows = [
            Cell(
                "experimental_io", True,
                desired_bytes=MIB, accessed_bytes=MIB,
                io_ops=1, resent_bytes=0.0,
            )
        ]
        assert "experimental_io" in render_characteristics("T", rows)

    def test_fractional_and_thousands_op_counts(self):
        rows = [
            Cell(
                "posix", True,
                desired_bytes=MIB, accessed_bytes=MIB,
                io_ops=90_000, resent_bytes=0.0,
            ),
            Cell(
                "list_io", True,
                desired_bytes=MIB, accessed_bytes=MIB,
                io_ops=1408.5, resent_bytes=0.0,
            ),
        ]
        text = render_characteristics("T", rows)
        assert "90,000" in text     # integral: grouped, no decimals
        assert "1,408.5" in text    # per-client mean: one decimal


class TestRenderFigure:
    def fig(self):
        return {6: {"posix": 2.9, "datatype_io": 66.6, "data_sieving": None}}

    def test_table_and_unavailable_dash(self):
        text = render_figure("fig8", self.fig())
        assert text.startswith("fig8  (aggregate MiB/s)")
        assert "66.6" in text and "2.9" in text
        # None renders as the em dash, right-aligned in its column
        assert "—" in text

    def test_unit_override(self):
        assert "(aggregate ops)" in render_figure("fig8", self.fig(), unit="ops")

    def test_empty_figure_renders_header_only(self):
        text = render_figure("empty", {})
        lines = text.splitlines()
        assert lines[0].startswith("empty")
        assert len(lines) == 3  # title, rule, column header — no rows

    def test_sparse_series_dash_per_missing_cell(self):
        # posix has no x=12 point
        text = render_figure("sparse", {6: {"posix": 1.0}, 12: {"datatype_io": 2.0}})
        row12 = next(l for l in text.splitlines() if l.startswith("        12"))
        assert "—" in row12 and "2.0" in row12


@pytest.fixture(scope="module")
def traced_metered_run():
    cfg = PVFSConfig(trace=True, metrics=True)
    return run_workload(
        TileWorkload.reduced(frames=2), "datatype_io",
        config=cfg,
    )


class TestTraceSummary:
    def test_renders_and_cross_checks(self, traced_metered_run):
        text = render_trace_summary(traced_metered_run)
        assert "Trace summary:" in text
        assert "server stage" in text and "StageTimes" in text
        # every pipeline stage appears in the cross-check block
        for stage in ("decode", "plan", "cache", "storage", "respond"):
            assert stage in text

    def test_deterministic(self, traced_metered_run):
        assert render_trace_summary(
            traced_metered_run
        ) == render_trace_summary(traced_metered_run)

    def test_untraced_run_raises(self):
        r = run_workload(
            TileWorkload.reduced(frames=2), "datatype_io"
        )
        with pytest.raises(ValueError, match="not traced"):
            render_trace_summary(r)


class TestMetricsSummary:
    def test_renders_quantiles_and_bottleneck(self, traced_metered_run):
        text = render_metrics_summary(traced_metered_run)
        assert "Metrics summary:" in text
        assert "p50" in text and "p99" in text
        assert "traffic:" in text
        assert "imbalance:" in text
        assert "bottleneck:" in text

    def test_unmetered_run_raises(self):
        r = run_workload(
            TileWorkload.reduced(frames=2), "datatype_io"
        )
        with pytest.raises(ValueError, match="not metered"):
            render_metrics_summary(r)


def test_paper_tables_cover_the_methods():
    assert set(PAPER_TABLE1) == {
        "posix", "data_sieving", "two_phase", "list_io", "datatype_io"
    }
    assert set(PAPER_TABLE2) == {8, 27, 64}
    # data sieving is unavailable for the FLASH write test
    assert PAPER_TABLE3["data_sieving"] is None
