"""ASCII chart and SVG panel rendering."""

import pytest

from repro.bench.plots import (
    RESOURCE_COLORS,
    bar_chart,
    fmt_num,
    html_page,
    line_chart,
    plot_figure,
    svg_blame_bars,
    svg_heatmap,
    svg_time_series,
    svg_waterfall,
)
from repro.trace.critical import RESOURCE_ORDER


def single_x_fig():
    return "f8", {
        6: {"posix": 2.9, "list_io": 50.6, "datatype_io": 66.6, "data_sieving": None}
    }


def sweep_fig():
    return "f12", {
        n: {"two_phase": tp, "datatype_io": dt}
        for n, (tp, dt) in {
            2: (9.0, 4.8),
            8: (12.2, 19.1),
            32: (35.7, 74.1),
            128: (131.4, 139.2),
        }.items()
    }


class TestBarChart:
    def test_renders_all_methods(self):
        text = bar_chart(*single_x_fig())
        assert "POSIX I/O" in text
        assert "66.6" in text
        assert "(unavailable)" in text

    def test_longest_bar_is_max(self):
        text = bar_chart(*single_x_fig())
        lines = {l.split("|")[0].strip(): l for l in text.splitlines()[1:]}
        bar = lambda l: l.split("|")[1].count("█")
        assert bar(lines["Datatype I/O"]) >= bar(lines["List I/O"])
        assert bar(lines["List I/O"]) > bar(lines["POSIX I/O"])

    def test_rejects_sweeps(self):
        with pytest.raises(ValueError):
            bar_chart(*sweep_fig())


class TestLineChart:
    def test_renders(self):
        text = line_chart(*sweep_fig())
        assert "f12" in text
        assert "clients" in text
        assert "Two-Phase" in text
        assert "Datatype" in text
        # axis labels include x values
        assert "128" in text

    def test_markers_present(self):
        text = line_chart(*sweep_fig())
        body = "\n".join(text.splitlines()[1:-2])
        assert "o" in body and "x" in body

    def test_rejects_single_x(self):
        with pytest.raises(ValueError):
            line_chart(*single_x_fig())


def test_plot_figure_dispatch():
    assert "█" in plot_figure(*single_x_fig())
    assert "|" in plot_figure(*sweep_fig())


# ----------------------------------------------------------------------
# SVG layer
# ----------------------------------------------------------------------
def well_formed(svg: str) -> None:
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>")
    assert svg.count("<svg") == 1
    # no unformatted float reprs may leak into coordinates
    assert "e-0" not in svg.lower().replace("1e-06", "")


class TestFmtNum:
    def test_short_stable_decimals(self):
        assert fmt_num(0.5) == "0.5"
        assert fmt_num(1 / 3) == "0.333333"
        assert fmt_num(12.0) == "12"

    def test_negative_zero_is_zero(self):
        assert fmt_num(-0.0) == "0"

    def test_deterministic_for_ints_and_floats(self):
        assert fmt_num(3) == fmt_num(3.0) == "3"


class TestSvgTimeSeries:
    SERIES = {
        "ios tx": ([0.0, 0.1, 0.2], [0.2, 0.9, 0.4]),
        "cn rx": ([0.0, 0.1, 0.2], [0.1, 0.3, 0.2]),
    }

    def test_renders_polyline_per_series(self):
        svg = svg_time_series(self.SERIES, title="nic")
        well_formed(svg)
        assert svg.count("<polyline") == 2
        assert "ios tx" in svg and "cn rx" in svg

    def test_golden_determinism(self):
        a = svg_time_series(self.SERIES, title="nic", unit="frac")
        b = svg_time_series(dict(self.SERIES), title="nic", unit="frac")
        assert a == b

    def test_empty_series_say_no_samples(self):
        svg = svg_time_series({}, title="empty")
        well_formed(svg)
        assert "no samples" in svg
        assert "<polyline" not in svg

    def test_single_point_draws_a_dot(self):
        svg = svg_time_series({"one": ([1.0], [2.0])}, title="dot")
        well_formed(svg)
        assert "<circle" in svg and "<polyline" not in svg

    def test_all_zero_values_do_not_divide_by_zero(self):
        svg = svg_time_series({"z": ([0.0, 1.0], [0.0, 0.0])}, title="z")
        well_formed(svg)


class TestSvgHeatmap:
    def test_cells_and_row_labels(self):
        svg = svg_heatmap(
            ["iod0", "iod1"],
            [0.0, 0.5, 1.0],
            [[0.0, 2.0], [1.0, 4.0]],
            title="depth",
        )
        well_formed(svg)
        assert "iod0" in svg and "iod1" in svg
        # the hottest cell is the darkest ramp color; a zero cell is white
        assert "#143c8c" in svg
        assert "#ffffff" in svg

    def test_empty_grid_says_no_samples(self):
        svg = svg_heatmap([], [], [], title="empty")
        well_formed(svg)
        assert "no samples" in svg

    def test_all_zero_grid_is_white_not_nan(self):
        svg = svg_heatmap(
            ["iod0"], [0.0, 1.0], [[0.0]], title="zero"
        )
        well_formed(svg)
        assert "nan" not in svg.lower()

    def test_golden_determinism(self):
        args = (["a"], [0.0, 1.0, 2.0], [[1.0, 3.0]])
        assert svg_heatmap(*args, title="t") == svg_heatmap(*args, title="t")


class TestSvgWaterfall:
    ROWS = [
        ("pvfs.read @cn0", "client_cpu", 0.0, 0.002),
        ("net.xfer @net", "net_wire", 0.002, 0.007),
        ("server.storage @iod1", "disk", 0.007, 0.02),
    ]

    def test_rows_render_in_resource_colors(self):
        svg = svg_waterfall(self.ROWS, title="critical path")
        well_formed(svg)
        assert "pvfs.read @cn0" in svg
        assert RESOURCE_COLORS["disk"] in svg
        assert RESOURCE_COLORS["net_wire"] in svg

    def test_empty_waterfall(self):
        svg = svg_waterfall([], title="empty")
        well_formed(svg)
        assert "no segments" in svg

    def test_overflow_folds_into_a_more_row(self):
        rows = [
            (f"span{i}", "other", i * 1.0, i * 1.0 + 0.5)
            for i in range(50)
        ]
        svg = svg_waterfall(rows, title="big", max_rows=10)
        well_formed(svg)
        assert "more" in svg
        assert "span49" not in svg

    def test_golden_determinism(self):
        assert svg_waterfall(self.ROWS, title="w") == svg_waterfall(
            list(self.ROWS), title="w"
        )


class TestSvgBlameBars:
    BLAMES = {
        "posix": {"client_cpu": 0.7, "disk": 0.3},
        "datatype_io": {"net_wire": 0.5, "queue_wait": 0.5},
    }

    def test_stacked_bars_and_legend(self):
        svg = svg_blame_bars(self.BLAMES, title="blame")
        well_formed(svg)
        # methods render with their paper labels
        assert "POSIX I/O" in svg and "Datatype I/O" in svg
        for r in ("client_cpu", "disk", "net_wire", "queue_wait"):
            assert RESOURCE_COLORS[r] in svg

    def test_stacking_order_follows_taxonomy(self):
        # RESOURCE_ORDER is the stable stacking order, so every blame
        # dict renders identically regardless of its key order
        flipped = {
            m: dict(reversed(list(shares.items())))
            for m, shares in self.BLAMES.items()
        }
        assert svg_blame_bars(self.BLAMES, title="b") == svg_blame_bars(
            flipped, title="b"
        )

    def test_empty_blames(self):
        svg = svg_blame_bars({}, title="empty")
        well_formed(svg)
        assert "no data" in svg

    def test_every_resource_has_a_color(self):
        assert set(RESOURCE_COLORS) == set(RESOURCE_ORDER)


class TestHtmlPage:
    def test_structure_and_self_containment(self):
        html = html_page(
            "my dash",
            [("Panel A", "<svg></svg>"), ("Panel B", "<p>b</p>")],
            header_rows=[("workload", "tile"), ("method", "posix")],
        )
        assert html.startswith("<!DOCTYPE html>")
        assert html.endswith("\n")
        assert "<title>my dash</title>" in html
        assert "Panel A" in html and "Panel B" in html
        assert "workload" in html and "tile" in html
        assert "<script" not in html
        assert "http" not in html  # no external assets at all

    def test_escapes_titles(self):
        html = html_page("a <b> & \"c\"", [("<h>", "x")])
        assert "<b>" not in html.replace("<body>", "")
        assert "&lt;h&gt;" in html

    def test_deterministic(self):
        sections = [("S", "<svg></svg>")]
        assert html_page("t", sections) == html_page("t", list(sections))
