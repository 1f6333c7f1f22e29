"""ASCII chart rendering."""

import pytest

from repro.bench.plots import bar_chart, line_chart, plot_figure


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
