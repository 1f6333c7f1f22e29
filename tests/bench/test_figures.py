"""The figure records (small parameterizations)."""

from functools import partial

from repro.bench import characteristics, report
from repro.bench.characteristics import METHOD_ORDER, flash_spec
from repro.bench.runner import mesh

GRID = 24  # divisible by 2, 3 and 4


class TestFigureHarness:
    def test_fig8_small(self):
        doc = report.FIG8.collect(quick=True)
        assert list(doc) == METHOD_ORDER
        assert {c.n_clients for c in doc.values()} == {6}
        assert doc["datatype_io"].bandwidth_mbps > doc["posix"].bandwidth_mbps
        title, rule, header, row = report.FIG8.render(doc).splitlines()
        assert title == "fig8-tile-read  (aggregate MiB/s)"
        assert row.split()[0] == "6"

    def test_fig10_small(self, monkeypatch):
        small = partial(characteristics.block3d_spec, grid=GRID)
        monkeypatch.setattr(report, "block3d_spec", small)
        doc = report.FIG10.collect(quick=True)
        assert list(doc) == [2, 3]
        write = doc[2]["datatype_io"]["write"]
        assert write.n_clients == 8 and write.bandwidth_mbps > 0
        text = report.FIG10.render(doc)
        read, written = text.split("\n\n")
        assert read.startswith("fig10-3dblock-read  (aggregate MiB/s)")
        assert written.startswith("fig10-3dblock-write  (aggregate MiB/s)")
        assert [l.split()[0] for l in read.splitlines()[3:]] == ["8", "27"]

    def test_fig12_small(self):
        doc = mesh(flash_spec, clients=(2,), method=["two_phase", "data_sieving"])
        # sieving writes unsupported -> a None point, a dash in the table
        assert doc[2]["data_sieving"].bandwidth_mbps is None
        assert doc[2]["two_phase"].bandwidth_mbps > 0
        *_, row = report.FIG12.render(doc).splitlines()
        assert row.split()[:3] == ["2", f"{doc[2]['two_phase'].bandwidth_mbps:.1f}", "—"]

    def test_fig12_posix_limit(self):
        assert flash_spec(32, "posix") is not None
        assert flash_spec(48, "posix") is None
        # a gap runs nothing and renders as a dash
        doc = mesh(flash_spec, clients=(48,), method=["posix"])
        assert doc == {48: {"posix": None}}
        assert report.FIG12.render(doc).splitlines()[-1].split() == ["48", "—"]
