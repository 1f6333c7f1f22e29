"""File views."""

import pytest

from repro.datatypes import BYTE, INT, contiguous, subarray, vector
from repro.mpiio import FileView

from ..conftest import stream_window


class TestFileView:
    def test_default_is_byte_stream(self):
        v = FileView()
        assert v.is_contiguous
        assert v.stream_window(10, 5) == (10, 15)
        assert v.file_regions(10, 15).to_pairs() == [(10, 5)]

    def test_etype_offset_scaling(self):
        v = FileView(0, INT, contiguous(10, INT))
        assert v.stream_window(3, 8) == (12, 20)

    def test_displacement_applied(self):
        v = FileView(100, BYTE, vector(2, 2, 4, BYTE))
        regs = v.file_regions(0, 4)
        assert regs.to_pairs() == [(100, 2), (104, 2)]

    def test_noncontiguous_view(self):
        v = FileView(0, INT, vector(3, 1, 2, INT))
        assert not v.is_contiguous
        assert v.file_regions(0, 12).to_pairs() == [(0, 4), (8, 4), (16, 4)]

    def test_view_tiles_filetype(self):
        t = vector(2, 1, 2, INT)  # 8 data bytes per 16-byte extent
        v = FileView(0, INT, t)
        regs = v.file_regions(0, 24)  # 3 instances worth
        assert regs.total_bytes == 24
        assert regs.to_pairs()[0] == (0, 4)
        # second instance starts at extent 16... wait extent is 12
        lo, hi = regs.extent()
        assert lo == 0

    def test_window_subrange(self):
        v = FileView(0, BYTE, vector(4, 2, 4, BYTE))
        full = v.file_regions(0, 8)
        part = v.file_regions(3, 7)
        assert part.total_bytes == 4
        assert stream_window(full, 3, 7) == part

    def test_filetype_must_be_etype_multiple(self):
        with pytest.raises(ValueError):
            FileView(0, INT, contiguous(3, BYTE))

    def test_negative_displacement_rejected(self):
        with pytest.raises(ValueError):
            FileView(-1, BYTE, BYTE)

    def test_invalid_window(self):
        v = FileView()
        with pytest.raises(ValueError):
            v.stream_window(-1, 4)
        with pytest.raises(ValueError):
            v.stream_window(0, -4)

    def test_empty_window(self):
        v = FileView(0, INT, vector(2, 1, 2, INT))
        assert v.file_regions(5, 5).count == 0

    def test_loop_matches_filetype(self):
        t = subarray([8, 8], [4, 4], [2, 2], INT)
        v = FileView(0, INT, t)
        assert v.loop.data_size == t.size
        assert v.loop.extent == t.extent

    def test_repr(self):
        assert "FileView" in repr(FileView())


class TestDataloopWindowEdges:
    def test_tile_count_zero_for_empty(self):
        from repro.dataloops import build_dataloop
        from repro.pvfs.protocol import DataloopWindow

        loop = build_dataloop(contiguous(0, INT))
        win = DataloopWindow(loop, 0, 0, 0)
        assert win.tile_count() == 0
        assert win.stream_bytes == 0

    def test_wire_bytes_includes_triple(self):
        from repro.dataloops import build_dataloop, wire_size
        from repro.pvfs.protocol import DataloopWindow

        loop = build_dataloop(vector(4, 1, 2, INT))
        win = DataloopWindow(loop, 10, 0, 16)
        assert win.wire_bytes() == wire_size(loop) + 24
