"""BlockStore and DiskModel."""

import numpy as np
import pytest

from repro.regions import Regions
from repro.simulation import CostModel
from repro.storage import BlockStore, DiskModel


class TestBlockStore:
    def test_write_read_roundtrip(self, rng):
        store = BlockStore(chunk_size=64)
        data = rng.integers(0, 255, 500, dtype=np.uint8)
        r = Regions.single(100, 500)
        store.write_regions(1, r, data)
        assert np.array_equal(store.read_regions(1, r), data)

    def test_holes_read_zero(self):
        store = BlockStore(chunk_size=16)
        store.write_regions(1, Regions.single(10, 4), np.full(4, 9, np.uint8))
        out = store.read_regions(1, Regions.single(0, 20))
        assert out[:10].sum() == 0
        assert out[10:14].tolist() == [9, 9, 9, 9]
        assert out[14:].sum() == 0

    def test_unknown_handle_reads_zero(self):
        store = BlockStore()
        assert store.read_regions(42, Regions.single(0, 8)).sum() == 0

    def test_scattered_regions(self, rng):
        store = BlockStore(chunk_size=32)
        regions = Regions.from_pairs([(5, 10), (100, 20), (40, 7)])
        data = rng.integers(0, 255, regions.total_bytes, dtype=np.uint8)
        store.write_regions(7, regions, data)
        assert np.array_equal(store.read_regions(7, regions), data)

    def test_chunk_boundary_crossing(self, rng):
        store = BlockStore(chunk_size=10)
        data = rng.integers(0, 255, 35, dtype=np.uint8)
        store.write_regions(1, Regions.single(7, 35), data)
        assert np.array_equal(
            store.read_regions(1, Regions.single(7, 35)), data
        )

    def test_size_tracking(self):
        store = BlockStore()
        assert store.local_size(1) == 0
        store.write_regions(1, Regions.single(100, 10), np.zeros(10, np.uint8))
        assert store.local_size(1) == 110

    def test_phantom_notes(self):
        store = BlockStore()
        store.note_write(3, Regions.single(50, 25))
        assert store.local_size(3) == 75
        assert store.bytes_written == 25
        store.note_read(Regions.single(0, 10))
        assert store.bytes_read == 10

    def test_remove(self):
        store = BlockStore()
        store.write_regions(1, Regions.single(0, 4), np.ones(4, np.uint8))
        store.remove(1)
        assert store.local_size(1) == 0
        assert not store._files

    def test_stream_size_mismatch(self):
        store = BlockStore()
        with pytest.raises(ValueError):
            store.write_regions(1, Regions.single(0, 4), np.zeros(5, np.uint8))

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            BlockStore(chunk_size=0)

    def test_counters(self):
        store = BlockStore()
        store.write_regions(1, Regions.single(0, 4), np.zeros(4, np.uint8))
        store.read_regions(1, Regions.single(0, 4))
        assert store.bytes_written == 4
        assert store.bytes_read == 4


class TestDiskModel:
    def test_sequential_access_no_seek(self):
        disk = DiskModel(CostModel())
        # head starts at 0; first region at 0, second adjacent: no seeks
        disk.access_time(Regions.from_pairs([(0, 100), (100, 100)]))
        assert disk.total_seeks == 0

    def test_head_position_persists(self):
        c = CostModel()
        disk = DiskModel(c)
        disk.access_time(Regions.single(0, 100))
        seeks_before = disk.total_seeks
        disk.access_time(Regions.single(100, 50))  # continues at head
        assert disk.total_seeks == seeks_before

    def test_scattered_seeks(self):
        c = CostModel()
        disk = DiskModel(c)
        r = Regions.from_pairs([(1000, 10), (5000, 10), (2000, 10)])
        t = disk.access_time(r)
        assert disk.total_seeks == 3
        assert t == pytest.approx(3 * c.disk_seek + 30 / c.disk_bandwidth)

    def test_empty_access_free(self):
        disk = DiskModel(CostModel())
        assert disk.access_time(Regions.empty()) == 0.0
