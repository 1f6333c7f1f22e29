"""Workload geometry: the paper's §4 parameters must fall out exactly."""

import numpy as np
import pytest

from repro.bench import Block3DWorkload, FlashWorkload, TileWorkload
from repro.bench.workloads import ScaleWorkload

MIB = 1024 * 1024


class TestTileGeometry:
    def test_paper_parameters(self):
        wl = TileWorkload.paper()
        assert wl.n_clients == 6
        assert wl.display_w == 3 * 1024 - 2 * 270 == 2532
        assert wl.display_h == 2 * 768 - 128 == 1408
        # "Each frame is 10.2 MBytes"
        assert wl.frame_bytes == 2532 * 1408 * 3
        assert wl.frame_bytes / MIB == pytest.approx(10.2, abs=0.05)

    def test_tile_desired_bytes(self):
        wl = TileWorkload.paper(frames=1)
        # 2.25 MB per client per frame (Table 1)
        assert wl.bytes_per_client() == 1024 * 768 * 3
        assert wl.bytes_per_client() / MIB == 2.25

    def test_tile_origins_distinct_and_in_range(self):
        wl = TileWorkload.paper()
        seen = set()
        for r in range(6):
            y0, x0 = wl.tile_origin(r)
            assert 0 <= y0 <= wl.display_h - wl.tile_h
            assert 0 <= x0 <= wl.display_w - wl.tile_w
            seen.add((y0, x0))
        assert len(seen) == 6

    def test_filetype_regions_are_rows(self):
        wl = TileWorkload.paper()
        ft = wl.filetype(0)
        flat = ft.flatten()
        assert flat.count == 768  # one region per pixel row (Table 1)
        assert set(flat.lengths.tolist()) == {1024 * 3}

    def test_tiles_cover_display(self):
        """Union of all tiles covers every display byte (overlaps > 0)."""
        wl = TileWorkload.reduced()
        from repro.regions import Regions

        union = Regions.concat(
            [wl.filetype(r).flatten() for r in range(wl.n_clients)]
        ).normalized()
        assert union.to_pairs() == [(0, wl.frame_bytes)]

    def test_displacement_per_frame(self):
        wl = TileWorkload.paper()
        assert wl.displacement(0, 3) == 3 * wl.frame_bytes

    def test_one_process_per_node(self):
        assert TileWorkload.paper().procs_per_node == 1


class TestBlock3DGeometry:
    @pytest.mark.parametrize(
        "cpd,desired_mib,posix_ops",
        [(2, 103.0, 90_000), (3, 30.5, 40_000), (4, 12.9, 22_500)],
    )
    def test_table2_geometry(self, cpd, desired_mib, posix_ops):
        wl = Block3DWorkload.paper(cpd)
        assert wl.n_clients == cpd**3
        assert wl.bytes_per_client() / MIB == pytest.approx(
            desired_mib, abs=0.05
        )
        flat = wl.filetype(0).flatten()
        assert flat.count == posix_ops  # x-runs = block² (Table 2)

    def test_blocks_partition_file(self):
        wl = Block3DWorkload.reduced(2)
        from repro.regions import Regions

        union = Regions.concat(
            [wl.filetype(r).flatten() for r in range(8)]
        ).normalized()
        assert union.to_pairs() == [(0, wl.grid**3 * 4)]
        total = sum(
            wl.filetype(r).flatten().total_bytes for r in range(8)
        )
        assert total == wl.grid**3 * 4  # disjoint

    def test_block_origins(self):
        wl = Block3DWorkload.reduced(2)
        origins = {wl.block_origin(r) for r in range(8)}
        assert len(origins) == 8
        assert (0, 0, 0) in origins

    def test_grid_divisibility_enforced(self):
        with pytest.raises(ValueError):
            Block3DWorkload(grid=10, clients_per_dim=3)

    def test_memtype_contiguous(self):
        wl = Block3DWorkload.reduced(2)
        assert wl.memtype(0).is_contiguous


class TestFlashGeometry:
    def test_paper_parameters(self):
        wl = FlashWorkload.paper(8)
        # "Every processor adds 7 MBytes to the file" -> 7.5 MiB desired
        assert wl.bytes_per_client() == 80 * 512 * 24 * 8
        assert wl.bytes_per_client() / MIB == 7.5
        assert wl.side_full == 16

    def test_posix_piece_count(self):
        """983,040 = 80 blocks x 512 cells x 24 vars (Table 3)."""
        wl = FlashWorkload.paper(2)
        mem = wl.memtype(0).flatten()
        assert mem.count == 983_040
        assert set(mem.lengths.tolist()) == {8}

    def test_memtype_inside_buffer(self):
        wl = FlashWorkload.reduced(2)
        mem = wl.memtype(0)
        assert mem.true_lb >= 0
        assert mem.true_ub <= wl.nblocks * wl.block_mem_bytes

    def test_filetype_runs(self):
        wl = FlashWorkload.paper(4)
        flat = wl.filetype(0).flatten()
        assert flat.count == 24  # one run per variable
        assert set(flat.lengths.tolist()) == {80 * 512 * 8}

    def test_clients_interleave_disjointly(self):
        wl = FlashWorkload.reduced(3)
        from repro.regions import Regions

        union = Regions.concat(
            [
                wl.filetype(r).flatten().shift(wl.displacement(r, 0))
                for r in range(3)
            ]
        ).normalized()
        total = 3 * wl.bytes_per_client()
        assert union.to_pairs() == [(0, total)]

    def test_memory_stream_is_var_major(self):
        """Packed memory stream = var-major ordering of interior cells."""
        wl = FlashWorkload.reduced(1)
        buf = np.zeros(wl.nblocks * wl.block_mem_bytes, dtype=np.uint8)
        vals = buf.view(np.float64)
        s = wl.side_full
        g = wl.nguard
        nv = wl.nvar
        # value = encodes (block, var, z, y, x)
        for b in range(wl.nblocks):
            base = b * wl.block_mem_bytes // 8
            for z in range(s):
                for y in range(s):
                    for x in range(s):
                        for v in range(nv):
                            idx = base + ((z * s + y) * s + x) * nv + v
                            vals[idx] = (
                                b * 10**8
                                + v * 10**6
                                + z * 10**4
                                + y * 10**2
                                + x
                            )
        stream = wl.memtype(0).flatten().gather(buf).view(np.float64)
        expect = []
        for v in range(nv):
            for b in range(wl.nblocks):
                for z in range(g, g + wl.nxb):
                    for y in range(g, g + wl.nxb):
                        for x in range(g, g + wl.nxb):
                            expect.append(
                                b * 10**8
                                + v * 10**6
                                + z * 10**4
                                + y * 10**2
                                + x
                            )
        assert np.array_equal(stream, np.array(expect))


class TestTenantOf:
    def test_round_robin_by_default(self):
        wl = TileWorkload.reduced()
        assert [wl.tenant_of(r, 3) for r in range(6)] == [0, 1, 2, 0, 1, 2]
        assert {wl.tenant_of(r) for r in range(6)} == {0}

    def test_scale_workload_deals_contiguous_blocks(self):
        wl = ScaleWorkload(n_clients=4, n_tenants=2)
        assert [wl.tenant_of(r) for r in range(4)] == [0, 0, 1, 1]
        assert [wl.tenant_of(r, 2) for r in range(4)] == [0, 0, 1, 1]
