"""Access-method internals: sieving chunk walk, posix piece math."""

import numpy as np
from repro.datatypes import BYTE, contiguous, hvector, vector
from repro.mpiio import File, Hints, SimMPI
from repro.mpiio.methods.sieving import _sieve_plan
from repro.pvfs import PVFS, PVFSConfig
from repro.regions import Regions
from repro.simulation import Environment


def run_one(rank_main, hints=None, **cfg):
    env = Environment()
    defaults = dict(n_servers=2, strip_size=128)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, 1)

    def wrapper(ctx):
        result = yield from rank_main(ctx, hints or Hints())
        return result

    return fs, mpi.run(wrapper)[0]


def _windows(regions, bufsize):
    """The sieve's buffer windows: ``(lo, hi)`` of each plan entry."""
    return [(lo, hi) for lo, hi, _, _ in _sieve_plan(regions, bufsize)]


class TestExtentChunks:
    def test_exact_multiple(self):
        r = Regions.single(0, 100)
        assert _windows(r, 25) == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]

    def test_remainder(self):
        r = Regions.single(10, 95)
        chunks = _windows(r, 40)
        assert chunks == [(10, 50), (50, 90), (90, 105)]

    def test_starts_at_first_needed_byte(self):
        r = Regions.from_pairs([(1000, 10), (1500, 10)])
        chunks = _windows(r, 4096)
        assert chunks == [(1000, 1510)]

    def test_single_chunk_when_buffer_covers(self):
        r = Regions.from_pairs([(0, 4), (96, 4)])
        assert _windows(r, 1000) == [(0, 100)]


class TestSievingBehaviour:
    def test_ops_equal_chunk_count(self):
        def main(ctx, hints):
            f = yield from File.open(ctx, "/s", hints)
            f.set_view(0, BYTE, vector(100, 4, 10, BYTE))  # extent ~1000
            yield from f.read_at(0, contiguous(400, BYTE), 1, None,
                                 method="data_sieving")
            return f.counters.io_ops

        hints = Hints(ind_rd_buffer_size=256)
        _, ops = run_one(None or (lambda ctx, h: main(ctx, h)), hints)
        # span = 99*10+4 = 994 bytes -> ceil(994/256) = 4 chunks
        assert ops == 4

    def test_accessed_equals_span(self):
        def main(ctx, hints):
            f = yield from File.open(ctx, "/s2", hints)
            ft = vector(50, 2, 8, BYTE)
            f.set_view(0, BYTE, ft)
            yield from f.read_at(0, contiguous(100, BYTE), 1, None,
                                 method="data_sieving")
            span = ft.flatten().extent()
            return f.counters.accessed_bytes, span[1] - span[0]

        _, (accessed, span) = run_one(lambda ctx, h: main(ctx, h))
        assert accessed == span

    def test_sieving_correct_with_small_buffer(self, rng):
        """Chunk boundaries falling inside regions must still be exact."""
        data = rng.integers(0, 255, 300, dtype=np.uint8)

        def main(ctx, hints):
            f = yield from File.open(ctx, "/s3", hints)
            ft = vector(30, 10, 17, BYTE)
            f.set_view(0, BYTE, ft)
            mt = contiguous(300, BYTE)
            yield from f.write_at(0, mt, 1, data, method="datatype_io")
            out = np.zeros(300, np.uint8)
            yield from f.read_at(0, mt, 1, out, method="data_sieving")
            return out

        # buffer deliberately prime-sized to hit odd boundaries
        _, out = run_one(
            lambda ctx, h: main(ctx, h), Hints(ind_rd_buffer_size=37)
        )
        assert np.array_equal(out, data)


class TestPosixPieces:
    def test_pieces_cut_at_both_sides(self):
        """Mem regions of 8B over file regions of 40B -> 8B pieces."""

        def main(ctx, hints):
            f = yield from File.open(ctx, "/p")
            f.set_view(0, BYTE, contiguous(200, BYTE))
            mem = hvector(25, 8, 16, BYTE)  # 25 pieces of 8B
            yield from f.write_at(0, mem, 1, None, method="posix")
            return f.counters.io_ops

        _, ops = run_one(lambda ctx, h: main(ctx, h))
        assert ops == 25

    def test_pieces_merge_when_both_contiguous(self):
        def main(ctx, hints):
            f = yield from File.open(ctx, "/p2")
            f.set_view(0, BYTE, contiguous(64, BYTE))
            yield from f.write_at(0, contiguous(64, BYTE), 1, None,
                                  method="posix")
            return f.counters.io_ops

        _, ops = run_one(lambda ctx, h: main(ctx, h))
        assert ops == 1

    def test_piece_count_is_boundary_union(self):
        """File regions of 6 bytes, memory regions of 4: pieces cut at
        every boundary of either stream."""

        def main(ctx, hints):
            f = yield from File.open(ctx, "/p3")
            f.set_view(0, BYTE, vector(4, 6, 8, BYTE))  # four 6B regions
            mem = hvector(6, 4, 8, BYTE)  # six 4B regions
            yield from f.write_at(0, mem, 1, None, method="posix")
            return f.counters.io_ops

        _, ops = run_one(lambda ctx, h: main(ctx, h))
        # stream boundaries: file at 6,12,18; mem at 4,8,12,16,20
        # pieces: 0-4,4-6,6-8,8-12,12-16,16-18,18-20,20-24 = 8
        assert ops == 8
