"""The paper's §5 future-work extensions, implemented and tested.

* datatype caching (client conversion/expansion cache + server-side
  dataloop registration handles);
* list/datatype I/O underneath two-phase for holey aggregator rounds.
"""

import numpy as np
import pytest

from repro.datatypes import BYTE, contiguous, hvector, subarray
from repro.mpiio import File, Hints, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment


def run_ranks(n, rank_main, hints=None, **cfg):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=256)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, n)
    return fs, mpi.run(rank_main)


class TestDatatypeCache:
    def _frames_main(self, frames):
        def rank_main(ctx):
            f = yield from File.open(ctx, "/frames")
            ft = subarray([32, 32], [16, 16], [8, 8], BYTE)
            for rep in range(frames):
                f.set_view(rep * 1024, BYTE, ft)
                yield from f.read_at(
                    0, contiguous(256, BYTE), 1, None,
                    method="datatype_io",
                )
            return (
                ctx.fs.counters.request_desc_bytes,
                ctx.env.now,
            )

        return rank_main

    def test_cache_reduces_wire_and_time(self):
        frames = 10
        fs_off, res_off = run_ranks(
            1, self._frames_main(frames), datatype_cache=False
        )
        fs_on, res_on = run_ranks(
            1, self._frames_main(frames), datatype_cache=True
        )
        wire_off, t_off = res_off[0]
        wire_on, t_on = res_on[0]
        assert wire_on < wire_off  # handles instead of dataloops
        assert t_on < t_off  # no reconversion/re-expansion

    def test_cache_first_use_still_ships_dataloop(self):
        fs_on, res = run_ranks(1, self._frames_main(1), datatype_cache=True)
        fs_off, res2 = run_ranks(1, self._frames_main(1), datatype_cache=False)
        # single operation: nothing to cache yet, wire identical
        assert res[0][0] == res2[0][0]

    def test_cache_preserves_data(self, rng):
        data = rng.integers(0, 255, 4096, dtype=np.uint8)
        outs = {}
        for cached in (False, True):

            def rank_main(ctx):
                f = yield from File.open(ctx, "/d")
                ft = hvector(64, 32, 64, BYTE)
                f.set_view(0, BYTE, ft)
                mt = contiguous(2048, BYTE)
                yield from f.write_at(0, mt, 1, data[:2048].copy(),
                                      method="datatype_io")
                out = np.zeros(2048, np.uint8)
                # repeat reads exercise the expansion cache
                for _ in range(3):
                    yield from f.read_at(0, mt, 1, out, method="datatype_io")
                return out

            _, res = run_ranks(1, rank_main, datatype_cache=cached)
            outs[cached] = res[0]
        assert np.array_equal(outs[False], outs[True])
        assert np.array_equal(outs[True], data[:2048])

    def test_freed_view_is_not_mistaken_for_a_new_one(self, rng):
        """Each ``set_view`` builds a loop and drops the last one, so a
        new loop often lands at a freed loop's address: the cache must
        answer by content, not by ``id()``."""
        data = rng.integers(0, 255, 32 * 128, dtype=np.uint8)
        strides = [64, 128, 64, 128, 96, 64, 128, 80]

        def rank_main(ctx):
            f = yield from File.open(ctx, "/reuse")
            f.set_view(0, BYTE, contiguous(data.size, BYTE))
            yield from f.write_at(0, contiguous(data.size, BYTE), 1, data)
            outs = []
            for s in strides:
                f.set_view(0, BYTE, hvector(32, 16, s, BYTE))
                out = np.zeros(512, np.uint8)
                yield from f.read_at(
                    0, contiguous(512, BYTE), 1, out, method="datatype_io"
                )
                outs.append(out)
            return outs

        _, res = run_ranks(1, rank_main, datatype_cache=True)
        for s, out in zip(strides, res[0]):
            picked = (np.arange(32)[:, None] * s + np.arange(16)).ravel()
            assert np.array_equal(out, data[picked]), s


class TestTwoPhaseSparseMethods:
    def _sparse_main(self, hints):
        """Every rank writes 8 bytes every 64·size: union has holes."""

        def rank_main(ctx):
            f = yield from File.open(ctx, "/sparse", hints)
            ft = hvector(16, 8, 64 * ctx.size, BYTE)
            f.set_view(ctx.rank * 64, BYTE, ft)
            buf = np.full(128, 50 + ctx.rank, dtype=np.uint8)
            yield from f.write_at_all(0, contiguous(128, BYTE), 1, buf)
            return f.counters

        return rank_main

    @pytest.mark.parametrize("method", ["rmw", "datatype_io"])
    def test_sparse_write_correct(self, method):
        hints = Hints(tp_sparse_method=method)
        fs, _ = run_ranks(2, self._sparse_main(hints))
        handle = fs.metadata.files["/sparse"].handle
        got = fs.read_back(handle, 0, 2 * 64 * 16)
        for r in range(2):
            for k in range(16):
                base = r * 64 + k * 128
                assert (got[base : base + 8] == 50 + r).all(), (r, k)

    @pytest.mark.parametrize("method", ["datatype_io"])
    def test_sparse_methods_avoid_reads(self, method):
        hints = Hints(tp_sparse_method=method)
        fs, _ = run_ranks(2, self._sparse_main(hints))
        assert fs.total_server_stats()["bytes_read"] == 0

    def test_rmw_reads_gaps(self):
        fs, _ = run_ranks(2, self._sparse_main(Hints()))
        assert fs.total_server_stats()["bytes_read"] > 0

    def test_sparse_methods_write_less(self):
        written = {}
        for method in ("rmw", "datatype_io"):
            hints = Hints(tp_sparse_method=method)
            fs, _ = run_ranks(2, self._sparse_main(hints))
            written[method] = fs.total_server_stats()["bytes_written"]
        # rmw writes whole spans (incl. gaps); datatype only the data
        assert written["datatype_io"] < written["rmw"]
        assert written["datatype_io"] == 2 * 128

    def test_sparse_phantom_mode(self):
        hints = Hints(tp_sparse_method="datatype_io")

        def rank_main(ctx):
            f = yield from File.open(ctx, "/ph", hints)
            ft = hvector(16, 8, 64 * ctx.size, BYTE)
            f.set_view(ctx.rank * 64, BYTE, ft)
            yield from f.write_at_all(0, contiguous(128, BYTE), 1, None)
            return f.counters.accessed_bytes

        _, accessed = run_ranks(2, rank_main)
        assert all(a == 128 for a in accessed)
