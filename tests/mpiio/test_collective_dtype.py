"""Collective datatype I/O: aggregator semantics and data correctness.

Four contracts of the sixth access method:

* fingerprint dedup at the aggregators — FLASH's all-identical views
  collapse to one (``views_merged == size - 1``), fully distinct views
  collapse not at all;
* the data path issues O(servers·rounds) aggregated requests per
  collective, constant in the rank count (asserted from the servers'
  own request counters);
* a single-rank collective degenerates to the independent datatype
  path bit for bit;
* written bytes survive a full write → readback roundtrip, both
  through the collective read path and through an independent method,
  under every scheduler configuration (serial, threaded, tenanted),
  and with ranks of unequal sizes over several rounds, armed or not.

Two host-side ones: a collective is planned once, not once per rank,
and a phantom rank keeps only its round matrix while it waits.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload
from repro.datatypes import BYTE, DOUBLE, INT, contiguous, hindexed, subarray, vector
from repro.faults import severity_config
from repro.mpiio import File, Hints, SimMPI
from repro.mpiio.methods import collective
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.config import TenantConfig
from repro.simulation import Environment

from ..conftest import traced_peak

MIB = 2**20

pytestmark = []


def run_ranks(n, rank_main, ppn=2, tenant_of=None, **cfg):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=256)
    defaults.update(cfg)
    fs = PVFS(env, config=PVFSConfig(**defaults))
    mpi = SimMPI(fs, n, procs_per_node=ppn, tenant_of=tenant_of)
    return fs, mpi.run(rank_main)


def counter_value(fs, name):
    fam = fs.metrics.registry.families.get(name)
    if fam is None:
        return None
    return sum(inst.value for _, inst in fam.labeled())


def server_requests(fs):
    return sum(s.stage_times.requests for s in fs.servers)


# ----------------------------------------------------------------------
# aggregator dedup
# ----------------------------------------------------------------------
class TestViewDedup:
    NV, NC = 3, 16

    def _flash_main(self, check_independent=False):
        nv, nc = self.NV, self.NC

        def rank_main(ctx):
            f = yield from File.open(ctx, "/flash", Hints())
            # FLASH decomposition: every rank has the *same* filetype
            # (identical dataloop fingerprint), shifted by displacement
            ft = vector(nv, nc, ctx.size * nc, DOUBLE)
            f.set_view(ctx.rank * nc * 8, BYTE, ft)
            rng = np.random.default_rng(300 + ctx.rank)
            buf = rng.integers(0, 255, nv * nc * 8, dtype=np.uint8)
            yield from f.write_at_all(
                0, contiguous(nv * nc * 8, BYTE), 1, buf,
                method="collective_dtype",
            )
            out = np.zeros_like(buf)
            yield from f.read_at_all(
                0, contiguous(nv * nc * 8, BYTE), 1, out,
                method="collective_dtype",
            )
            ok = np.array_equal(out, buf)
            if check_independent:
                out2 = np.zeros_like(buf)
                yield from f.read_at(
                    0, contiguous(nv * nc * 8, BYTE), 1, out2,
                    method="datatype_io",
                )
                ok = ok and np.array_equal(out2, buf)
            return ok

        return rank_main

    def test_identical_views_collapse(self):
        n = 4
        fs, results = run_ranks(
            n, self._flash_main(check_independent=True), metrics=True
        )
        assert all(results)
        # two collective ops (write + read), each merges n-1 views
        assert counter_value(fs, "repro_collective_views_merged") == 2 * (n - 1)
        assert counter_value(fs, "repro_collective_requests_saved") > 0

    def test_distinct_views_do_not_collapse(self):
        N = 32

        def rank_main(ctx):
            f = yield from File.open(ctx, "/grid", Hints())
            cols = N // ctx.size
            # per-rank subarray: every fingerprint distinct
            ft = subarray([N, N], [N, cols], [0, ctx.rank * cols], BYTE)
            f.set_view(0, BYTE, ft)
            buf = np.full(N * cols, 10 + ctx.rank, dtype=np.uint8)
            yield from f.write_at_all(
                0, contiguous(N * cols, BYTE), 1, buf,
                method="collective_dtype",
            )
            return True

        fs, results = run_ranks(4, rank_main, metrics=True)
        assert all(results)
        assert counter_value(fs, "repro_collective_views_merged") == 0
        # aggregation still collapses requests even without view dedup
        assert counter_value(fs, "repro_collective_requests_saved") > 0
        # and the bytes landed where a plain decomposition puts them
        handle = fs.metadata.files["/grid"].handle
        got = fs.read_back(handle, 0, N * N).reshape(N, N)
        cols = N // 4
        for rank in range(4):
            block = got[:, rank * cols : (rank + 1) * cols]
            assert (block == 10 + rank).all(), rank


# ----------------------------------------------------------------------
# O(servers) aggregated requests
# ----------------------------------------------------------------------
class TestRequestScaling:
    BLOCK = 4096  # spans all 4 servers at strip 256, single round

    def _run(self, n):
        def rank_main(ctx):
            f = yield from File.open(ctx, "/o", Hints())
            f.set_view(ctx.rank * self.BLOCK, BYTE, contiguous(self.BLOCK, BYTE))
            buf = np.full(self.BLOCK, ctx.rank % 251, dtype=np.uint8)
            yield from f.write_at_all(
                0, contiguous(self.BLOCK, BYTE), 1, buf,
                method="collective_dtype",
            )
            return True

        fs, results = run_ranks(n, rank_main, metrics=True)
        assert all(results)
        return fs

    def test_requests_constant_in_rank_count(self):
        """The whole collective costs one data-path request per
        (server, round) — here one round, so exactly ``n_servers``
        requests hit the daemons whether 4 or 8 ranks participate."""
        small = self._run(4)
        large = self._run(8)
        n_servers = len(small.servers)
        assert server_requests(small) == n_servers
        assert server_requests(large) == n_servers
        # the independent path would have cost ranks × servers
        assert (
            counter_value(large, "repro_collective_requests_saved")
            == 8 * n_servers - n_servers
        )


# ----------------------------------------------------------------------
# single-rank degeneration
# ----------------------------------------------------------------------
class TestSingleRankDegenerates:
    def _run(self, collective):
        env = Environment()
        fs = PVFS(env, config=PVFSConfig(n_servers=4, strip_size=256))
        mpi = SimMPI(fs, 1)
        nbytes = 32 * 2 * 4

        def rank_main(ctx):
            f = yield from File.open(ctx, "/one", Hints())
            f.set_view(0, BYTE, vector(32, 2, 6, INT))
            rng = np.random.default_rng(9)
            buf = rng.integers(0, 255, nbytes, dtype=np.uint8)
            mt = contiguous(nbytes, BYTE)
            if collective:
                yield from f.write_at_all(
                    0, mt, 1, buf, method="collective_dtype"
                )
            else:
                yield from f.write_at(0, mt, 1, buf, method="datatype_io")
            out = np.zeros_like(buf)
            if collective:
                yield from f.read_at_all(
                    0, mt, 1, out, method="collective_dtype"
                )
            else:
                yield from f.read_at(0, mt, 1, out, method="datatype_io")
            return np.array_equal(out, buf)

        results = mpi.run(rank_main)
        assert all(results)
        handle = fs.metadata.files["/one"].handle
        stats = [
            (
                s.stage_times.requests,
                s.ops,
                s.accesses_built,
                s.regions_scanned,
                s.bytes_read,
                s.bytes_written,
                s.stage_times.as_dict(),
            )
            for s in fs.servers
        ]
        return env.now, stats, bytes(fs.read_back(handle, 0, 32 * 6 * 4))

    def test_bit_identical_to_datatype_io(self):
        """size == 1: nothing to aggregate — the collective must
        delegate to independent datatype I/O with identical timing,
        identical server work, identical file bytes."""
        coll = self._run(collective=True)
        indep = self._run(collective=False)
        assert coll == indep


# ----------------------------------------------------------------------
# roundtrips across scheduler configurations
# ----------------------------------------------------------------------
TWO_TENANTS = (TenantConfig(name="a"), TenantConfig(name="b"))

SCHED_CONFIGS = {
    "serial": {},
    "threaded": dict(server_threads=4),
    "tenanted": dict(tenants=TWO_TENANTS),
    "threaded-tenanted": dict(server_threads=4, tenants=TWO_TENANTS),
}


@pytest.mark.parametrize("cfg_name", sorted(SCHED_CONFIGS))
def test_roundtrip_every_scheduler(cfg_name):
    cfg = SCHED_CONFIGS[cfg_name]
    N = 32
    n = 4

    def rank_main(ctx):
        f = yield from File.open(ctx, "/rt", Hints())
        cols = N // ctx.size
        ft = subarray([N, N], [N, cols], [0, ctx.rank * cols], BYTE)
        f.set_view(0, BYTE, ft)
        rng = np.random.default_rng(500 + ctx.rank)
        buf = rng.integers(0, 255, N * cols, dtype=np.uint8)
        yield from f.write_at_all(
            0, contiguous(N * cols, BYTE), 1, buf, method="collective_dtype"
        )
        out = np.zeros_like(buf)
        yield from f.read_at_all(
            0, contiguous(N * cols, BYTE), 1, out, method="collective_dtype"
        )
        out2 = np.zeros_like(buf)
        yield from f.read_at(
            0, contiguous(N * cols, BYTE), 1, out2, method="datatype_io"
        )
        return np.array_equal(out, buf) and np.array_equal(out2, buf)

    tenant_of = (lambda r: r % 2) if cfg.get("tenants") else None
    _, results = run_ranks(n, rank_main, tenant_of=tenant_of, **cfg)
    assert all(results)


@pytest.mark.parametrize("rounds", [1, 3])
def test_multi_round_pipelining(rounds):
    """Round cutting must not corrupt data: shrink the round size so a
    modest write spans several pipelined rounds (plus drain cascade)."""
    per_rank = 8192
    hints = Hints(coll_round_bytes=per_rank if rounds == 1 else 2048)

    def rank_main(ctx):
        f = yield from File.open(ctx, "/mr", hints)
        f.set_view(ctx.rank * per_rank, BYTE, contiguous(per_rank, BYTE))
        rng = np.random.default_rng(700 + ctx.rank)
        buf = rng.integers(0, 255, per_rank, dtype=np.uint8)
        yield from f.write_at_all(
            0, contiguous(per_rank, BYTE), 1, buf, method="collective_dtype"
        )
        out = np.zeros_like(buf)
        yield from f.read_at_all(
            0, contiguous(per_rank, BYTE), 1, out, method="collective_dtype"
        )
        return np.array_equal(out, buf)

    _, results = run_ranks(4, rank_main)
    assert all(results)


# ----------------------------------------------------------------------
# ranks of unequal sizes: one plan, distinct round cuts, real bytes
# ----------------------------------------------------------------------
def irregular_views(n_ranks):
    """``(view, lengths, displacements)`` per rank: a random-gap
    ``hindexed`` view, each with more blocks than the last, so every
    rank carries a different byte count."""
    views = []
    for rank in range(n_ranks):
        rng = np.random.default_rng([7, rank])
        blocks = 40 + 20 * rank
        lens = rng.integers(8, 64, blocks)
        gaps = rng.integers(8, 256, blocks)
        disps = np.cumsum(lens + gaps) - lens - gaps[0]
        views.append((hindexed(lens.tolist(), disps.tolist(), BYTE), lens, disps))
    return views


def run_irregular(n_ranks, faults=None):
    """Write then read back every rank's irregular view collectively
    in 1 KiB rounds; returns the file system, each rank's
    ``(view, lengths, displacements)``, its buffer, what it read back
    and its view's displacement."""
    blocks = irregular_views(n_ranks)
    views = [view for view, _, _ in blocks]
    span = max(v.extent for v in views)
    bufs = [
        np.random.default_rng([9, r]).integers(0, 256, v.size, dtype=np.uint8)
        for r, v in enumerate(views)
    ]
    hints = Hints(coll_round_bytes=1024)

    def rank_main(ctx):
        f = yield from File.open(ctx, "/irregular", hints)
        ft = views[ctx.rank]
        f.set_view(ctx.rank * span, BYTE, ft)
        mt = contiguous(ft.size, BYTE)
        yield from f.write_at_all(
            0, mt, 1, bufs[ctx.rank], method="collective_dtype"
        )
        out = np.zeros(ft.size, np.uint8)
        yield from f.read_at_all(0, mt, 1, out, method="collective_dtype")
        return out

    fs, outs = run_ranks(n_ranks, rank_main, faults=faults)
    return fs, blocks, bufs, outs, [r * span for r in range(n_ranks)]


class TestUnequalRanks:
    N = 4

    def test_plan_is_built_once(self, monkeypatch):
        """One plan per collective, and round cuts once per rank (its
        own) plus once per distinct byte count — not once per rank per
        rank."""
        plans, cut_calls = [], []
        plan_init = collective.CollPlan.__init__
        cuts = collective.round_cuts

        def counting_init(self, *args, **kwargs):
            plans.append(self)
            plan_init(self, *args, **kwargs)

        def counting_cuts(*args):
            cut_calls.append(args)
            return cuts(*args)

        monkeypatch.setattr(collective.CollPlan, "__init__", counting_init)
        monkeypatch.setattr(collective, "round_cuts", counting_cuts)
        _, _, bufs, outs, _ = run_irregular(self.N)
        assert all(np.array_equal(o, b) for o, b in zip(outs, bufs))
        distinct = len({b.size for b in bufs})
        assert distinct == self.N
        # a write and a read
        assert len(plans) == 2
        assert len(cut_calls) == 2 * (self.N + distinct)

    @pytest.mark.parametrize("fault_seed", [None, 1], ids=["unarmed", "moderate"])
    def test_every_byte_lands_and_reads_back(self, fault_seed):
        """Checked against plain numpy slicing of the file image.  The
        ``moderate`` preset (with the patient ladder of ROADMAP 7) drops
        write segments and read scatter segments, so the resent segments
        and the re-fetched ones are cut and scattered too."""
        faults = None
        if fault_seed is not None:
            faults = dataclasses.replace(
                severity_config("moderate", fault_seed), rpc_timeout=1.0
            )
        fs, blocks, bufs, outs, views_at = run_irregular(self.N, faults)
        assert all(
            len(collective.round_cuts(b.size, 1024)) - 1 >= 3 for b in bufs
        )
        _, lens, disps = blocks[-1]
        image = np.zeros(views_at[-1] + disps[-1] + lens[-1], np.uint8)
        for (_, lens, disps), buf, at in zip(blocks, bufs, views_at):
            pos = 0
            for length, off in zip(lens.tolist(), disps.tolist()):
                image[at + off : at + off + length] = buf[pos : pos + length]
                pos += length
        handle = fs.metadata.files["/irregular"].handle
        assert np.array_equal(fs.read_back(handle, 0, image.size), image)
        for out, buf in zip(outs, bufs):
            assert np.array_equal(out, buf)
        if faults is not None:
            resent = {
                ev.info["what"] for ev in fs.faults.events
                if ev.kind == "coll.resend"
            }
            assert resent == {"segment", "fetch"}


# ----------------------------------------------------------------------
# host memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "is_write, bound_mib", [(False, 8.5), (True, 9.0)], ids=["read", "write"]
)
def test_phantom_block3d_keeps_only_its_round_matrix(is_write, bound_mib):
    """64 phantom ranks of a 120³ Block3D collective.  While a rank
    waits for its collective to complete it holds its round matrix,
    not its expanded view and per-server shares, and the plan is one
    for all ranks.  Traced peak when every rank kept both and
    re-planned the collective: 12.0 MiB (read), 12.3 MiB (write); now
    7.6 and 8.1 MiB; 8.9 MiB (read) if a phantom rank keeps its shares
    to the end."""
    wl = Block3DWorkload(grid=120, clients_per_dim=4, is_write=is_write)
    result, peak = traced_peak(lambda: run_workload(wl, "collective_dtype"))
    assert result.n_clients == 64
    assert peak < bound_mib * MIB, f"traced peak {peak / MIB:.1f} MiB"
