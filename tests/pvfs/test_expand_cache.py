"""Unit tests of the server-side expansion cache.

Equivalence at scale is covered by ``tests/test_expand_cache_property``;
here we pin the cache mechanics: hit/miss/eviction accounting, the LRU
bound in regions held, displacement normalization, the bypass path, the
seam-repairing coalescer, and the counters' trip through the server
pipeline stats — and, below the simulated cache, the host-level
:class:`ExpansionStore`: one walk per window for the whole file system,
read-only shared arrays, its own region bound, and simulated figures
pinned to the values the per-server expansion produced.
"""

import hashlib

import numpy as np
import pytest

import repro.pvfs.expand_cache as expand_cache_mod
from repro.bench import Block3DWorkload, FlashWorkload, Workload, run_workload
from repro.datatypes import BYTE, INT, contiguous, hindexed, subarray, vector
from repro.dataloops import DataloopStream, build_dataloop
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.distribution import Distribution, ServerSplit
from repro.pvfs.expand_cache import (
    ExpansionCache,
    ExpansionStore,
    _shift_split,
    coalesce_split,
    expand_window,
)
from repro.pvfs.protocol import DataloopWindow
from repro.regions import Regions
from repro.simulation import Environment

from ..reference.distribution import server_regions

BLOCK = subarray([16, 16], [8, 8], [4, 4], INT)
BATCH = 64


def make_win(loop, displacement=0, first=0, last=None):
    if last is None:
        last = loop.data_size
    return DataloopWindow(loop, displacement, first, last)


def reference(win, dist, server):
    split, _ = expand_window(
        win.loop,
        win.tile_count(),
        win.displacement,
        win.first,
        win.last,
        dist,
        server,
        BATCH,
    )
    return split


class TestEquivalence:
    @pytest.mark.parametrize("displacement", [0, 8, 96, 100, 1000])
    def test_exact_path_matches_uncached(self, displacement):
        loop = build_dataloop(BLOCK)
        dist = Distribution(3, 32)
        cache = ExpansionCache(1 << 16, 1 << 14)
        win = make_win(loop, displacement)
        for server in range(dist.n_servers):
            want = reference(win, dist, server)
            got, _, hit = cache.expand(win, dist, server, BATCH)
            assert not hit
            assert got == want
            again, scanned, hit = cache.expand(win, dist, server, BATCH)
            assert hit and scanned == 0
            assert again == want

    def test_periodic_path_matches_uncached(self):
        # extent is a multiple of the stripe period: every window with a
        # whole period inside it goes through the period entry
        loop = build_dataloop(subarray([8, 16], [4, 8], [2, 4], INT))
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1 << 14)
        ds = loop.data_size
        for first, last in [(0, 4 * ds), (ds // 2, 3 * ds + 5), (0, 8 * ds)]:
            win = DataloopWindow(loop, 0, first, last)
            for server in range(dist.n_servers):
                want = reference(win, dist, server)
                got, _, _ = cache.expand(win, dist, server, BATCH)
                assert got == want, (first, last, server)
        assert cache.hits > 0  # later windows reused the period entry

    def test_displacements_share_one_entry(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(3, 32)
        P = dist.strip_size * dist.n_servers
        cache = ExpansionCache(1 << 16, 1)  # force the exact path
        base = make_win(loop, 5)
        first, _, _ = cache.expand(base, dist, 1, BATCH)
        for k in (1, 2, 7):
            win = make_win(loop, 5 + k * P)
            want = reference(win, dist, 1)
            got, scanned, hit = cache.expand(win, dist, 1, BATCH)
            assert hit and scanned == 0
            assert got == want
            # same server share, shifted by one strip per period
            assert np.array_equal(
                got.regions.offsets,
                first.regions.offsets + k * dist.strip_size,
            )
        assert len(cache) == 1


class TestCounters:
    def test_hit_miss_accounting(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1 << 14)
        win = make_win(loop)
        cache.expand(win, dist, 0, BATCH)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.expand(win, dist, 0, BATCH)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.expand(win, dist, 1, BATCH)  # other server: its own entry
        assert (cache.hits, cache.misses) == (1, 2)

    def test_bytes_held_tracks_regions(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1 << 14)
        cache.expand(make_win(loop), dist, 0, BATCH)
        held = sum(cost for _, cost in cache._lru.values())
        assert cache.regions_held == held > 0
        assert cache.bytes_held == held * 24

    def test_bypass_paths_touch_nothing(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1 << 14)
        for win in [
            make_win(loop, displacement=-4),  # negative displacement
            make_win(loop, first=10, last=10),  # empty window
        ]:
            split, _, hit = cache.expand(win, dist, 0, BATCH)
            assert not hit
            assert split == reference(win, dist, 0)
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExpansionCache(0, 1)
        with pytest.raises(ValueError):
            ExpansionCache(1, 0)
        with pytest.raises(ValueError):
            PVFSConfig(expand_cache_max_regions=0)
        with pytest.raises(ValueError):
            PVFSConfig(expand_cache_period_regions=-1)


class TestEviction:
    def test_eviction_under_pressure(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        win = make_win(loop)
        need = reference(win, dist, 0).regions.count
        cache = ExpansionCache(2 * need, 1)  # room for ~2 entries
        # distinct d0 values -> distinct entries
        for d in range(8):
            cache.expand(make_win(loop, d), dist, 0, BATCH)
        assert cache.evictions > 0
        assert cache.regions_held <= cache.max_regions
        # results stay correct under churn
        got, _, _ = cache.expand(make_win(loop, 3), dist, 0, BATCH)
        assert got == reference(make_win(loop, 3), dist, 0)

    def test_lru_order(self):
        def entry(n):
            return ServerSplit(
                0,
                Regions.from_pairs([(i * 10, 4) for i in range(n)]),
                np.arange(n, dtype=np.int64) * 4,
            )

        cache = ExpansionCache(10, 1)
        cache._put("a", entry(4))
        cache._put("b", entry(4))
        cache._get("a")  # refresh: b becomes least recent
        cache._put("c", entry(4))  # over bound -> evicts b
        assert cache._get("a") is not None
        assert cache._get("b") is None
        assert cache._get("c") is not None
        assert cache.evictions == 1
        assert cache.regions_held == 8

    def test_reinsert_replaces_held_count(self):
        def entry(n):
            return ServerSplit(
                0,
                Regions.from_pairs([(i * 10, 4) for i in range(n)]),
                np.arange(n, dtype=np.int64) * 4,
            )

        cache = ExpansionCache(10, 1)
        cache._put("a", entry(4))
        cache._put("a", entry(6))
        assert cache.regions_held == 6 and len(cache) == 1

    def test_oversized_entry_never_inserted(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        cache = ExpansionCache(1, 1)
        cache.expand(make_win(loop), dist, 0, BATCH)
        assert len(cache) == 0 and cache.regions_held == 0
        assert cache.evictions == 0


class TestCoalesceSplit:
    @pytest.mark.parametrize("t", [BLOCK, vector(9, 2, 5, INT)])
    def test_identity_on_monolithic(self, t):
        loop = build_dataloop(t)
        dist = Distribution(3, 32)
        split = reference(make_win(loop), dist, 1)
        merged = coalesce_split(split, dist.strip_size)
        assert merged == split

    def test_repairs_seam_cut(self):
        # one 12-byte physical run cut at byte 4 (not a strip boundary)
        split = ServerSplit(
            0,
            Regions.from_pairs([(0, 4), (4, 8)]),
            np.array([0, 4], dtype=np.int64),
        )
        merged = coalesce_split(split, strip_size=32)
        assert merged.regions == Regions.single(0, 12)
        assert merged.stream_pos.tolist() == [0]

    def test_never_merges_across_strip_boundary(self):
        split = ServerSplit(
            0,
            Regions.from_pairs([(24, 8), (32, 8)]),
            np.array([0, 8], dtype=np.int64),
        )
        merged = coalesce_split(split, strip_size=32)
        assert merged.regions.count == 2

    def test_stream_gap_not_merged(self):
        split = ServerSplit(
            0,
            Regions.from_pairs([(0, 4), (4, 4)]),
            np.array([0, 100], dtype=np.int64),
        )
        merged = coalesce_split(split, strip_size=32)
        assert merged.regions.count == 2


class TestPipelineStats:
    def _run(self, **cfg):
        env = Environment()
        fs = PVFS(
            env, config=PVFSConfig(n_servers=2, strip_size=64, **cfg)
        )
        loop = build_dataloop(BLOCK)

        def main(c):
            fh = yield from c.open("/f")
            for _ in range(4):
                yield from c.read_dtype(fh, loop, phantom=True)

        client = fs.client("cn0")
        env.process(main(client), name="m")
        env.run()
        return fs

    def test_counters_surface_in_summary(self):
        fs = self._run()
        total = fs.pipeline_summary().total
        assert total.cache_misses == 2  # one per server
        assert total.cache_hits == 6  # three repeats x two servers
        assert total.cache_regions_held > 0
        assert total.cache_bytes_held == total.cache_regions_held * 24
        d = total.as_dict()
        assert d["cache_hits"] == 6 and d["cache_misses"] == 2

    def test_cache_off_reports_zero(self):
        fs = self._run(expand_cache=False)
        assert all(s.expand_cache is None for s in fs.servers)
        total = fs.pipeline_summary().total
        assert total.cache_hits == 0 and total.cache_misses == 0

    def test_hit_charges_hit_cost(self):
        # same workload, cache on vs off: hits replace scan time with
        # the (cheaper) lookup charge, so simulated time drops
        t_on = self._run().env.now
        t_off = self._run(expand_cache=False).env.now
        assert t_on < t_off


# ----------------------------------------------------------------------
# the host-level store beneath the simulated cache
# ----------------------------------------------------------------------
def irregular_view(seed, rank, blocks):
    """A random-gap ``hindexed`` view; no two (seed, rank) agree."""
    rng = np.random.default_rng([seed, rank])
    lens = rng.integers(8, 64, blocks)
    gaps = rng.integers(8, 256, blocks)
    disps = np.cumsum(lens + gaps) - lens - gaps[0]
    return hindexed(lens.tolist(), disps.tolist(), BYTE)


def from_scratch(loop, tiles, disp, first, last, dist, server, batch):
    """The per-server expansion as every daemon used to do it alone:
    its own stream walk, one server's share per batch."""
    stream = DataloopStream(
        loop, count=tiles, base_offset=disp, first=first, last=last,
        max_regions=batch,
    )
    parts, sposs, scanned, base = [], [], 0, 0
    for b in stream:
        scanned += b.count
        phys, lens, spos = server_regions(
            b.offsets, b.lengths, dist.n_servers, dist.strip_size, server
        )
        parts.append(Regions(phys, lens))
        sposs.append(spos + base)
        base += b.total_bytes
    split = ServerSplit(
        server,
        Regions.concat(parts),
        np.concatenate(sposs) if sposs else np.empty(0, dtype=np.int64),
    )
    return split, scanned


class TestStore:
    def test_second_server_walks_and_splits_nothing(self, monkeypatch):
        calls = {"walks": 0, "splits": 0}

        class CountingStream(DataloopStream):
            def __init__(self, *a, **kw):
                calls["walks"] += 1
                super().__init__(*a, **kw)

        real_split = Distribution.split

        def counting_split(self, regions, **kw):
            calls["splits"] += 1
            return real_split(self, regions, **kw)

        loop = build_dataloop(BLOCK)
        dist = Distribution(3, 32)
        args = (loop, 5, 40, 7, 5 * loop.data_size - 3)
        want = [
            from_scratch(*args, dist, s, 16)
            for s in range(dist.n_servers)
        ]
        monkeypatch.setattr(expand_cache_mod, "DataloopStream", CountingStream)
        monkeypatch.setattr(Distribution, "split", counting_split)

        store = ExpansionStore(1 << 16)
        got0 = expand_window(*args, dist, 0, 16, store=store)
        first = dict(calls)
        assert first["walks"] == 1 and first["splits"] >= 2  # several batches
        for server in (1, 2, 0):
            split, scanned = expand_window(
                *args, dist, server, 16, store=store
            )
            assert calls == first, "a later server redid host work"
            assert split == want[server][0]
            assert scanned == want[server][1]
        assert got0[0] == want[0][0]

    def test_standalone_call_equals_shared(self):
        loop = build_dataloop(vector(9, 2, 5, INT))
        dist = Distribution(2, 16)
        store = ExpansionStore(1 << 16)
        for server in range(2):
            alone = expand_window(loop, 3, 4, 0, 3 * loop.data_size, dist, server, 8)
            shared = expand_window(
                loop, 3, 4, 0, 3 * loop.data_size, dist, server, 8, store=store
            )
            assert alone[0] == shared[0] and alone[1] == shared[1]
        assert len(store) == 1

    def test_shared_arrays_are_read_only(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1)  # force the exact path
        for split in (
            expand_window(loop, 1, 0, 0, loop.data_size, dist, 0, BATCH)[0],
            cache.expand(make_win(loop), dist, 0, BATCH)[0],  # miss
            cache.expand(make_win(loop), dist, 0, BATCH)[0],  # hit, shift 0
        ):
            for arr in (
                split.regions.offsets, split.regions.lengths, split.stream_pos
            ):
                with pytest.raises(ValueError):
                    arr[0] += 1

    def test_writable_results_never_alias_the_store(self):
        # whatever a daemon may edit in place (period assembly, shifted
        # hits) is its own copy
        loop = build_dataloop(subarray([8, 16], [4, 8], [2, 4], INT))
        dist = Distribution(2, 16)
        cache = ExpansionCache(1 << 16, 1 << 14)
        ds = loop.data_size
        outs = [
            cache.expand(DataloopWindow(loop, d, first, last), dist, s, BATCH)[0]
            for d in (0, 32)
            for first, last in [(0, 4 * ds), (ds // 2, 3 * ds + 5)]
            for s in range(2)
            for _ in range(2)
        ]
        held = [
            arr
            for splits, _ in (ent for ent, _ in cache.store._lru.values())
            for sp in splits.values()
            for arr in (sp.regions.offsets, sp.regions.lengths, sp.stream_pos)
        ]
        assert held and not any(a.flags.writeable for a in held)
        for split in outs:
            for arr in (
                split.regions.offsets, split.regions.lengths, split.stream_pos
            ):
                if arr.flags.writeable:
                    assert not any(np.shares_memory(arr, h) for h in held)

    def test_derived_splits_are_fresh_arrays(self):
        loop = build_dataloop(BLOCK)
        dist = Distribution(2, 16)
        shared = expand_window(loop, 1, 0, 0, loop.data_size, dist, 0, BATCH)[0]
        before = (
            shared.regions.offsets.copy(), shared.stream_pos.copy()
        )
        shifted = _shift_split(shared, 64)
        seam = ServerSplit(
            0,
            Regions(
                np.array([0, 4, 40], dtype=np.int64),
                np.array([4, 8, 4], dtype=np.int64),
                _trusted=True,
            ),
            np.array([0, 4, 12], dtype=np.int64),
        )
        for a in (seam.regions.offsets, seam.regions.lengths, seam.stream_pos):
            a.setflags(write=False)
        merged = coalesce_split(seam, 32)
        joined = Regions.concat([shared.regions, seam.regions])
        for fresh, source in [
            (shifted.regions.offsets, shared.regions.offsets),
            (merged.regions.offsets, seam.regions.offsets),
            (merged.regions.lengths, seam.regions.lengths),
            (merged.stream_pos, seam.stream_pos),
            (joined.offsets, shared.regions.offsets),
            (joined.lengths, shared.regions.lengths),
        ]:
            assert fresh.flags.writeable
            assert not np.shares_memory(fresh, source)
            fresh[0] += 1  # must not reach the shared arrays
        assert np.array_equal(shared.regions.offsets, before[0])
        assert np.array_equal(shared.stream_pos, before[1])
        assert seam.regions.offsets.tolist() == [0, 4, 40]

    def test_region_bound_holds_and_oversized_is_used_then_dropped(self):
        dist = Distribution(4, 256)
        bound = 96
        store = ExpansionStore(bound)
        loops = [build_dataloop(irregular_view(5, r, 40)) for r in range(8)]
        for rep in range(3):
            for r, loop in enumerate(loops):
                first = (rep * 7) % loop.data_size
                for server in range(dist.n_servers):
                    got = expand_window(
                        loop, 1, r * 4096, first, loop.data_size, dist,
                        server, BATCH, store=store,
                    )
                    want = from_scratch(
                        loop, 1, r * 4096, first, loop.data_size, dist,
                        server, BATCH,
                    )
                    assert got[0] == want[0] and got[1] == want[1]
                    assert store.regions_held <= bound
        assert store.evictions > 0 and len(store) > 0
        # one window bigger than the whole bound: answered, not kept
        big = build_dataloop(irregular_view(5, 99, 400))
        held, entries = store.regions_held, len(store)
        got = expand_window(
            big, 1, 0, 0, big.data_size, dist, 2, BATCH, store=store
        )
        assert got[0] == from_scratch(
            big, 1, 0, 0, big.data_size, dist, 2, BATCH
        )[0]
        assert sum(
            expand_window(
                big, 1, 0, 0, big.data_size, dist, s, BATCH, store=store
            )[0].regions.count
            for s in range(4)
        ) > bound
        assert (store.regions_held, len(store)) == (held, entries)

    def test_two_file_systems_share_nothing(self):
        loop = build_dataloop(BLOCK)

        def run(fs):
            def main(c):
                fh = yield from c.open("/f")
                yield from c.read_dtype(fh, loop, phantom=True)

            fs.env.process(main(fs.client("cn0")), name="m")
            fs.env.run()

        cfg = PVFSConfig(n_servers=2, strip_size=64)
        a = PVFS(Environment(), config=cfg)
        b = PVFS(Environment(), config=cfg)
        assert a.expansions is not b.expansions
        assert all(s.expand_cache.store is a.expansions for s in a.servers)
        run(a)
        assert len(a.expansions) > 0 and len(b.expansions) == 0
        run(b)
        for ka, kb in zip(a.expansions._lru, b.expansions._lru):
            ea, eb = a.expansions._lru[ka][0], b.expansions._lru[kb][0]
            assert ea is not eb


class _Irregular(Workload):
    """Every rank reads its own :func:`irregular_view`."""

    name = "irregular"
    path = "/irregular"

    def __init__(self, seed, n_clients, blocks):
        self.n_clients = n_clients
        self._views = [irregular_view(seed, r, blocks) for r in range(n_clients)]
        self._span = max(v.extent for v in self._views)
        self._mem = contiguous(min(v.size for v in self._views), BYTE)

    def filetype(self, rank):
        return self._views[rank]

    def memtype(self, rank):
        return self._mem

    def displacement(self, rank, rep):
        return rank * self._span


#: block3d + FLASH + irregular, independent and collective; the last
#: cell's tiny bounds force period fallback and evictions.
MINI_RUN = [
    (lambda: Block3DWorkload(grid=24, clients_per_dim=2), "datatype_io", {}),
    (lambda: Block3DWorkload(grid=24, clients_per_dim=2, is_write=True),
     "collective_dtype", {}),
    (lambda: FlashWorkload(n_clients=4, nblocks=2), "datatype_io", {}),
    (lambda: FlashWorkload(n_clients=4, nblocks=2), "collective_dtype", {}),
    (lambda: _Irregular(11, 4, 96), "datatype_io",
     {"expand_cache_period_regions": 24}),
    (lambda: _Irregular(12, 4, 96), "datatype_io",
     {"expand_cache_period_regions": 24, "expand_cache_max_regions": 40}),
]


def mini_run_ledger(threads, cache_on):
    """Per-server simulated cache counters and stage seconds of the
    mini-run: ``(hits, misses, evictions, regions_scanned)`` totals for
    reading, a digest over every server's exact values for pinning."""
    rows = []
    for make, method, extra in MINI_RUN:
        cfg = PVFSConfig(
            n_servers=4, strip_size=1024, server_threads=threads,
            expand_cache=cache_on, **extra,
        )
        r = run_workload(make(), method, config=cfg)
        for s in r.servers:
            st = s.stage_times
            rows.append((
                st.cache_hits, st.cache_misses, st.cache_evictions,
                s.regions_scanned, st.requests,
                *(getattr(st, f).hex() for f in st.stage_fields()),
            ))
    totals = tuple(sum(row[i] for row in rows) for i in range(4))
    return totals, hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: Recorded at the parent commit (ec08383), where every daemon expanded
#: every window by itself.  The store is host-only: nothing here moves.
PARENT_LEDGER = {
    (1, True): ((36, 108, 12, 12288), "4038ff40eff07337"),
    (1, False): ((0, 0, 0, 12864), "4af94b15c81be711"),
    (4, True): ((36, 108, 12, 12288), "753506023855d7b2"),
    (4, False): ((0, 0, 0, 12864), "bba8cbd7e0060643"),
}


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("cache_on", [True, False])
def test_simulated_figures_pinned_to_parent(threads, cache_on):
    assert mini_run_ledger(threads, cache_on) == PARENT_LEDGER[threads, cache_on]
