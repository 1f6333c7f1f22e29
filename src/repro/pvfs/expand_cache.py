"""Server-side dataloop expansion cache.

The paper's workloads ship the *same* dataloop from every client on
every iteration — only the window and displacement differ.  Expanding
it anew per request (partial processing + striping split) is the
dominant server-side CPU term for structured access (§3.2, and the
list-I/O analysis of *Noncontiguous I/O through PVFS*).  This module
caches the result: the :class:`~repro.pvfs.distribution.ServerSplit`
(physical regions + stream positions) an expansion produces.

Two complementary entry kinds live in one LRU, bounded by total regions
held (``expand_cache_max_regions``), not entry count:

* **exact entries** — keyed by ``(fingerprint, displacement mod P,
  n_servers, strip_size, first, last, tile_count)`` where
  ``P = strip_size * n_servers`` (the stripe period).  Round-robin
  striping is periodic in ``P``: shifting an access by a multiple of
  ``P`` keeps the same server and shifts physical offsets by
  ``strip_size`` per stripe, so entries are stored at the
  ``displacement mod P`` basis and shifted on hit — displacements that
  differ by whole stripes share one entry.
* **period entries** — keyed by ``(fingerprint, displacement mod P,
  n_servers, strip_size)`` alone.  A loop tiled with extent ``e`` meets
  the stripe pattern with period ``L = lcm(e, P)``: ``m = L // e``
  instances (``m * data_size`` stream bytes) after which this server's
  split repeats exactly, shifted by ``(L // P) * strip_size`` physical
  bytes per period.  One period's split is cached and *any* window over
  the same view is assembled as head + broadcast-tiled body + tail —
  different clients' windows hit the same entry instead of creating
  distinct ones.

Assembling from pieces cuts regions at seams that a monolithic
expansion would have coalesced; :func:`coalesce_split` repairs exactly
those seams (stream-contiguous, physically contiguous, not on a strip
boundary), provably reproducing the monolithic result — the striping
split never merges across strip boundaries and the physical→logical map
is a bijection per server, so mid-strip physical contiguity implies
logical contiguity.

The cache-off path (:func:`expand_window` with ``aligned=False``) is
the pre-cache expansion, bit for bit.

Two levels, never mixed.  :class:`ExpansionCache` is *simulated*: what
one modelled daemon remembers and what it is charged (keys, LRU,
hit/miss/eviction counters, ``scanned``, ``server_cache_hit_cost``).
:class:`ExpansionStore` is *host only*: :func:`expand_window` is a pure
function whose result is the same on every server up to "which share",
so one store per file system walks the stream once, splits each batch
for all servers in one pass and lets every daemon read its share — the
N-fold repetition of §3.2 is paid on the simulated clock, not in
Python.  The simulation cannot observe the store: it charges nothing
and feeds no counter.

Map to the paper and the rest of the stack:

* :func:`expand_window` — the paper's §3.2 partial-processing loop
  (bounded-batch dataloop expansion) fused with the per-server striping
  intersection; what ``server_region_scan_cost`` meters.
* :class:`ExpansionStore` — the host memo under it, owned by the
  ``PVFS`` instance and shared by its daemons (cache on or off).
* :class:`ExpansionCache` — the memo over that expansion; an
  optimization *on top of* the paper's design exploiting its insight
  that the dataloop (the file view) is reused across iterations while
  only the window moves.  Owned per server, consulted by
  ``DatatypeHandler.plan`` (``repro.pvfs.pipeline``).
* :func:`coalesce_split` — the seam repair making piecewise assembly
  indistinguishable from monolithic expansion.

Cost attribution is exclusive: a hit charges the flat
``server_cache_hit_cost`` to the pipeline's *cache* stage while the
plan stage keeps only real construction work — ``StageTimes.cache``
and the ``server.cache`` trace span (``docs/observability.md``) make
the saved scan time directly visible in ``repro-bench json``/``trace``.
Hit/miss/eviction/bytes-held counters surface through
``PVFS.pipeline_summary()``.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from ..dataloops import DataloopStream, Dataloop
from ..regions import Regions
from .distribution import Distribution, ServerSplit

__all__ = ["ExpansionCache", "ExpansionStore", "expand_window", "coalesce_split"]

_I64 = np.int64


class _RegionLRU:
    """LRU bounded by total regions held, not entry count.  An entry
    whose cost alone exceeds the bound is never inserted."""

    def __init__(self, max_regions: int):
        if max_regions < 1:
            raise ValueError("max_regions must be positive")
        self.max_regions = int(max_regions)
        self._lru: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.evictions = 0
        self.regions_held = 0

    def __len__(self) -> int:
        return len(self._lru)

    def _get(self, key):
        ent = self._lru.get(key)
        if ent is None:
            return None
        self._lru.move_to_end(key)
        return ent[0]

    def _insert(self, key, value, cost: int) -> None:
        if cost > self.max_regions:
            return
        old = self._lru.pop(key, None)
        if old is not None:
            self.regions_held -= old[1]
        while self._lru and self.regions_held + cost > self.max_regions:
            _, (_, evicted_cost) = self._lru.popitem(last=False)
            self.regions_held -= evicted_cost
            self.evictions += 1
        self._lru[key] = (value, cost)
        self.regions_held += cost


class ExpansionStore(_RegionLRU):
    """Every server's share of each expanded window, computed once.

    Host-level memo of :func:`expand_window` for one file system (never
    shared between ``PVFS`` instances).  The arrays it hands out are
    aliased by all daemons and therefore read-only.
    """

    def window(
        self, loop, tile_count, displacement, first, last, dist,
        batch_regions, aligned,
    ) -> tuple[dict[int, ServerSplit], int]:
        """``({server: split}, scanned)`` of one window; servers without
        a share have no key."""
        key = (
            loop.fingerprint(), tile_count, displacement, first, last,
            batch_regions, aligned, dist.n_servers, dist.strip_size,
        )
        ent = self._get(key)
        if ent is None:
            ent = _expand_all(
                loop, tile_count, displacement, first, last, dist,
                batch_regions, aligned,
            )
            held = sum(sp.regions.count for sp in ent[0].values())
            self._insert(key, ent, max(1, held))
        return ent


def _expand_all(
    loop, tile_count, displacement, first, last, dist, batch_regions, aligned
) -> tuple[dict[int, ServerSplit], int]:
    """Walk the window once and split every batch for all servers."""
    stream = DataloopStream(
        loop,
        count=tile_count,
        base_offset=displacement,
        first=first,
        last=last,
        max_regions=batch_regions,
    )
    if aligned:
        batches = (r for _, _, r in stream.instance_aligned_batches())
    else:
        batches = iter(stream)
    parts: dict[int, tuple[list[Regions], list[np.ndarray]]] = {}
    scanned = 0
    base = 0
    for batch in batches:
        scanned += batch.count
        for server, sp in dist.split(batch, check=False).items():
            regs, sposs = parts.setdefault(server, ([], []))
            regs.append(sp.regions)
            sposs.append(sp.stream_pos + base if base else sp.stream_pos)
        base += batch.total_bytes
    out: dict[int, ServerSplit] = {}
    for server, (regs, sposs) in parts.items():
        split = ServerSplit(
            server,
            Regions.concat(regs),
            sposs[0] if len(sposs) == 1 else np.concatenate(sposs),
        )
        if aligned:
            split = coalesce_split(split, dist.strip_size)
        for arr in (
            split.regions.offsets, split.regions.lengths, split.stream_pos
        ):
            arr.setflags(write=False)
        out[server] = split
    return out, scanned


def expand_window(
    loop: Dataloop,
    tile_count: int,
    displacement: int,
    first: int,
    last: int,
    dist: Distribution,
    server: int,
    batch_regions: int,
    aligned: bool = False,
    store: ExpansionStore | None = None,
) -> tuple[ServerSplit, int]:
    """Expand stream bytes ``[first, last)`` of the tiled loop and keep
    this server's share.  Returns ``(split, scanned)`` where ``scanned``
    counts the offset–length pairs the partial processing produced
    (what ``server_region_scan_cost`` charges for).

    ``aligned=False`` is the original uncached server path, unchanged.
    ``aligned=True`` batches at whole-instance boundaries and repairs
    the resulting seams — same result, periodicity-friendly structure
    (used to build cache period entries).

    A pure function: ``store`` only decides who else gets to reuse the
    walk (``None`` — a standalone call — shares it with nobody).  The
    returned arrays are read-only.
    """
    args = (
        loop, tile_count, displacement, first, last, dist, batch_regions,
        aligned,
    )
    splits, scanned = _expand_all(*args) if store is None else store.window(*args)
    split = splits.get(server)
    if split is None:
        split = ServerSplit(server, Regions.empty(), np.empty(0, dtype=_I64))
    return split, scanned


def coalesce_split(split: ServerSplit, strip_size: int) -> ServerSplit:
    """Merge split entries a monolithic expansion would have produced as
    one region.

    Two consecutive entries merge iff they are stream-contiguous,
    physically contiguous, *and* their junction is not on a strip
    boundary (the striping split always cuts there, so merging across
    one would diverge from the uncached result).  Applied to a
    piecewise-assembled split this restores exactly the monolithic
    output; applied to a monolithic output it is the identity.
    """
    regs = split.regions
    n = regs.count
    if n < 2:
        return split
    offs = regs.offsets
    lens = regs.lengths
    spos = split.stream_pos
    ends = offs + lens
    joint = (
        (spos[:-1] + lens[:-1] == spos[1:])
        & (ends[:-1] == offs[1:])
        & (ends[:-1] % strip_size != 0)
    )
    if not joint.any():
        return split
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = ~joint
    starts_idx = np.flatnonzero(boundary)
    last_idx = np.empty(starts_idx.size, dtype=np.int64)
    last_idx[:-1] = starts_idx[1:] - 1
    last_idx[-1] = n - 1
    new_offs = offs[starts_idx]
    return ServerSplit(
        split.server,
        Regions(new_offs, ends[last_idx] - new_offs, _trusted=True),
        spos[starts_idx],
    )


def _shift_split(split: ServerSplit, delta: int) -> ServerSplit:
    """Physical shift of a split (stream positions unchanged)."""
    if delta == 0 or not split.regions.count:
        return split
    return ServerSplit(
        split.server, split.regions.shift(delta), split.stream_pos
    )


class ExpansionCache(_RegionLRU):
    """LRU cache of one server's expansion results.

    Bounded by total regions held across all entries (one region costs
    three ``int64`` words: offset, length, stream position).  Entries
    whose region count alone exceeds the bound are never inserted.

    ``store`` is the file system's host-level :class:`ExpansionStore`
    that misses are computed through; a cache built on its own gets a
    private one.
    """

    def __init__(
        self,
        max_regions: int,
        period_regions: int,
        store: ExpansionStore | None = None,
    ):
        super().__init__(max_regions)
        if period_regions < 1:
            raise ValueError("period_regions must be positive")
        self.period_regions = int(period_regions)
        self.store = store if store is not None else ExpansionStore(max_regions)
        # counters (surfaced through StageTimes / repro-bench json)
        self.hits = 0
        self.misses = 0

    @property
    def bytes_held(self) -> int:
        """Approximate bytes of cached split arrays (3 int64 per region)."""
        return self.regions_held * 24

    # ------------------------------------------------------------------
    def expand(
        self,
        win,
        dist: Distribution,
        server: int,
        batch_regions: int,
    ) -> tuple[ServerSplit, int, bool]:
        """Expand a :class:`~repro.pvfs.protocol.DataloopWindow` for one
        server, through the cache.  Returns ``(split, scanned, hit)``.
        """
        loop = win.loop
        d = win.displacement
        first, last = win.first, win.last
        tile_count = win.tile_count()
        if d < 0 or last <= first or loop.data_size <= 0:
            # degenerate or unsupported (negative displacements fail
            # later validation); bypass the cache entirely
            split, scanned = expand_window(
                loop, tile_count, d, first, last, dist, server, batch_regions,
                store=self.store,
            )
            return split, scanned, False

        P = dist.strip_size * dist.n_servers
        d0 = d % P
        shift = (d // P) * dist.strip_size
        fp = loop.fingerprint()
        base_key = (fp, d0, dist.n_servers, dist.strip_size, server)

        wkey = ("w", *base_key, first, last, tile_count)
        cached = self._get(wkey)
        if cached is not None:
            self.hits += 1
            return _shift_split(cached, shift), 0, True

        # ---- periodicity path: assemble from one cached period -------
        ds = loop.data_size
        ext = loop.extent
        if ext > 0:
            L = math.lcm(ext, P)
            m = L // ext  # instances per period
            ps = m * ds  # stream bytes per period
            ja = -(-first // ps)  # first whole period in the window
            jb = last // ps  # one past the last whole period
            if ja < jb and m * loop.region_count <= self.period_regions:
                return self._expand_periodic(
                    loop, d0, shift, first, last, tile_count, dist, server,
                    batch_regions, base_key, L, m, ps, ja, jb,
                )

        # ---- exact path: compute at the d0 basis and memoize ---------
        self.misses += 1
        split, scanned = expand_window(
            loop, tile_count, d0, first, last, dist, server, batch_regions,
            store=self.store,
        )
        self._put(wkey, split)
        return _shift_split(split, shift), scanned, False

    # ------------------------------------------------------------------
    def _expand_periodic(
        self, loop, d0, shift, first, last, tile_count, dist, server,
        batch_regions, base_key, L, m, ps, ja, jb,
    ) -> tuple[ServerSplit, int, bool]:
        pkey = ("p", *base_key)
        pent = self._get(pkey)
        hit = pent is not None
        scanned = 0
        if not hit:
            self.misses += 1
            pent, scanned = expand_window(
                loop, m, d0, 0, ps, dist, server, batch_regions,
                aligned=True, store=self.store,
            )
            self._put(pkey, pent)
        else:
            self.hits += 1

        # one period = L logical bytes = L // P whole stripes; on this
        # server that is (L // P) strips of physical space
        step_phys = (L // (dist.strip_size * dist.n_servers)) * dist.strip_size

        parts: list[Regions] = []
        sposs: list[np.ndarray] = []
        head, head_scanned = expand_window(
            loop, tile_count, d0, first, ja * ps, dist, server, batch_regions,
            store=self.store,
        )
        scanned += head_scanned
        if head.regions.count:
            parts.append(head.regions)
            sposs.append(head.stream_pos)

        npd = jb - ja
        pr = pent.regions
        if pr.count:
            jidx = np.arange(ja, jb, dtype=_I64)
            offs = (
                jidx[:, None] * _I64(step_phys) + pr.offsets[None, :]
            ).reshape(-1)
            lens = np.ascontiguousarray(
                np.broadcast_to(pr.lengths[None, :], (npd, pr.count))
            ).reshape(-1)
            spos = (
                jidx[:, None] * _I64(ps)
                - _I64(first)
                + pent.stream_pos[None, :]
            ).reshape(-1)
            parts.append(Regions(offs, lens, _trusted=True))
            sposs.append(spos)

        tail, tail_scanned = expand_window(
            loop, tile_count, d0, jb * ps, last, dist, server, batch_regions,
            store=self.store,
        )
        scanned += tail_scanned
        if tail.regions.count:
            parts.append(tail.regions)
            sposs.append(tail.stream_pos + _I64(jb * ps - first))

        if parts:
            regions = Regions.concat(parts)
            spos = np.concatenate(sposs)
        else:
            regions = Regions.empty()
            spos = np.empty(0, dtype=_I64)
        out = coalesce_split(
            ServerSplit(server, regions, spos), dist.strip_size
        )
        return _shift_split(out, shift), scanned, hit

    def _put(self, key, split: ServerSplit) -> None:
        self._insert(key, split, max(1, split.regions.count))
