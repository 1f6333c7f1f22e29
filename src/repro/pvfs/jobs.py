"""PVFS *job* and *access* structures (paper §3.1, Ligon & Ross [10]).

For every client/server pair involved in an I/O operation, PVFS builds a
``job`` pointing to a list of ``accesses`` — contiguous regions (in
memory on the client, in file on the server) to move over the network.
This is the flattened representation the paper's prototype still builds
from dataloops on both ends (§3.2: "the dataloops are converted into the
job and access structures on servers and clients"); the cost model
charges for exactly these lists.  A client's job for one server is its
share from :meth:`Distribution.shares` (list I/O: one operation group's
at a time, :func:`op_groups`; the access cut by :func:`list_cut`), or
one exchange of a one-operation-per-piece sequence (:func:`sequence`,
planned over :func:`atoms`); a server's is a :class:`ServerPlan`.  The
planners here are pure functions of the regions, their cuts or
operation bounds and the :class:`Distribution`: nothing in them runs a
simulation.  :func:`charge_convert` and :func:`expand_view` are the
client's side of §3.2 — a dataloop converted and expanded into the
access list, charged on its simulated clock.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataloops import Dataloop, DataloopStream
from ..regions import Regions
from .distribution import Distribution
from .errors import PVFSError
from .protocol import DataloopWindow

__all__ = [
    "ArrayCuts",
    "MemoryCuts",
    "ServerPlan",
    "atoms",
    "charge_convert",
    "exchanges",
    "expand_view",
    "list_cut",
    "op_groups",
    "sequence",
    "split_ops",
]


@dataclass
class ServerPlan:
    """The server side's job/access structure: the outcome of the
    pipeline's *plan* stage for one request.

    ``regions`` is the access list the storage stage will move,
    ``built``/``scanned`` are the access-construction counters the
    paper's analysis charges for (§3.2/§4.3), and ``proc_cost`` is the
    simulated CPU seconds the construction took.
    """

    regions: Regions
    built: int = 0
    scanned: int = 0
    proc_cost: float = 0.0
    #: CPU seconds of expansion-cache lookup/assembly on a hit.  Kept
    #: separate from ``proc_cost`` so stage accounting is exclusive:
    #: ``proc_cost`` flows into ``StageTimes.plan`` and ``cache_cost``
    #: into ``StageTimes.cache`` — the same second is never charged to
    #: both.  The scheduler's total busy charge is their sum.
    cache_cost: float = 0.0
    #: The expansion cache satisfied (part of) the plan stage.
    cache_hit: bool = False
    #: Optional coalesced region list for the *disk arm* when it differs
    #: from the data-movement order (collective requests union many
    #: ranks' regions: data moves per rank, the arm sweeps the merged
    #: extent).  ``None`` means the storage stage uses ``regions``.
    disk_regions: Regions | None = None


def op_groups(pieces: Regions, at, dist: Distribution) -> list[int]:
    """The edges ``[0, ..., n]`` of the operation groups of an access cut
    into operations, operation *i* being ``pieces[at[i]:at[i + 1]]``: a
    group is a maximal run of operations touching the same servers, sent
    as one request per server.  Read off each piece's strips (a piece
    covering ``n_servers`` strips touches every server), so no share is
    built and the per-piece arrays die with the call."""
    n_ops = len(at) - 1
    if n_ops < 2:
        return [0, n_ops]
    S, n = dist.strip_size, dist.n_servers
    offs, lens = pieces.offsets, pieces.lengths
    k = offs // S  # floor division by a scalar: a quarter of % on long arrays
    within = offs - k * S
    key = np.repeat(np.arange(0, n_ops * n, n), np.diff(at))
    some = np.flatnonzero(within + lens > S)
    if some.size:  # a crossing piece's further strips, up to one per server
        reps = np.minimum((within[some] + lens[some] - 1) // S, n - 1)
        rid = np.repeat(some, reps)
        nth = np.arange(1, rid.size + 1) - np.repeat(np.cumsum(reps) - reps, reps)
        k = np.concatenate((k, k[rid] + nth))
        key = np.concatenate((key, key[rid]))
    touched = np.zeros(n_ops * n, dtype=bool)
    touched[key + k - k // n * n] = True
    touched = touched.reshape(n_ops, n)
    differs = np.flatnonzero((touched[1:] != touched[:-1]).any(axis=1)) + 1
    return [0, *differs.tolist(), n_ops]


def split_ops(regions: Regions, bounds, dist: Distribution):
    """Split an access cut into operations among servers in one pass —
    the collective's rounds.  No region of ``regions`` may straddle one
    of the ``n + 1`` stream positions ``bounds``
    (:meth:`Regions.split_at_stream`).  Returns ``(shares, cut)``: the
    ``(server, ServerSplit)`` pairs in server order, and row ``j`` of
    the ``cut`` array slices ``shares[j]`` at the bounds — operation
    *i*'s share, ``cut[j, i]:cut[j, i+1]``, is what ``dist.split``
    gives for it alone with ``stream_pos`` advanced by ``bounds[i]``.
    """
    shares = sorted(dist.split(regions).items())
    cut = np.empty((len(shares), len(bounds)), dtype=np.int64)
    for j, (_, share) in enumerate(shares):
        cut[j] = np.searchsorted(share.stream_pos, bounds)
    return shares, cut


def list_cut(pieces: Regions, bounds, limit: int):
    """The cut form of a list I/O access, held to the request bound: the
    file regions ``pieces`` (packed-stream order) cut at the operation
    bounds ``bounds`` (stream positions; ``None``: one operation).
    Returns ``(pieces, bounds, at)``, operation *i* being
    ``pieces[at[i]:at[i + 1]]``; an operation of more than ``limit``
    regions raises :class:`PVFSError`."""
    if bounds is None:
        bounds = np.array([0, pieces.total_bytes])
    if bounds[0] != 0 or bounds[-1] != pieces.total_bytes:
        raise ValueError("operation bounds must span the access's stream")
    pieces = pieces.split_at_stream(bounds)
    # each operation's first piece; the pieces' stream ends are not kept
    at = np.searchsorted(np.cumsum(pieces.lengths), bounds, side="right")
    held = int(np.diff(at).max(initial=0))
    if held > limit:
        raise PVFSError(
            f"list I/O operation with {held} regions exceeds "
            f"the {limit}-region request bound"
        )
    return pieces, bounds, at


class ArrayCuts:
    """Cut positions held as one sorted array (duplicates and positions
    outside the stream are fine) — what ``read_sequence(cuts=...)`` and
    list I/O's operation bounds hand in, and a memory type's stream
    ends when its runs repeat no pattern.

    :func:`sequence` reads any cut source through the three queries
    here; :class:`MemoryCuts` answers them by arithmetic instead."""

    def __init__(self, cuts):
        c = np.asarray(cuts, dtype=np.int64)
        self.cuts = c[np.concatenate(([True], c[1:] != c[:-1]))] if c.size else c

    def split_count(self, regions: Regions) -> int:
        """``regions`` cut here: how many pieces."""
        return regions.split_count(self.cuts)

    def around(self, pos: np.ndarray, start: np.ndarray, end: np.ndarray):
        """The piece ``[lo, hi)`` around each stream position ``pos``
        of a run ``[start, end)`` cut here: ``lo == pos`` exactly when
        ``pos`` is a cut."""
        c = self.cuts
        at = np.searchsorted(c, pos, side="right")
        lo = np.where(at > 0, np.maximum(c[np.maximum(at - 1, 0)], start), start)
        hi = np.where(at < c.size, np.minimum(c[np.minimum(at, c.size - 1)], end), end)
        return lo, hi

    def cut(self, regions: Regions, lo: int) -> Regions:
        """``regions`` — stream bytes ``lo:lo + regions.total_bytes`` —
        cut here."""
        c = self.cuts
        i, j = np.searchsorted(c, (lo + 1, lo + regions.total_bytes)).tolist()
        return _cut_at(regions, lo, c[i:j])

    def every(self, k: int) -> np.ndarray:
        """Every ``k``-th cut: with a flattening's stream ends, where
        every ``k``-th run ends (as :meth:`MemoryCuts.every`)."""
        return self.cuts[k - 1 :: k]


class MemoryCuts:
    """Every boundary between the coalesced runs of a memory type's
    packed stream, answered by arithmetic on the runs' repeated pattern
    — ``period``, ``(size, ends)`` from :func:`stream_period` (FLASH's
    is a 4 KiB field of 512 runs) — never off the type's flattening.
    Nothing is kept between queries, so a sequence over FLASH's 983 040
    memory runs holds the cuts of the exchange it is issuing and no
    others.  ``runs`` is how many runs the stream holds in all.
    """

    def __init__(self, period, runs: int):
        self.size, self.ends = period
        self.runs = runs

    def _inside(self, lo: int, hi: int) -> np.ndarray:
        """The cuts strictly inside stream bytes ``(lo, hi)``, sorted."""
        size = self.size
        cuts = (np.arange(lo // size * size, hi, size)[:, None] + self.ends).reshape(-1)
        return cuts[np.searchsorted(cuts, lo, side="right") : np.searchsorted(cuts, hi)]

    def split_count(self, regions: Regions) -> int:
        # every run boundary inside the stream is a cut, except where a
        # region of ``regions`` already ends (a period edge always is one)
        at = np.cumsum(regions.lengths[:-1]) % self.size
        shared = (at == 0) | (self.ends[np.searchsorted(self.ends, at)] == at)
        return regions.count + self.runs - 1 - int(np.count_nonzero(shared))

    def around(self, pos, start, end):
        base = pos // self.size * self.size
        k = np.searchsorted(self.ends, pos - base, side="right")
        lo = base + np.where(k > 0, self.ends[np.maximum(k - 1, 0)], 0)
        return np.maximum(lo, start), np.minimum(base + self.ends[k], end)

    def cut(self, regions, lo):
        return _cut_at(regions, lo, self._inside(lo, lo + regions.total_bytes))

    def every(self, k: int) -> np.ndarray:
        """The stream end of every ``k``-th run (list I/O's operation
        bounds on the memory side)."""
        nth = np.arange(k - 1, self.runs, k)
        return nth // self.ends.size * self.size + self.ends[nth % self.ends.size]


def _cut_at(regions: Regions, lo: int, cuts: np.ndarray) -> Regions:
    """``regions`` — stream bytes from ``lo`` on — cut at the distinct
    sorted stream positions ``cuts``, all inside them."""
    if regions.count == 1:  # one run: the pieces lie between the cuts
        at = np.concatenate(([lo], cuts, [lo + regions.total_bytes]))
        offs = at[:-1] + (regions.offsets[0] - lo)
        return Regions(offs, at[1:] - at[:-1], _trusted=True)
    return regions.split_at_stream(cuts - lo)


def atoms(regions: Regions, cuts, strip: int) -> Regions:
    """The coarsest cut of ``regions`` that still groups like its pieces.

    The *pieces* of a one-op-per-piece sequence are ``regions`` cut at
    ``cuts`` (at least one of which falls inside a run).  The *atoms*
    returned here cut the runs only at strip edges: at an edge that is
    itself a piece boundary, and around the one piece that straddles
    any other edge.  A straddling piece is thus an atom of its own;
    every other atom lies in one run and one strip — on one server —
    and is a whole number of consecutive pieces, which all share that
    server.  Maximal runs of consecutive atoms with equal server are
    therefore exactly the maximal runs of consecutive pieces with equal
    server, in O(runs + strips touched) however many pieces there are:
    ``cuts`` is asked only about the strip edges.
    """
    offs, lens, ends = regions.offsets, regions.lengths, regions.stream_ends
    k0 = offs // strip
    inner = (offs + lens - 1) // strip - k0  # strip edges inside each run
    run = np.repeat(np.arange(inner.size), inner)
    if not run.size:
        return regions
    nth = np.arange(run.size) - (np.cumsum(inner) - inner)[run]
    run_end = ends[run]
    run_start = run_end - lens[run]
    # every strip edge inside a run, as a packed-stream position
    edge = run_start + (k0[run] + 1 + nth) * strip - offs[run]
    lo, hi = cuts.around(edge, run_start, run_end)
    clean = lo == edge
    return regions.split_at_stream(
        np.concatenate((edge[clean], lo[~clean], hi[~clean]))
    )


def exchanges(atoms: Regions, strip: int, nserv: int) -> np.ndarray:
    """One ``(first, stop, server)`` row per maximal run of consecutive
    atoms that each lie in a strip of ``server`` (``-1``: each crosses
    a strip edge); the per-atom strip arrays die with this call."""
    k0 = atoms.offsets // strip
    srv = np.where(
        k0 == (atoms.offsets + atoms.lengths - 1) // strip, k0 - k0 // nserv * nserv, -1
    )
    first = np.flatnonzero(np.concatenate(([True], srv[1:] != srv[:-1])))
    return np.stack((first, np.append(first[1:], srv.size), srv[first]), axis=1)


def sequence(regions: Regions, cuts, dist: Distribution, pieces=None):
    """Plan a one-operation-per-piece sequence.

    The pieces are ``regions`` cut at ``cuts`` — ``None`` (the runs
    themselves), sorted packed-stream positions, or a cut source such
    as :class:`MemoryCuts` — described rather than enumerated: FLASH
    POSIX is 24 file runs cut wherever its memory type's runs end.
    Runs of consecutive pieces that each lie within a single strip of
    the same server collapse into one exchange; a piece crossing a
    strip edge goes on its own.

    ``pieces`` is their count when the caller has it already.
    Returns the piece count and an iterator over the exchanges in
    stream order, each ``(lo, hi, server, regions)``: stream bytes
    ``lo:hi`` move as ``regions`` — the exchange's pieces as physical
    regions on ``server`` — or, with ``server == -1``, as one
    strip-crossing piece (its file region).  The plan is made over
    :func:`atoms` and an exchange's pieces — and its cuts — exist only
    while it is issued, so the iterator holds O(runs + strips touched)
    however finely ``cuts`` slices them: the atoms' offsets, lengths
    and stream ends, and one :func:`exchanges` row per exchange.
    """
    S = dist.strip_size
    n = regions.count
    if cuts is not None:
        if not isinstance(cuts, (ArrayCuts, MemoryCuts)):
            cuts = ArrayCuts(cuts)
        n = cuts.split_count(regions) if pieces is None else pieces
        if n == regions.count:
            cuts = None  # no cut falls inside a run
        else:
            regions = atoms(regions, cuts, S)
    return n, _steps(regions, exchanges(regions, S, dist.n_servers), cuts, dist)


def _steps(atoms: Regions, rows: np.ndarray, cuts, dist: Distribution):
    S, nserv = dist.strip_size, dist.n_servers
    offs, lens, ends = atoms.offsets, atoms.lengths, atoms.stream_ends
    for e in range(len(rows)):
        a, b, server = rows[e].tolist()
        if server == -1:
            for i in range(a, b):
                hi = int(ends[i])
                yield hi - int(lens[i]), hi, -1, atoms[i : i + 1]
            continue
        lo, hi = int(ends[a] - lens[a]), int(ends[b - 1])
        o = offs[a:b]
        phys = (o // (S * nserv)) * S + o % S
        merged = Regions(phys, lens[a:b].copy(), _trusted=True)
        if cuts is not None:
            # this exchange's own pieces: a strip maps to one server as
            # a shift, so cutting commutes with it
            merged = cuts.cut(merged, lo)
        yield lo, hi, server, merged


def charge_convert(client, loop: Dataloop):
    """Charge ``client`` one dataloop conversion (datatype-cache aware)."""
    cache_on = client.config.datatype_cache
    if cache_on and loop.fingerprint() in client.converted_loops:
        yield client.env.timeout(2e-6)  # cache lookup
    else:
        yield client.env.timeout(
            client.costs.dataloop_convert_base
            + loop.node_count() * client.costs.dataloop_node_cost
        )
        if cache_on:
            client.converted_loops.add(loop.fingerprint())


def expand_view(client, loop: Dataloop, displacement, first, last):
    """Expand a file view window into logical file regions, charging
    ``client`` the per-region construction cost (cached per
    (loop, window) when datatype caching is on)."""
    config, costs = client.config, client.costs
    cache_on = config.datatype_cache
    if cache_on:
        exp_key = (loop.fingerprint(), first, last)
        cached_regions = client.expansion_cache.get(exp_key)
        if cached_regions is not None:
            yield client.env.timeout(2e-6)
            return cached_regions.shift(displacement)
    window = DataloopWindow(loop, displacement, first, last)
    regions = DataloopStream(
        loop,
        count=window.tile_count(),
        base_offset=0,
        first=first,
        last=last,
        max_regions=config.dataloop_batch_regions,
    ).regions()
    factor = costs.direct_region_factor if config.direct_dataloop else 1.0
    if regions.count:
        yield client.env.timeout(regions.count * costs.client_region_cost * factor)
    if cache_on:
        client.expansion_cache[exp_key] = regions
    return regions.shift(displacement)
