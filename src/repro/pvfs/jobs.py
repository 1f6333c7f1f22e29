"""PVFS *job* and *access* structures (paper §3.1, Ligon & Ross [10]).

For every client/server pair involved in an I/O operation, PVFS builds a
``job`` pointing to a list of ``accesses`` — contiguous regions (in
memory on the client, in file on the server) to move over the network.
This is the flattened representation the paper's prototype still builds
from dataloops on both ends (§3.2: "the dataloops are converted into the
job and access structures on servers and clients"); the cost model
charges for exactly these lists.  A client's job for one server is its
share from :meth:`Distribution.shares` (list I/O: one operation group's
at a time, :func:`op_groups`); a server's is a :class:`ServerPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..regions import Regions
from .distribution import Distribution

__all__ = ["ServerPlan", "op_groups", "split_ops"]


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
