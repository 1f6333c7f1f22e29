"""PVFS *job* and *access* structures (paper §3.1, Ligon & Ross [10]).

For every client/server pair involved in an I/O operation, PVFS builds a
``job`` pointing to a list of ``accesses`` — contiguous regions (in
memory on the client, in file on the server) to move over the network.
This is the flattened representation the paper's prototype still builds
from dataloops on both ends (§3.2: "the dataloops are converted into the
job and access structures on servers and clients"); the cost model
charges for exactly these lists.  A client's job for one server is the
:class:`~repro.pvfs.distribution.ServerSplit` that
:meth:`Distribution.split` returns; a server's is a :class:`ServerPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..regions import Regions
from .distribution import Distribution

__all__ = ["ServerPlan", "split_ops"]


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


def split_ops(regions: Regions, bounds, dist: Distribution):
    """Split an access cut into consecutive operations among servers in
    one pass.

    ``regions`` is the whole access in packed-stream order and
    ``bounds`` the ``n + 1`` stream positions at which its operations
    begin and end; no region may straddle a bound
    (:meth:`Regions.split_at_stream` makes it so).  Returns
    ``(shares, cut)``: the sorted ``(server, ServerSplit)`` pairs of the
    access and an ``(len(shares), n + 1)`` array.  A server's pieces
    come back in stream order, so operation *i*'s share of ``shares[j]``
    is the slice ``cut[j, i]:cut[j, i+1]`` — array for array what
    ``dist.split`` returns for that operation alone, with
    ``stream_pos`` advanced by ``bounds[i]`` — and a run of consecutive
    operations' share is one slice too.
    """
    shares = sorted(dist.split(regions).items())
    cut = np.empty((len(shares), len(bounds)), dtype=np.int64)
    for j, (_, share) in enumerate(shares):
        cut[j] = np.searchsorted(share.stream_pos, bounds)
    return shares, cut
