"""Disk timing model for an I/O server.

Charges a positioning cost for every discontiguous transition (between
the previous access's end and the next region's start) plus streaming
transfer time.  The head position persists across requests, so two
interleaved clients' scattered accesses cost more than one client's
sequential scan — matching the qualitative behaviour of the paper's
single SCSI disk per server behind the Linux buffer cache (which is why
the default seek constant in :class:`~repro.simulation.costs.CostModel`
is small: most of these workloads replay out of cache/readahead).
"""

from __future__ import annotations

import numpy as np

from ..regions import Regions
from ..simulation.costs import CostModel

__all__ = ["DiskModel"]


class DiskModel:
    """Stateful per-server disk timing."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        self._head = 0  # byte position after the last access
        self.total_seeks = 0

    def access_time(self, regions: Regions) -> float:
        """Simulated seconds to read or write the given regions."""
        n = regions.count
        if not n:
            return 0.0
        offs = regions.offsets
        nbytes = regions.total_bytes
        seeks = int(offs[0] != self._head)
        if n == 1:  # the POSIX storm: no arrays for one region
            self._head = int(offs[0]) + nbytes
        else:
            ends = offs + regions.lengths
            seeks += int(np.count_nonzero(offs[1:] != ends[:-1]))
            self._head = int(ends[-1])
        self.total_seeks += seeks
        return seeks * self.costs.disk_seek + nbytes / self.costs.disk_bandwidth
