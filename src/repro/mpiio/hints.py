"""MPI-IO hints (the subset ROMIO honours that matters here)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Hints"]

_4MiB = 4 * 1024 * 1024


@dataclass
class Hints:
    """Tunables, defaulting to the paper's configuration (§4.1).

    "All data sieving and collective operations were conducted with a
    4 Mbyte buffer size."
    """

    #: Collective (two-phase) buffer size per aggregator.
    cb_buffer_size: int = _4MiB
    #: Number of aggregator ranks (None = all ranks, ROMIO's default
    #: of one per node collapses to this in the paper's setups).
    cb_nodes: Optional[int] = None
    #: Data sieving read buffer.
    ind_rd_buffer_size: int = _4MiB
    #: Data sieving write buffer.
    ind_wr_buffer_size: int = _4MiB
    #: Default access method for independent operations
    #: ('posix' | 'data_sieving' | 'list_io' | 'datatype_io').
    independent_method: str = "datatype_io"
    #: Collective method ('two_phase' or any independent method name,
    #: in which case collectives degrade to independent operations).
    collective_method: str = "two_phase"
    #: How aggregators write rounds whose incoming data has holes:
    #: 'rmw' (ROMIO's read-modify-write, the default) or a
    #: noncontiguous file-system interface — 'list_io' / 'datatype_io'
    #: — the §5 suggestion of "leveraging datatype I/O underneath
    #: two-phase I/O".
    tp_sparse_method: str = "rmw"
    #: Collective datatype I/O: bytes of each rank's packed stream per
    #: pipelined round.  Each (server, round) pair costs one aggregated
    #: request, so smaller rounds trade request overhead for overlap of
    #: disk service with data reception.  2 MiB measures best on the
    #: paper-scale Block3D/FLASH sweeps (fewer segment headers than
    #: 1 MiB while the drain cascade keeps the tail short).
    coll_round_bytes: int = 2 * 1024 * 1024
    #: Collective datatype I/O: target size of the final "drain" round.
    #: A small last round keeps the tail — the service time after the
    #: last byte arrives — short, which is where the collective beats
    #: the independent methods at high client counts.
    coll_drain_bytes: int = 64 * 1024

    def __post_init__(self):
        for field in (
            "cb_buffer_size",
            "ind_rd_buffer_size",
            "ind_wr_buffer_size",
            "coll_round_bytes",
            "coll_drain_bytes",
        ):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.cb_nodes is not None and self.cb_nodes < 1:
            raise ValueError("cb_nodes must be positive")
        if self.tp_sparse_method not in ("rmw", "list_io", "datatype_io"):
            raise ValueError(
                "tp_sparse_method must be 'rmw', 'list_io' or 'datatype_io'"
            )
