"""I/O characteristics tables (paper Tables 1–3).

These run the *real* access methods over the *paper-scale* workloads in
phantom mode and report the per-client counters: desired data, data
accessed, number of I/O operations, and resent data.  Everything is
measured from the executed decomposition — nothing is hard-coded — so
matching the paper's numbers is a genuine check of the reproduction.
"""

from __future__ import annotations

from .runner import Cell, Spec, cell
from .workloads import Block3DWorkload, FlashWorkload, TileWorkload

__all__ = [
    "METHOD_ORDER",
    "INDEPENDENT_METHODS",
    "METHOD_LABELS",
    "table1",
    "table2",
    "table3",
]

METHOD_ORDER = [
    "posix",
    "data_sieving",
    "two_phase",
    "list_io",
    "datatype_io",
    "collective_dtype",
]

#: The five methods reachable through independent operations (the
#: paper's set); collective datatype I/O only exists as a collective.
INDEPENDENT_METHODS = METHOD_ORDER[:-1]

METHOD_LABELS = {
    "posix": "POSIX I/O",
    "data_sieving": "Data Sieving I/O",
    "two_phase": "Two-Phase I/O",
    "list_io": "List I/O",
    "datatype_io": "Datatype I/O",
    "collective_dtype": "Collective Datatype I/O",
}


def _rows(workload) -> list[Cell]:
    return [cell(Spec(workload, method)) for method in INDEPENDENT_METHODS]


def table1(frames: int = 1) -> list[Cell]:
    """Tile reader characteristics (Table 1; per frame with frames=1)."""
    return _rows(TileWorkload.paper(frames=frames))


def table2(clients_per_dim: int, grid: int = 600) -> list[Cell]:
    """3-D block characteristics for one client count (Table 2 section).

    The paper's table describes the read direction; read and write have
    identical characteristics for every method except two-phase's
    resend direction, so we run reads.
    """
    return _rows(Block3DWorkload(grid=grid, clients_per_dim=clients_per_dim))


def table3(n_clients: int = 4) -> list[Cell]:
    """FLASH I/O characteristics (Table 3; write test).

    Per-client numbers are independent of the client count except
    two-phase's resent fraction, which is ``(n-1)/n`` — the returned
    rows come from an ``n_clients`` run so the fraction can be checked
    against the formula.
    """
    return _rows(FlashWorkload.paper(n_clients))
