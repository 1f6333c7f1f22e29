"""The paper's evaluation matrix (§4): its six methods, and what one
cell of each table and figure is.  Table 2 is Figure 10's reads and
Table 3 is Figure 12 at four clients, so each pair shares one spec
function (as do the collective document's top cells) and
``runner.cell`` runs every shared cell once.
"""

from __future__ import annotations

from typing import Optional

from .runner import Spec
from .workloads import Block3DWorkload, FlashWorkload, TileWorkload

__all__ = [
    "METHOD_ORDER",
    "INDEPENDENT_METHODS",
    "METHOD_LABELS",
    "tile_spec",
    "block3d_spec",
    "flash_spec",
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

#: Above this many clients Figure 12 leaves POSIX out: its line is
#: indistinguishable from zero there ("nearly unusable").  Not a host
#: cost limit: its five points up to 32 clients take ≈ 2 s and 60 MiB.
POSIX_LIMIT = 32


def tile_spec(method: str, frames: int) -> Spec:
    """A tile-reader cell (Table 1 per frame, Figure 8)."""
    return Spec(TileWorkload.paper(frames=frames), method)


def block3d_spec(
    clients_per_dim: int, method: str, direction: str = "read", grid: int = 600
) -> Spec:
    """A 3-D block cell (Figure 10; its reads are Table 2).

    Read and write have identical characteristics for every method
    except two-phase's resend direction, so Table 2 reads.
    """
    wl = Block3DWorkload(
        grid=grid, clients_per_dim=clients_per_dim, is_write=direction == "write"
    )
    return Spec(wl, method)


def flash_spec(clients: int, method: str) -> Optional[Spec]:
    """A FLASH write cell (Figure 12; its 4-client row is Table 3);
    ``None`` where the figure leaves POSIX out."""
    if method == "posix" and clients > POSIX_LIMIT:
        return None
    return Spec(FlashWorkload.paper(clients), method)
