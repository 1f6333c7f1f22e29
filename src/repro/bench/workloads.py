"""The paper's three evaluation workloads (§4.2–§4.4).

Each workload builds, per rank, the MPI datatypes whose file/memory
shapes define the benchmark.  Paper-scale constructors reproduce the
exact geometry of §4; every workload also offers ``reduced()`` presets
small enough to move real bytes in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from ..datatypes import (
    BYTE,
    DOUBLE,
    INT,
    Datatype,
    contiguous,
    hvector,
    struct,
    subarray,
    vector,
)

__all__ = [
    "Workload",
    "TileWorkload",
    "Block3DWorkload",
    "FlashWorkload",
    "ScaleWorkload",
    "REDUCED",
    "reduced",
]


class Workload:
    """Base class: the geometry of one benchmark run.

    A workload is read or written by ``n_clients`` ranks; each rank
    accesses the file through ``filetype(rank)`` tiled at
    ``displacement(rank, rep)`` with memory layout ``memtype(rank)``,
    repeated ``repetitions`` times (the tile reader's frames).
    """

    name: str = "workload"
    n_clients: int = 1
    is_write: bool = False
    repetitions: int = 1
    procs_per_node: int = 2
    path: str = "/data"

    # -- per-rank datatypes -------------------------------------------
    def filetype(self, rank: int) -> Datatype:
        raise NotImplementedError

    def memtype(self, rank: int) -> Datatype:
        raise NotImplementedError

    def etype(self) -> Datatype:
        return BYTE

    def displacement(self, rank: int, rep: int) -> int:
        return 0

    def mem_count(self, rank: int) -> int:
        return 1

    def repetitions_for(self, rank: int) -> int:
        """Per-rank repetition count.

        Uniform by default; :class:`ScaleWorkload` overrides it so a
        tenant's offered demand scales with its admission weight (then
        all tenants finish together iff the scheduler honours weights).
        """
        return self.repetitions

    def tenant_of(self, rank: int, n_tenants: int = 1) -> int:
        """Rank ``rank``'s tenant among ``n_tenants``: round-robin by
        default; :class:`ScaleWorkload` deals contiguous blocks."""
        return rank % n_tenants

    # -- sizes ---------------------------------------------------------
    def bytes_per_client_per_rep(self) -> int:
        return self.memtype(0).size * self.mem_count(0)

    def bytes_per_client(self) -> int:
        return self.bytes_per_client_per_rep() * self.repetitions

    def total_bytes(self) -> int:
        return self.bytes_per_client() * self.n_clients


# ----------------------------------------------------------------------
# §4.2 tile reader
# ----------------------------------------------------------------------
@dataclass
class TileWorkload(Workload):
    """Tile reader benchmark (paper §4.2, Figure 8, Table 1).

    A ``tile_rows × tile_cols`` display wall; each compute node reads
    its tile (with the configured overlaps) of each frame into a
    contiguous buffer.  Defaults are the paper's exact parameters:
    1024×768 tiles, 24-bit colour, 270/128-pixel overlaps, 10.2 MB
    frames, 100 frames.
    """

    tile_rows: int = 2
    tile_cols: int = 3
    tile_w: int = 1024
    tile_h: int = 768
    bytes_per_pixel: int = 3
    overlap_x: int = 270
    overlap_y: int = 128
    repetitions: int = 100
    #: tile reader runs one process per node (§4.1)
    procs_per_node: int = 1
    name: str = "tile"
    path: str = "/frames"
    is_write: bool = False

    def __post_init__(self):
        self.n_clients = self.tile_rows * self.tile_cols
        self._memtypes: dict[int, Datatype] = {}
        self._filetypes: dict[int, Datatype] = {}

    # -- geometry -------------------------------------------------------
    @property
    def display_w(self) -> int:
        return self.tile_cols * self.tile_w - (self.tile_cols - 1) * self.overlap_x

    @property
    def display_h(self) -> int:
        return self.tile_rows * self.tile_h - (self.tile_rows - 1) * self.overlap_y

    @property
    def row_bytes(self) -> int:
        return self.display_w * self.bytes_per_pixel

    @property
    def frame_bytes(self) -> int:
        return self.display_h * self.row_bytes

    def tile_origin(self, rank: int) -> tuple[int, int]:
        r, c = divmod(rank, self.tile_cols)
        return (
            r * (self.tile_h - self.overlap_y),
            c * (self.tile_w - self.overlap_x),
        )

    # -- datatypes ------------------------------------------------------
    def filetype(self, rank: int) -> Datatype:
        ft = self._filetypes.get(rank)
        if ft is None:
            y0, x0 = self.tile_origin(rank)
            ft = subarray(
                [self.display_h, self.row_bytes],
                [self.tile_h, self.tile_w * self.bytes_per_pixel],
                [y0, x0 * self.bytes_per_pixel],
                BYTE,
            )
            self._filetypes[rank] = ft
        return ft

    def memtype(self, rank: int) -> Datatype:
        mt = self._memtypes.get(0)
        if mt is None:
            mt = contiguous(
                self.tile_h * self.tile_w * self.bytes_per_pixel, BYTE
            )
            self._memtypes[0] = mt
        return mt

    def displacement(self, rank: int, rep: int) -> int:
        return rep * self.frame_bytes

    @classmethod
    def paper(cls, frames: int = 100) -> "TileWorkload":
        return cls(repetitions=frames)

    @classmethod
    def reduced(cls, frames: int = 2) -> "TileWorkload":
        return cls(
            tile_w=32,
            tile_h=24,
            overlap_x=8,
            overlap_y=4,
            repetitions=frames,
        )


# ----------------------------------------------------------------------
# §4.3 ROMIO three-dimensional block test (coll_perf)
# ----------------------------------------------------------------------
@dataclass
class Block3DWorkload(Workload):
    """3-D block-distributed array access (paper §4.3, Fig. 9/10, Table 2).

    A ``grid³`` array of ints, block-decomposed over ``m³`` processes;
    each process accesses one cubic block.  Memory is contiguous.
    Paper scale: grid=600, m ∈ {2, 3, 4} (8/27/64 clients).
    """

    grid: int = 600
    clients_per_dim: int = 2
    is_write: bool = False
    name: str = "block3d"
    path: str = "/cube"

    def __post_init__(self):
        if self.grid % self.clients_per_dim:
            raise ValueError(
                f"grid {self.grid} not divisible by {self.clients_per_dim}"
            )
        self.n_clients = self.clients_per_dim**3
        self._filetypes: dict[int, Datatype] = {}
        self._memtype: Optional[Datatype] = None

    @property
    def block(self) -> int:
        return self.grid // self.clients_per_dim

    def block_origin(self, rank: int) -> tuple[int, int, int]:
        m = self.clients_per_dim
        i, rest = divmod(rank, m * m)
        j, k = divmod(rest, m)
        return i * self.block, j * self.block, k * self.block

    def filetype(self, rank: int) -> Datatype:
        ft = self._filetypes.get(rank)
        if ft is None:
            z0, y0, x0 = self.block_origin(rank)
            b = self.block
            g = self.grid
            ft = subarray([g, g, g], [b, b, b], [z0, y0, x0], INT)
            self._filetypes[rank] = ft
        return ft

    def memtype(self, rank: int) -> Datatype:
        if self._memtype is None:
            self._memtype = contiguous(self.block**3, INT)
        return self._memtype

    @classmethod
    def paper(cls, clients_per_dim: int = 2, is_write: bool = False):
        return cls(grid=600, clients_per_dim=clients_per_dim, is_write=is_write)

    @classmethod
    def reduced(cls, clients_per_dim: int = 2, is_write: bool = False):
        return cls(grid=24, clients_per_dim=clients_per_dim, is_write=is_write)


# ----------------------------------------------------------------------
# §4.4 FLASH I/O simulation
# ----------------------------------------------------------------------
@dataclass
class FlashWorkload(Workload):
    """FLASH checkpoint I/O (paper §4.4, Fig. 11/12, Table 3).

    In memory each rank holds ``nblocks`` AMR blocks; a block is an
    ``(nxb+2g)³`` array of cells *including guard cells*, each cell an
    array-of-struct of ``nvar`` 8-byte variables.  The checkpoint
    writes only interior cells, reorganized variable-major in the file:
    all of variable 0 (rank 0's blocks, rank 1's blocks, ...), then
    variable 1, and so on.  Noncontiguous in memory *and* file.

    Paper scale: 80 blocks/rank, 8³ interior, 4 guard cells, 24
    variables → 7.5 MiB per rank.
    """

    n_clients: int = 8
    nblocks: int = 80
    nxb: int = 8
    nguard: int = 4
    nvar: int = 24
    elem: int = 8
    is_write: bool = True
    name: str = "flash"
    path: str = "/checkpoint"

    def __post_init__(self):
        self._memtype: Optional[Datatype] = None
        self._filetypes: dict[int, Datatype] = {}

    # -- geometry -------------------------------------------------------
    @property
    def cells_interior(self) -> int:
        return self.nxb**3

    @property
    def side_full(self) -> int:
        return self.nxb + 2 * self.nguard

    @property
    def block_mem_bytes(self) -> int:
        return self.side_full**3 * self.nvar * self.elem

    @property
    def block_file_bytes(self) -> int:
        """One block's data for one variable in file."""
        return self.cells_interior * self.elem

    def bytes_per_client_per_rep(self) -> int:
        return self.nblocks * self.cells_interior * self.nvar * self.elem

    # -- datatypes ------------------------------------------------------
    def memtype(self, rank: int) -> Datatype:
        """AoS → stream in file order: var-major, block, z, y, x."""
        if self._memtype is not None:
            return self._memtype
        s = self.side_full
        g = self.nguard
        n = self.nxb
        cell_stride = self.nvar * self.elem
        # one variable's interior of one block: nested strided doubles
        tx = hvector(n, 1, cell_stride, DOUBLE)
        ty = hvector(n, 1, s * cell_stride, tx)
        tz = hvector(n, 1, s * s * cell_stride, ty)
        interior0 = ((g * s + g) * s + g) * cell_stride
        fields = []
        disps = []
        for v in range(self.nvar):
            for b in range(self.nblocks):
                fields.append(tz)
                disps.append(b * self.block_mem_bytes + interior0 + v * self.elem)
        self._memtype = struct([1] * len(fields), disps, fields)
        return self._memtype

    def filetype(self, rank: int) -> Datatype:
        """Variable-major file layout; this rank's slot in each section."""
        ft = self._filetypes.get(rank)
        if ft is None:
            per_rank_var = self.nblocks * self.cells_interior  # elements
            section = per_rank_var * self.n_clients
            ft = vector(self.nvar, per_rank_var, section, DOUBLE)
            self._filetypes[rank] = ft
        return ft

    def displacement(self, rank: int, rep: int) -> int:
        return rank * self.nblocks * self.block_file_bytes

    @classmethod
    def paper(cls, n_clients: int = 8) -> "FlashWorkload":
        return cls(n_clients=n_clients)

    @classmethod
    def reduced(cls, n_clients: int = 2) -> "FlashWorkload":
        return cls(n_clients=n_clients, nblocks=4, nxb=4, nguard=2, nvar=3)


# ----------------------------------------------------------------------
# multi-tenant scale sweep (repro-bench scale)
# ----------------------------------------------------------------------
@dataclass
class ScaleWorkload(Workload):
    """Strip-aligned writes for the multi-tenant scale sweep.

    Each rank writes ``blocks`` strips of exactly ``block_bytes`` each,
    where ``block_bytes`` equals the cluster strip size.  Block *i* of
    rank *r* lands on strip index ``r + i * n_clients``, so with
    ``n_clients`` a multiple of the server count every request of rank
    *r* is served by server ``r % nservers`` — no cross-server fan-out,
    which makes per-server admission contention (the thing the sweep
    measures) the only queueing in the run.

    Ranks are partitioned into ``n_tenants`` *contiguous* blocks
    (``tenant_of(r) = r * n_tenants // n_clients``), so every server
    sees clients of every tenant.  When ``tenant_reps`` is set, a
    tenant's ranks run that many repetitions — offered demand scales
    with admission weight, so under weighted-fair service all tenants
    finish together and per-tenant throughput is proportional to
    weight.
    """

    n_clients: int = 4
    block_bytes: int = 65536  #: must equal PVFSConfig.strip_size
    blocks: int = 4
    n_tenants: int = 1
    #: per-tenant repetition counts (len == n_tenants); ``None`` means
    #: ``repetitions`` for every rank
    tenant_reps: Optional[tuple[int, ...]] = None
    repetitions: int = 1
    #: one rank per node: response transfers must queue at the *server*
    #: (where weighted-fair admission arbitrates), not at shared client
    #: NICs, or tenant queues drain and fairness cannot be observed
    procs_per_node: int = 1
    is_write: bool = True
    name: str = "scale"
    path: str = "/scale"

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.n_tenants < 1 or self.n_tenants > self.n_clients:
            raise ValueError("need 1 <= n_tenants <= n_clients")
        if self.tenant_reps is not None and len(self.tenant_reps) != self.n_tenants:
            raise ValueError("tenant_reps must have one entry per tenant")
        self._memtype: Optional[Datatype] = None
        self._filetype: Optional[Datatype] = None

    # -- tenancy --------------------------------------------------------
    def tenant_of(self, rank: int, n_tenants: Optional[int] = None) -> int:
        """Contiguous rank blocks per tenant (servers see all tenants)."""
        return rank * (n_tenants or self.n_tenants) // self.n_clients

    def tenant_ranks(self, tenant: int) -> list[int]:
        return [
            r for r in range(self.n_clients) if self.tenant_of(r) == tenant
        ]

    def repetitions_for(self, rank: int) -> int:
        if self.tenant_reps is None:
            return self.repetitions
        return self.tenant_reps[self.tenant_of(rank)]

    # -- datatypes ------------------------------------------------------
    def filetype(self, rank: int) -> Datatype:
        if self._filetype is None:
            self._filetype = vector(
                self.blocks,
                self.block_bytes,
                self.n_clients * self.block_bytes,
                BYTE,
            )
        return self._filetype

    def memtype(self, rank: int) -> Datatype:
        if self._memtype is None:
            self._memtype = contiguous(self.blocks * self.block_bytes, BYTE)
        return self._memtype

    def displacement(self, rank: int, rep: int) -> int:
        frame = self.blocks * self.n_clients * self.block_bytes
        return rank * self.block_bytes + rep * frame

    # -- sizes (mean across ranks; tenants may differ) ------------------
    def total_bytes(self) -> int:
        per_rep = self.bytes_per_client_per_rep()
        return per_rep * sum(
            self.repetitions_for(r) for r in range(self.n_clients)
        )

    def bytes_per_client(self) -> int:
        return self.total_bytes() // self.n_clients


# ----------------------------------------------------------------------
# the reduced cells (trace, metrics, json, faults)
# ----------------------------------------------------------------------
#: One reduced cell per paper figure panel: ``--workload`` name ->
#: (its benchmark in ``BENCH_pipeline.json``, its constructor).
REDUCED = {
    "tile": ("fig8_tile_read", partial(TileWorkload.reduced, frames=2)),
    "block3d-read": ("fig10_block3d_read", partial(Block3DWorkload.reduced, 2)),
    "block3d-write": ("fig10_block3d_write", partial(Block3DWorkload.reduced, 2, True)),
    "flash": ("fig12_flash_write", partial(FlashWorkload.reduced, 2)),
}


def reduced(name: str) -> Workload:
    """A fresh instance of the reduced cell ``name``."""
    if name not in REDUCED:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(REDUCED)}")
    return REDUCED[name][1]()
