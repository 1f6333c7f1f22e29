"""Calibrated cost model.

All timing constants of the simulated cluster in one place.  Defaults
are calibrated to the paper's testbed (Chiba City: 100 Mbit/s
full-duplex Fast Ethernet, dual PIII 500 MHz nodes, one SCSI disk per
node, PVFS 1.5.5 + ROMIO 1.2.4 era software), then tuned so the three
benchmark reproductions show the paper's orderings and ratios (see
EXPERIMENTS.md for the calibration record).

The five effects the paper's analysis hinges on each have a dedicated
knob:

=====================================  ==================================
effect (paper section)                 knob
=====================================  ==================================
per-FS-operation request overhead      ``fs_op_client_cost`` /
(POSIX unusable, §4)                   ``fs_op_server_cost``
request size on the wire               ``listio_pair_bytes``, dataloop
(list I/O drawback, §2.4)              wire size (serialized)
client-side flattening/conversion      ``client_region_cost``,
(FLASH small-N dip, §4.4)              ``dataloop_convert_base`` +
                                       ``dataloop_node_cost``
server-side offset–length processing   ``server_region_read_cost``
(3-D block read decline, §4.3)         (on the reply path) vs
                                       ``server_region_write_cost``
                                       (hidden by sink buffering)
double data movement                   modelled physically by the
(two-phase, §2.3)                      exchange phase's NIC usage
=====================================  ==================================
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "REJECT_BACKOFF"]

#: Client back-off before resending a request that a threaded server's
#: bounded admission queue rejected (seconds).  A model constant, not a
#: calibrated one: no experiment identified it, and none varies it.
REJECT_BACKOFF = 2.0e-3


@dataclass(frozen=True)
class CostModel:
    """Timing constants (seconds / bytes-per-second)."""

    # --- network ------------------------------------------------------
    #: NIC bandwidth per direction per node (100 Mbit/s Fast Ethernet).
    nic_bandwidth: float = 12.5e6
    #: One-way wire+stack latency per message.
    latency: float = 120e-6
    #: CPU time to send or receive one message (syscall + TCP work).
    per_message_cpu: float = 25e-6

    # --- wire format --------------------------------------------------
    #: Fixed bytes of any file-system request/response header.
    header_bytes: int = 64
    #: Wire bytes per offset–length pair in a list I/O request
    #: (matches the paper's 9 KB for 768 pairs ≈ 12 B/pair).
    listio_pair_bytes: int = 12

    # --- disk (per I/O server) ----------------------------------------
    #: Streaming bandwidth of a server's storage path.  The paper's
    #: working sets (≈50 MB per server) fit the 512 MB buffer cache, so
    #: this is cache/readahead bandwidth, not raw SCSI platter speed —
    #: the benchmarks are network- and CPU-bound, as on Chiba City.
    disk_bandwidth: float = 80e6
    #: Positioning cost charged when an access is discontiguous with
    #: the previous one on the same server (a cache-hit page lookup,
    #: not a mechanical seek, for the same reason as above).
    disk_seek: float = 5e-6

    # --- per-operation fixed costs -------------------------------------
    #: Client-side fixed cost to build/post one file-system operation
    #: (request construction, syscall, bookkeeping in the PVFS library).
    fs_op_client_cost: float = 2.0e-3
    #: Server-side fixed cost to parse/dispatch one request in the iod.
    fs_op_server_cost: float = 3.5e-3

    # --- region processing ---------------------------------------------
    #: Client cost per offset–length pair created (datatype flattening
    #: in ROMIO for list I/O, building request lists).
    client_region_cost: float = 1.5e-6
    #: Client cost per memory region touched while packing/unpacking
    #: user buffers (applies to every method when memory is
    #: noncontiguous; a memcpy-grade constant).
    mem_region_cost: float = 0.35e-6
    #: Server cost per region *scanned* while expanding a shipped
    #: dataloop (striping arithmetic to find local pieces); paid on the
    #: whole access window, not just local regions.
    server_region_scan_cost: float = 0.3e-6
    #: Server cost per offset–length pair built into the job/access
    #: structures when the server is the data *source* (reads) — on the
    #: critical path before data can flow (paper §4.3).
    server_region_read_cost: float = 25.0e-6
    #: Same, when the server is a data *sink* (writes) — largely hidden
    #: behind TCP buffering (paper §4.3), so much smaller.
    server_region_write_cost: float = 1.0e-6
    #: Flat cost charged when a server's expansion cache satisfies a
    #: dataloop expansion (hash lookup + shift), replacing the
    #: per-region scan charge for the cached portion.
    server_cache_hit_cost: float = 2.0e-6

    # --- datatype I/O ----------------------------------------------------
    #: Fixed cost of converting the MPI datatype to a dataloop at each
    #: operation (the prototype reconverts every time, §3.2).
    dataloop_convert_base: float = 60e-6
    #: Additional conversion cost per dataloop tree node.
    dataloop_node_cost: float = 4e-6
    #: Multiplier on per-region build costs when the file system runs
    #: in full-featured (PVFS2-style) direct-dataloop mode: no
    #: intermediate lists, just streaming arithmetic.
    direct_region_factor: float = 0.15

    # --- MPI (inter-rank messaging for collectives) ---------------------
    #: One-way latency of an MPI message (same wire, leaner stack).
    mpi_latency: float = 90e-6
    #: Effective MPI payload bandwidth.  MPICH over TCP on 100 Mbit/s
    #: Ethernet moves data measurably below line rate (user-space
    #: copies, rendezvous) — the very caveat §2.3 raises about
    #: two-phase: "if the MPI implementation is not significantly
    #: faster than the aggregate I/O bandwidth..."
    mpi_bandwidth: float = 5.5e6
    #: CPU per MPI message send/receive.
    mpi_per_message_cpu: float = 15e-6
    #: Local memory copy bandwidth (self-messages, buffer assembly).
    memcpy_bandwidth: float = 400e6
