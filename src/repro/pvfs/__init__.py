"""A PVFS-like parallel file system (paper §3.1).

Functionally real (bytes move, reads verify) and temporally simulated
(every message and disk access advances the discrete-event clock).

Components, mirroring PVFS 1.5.x:

* a **metadata server** (:mod:`~repro.pvfs.metadata`) owning the
  namespace and per-file striping parameters; clients contact it only
  at open/stat time;
* **I/O servers** (:mod:`~repro.pvfs.server`), daemons driving a staged
  request pipeline (decode → plan → storage → respond,
  :mod:`~repro.pvfs.pipeline`) that turns incoming access descriptions
  into PVFS *job*/*access* structures (:mod:`~repro.pvfs.jobs`) and
  moves data against their local :class:`~repro.storage.BlockStore`;
  single-threaded by default (the paper's iod), multi-threaded with a
  bounded admission queue via ``PVFSConfig.server_threads``;
* a **client library** (:mod:`~repro.pvfs.client`) supporting the three
  access interfaces the paper compares at the file-system level:
  contiguous (POSIX-style) I/O, **list I/O** (bounded offset–length
  lists, §2.4) and **datatype I/O** (shipped dataloops, §3);
* round-robin **striping** (:mod:`~repro.pvfs.distribution`), 64 KiB
  strips over 16 servers by default, exactly the paper's layout.

Use :class:`PVFS` to assemble a cluster::

    env = Environment()
    fs = PVFS(env, n_servers=16)
    client = fs.client("c0")
"""

from .config import PVFSConfig, TenantConfig
from .system import PVFS
from .client import PVFSClient, FileHandle
from .distribution import Distribution
from .jobs import ServerPlan
from .errors import (
    PVFSError,
    LockUnsupported,
    ProtocolError,
    RetriesExhausted,
    ServerTimeout,
)
from .pipeline import RequestHandler

__all__ = [
    "PVFS",
    "PVFSConfig",
    "TenantConfig",
    "PVFSClient",
    "FileHandle",
    "Distribution",
    "ServerPlan",
    "PVFSError",
    "LockUnsupported",
    "ProtocolError",
    "RetriesExhausted",
    "ServerTimeout",
    "RequestHandler",
]
