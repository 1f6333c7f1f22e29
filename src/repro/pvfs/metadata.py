"""Metadata server.

Owns the namespace (path → handle) and per-file striping parameters.
As in PVFS, clients talk to it only at open/stat time; all data traffic
goes directly to the I/O servers afterwards.  ``stat`` queries every
I/O server for its local file size and inverts the distribution mapping
to compute the logical EOF, which is how PVFS 1.x derived file sizes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .distribution import Distribution
from .protocol import MetaRequest, MetaResponse

__all__ = ["FileMeta", "MetadataServer"]


@dataclass
class FileMeta:
    path: str
    handle: int
    dist: Distribution


class MetadataServer:
    """The manager daemon, co-located with one I/O server's node
    (whose mailbox is attached once the daemons' nodes exist)."""

    def __init__(self, env, net, costs, config, servers: list):
        self.env = env
        self.net = net
        self.costs = costs
        self.config = config
        self.servers = servers
        self.mailbox = None
        self.files: dict[str, FileMeta] = {}
        self.by_handle: dict[int, FileMeta] = {}
        self._next_handle = 1000
        self.requests_served = 0
        self._backlog: list = []

    # ------------------------------------------------------------------
    # direct (non-simulated) helpers used by servers and tests
    # ------------------------------------------------------------------
    def lookup(self, handle: int) -> FileMeta:
        return self.by_handle[handle]

    def create_now(self, path: str) -> FileMeta:
        """Create a file without simulated traffic (setup convenience)."""
        meta = self.files.get(path)
        if meta is None:
            meta = FileMeta(
                path,
                self._next_handle,
                Distribution(self.config.n_servers, self.config.strip_size),
            )
            self._next_handle += 1
            self.files[path] = meta
            self.by_handle[meta.handle] = meta
        return meta

    def logical_size(self, handle: int) -> int:
        """Current logical file size, computed directly."""
        meta = self.by_handle.get(handle)
        if meta is None:
            return 0
        local = meta.dist.logical_size_from_local
        return max(local(s.index, s.store.local_size(handle)) for s in self.servers)

    # ------------------------------------------------------------------
    # simulated request loop
    # ------------------------------------------------------------------
    def run(self):
        """The request loop, for ``env.process``."""
        return _request_loop(weakref.ref(self))

    def _serve(self, msg):
        """Serve ``msg`` (``None``: the oldest stashed request)."""
        if msg is None:
            msg = self._backlog.pop(0)
        req: MetaRequest = msg.payload
        self.requests_served += 1
        yield self.env.timeout(self.costs.fs_op_server_cost)
        if req.op == "open":
            resp = self._open(req)
        elif req.op == "stat":
            resp = yield from self._stat(req)
        elif req.op == "unlink":
            resp = self._unlink(req)
        else:
            resp = MetaResponse(req.req_id, error=f"bad op {req.op!r}")
        yield from self.net.send(
            self.mailbox,
            req.reply_to,
            self.costs.header_bytes,
            payload=resp,
        )

    def _open(self, req: MetaRequest) -> MetaResponse:
        meta = self.files.get(req.path)
        if meta is None:
            if not req.create:
                return MetaResponse(
                    req.req_id, error=f"no such file: {req.path}"
                )
            meta = self.create_now(req.path)
        return MetaResponse(
            req.req_id,
            handle=meta.handle,
            size=self.logical_size(meta.handle),
            n_servers=meta.dist.n_servers,
            strip_size=meta.dist.strip_size,
        )

    def _stat(self, req: MetaRequest):
        meta = self.by_handle.get(req.handle)
        if meta is None:
            return MetaResponse(req.req_id, error="bad handle")
        # Query each I/O server for its local size over the wire.
        size = 0
        for server in self.servers:
            yield from self.net.send(
                self.mailbox,
                server.mailbox,
                self.costs.header_bytes,
                payload=("localsize", req.handle, self.mailbox),
            )
            # Other meta requests may land while we wait for the
            # server's reply (an int); stash them for the main loop.
            while True:
                msg = yield self.mailbox.get()
                if isinstance(msg.payload, MetaRequest):
                    self._backlog.append(msg)
                    continue
                break
            local = msg.payload
            size = max(
                size, meta.dist.logical_size_from_local(server.index, local)
            )
        return MetaResponse(req.req_id, handle=meta.handle, size=size)

    def _unlink(self, req: MetaRequest) -> MetaResponse:
        meta = self.files.pop(req.path, None)
        if meta is None:
            return MetaResponse(req.req_id, error=f"no such file: {req.path}")
        self.by_handle.pop(meta.handle, None)
        for server in self.servers:
            server.store.remove(meta.handle)
        return MetaResponse(req.req_id, handle=meta.handle)


def _request_loop(ref):
    """Parked between requests, the frame holds nothing but ``ref``."""
    while True:
        msg = None if ref()._backlog else (yield ref().mailbox.get())
        yield from ref()._serve(msg)
        del msg
