"""Round-robin striping distribution (PVFS's default and only
distribution in 1.5.x).

Logical byte ``x`` lives in global strip ``k = x // strip_size``, on
server ``k % n_servers``, at physical offset
``(k // n_servers) * strip_size + x % strip_size`` within that server's
local file.  All mappings here are vectorized over region sets.
"""

from __future__ import annotations

import numpy as np

from ..regions import Regions

__all__ = ["Distribution", "ServerSplit"]

_I64 = np.int64


class ServerSplit:
    """One server's share of an access.

    Attributes
    ----------
    regions:
        Physical regions on the server's local file, ordered by the
        position of their data in the request's packed stream.
    stream_pos:
        For each region, the byte position of its data within the
        request's packed stream (``None`` for a phantom access, which
        moves no bytes).
    """

    __slots__ = ("server", "regions", "stream_pos")

    def __init__(self, server: int, regions: Regions, stream_pos: np.ndarray):
        self.server = server
        self.regions = regions
        self.stream_pos = stream_pos

    @property
    def nbytes(self) -> int:
        return self.regions.total_bytes

    def stream_regions(self) -> Regions:
        """Regions into the packed stream (for gather/scatter)."""
        return Regions(self.stream_pos, self.regions.lengths, _trusted=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ServerSplit):
            return NotImplemented
        return (
            self.server == other.server
            and self.regions == other.regions
            and np.array_equal(self.stream_pos, other.stream_pos)
        )

    def __repr__(self) -> str:
        return (
            f"<ServerSplit srv={self.server} n={self.regions.count} "
            f"bytes={self.nbytes}>"
        )


class Distribution:
    """Striping arithmetic for one file layout."""

    __slots__ = ("n_servers", "strip_size")

    def __init__(self, n_servers: int, strip_size: int):
        if n_servers < 1 or strip_size < 1:
            raise ValueError("invalid distribution parameters")
        self.n_servers = n_servers
        self.strip_size = strip_size

    # ------------------------------------------------------------------
    # scalar mappings
    # ------------------------------------------------------------------
    def physical_to_logical(self, server: int, phys: int) -> int:
        j = phys // self.strip_size
        k = j * self.n_servers + server
        return k * self.strip_size + phys % self.strip_size

    def logical_size_from_local(self, server: int, local_size: int) -> int:
        """Logical file size implied by a server's local file size."""
        if local_size <= 0:
            return 0
        return self.physical_to_logical(server, local_size - 1) + 1

    # ------------------------------------------------------------------
    # vectorized region splitting
    # ------------------------------------------------------------------
    def split(
        self, regions: Regions, *, check: bool = True
    ) -> dict[int, ServerSplit]:
        """Split a logical access among servers: :meth:`shares` from
        stream position 0, keyed by server.  ``check=True`` is the
        client-side call: a negative file offset is an error.
        ``check=False`` is the daemon's call: negative offsets
        floor-divide like any other (a daemon expands whatever was
        shipped; validation comes later)."""
        offs = regions.offsets
        if check and offs.size and int(offs.min()) < 0:
            raise ValueError("negative file offset in access")
        return {sp.server: sp for sp in self.shares(offs, regions.lengths, 0)}

    def shares(self, offsets, lengths, base=None) -> list[ServerSplit]:
        """The share of each server that has one of the regions
        ``(offsets, lengths)``, in server order, each in stream order.
        The regions are consecutive in the packed stream from ``base``
        (``None``: no positions, a phantom access moves no bytes).  A few
        dozen regions cost a dozen array operations whatever the server
        count — the columns (server, physical offset, length, position)
        sorted by server, a share per slice — so list I/O can split one
        operation group at a time."""
        if offsets.size == 1:
            return self._walk(int(offsets[0]), int(lengths[0]), base)
        S, n = self.strip_size, self.n_servers
        # floor forms: numpy's int64 % and divmod cost ~4x its //
        k = offsets // S
        phys = offsets - k * S
        if offsets.size and np.maximum.reduce(phys + lengths) > S:
            # region r's j-th piece lies in strip k_r + j
            counts = (phys + lengths - 1) // S + 1
            rid = np.repeat(np.arange(offsets.size, dtype=_I64), counts)
            cum = np.add.accumulate(counts)
            k = k[rid] + (np.arange(int(cum[-1]), dtype=_I64) - (cum - counts)[rid])
            starts = np.maximum(offsets[rid], k * S)
            lengths = np.minimum((offsets + lengths)[rid], (k + 1) * S) - starts
            phys = starts - k * S
        q = k // n
        server = k - q * n
        phys += q * S
        spos = None if base is None else np.add.accumulate(lengths) - (lengths - base)
        counts = np.bincount(server, minlength=n).tolist()
        if n - counts.count(0) > 1:
            order = server.argsort(kind="stable")
            phys, lengths = phys[order], lengths[order]
            spos = None if spos is None else spos[order]
        out, lo = [], 0
        for s, c in enumerate(counts):
            if c:
                sl = slice(lo, lo + c)
                share = Regions(phys[sl], lengths[sl], _trusted=True)
                out.append(ServerSplit(s, share, None if spos is None else spos[sl]))
                lo += c
        return out

    def _walk(self, offset: int, length: int, base) -> list[ServerSplit]:
        """:meth:`shares` of one region: a walk over its strips, a third
        of the array pass for the one or two strips of a strip-crossing
        POSIX piece."""
        S, n = self.strip_size, self.n_servers
        end = offset + length
        shares: dict[int, tuple[list, list, list]] = {}
        pos = offset
        for k in range(offset // S, (end - 1) // S + 1):
            stop = min(end, (k + 1) * S)
            phys, lens, spos = shares.setdefault(k % n, ([], [], []))
            phys.append((k // n) * S + pos - k * S)
            lens.append(stop - pos)
            spos.append(pos - offset)
            pos = stop
        return [
            ServerSplit(
                s, Regions(np.array(o, _I64), np.array(ln, _I64), _trusted=True),
                None if base is None else np.array(p, _I64) + base,
            )
            for s, (o, ln, p) in sorted(shares.items())
        ]
