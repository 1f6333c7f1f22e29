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
        request's packed stream.
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
    def server_of(self, offset: int) -> int:
        return (offset // self.strip_size) % self.n_servers

    def logical_to_physical(self, offset: int) -> int:
        k = offset // self.strip_size
        return (k // self.n_servers) * self.strip_size + offset % self.strip_size

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
        """Split a logical access among servers.

        The input's sequence order is the packed-stream order; each
        server's share preserves that order and records where each of
        its pieces sits in the stream.  Servers without a share have no
        key.

        ``check=True`` is the client-side call: a negative file offset
        is an error.  ``check=False`` is :meth:`server_regions` for
        every server in one pass — negative offsets floor-divide like
        any other (a daemon expands whatever was shipped; validation is
        a later stage).
        """
        if not regions.count:
            return {}
        if regions.count == 1:
            return self._split_one(
                int(regions.offsets[0]), int(regions.lengths[0]), check
            )
        S = _I64(self.strip_size)
        n = self.n_servers
        offs = regions.offsets
        lens = regions.lengths
        if check and int(offs.min()) < 0:
            raise ValueError("negative file offset in access")

        stream_starts = np.concatenate(
            ([0], np.cumsum(lens)[:-1])
        ).astype(_I64, copy=False)

        k0 = offs // S
        k1 = (offs + lens - 1) // S
        counts = (k1 - k0 + 1).astype(_I64)
        total = int(counts.sum())

        rid = np.repeat(np.arange(regions.count, dtype=_I64), counts)
        cum = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(_I64)
        intra = np.arange(total, dtype=_I64) - np.repeat(cum, counts)
        k = k0[rid] + intra

        r_off = offs[rid]
        r_end = r_off + lens[rid]
        sub_start = np.maximum(r_off, k * S)
        sub_end = np.minimum(r_end, (k + 1) * S)
        sub_len = sub_end - sub_start
        spos = stream_starts[rid] + (sub_start - r_off)
        server = (k % n).astype(_I64)
        phys = (k // n) * S + (sub_start - k * S)

        order = np.argsort(server, kind="stable")
        server_sorted = server[order]
        bounds = np.searchsorted(server_sorted, np.arange(n + 1, dtype=_I64))

        out: dict[int, ServerSplit] = {}
        for s in range(n):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if lo == hi:
                continue
            sel = order[lo:hi]
            out[s] = ServerSplit(
                s,
                Regions(phys[sel], sub_len[sel], _trusted=True),
                spos[sel],
            )
        return out

    def _split_one(
        self, offset: int, length: int, check: bool
    ) -> dict[int, ServerSplit]:
        """:meth:`split` of the single region ``(offset, length)``: a
        walk over its strips, which for the one or two strips of a
        strip-crossing POSIX piece costs a fifth of the array set-up
        (7 µs against 45) and breaks even with it near 64 strips — the
        4 MiB of a sieving or two-phase buffer; few requests are
        longer."""
        if check and offset < 0:
            raise ValueError("negative file offset in access")
        S = self.strip_size
        n = self.n_servers
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
        return {
            s: ServerSplit(
                s,
                Regions(
                    np.array(phys, dtype=_I64),
                    np.array(lens, dtype=_I64),
                    _trusted=True,
                ),
                np.array(spos, dtype=_I64),
            )
            for s, (phys, lens, spos) in sorted(shares.items())
        }

    def server_regions(self, regions: Regions, server: int) -> ServerSplit:
        """Just one server's share (what an I/O server itself computes).

        Vectorized directly over the strips congruent to ``server`` so a
        server scanning a shipped dataloop never materializes other
        servers' pieces.
        """
        empty = ServerSplit(
            server, Regions.empty(), np.empty(0, dtype=_I64)
        )
        if not regions.count:
            return empty
        S = _I64(self.strip_size)
        n = self.n_servers
        offs = regions.offsets
        lens = regions.lengths
        stream_starts = np.concatenate(
            ([0], np.cumsum(lens)[:-1])
        ).astype(_I64, copy=False)

        k0 = offs // S
        k1 = (offs + lens - 1) // S
        # first strip >= k0 owned by `server`
        ka = k0 + ((server - k0) % n)
        counts = np.maximum((k1 - ka) // n + 1, 0)
        counts[ka > k1] = 0
        total = int(counts.sum())
        if total == 0:
            return empty
        keep = counts > 0
        ridx = np.flatnonzero(keep)
        countsk = counts[ridx]
        rid = np.repeat(ridx, countsk)
        cum = np.concatenate(([0], np.cumsum(countsk)[:-1])).astype(_I64)
        intra = np.arange(total, dtype=_I64) - np.repeat(cum, countsk)
        k = ka[rid] + intra * n

        r_off = offs[rid]
        r_end = r_off + lens[rid]
        sub_start = np.maximum(r_off, k * S)
        sub_end = np.minimum(r_end, (k + 1) * S)
        spos = stream_starts[rid] + (sub_start - r_off)
        phys = (k // n) * S + (sub_start - k * S)
        return ServerSplit(
            server,
            Regions(phys, sub_end - sub_start, _trusted=True),
            spos,
        )
