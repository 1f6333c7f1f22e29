"""One server's share of a round-robin striped access, on its own.

``Distribution.split`` sorts every piece of an access by server in one
pass.  This module computes a single server's share the other way: it
visits only the strips congruent to ``server`` (strip ``k`` lives on
server ``k % n_servers``), so no other server's pieces are built.  The
tests hold ``split`` to it server by server.  Nothing here comes from
``repro``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["server_regions"]

_I64 = np.int64


def server_regions(offsets, lengths, n_servers, strip_size, server):
    """``(physical offsets, lengths, stream positions)`` of ``server``'s
    share of the regions ``(offsets, lengths)``, in stream order.

    The regions are consecutive in the packed stream from position 0;
    negative offsets floor-divide like any other."""
    offs = np.asarray(offsets, dtype=_I64)
    lens = np.asarray(lengths, dtype=_I64)
    empty = np.empty(0, dtype=_I64)
    if not offs.size:
        return empty, empty, empty
    S = _I64(strip_size)
    n = n_servers
    stream_starts = np.concatenate(([0], np.cumsum(lens)[:-1])).astype(_I64)

    k0 = offs // S
    k1 = (offs + lens - 1) // S
    # first strip >= k0 owned by `server`
    ka = k0 + (server - k0) % n
    counts = np.maximum((k1 - ka) // n + 1, 0)
    counts[ka > k1] = 0
    total = int(counts.sum())
    if total == 0:
        return empty, empty, empty
    ridx = np.flatnonzero(counts)
    countsk = counts[ridx]
    rid = np.repeat(ridx, countsk)
    cum = np.concatenate(([0], np.cumsum(countsk)[:-1])).astype(_I64)
    k = ka[rid] + (np.arange(total, dtype=_I64) - np.repeat(cum, countsk)) * n

    r_off = offs[rid]
    r_end = r_off + lens[rid]
    sub_start = np.maximum(r_off, k * S)
    sub_end = np.minimum(r_end, (k + 1) * S)
    spos = stream_starts[rid] + (sub_start - r_off)
    phys = (k // n) * S + (sub_start - k * S)
    return phys, sub_end - sub_start, spos
