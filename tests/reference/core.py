"""Per-region / per-block references for the array core.

Each function here is the plain Python loop that one numpy broadcast in
``src/`` replaced: same inputs, same output, one iteration per region or
block.  The Hypothesis suites compare the live code with them directly;
the end-to-end identity tests run whole workloads with them substituted
(the ``reference_core`` fixture in ``tests/conftest.py``) and require
bit-identical simulated figures.
"""

from __future__ import annotations

import numpy as np

from repro.dataloops import Dataloop
from repro.regions import Regions

__all__ = ["clip_with_stream", "flatten_one", "intersect"]

#: the live method, bound here before any test substitutes it
_LIVE_FLATTEN_ONE = Dataloop._flatten_one


def intersect(a: Regions, b: Regions) -> Regions:
    """``Regions.intersect``: two ``searchsorted`` probes per region of
    ``a`` instead of one sweep over all of them."""
    a = a.normalized()
    b = b.normalized()
    out_o: list[np.ndarray] = []
    out_l: list[np.ndarray] = []
    b_starts = b.offsets
    b_ends = b.offsets + b.lengths
    for off, ln in a:
        end = off + ln
        i = int(np.searchsorted(b_ends, off, side="right"))
        j = int(np.searchsorted(b_starts, end, side="left"))
        if i >= j:
            continue
        s = np.maximum(b_starts[i:j], off)
        e = np.minimum(b_ends[i:j], end)
        out_o.append(s)
        out_l.append(e - s)
    if not out_o:
        return Regions.empty()
    return Regions(np.concatenate(out_o), np.concatenate(out_l))


def clip_with_stream(r: Regions, lo: int, hi: int):
    """One interval of ``Regions.partition_with_stream``: walk the
    regions one at a time, keep each one's overlap with ``[lo, hi)`` and
    the stream position at which that overlap's data begins."""
    offs, lens, spos = [], [], []
    pos = 0
    for off, ln in r:
        a, b = max(off, lo), min(off + ln, hi)
        if b > a:
            offs.append(a)
            lens.append(b - a)
            spos.append(pos + a - off)
        pos += ln
    offs, lens, spos = (np.array(xs, dtype=np.int64) for xs in (offs, lens, spos))
    return Regions(offs, lens), spos


def flatten_one(loop: Dataloop) -> Regions:
    """``Dataloop._flatten_one``: the interior blockindexed / indexed
    kinds built block by block; every other kind is the live code."""
    if loop.is_final or loop.kind not in ("blockindexed", "indexed"):
        return _LIVE_FLATTEN_ONE(loop)
    child = loop.children[0]
    inner = child.flatten_full()
    if loop.kind == "blockindexed":
        block = inner.tile(loop.blocksize, child.extent).coalesce()
        return Regions.concat([block.shift(int(o)) for o in loop.offsets])
    parts = []
    for i in range(loop.count):
        bs = int(loop.blocksizes[i])
        parts.append(inner.tile(bs, child.extent).shift(int(loop.offsets[i])))
    return Regions.concat(parts)
