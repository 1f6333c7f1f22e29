"""A typemap walker written from the MPI-3.1 definitions (§4.1).

The *typemap* of a datatype is the ordered list of ``(displacement,
size)`` entries of the primitive data one instance denotes; every other
property of a type — its size, its true bounds, its coalesced runs, what
``pack`` gathers — is a function of that list, and ``lb``/``ub`` follow
the marker rules of §4.1.7.  This module works a type out from exactly
what MPI lets a portable program see: ``envelope()``, ``contents()`` and
``extent``.  It imports nothing from ``repro.datatypes`` or
``repro.dataloops``, so flattening, pack/unpack, the bounds and the run
summary are checked against a second reading of the standard rather than
against themselves.

Every entry is enumerated one by one, so it is for small types only.
"""

from __future__ import annotations

from itertools import product

import numpy as np

__all__ = [
    "bounds",
    "pack",
    "placements",
    "run_summary",
    "runs",
    "size",
    "true_bounds",
    "typemap",
]

#: ``MPI_DISTRIBUTE_*`` as ``contents()`` encodes them for darray
_BLOCK, _CYCLIC, _NONE = 0, 1, 2
#: ``MPI_DISTRIBUTE_DFLT_DARG``
_DFLT_DARG = -1


def _combiner(t) -> str:
    return t.envelope()[3]


def _blocks(bls, disps, old):
    """Block ``i``: ``bls[i]`` instances of ``old`` from byte ``disps[i]``."""
    return [(d + j * old.extent, old) for bl, d in zip(bls, disps) for j in range(bl)]


def _grid(sizes, owned, fortran: bool, old):
    """Elements of an ``sizes`` array of ``old`` whose index along
    dimension ``i`` is in ``owned[i]``, in memory order of the array:
    row-major (C, last index fastest) or column-major (Fortran)."""
    n = len(sizes)
    dims = list(range(n))
    if fortran:
        dims.reverse()
    stride, step = [0] * n, old.extent
    for i in reversed(dims):
        stride[i] = step
        step *= sizes[i]
    out = []
    for picked in product(*(owned[i] for i in dims)):
        index = dict(zip(dims, picked))
        out.append((sum(index[i] * stride[i] for i in range(n)), old))
    return out


def _owned(gsize, dist, darg, psize, coord):
    """Indices of one darray dimension held by grid coordinate ``coord``
    (MPI-3.1 §4.1.4)."""
    if dist == _NONE:
        return range(gsize)
    if dist == _BLOCK:
        b = -(-gsize // psize) if darg == _DFLT_DARG else darg
        return range(coord * b, min((coord + 1) * b, gsize))
    b = 1 if darg == _DFLT_DARG else darg
    return [i for i in range(gsize) if (i // b) % psize == coord]


def _array_args(ints, combiner):
    """``(sizes, owned index lists, fortran)`` of a subarray or darray."""
    if combiner == "subarray":
        n = ints[0]
        sizes, subsizes, starts = (ints[1 + k * n : 1 + (k + 1) * n] for k in range(3))
        owned = [range(s, s + sub) for s, sub in zip(starts, subsizes)]
        return list(sizes), owned, ints[1 + 3 * n] == 1
    _, rank, n = ints[:3]
    gsizes, dists, dargs, psizes = (ints[3 + k * n : 3 + (k + 1) * n] for k in range(4))
    coords = []  # process grid coordinates are row-major in either order
    for p in reversed(psizes):
        coords.append(rank % p)
        rank //= p
    coords.reverse()
    owned = [_owned(*args) for args in zip(gsizes, dists, dargs, psizes, coords)]
    return list(gsizes), owned, ints[3 + 4 * n] == 1


def placements(t) -> list:
    """``(displacement, child type)`` of every child instance one
    instance of ``t`` places, in typemap order; ``[]`` for a named type."""
    combiner = _combiner(t)
    if combiner == "named":
        return []
    ints, addrs, types = t.contents()
    old = types[0] if types else None
    if combiner in ("dup", "resized"):
        return [(0, old)]
    if combiner == "contiguous":
        return _blocks([ints[0]], [0], old)
    if combiner == "vector":
        count, bl, stride = ints
        disps = [i * stride * old.extent for i in range(count)]
        return _blocks([bl] * count, disps, old)
    if combiner == "hvector":
        (count, bl), (stride,) = ints, addrs
        return _blocks([bl] * count, [i * stride for i in range(count)], old)
    if combiner == "indexed":
        n = ints[0]
        disps = [d * old.extent for d in ints[1 + n : 1 + 2 * n]]
        return _blocks(ints[1 : 1 + n], disps, old)
    if combiner == "hindexed":
        return _blocks(ints[1:], addrs, old)
    if combiner == "indexed_block":
        n, bl = ints[:2]
        return _blocks([bl] * n, [d * old.extent for d in ints[2:]], old)
    if combiner == "hindexed_block":
        n, bl = ints
        return _blocks([bl] * n, addrs, old)
    if combiner == "struct":
        fields = zip(ints[1:], addrs, types)
        return [p for bl, d, ty in fields for p in _blocks([bl], [d], ty)]
    if combiner in ("subarray", "darray"):
        sizes, owned, fortran = _array_args(ints, combiner)
        return _grid(sizes, owned, fortran, old)
    raise ValueError(f"unknown combiner {combiner!r}")


def _walk(t, disp: int, out: list) -> None:
    if _combiner(t) == "named":
        if t.extent:  # a named type is one entry as long as itself
            out.append((disp, t.extent))
        return
    for d, child in placements(t):
        _walk(child, disp + d, out)


def typemap(t, count: int = 1, base: int = 0) -> list[tuple[int, int]]:
    """The entries of ``count`` instances, instance ``i`` at
    ``base + i * extent``."""
    out: list[tuple[int, int]] = []
    for i in range(count):
        _walk(t, base + i * t.extent, out)
    return out


def runs(t, count: int = 1, base: int = 0) -> list[tuple[int, int]]:
    """The typemap with sequence-adjacent, space-adjacent entries merged:
    the offset–length pairs ``t.flatten(count, base)`` must hold."""
    out: list[tuple[int, int]] = []
    for disp, n in typemap(t, count, base):
        if out and sum(out[-1]) == disp:
            out[-1] = (out[-1][0], out[-1][1] + n)
        else:
            out.append((disp, n))
    return out


def size(t) -> int:
    return sum(n for _, n in typemap(t))


def true_bounds(t) -> tuple[int, int]:
    """Span of the data, ``(0, 0)`` when there is none."""
    tm = typemap(t)
    if not tm:
        return (0, 0)
    return min(d for d, _ in tm), max(d + n for d, n in tm)


def bounds(t) -> tuple[int, int]:
    """``(lb, ub)`` by §4.1.7: a named type spans itself, ``resized``
    sets both, subarray and darray span the whole array from 0, and any
    other type spans what its placed children span (``(0, 0)`` if it
    places none)."""
    combiner = _combiner(t)
    if combiner == "named":
        return (0, t.extent)
    ints, addrs, types = t.contents()
    if combiner == "resized":
        lb, extent = addrs
        return (lb, lb + extent)
    if combiner in ("subarray", "darray"):
        full = types[0].extent
        for s in _array_args(ints, combiner)[0]:
            full *= s
        return (0, full)
    places = placements(t)
    if not places:
        return (0, 0)
    child = {id(c): bounds(c) for _, c in places}
    return (
        min(d + child[id(c)][0] for d, c in places),
        max(d + child[id(c)][1] for d, c in places),
    )


def run_summary(t) -> tuple[int, int, int]:
    """``(runs, first offset, last end)`` of one instance, zeros if empty."""
    rs = runs(t)
    if not rs:
        return (0, 0, 0)
    return (len(rs), rs[0][0], sum(rs[-1]))


def pack(buf, t, count: int = 1, base: int = 0):
    """The packed stream: ``buf``'s bytes at each entry, in typemap order."""
    tm = typemap(t, count, base)
    if not tm:
        return np.zeros(0, np.uint8)
    return np.concatenate([buf[d : d + n] for d, n in tm])
