"""Convert MPI datatypes to dataloops.

The conversion is the "recursive process built by using
``MPI_Type_get_envelope`` and ``MPI_Type_get_contents``" of paper §3.2:
it consumes **only** the portable introspection interface of
:class:`~repro.datatypes.Datatype` (plus size/extent queries, which MPI
also provides portably), never internal representation details, so it
would work against any MPI implementation's types.

Regularity-preserving collapses applied while building (these are what
keep the representation concise and the processing fast):

* ``contiguous`` of a dense final loop merges into one final loop;
* ``vector``/``hvector`` whose block is dense becomes a *final vector*;
* a vector whose stride equals its block span degenerates to contig;
* ``indexed`` families with a dense child become final
  ``blockindexed``/``indexed`` loops (uniform block size detected);
* ``resized`` only rewrites the extent — zero-overhead, as the paper
  notes for the dataloop representation;
* ``subarray`` expands to nested vectors (as in MPICH).

Each distinct child type is converted once per build, so fields that
share a type share one child loop — which is what lets the expansion
broadcast them (a FLASH memory type is 1 920 fields of one ``hvector``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .loops import Dataloop

if TYPE_CHECKING:
    from ..datatypes.base import Datatype

__all__ = ["build_dataloop"]


def _is_dense_final_contig(loop: Dataloop) -> bool:
    """One run covering the whole extent — blocks of these tile densely."""
    return (
        loop.is_final
        and loop.kind == "contig"
        and loop.extent == loop.data_size
    )


def _contig(count: int, child: Dataloop) -> Dataloop:
    if count == 1:
        return child
    if _is_dense_final_contig(child):
        return Dataloop.final_contig(count * child.count, child.el_size)
    return Dataloop.contig(count, child)


def _vector(count: int, bl: int, stride_bytes: int, child: Dataloop) -> Dataloop:
    if count == 0 or bl == 0:
        return _empty_loop()
    if stride_bytes == bl * child.extent:
        # blocks tile back-to-back: plain contig
        return _contig(count * bl, child)
    if count == 1:
        return _contig(bl, child)
    if _is_dense_final_contig(child):
        return Dataloop.final_vector(
            count, bl * child.count, stride_bytes, child.el_size
        )
    if bl == 1:
        return Dataloop.vector(count, 1, stride_bytes, child)
    return Dataloop.vector(count, bl, stride_bytes, child)


def _indexed(bls, offs_bytes, child: Dataloop, extent: int) -> Dataloop:
    pairs = [(int(b), int(o)) for b, o in zip(bls, offs_bytes) if b > 0]
    if not pairs:
        return _empty_loop()
    bls = [p[0] for p in pairs]
    offs = [p[1] for p in pairs]
    if len(bls) == 1 and offs[0] == 0:
        return Dataloop.resized(_contig(bls[0], child), extent)
    uniform = len(set(bls)) == 1
    if _is_dense_final_contig(child):
        el = child.el_size
        elem_bls = [b * child.count for b in bls]
        if uniform:
            return Dataloop.final_blockindexed(elem_bls[0], offs, el, extent)
        return Dataloop.final_indexed(elem_bls, offs, el, extent)
    if uniform:
        return Dataloop.blockindexed(bls[0], offs, child, extent)
    return Dataloop.indexed(bls, offs, child, extent)


def _empty_loop() -> Dataloop:
    return Dataloop.final_contig(0, 1, extent=0)


def build_dataloop(dtype: Datatype) -> Dataloop:
    """Build the dataloop of one instance of ``dtype``.

    The returned loop's ``extent`` always equals ``dtype.extent`` and
    its ``data_size`` equals ``dtype.size``.
    """
    return _child(dtype, {})


def _child(dtype: Datatype, built: dict) -> Dataloop:
    """``dtype``'s loop, converted once per build (``built``)."""
    loop = built.get(dtype)
    if loop is None:
        loop = built[dtype] = Dataloop.resized(_build(dtype, built), dtype.extent)
    return loop


def _build(dtype: Datatype, built: dict) -> Dataloop:
    _, _, _, combiner = dtype.envelope()

    if combiner == "named":
        if dtype.size == 0:
            return _empty_loop()
        return Dataloop.final_contig(1, dtype.size, extent=dtype.extent)

    ints, addrs, types = dtype.contents()

    if combiner == "dup":
        return _child(types[0], built)

    if combiner == "resized":
        return Dataloop.resized(_child(types[0], built), dtype.extent)

    if combiner == "contiguous":
        (count,) = ints
        if count == 0:
            return _empty_loop()
        return _contig(count, _child(types[0], built))

    if combiner == "vector":
        count, bl, stride = ints
        old = types[0]
        return _vector(count, bl, stride * old.extent, _child(old, built))

    if combiner == "hvector":
        count, bl = ints
        (stride,) = addrs
        return _vector(count, bl, stride, _child(types[0], built))

    if combiner == "indexed":
        n = ints[0]
        bls = ints[1 : 1 + n]
        disps = ints[1 + n : 1 + 2 * n]
        old = types[0]
        offs = [d * old.extent for d in disps]
        return _indexed(bls, offs, _child(old, built), dtype.extent)

    if combiner == "hindexed":
        n = ints[0]
        bls = ints[1 : 1 + n]
        return _indexed(bls, addrs, _child(types[0], built), dtype.extent)

    if combiner == "indexed_block":
        n, bl = ints[0], ints[1]
        disps = ints[2 : 2 + n]
        old = types[0]
        offs = [d * old.extent for d in disps]
        return _indexed([bl] * n, offs, _child(old, built), dtype.extent)

    if combiner == "hindexed_block":
        n, bl = ints[0], ints[1]
        return _indexed([bl] * n, addrs, _child(types[0], built), dtype.extent)

    if combiner == "struct":
        n = ints[0]
        bls = list(ints[1 : 1 + n])
        disps = list(addrs)
        children = []
        kept_bls = []
        kept_offs = []
        for bl, d, t in zip(bls, disps, types):
            if bl == 0 or t.size == 0:
                continue
            children.append(_child(t, built))
            kept_bls.append(bl)
            kept_offs.append(d)
        if not children:
            return _empty_loop()
        if len(children) == 1 and kept_offs[0] == 0:
            return Dataloop.resized(
                _contig(kept_bls[0], children[0]), dtype.extent
            )
        return Dataloop.struct(kept_bls, kept_offs, children, dtype.extent)

    if combiner == "subarray":
        n = ints[0]
        sizes = list(ints[1 : 1 + n])
        subsizes = list(ints[1 + n : 1 + 2 * n])
        starts = list(ints[1 + 2 * n : 1 + 3 * n])
        order_flag = ints[1 + 3 * n]
        old = types[0]
        if order_flag == 1:  # Fortran order: reverse to C convention
            sizes.reverse()
            subsizes.reverse()
            starts.reverse()
        child = _child(old, built)
        strides = [0] * n
        step = old.extent
        for i in range(n - 1, -1, -1):
            strides[i] = step
            step *= sizes[i]
        full_bytes = step
        t = _contig(subsizes[-1], child)
        for i in range(n - 2, -1, -1):
            t = _vector(subsizes[i], 1, strides[i], t)
        start_off = sum(starts[i] * strides[i] for i in range(n))
        if start_off:
            t = _indexed([1], [start_off], t, full_bytes)
        return Dataloop.resized(t, full_bytes)

    if combiner == "darray":
        return _build_darray(ints, _child(types[0], built), types[0].extent)

    raise ValueError(f"unsupported combiner {combiner!r}")


def _build_darray(ints, loop: Dataloop, el_extent: int) -> Dataloop:
    """darray → dataloop, re-deriving the owned runs from the contents
    (sharing the run arithmetic with the datatype constructor, the way
    MPICH's dataloop code shares its darray helpers)."""
    from ..datatypes.darray import _DIST_CODES, _owned_runs

    code_to_dist = {v: k for k, v in _DIST_CODES.items()}
    size, rank, n = ints[0], ints[1], ints[2]
    pos = 3
    gsizes = list(ints[pos : pos + n])
    pos += n
    distribs = [code_to_dist[c] for c in ints[pos : pos + n]]
    pos += n
    dargs = list(ints[pos : pos + n])
    pos += n
    psizes = list(ints[pos : pos + n])
    pos += n
    order_flag = ints[pos]

    coords = []
    rem = rank
    for p in reversed(psizes):
        coords.append(rem % p)
        rem //= p
    coords.reverse()

    if order_flag == 1:  # Fortran order
        gsizes.reverse()
        distribs.reverse()
        dargs.reverse()
        psizes.reverse()
        coords.reverse()

    strides = [0] * n
    step = el_extent
    for i in range(n - 1, -1, -1):
        strides[i] = step
        step *= gsizes[i]
    full_bytes = step

    for i in range(n - 1, -1, -1):
        runs = _owned_runs(
            gsizes[i], distribs[i], dargs[i], psizes[i], coords[i]
        )
        child = Dataloop.resized(loop, strides[i])
        bls = [length for _s, length in runs]
        offs = [s * strides[i] for s, _l in runs]
        loop = _indexed(bls, offs, child, gsizes[i] * strides[i])
    return Dataloop.resized(loop, full_bytes)
