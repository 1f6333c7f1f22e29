"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.bench.characteristics import METHOD_ORDER
from repro.regions import Regions

# ----------------------------------------------------------------------
# the method × scheduler matrix
# ----------------------------------------------------------------------
#: Every access method, in the canonical bench order — the five
#: independent paths plus collective datatype I/O.
ALL_METHODS = tuple(METHOD_ORDER)

#: Methods that write through ``write_at`` (independent calls) without
#: file locking.  Two-phase and collective datatype I/O are
#: collective-only; data-sieving writes need locks.
INDEPENDENT_WRITE_METHODS = ("posix", "list_io", "datatype_io")

#: Methods reachable through ``read_at_all``/``write_at_all``.
COLLECTIVE_METHODS = ("two_phase", "collective_dtype")

#: Server scheduler configurations every cross-cutting matrix covers:
#: the serial daemon loop and the threaded stage pipeline.
SCHEDULERS = {"serial": {}, "threaded": {"server_threads": 4}}


@pytest.fixture(
    params=[
        pytest.param((m, cfg), id=f"{m}-{name}")
        for m in ALL_METHODS
        for name, cfg in SCHEDULERS.items()
    ]
)
def method_scheduler(request):
    """``(method, config_kwargs)`` across all six methods × both
    schedulers — the shared matrix for cross-cutting identity tests.

    The config kwargs splat into ``PVFSConfig`` (empty for the serial
    scheduler, ``server_threads=4`` for the threaded one).
    """
    return request.param


def traced_peak(fn):
    """``(fn(), peak bytes tracemalloc saw while it ran)`` — the host
    memory a call needs, numpy buffers included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def region_lists(draw, max_regions=20, max_offset=10_000, max_len=500):
    """Arbitrary (possibly overlapping, unordered) region pair lists."""
    n = draw(st.integers(0, max_regions))
    pairs = []
    for _ in range(n):
        off = draw(st.integers(0, max_offset))
        ln = draw(st.integers(1, max_len))
        pairs.append((off, ln))
    return pairs


@st.composite
def sorted_region_lists(draw, max_regions=20):
    """Disjoint ascending regions (a valid file access)."""
    n = draw(st.integers(0, max_regions))
    pairs = []
    cursor = 0
    for _ in range(n):
        gap = draw(st.integers(0, 50))
        ln = draw(st.integers(1, 100))
        pairs.append((cursor + gap, ln))
        cursor += gap + ln
    return pairs


@st.composite
def small_datatypes(draw, depth=0):
    """Recursively built derived datatypes with small footprints — every
    constructor, struct displacements on both sides of zero, subarrays
    in both orders and darrays over all three distributions."""
    from repro.datatypes import (
        BYTE,
        DISTRIBUTE_BLOCK,
        DISTRIBUTE_CYCLIC,
        DISTRIBUTE_DFLT_DARG,
        DISTRIBUTE_NONE,
        DOUBLE,
        INT,
        SHORT,
        contiguous,
        darray,
        dup,
        hindexed,
        hindexed_block,
        hvector,
        indexed,
        indexed_block,
        resized,
        struct,
        subarray,
        vector,
    )

    if depth >= 2:
        return draw(st.sampled_from([BYTE, SHORT, INT, DOUBLE]))
    base = st.deferred(lambda: small_datatypes(depth + 1))
    choice = draw(st.integers(0, 12))
    old = draw(base)
    if choice == 0:
        return draw(st.sampled_from([BYTE, SHORT, INT, DOUBLE]))
    if choice == 1:
        return contiguous(draw(st.integers(0, 4)), old)
    if choice == 2:
        return vector(
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
            draw(st.integers(-4, 6)),
            old,
        )
    if choice == 3:
        return hvector(
            draw(st.integers(0, 3)),
            draw(st.integers(0, 3)),
            draw(st.integers(-40, 60)),
            old,
        )
    if choice in (4, 8):
        n = draw(st.integers(0, 3))
        bls = [draw(st.integers(0, 3)) for _ in range(n)]
        if choice == 4:
            return indexed(bls, [draw(st.integers(0, 10)) for _ in range(n)], old)
        return hindexed(bls, [draw(st.integers(0, 80)) for _ in range(n)], old)
    if choice in (9, 10):
        n = draw(st.integers(0, 3))
        bl = draw(st.integers(0, 3))
        if choice == 9:
            return indexed_block(bl, [draw(st.integers(0, 10)) for _ in range(n)], old)
        return hindexed_block(bl, [draw(st.integers(0, 80)) for _ in range(n)], old)
    if choice == 5:
        n = draw(st.integers(1, 3))
        bls = [draw(st.integers(0, 2)) for _ in range(n)]
        disps = sorted(draw(st.integers(-40, 100)) for _ in range(n))
        types = [draw(base) for _ in range(n)]
        return struct(bls, disps, types)
    if choice == 7:
        return dup(old)
    if choice == 11:
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        subsizes = [draw(st.integers(1, s)) for s in sizes]
        starts = [draw(st.integers(0, s - sub)) for s, sub in zip(sizes, subsizes)]
        return subarray(sizes, subsizes, starts, old, draw(st.sampled_from("CF")))
    if choice == 12:
        gsizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=2))
        distribs, dargs, psizes = [], [], []
        for g in gsizes:
            dist = draw(st.sampled_from(
                [DISTRIBUTE_BLOCK, DISTRIBUTE_CYCLIC, DISTRIBUTE_NONE]
            ))
            p = 1 if dist == DISTRIBUTE_NONE else draw(st.integers(1, 3))
            darg = DISTRIBUTE_DFLT_DARG
            if dist == DISTRIBUTE_BLOCK and draw(st.booleans()):
                darg = -(-g // p) + draw(st.integers(0, 2))
            elif dist == DISTRIBUTE_CYCLIC and draw(st.booleans()):
                darg = draw(st.integers(1, 3))
            distribs.append(dist)
            dargs.append(darg)
            psizes.append(p)
        size = 1
        for p in psizes:
            size *= p
        rank = draw(st.integers(0, size - 1))
        order = draw(st.sampled_from("CF"))
        return darray(size, rank, gsizes, distribs, dargs, psizes, old, order)
    # resized
    lb = draw(st.integers(-8, 8))
    extent = draw(st.integers(0, 64))
    return resized(old, lb, extent)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(42)


def make_regions(pairs) -> Regions:
    return Regions.from_pairs(pairs)


def stream_window(regions: Regions, s0: int, s1: int) -> Regions:
    """The regions covering packed-stream bytes ``[s0, s1)``, by cut and
    select: ``split_at_stream`` at both ends, then the pieces whose
    stream end falls in ``(s0, s1]``."""
    pieces = regions.split_at_stream([s0, s1])
    a, b = np.searchsorted(pieces.stream_ends, [s0, s1], side="right")
    return pieces[int(a) : int(b)]


def write_read_per_piece(client, fh, pieces: Regions, contiguous, data):
    """The unbatched reference for the client's one-op-per-piece
    sequences: write ``data`` (the packed stream) and read it back with
    every piece a client call of its own — ``write``/``read`` when
    ``contiguous``, a one-region ``write_list``/``read_list`` otherwise.
    A generator; returns the read-back stream."""
    starts = np.concatenate(([0], pieces.stream_ends)).tolist()
    for (off, ln), s in zip(pieces, starts):
        piece = data[s : s + ln]
        if contiguous:
            yield from client.write(fh, off, piece)
        else:
            yield from client.write_list(fh, Regions.single(off, ln), piece)
    out = np.zeros(pieces.total_bytes, dtype=np.uint8)
    for (off, ln), s in zip(pieces, starts):
        if contiguous:
            got = yield from client.read(fh, off, ln)
        else:
            got = yield from client.read_list(fh, Regions.single(off, ln))
        out[s : s + ln] = got
    return out


@pytest.fixture(scope="session")
def reference_core():
    """``with reference_core():`` runs the block with the array core's
    reference bodies (``tests/reference/core.py``) substituted for the
    live broadcasts, and puts the live code back on exit.

    Session-scoped because it only hands out the context manager: the
    patching happens inside the ``with``, once per Hypothesis example.
    """
    from repro.dataloops import Dataloop

    from .reference import core as ref

    @contextlib.contextmanager
    def substituted():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Regions, "intersect", ref.intersect)
            mp.setattr(Dataloop, "_flatten_one", ref.flatten_one)
            yield

    return substituted


# ----------------------------------------------------------------------
# shared assertions
# ----------------------------------------------------------------------
def assert_bit_identical(on, off):
    """Two bench RunResults must agree on every simulated quantity
    (:func:`repro.bench.runner.divergence`).

    Exact float equality, not approx — the shared acceptance bar of the
    observability/fault subsystems: enabling a purely-observing feature
    (tracing, metrics, an inert fault config) may not move the
    simulation by a single ULP.
    """
    from repro.bench.runner import divergence

    assert divergence(on, off) == []
