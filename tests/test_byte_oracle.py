"""Every access method against one oracle: the bytes each view must move.

A *geometry* is a set of rank views over one file.  :func:`check` writes
every rank's view with one method, reads it back with the readers asked
for, and holds both to ``tests/reference/bytes.py``, which works the
expected file image and read buffers out of the MPI typemap alone:

* the file the stack holds (``fs.read_back``) is the oracle's image;
* every rank's zeroed buffer holds the oracle's read, and bytes its
  memtype skips stay zero;
* an unarmed run ends quiescent (``fs.assert_quiescent``).

Collectives go through ``*_at_all``.  A data-sieving write must raise
``LockUnsupported``, and then runs once more with locking.

The contiguity cases of Thakur, Gropp and Lusk ("Optimizing
Noncontiguous Accesses in MPI-IO") are all here: contiguous in memory
and file (``rows``), noncontiguous in file only (``cols``, ``block3d``,
``tile``), noncontiguous in both (``aos-soa``, ``flash``), and file
views whose regions run backwards or out of order (``descending``,
``shuffled``).  Each geometry is written by every method and read by
all six (the 6 × 6 cross: here for the three paper workloads,
``tests/mpiio/test_methods.py`` and ``test_nonmonotone_views.py`` for
the rest), and written and read by the same method under both server
schedulers and three fault presets.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.bench import Block3DWorkload, FlashWorkload, TileWorkload
from repro.datatypes import (
    BYTE,
    DOUBLE,
    contiguous,
    hindexed,
    hvector,
    struct,
    subarray,
    vector,
)
from repro.faults import severity_config
from repro.mpiio import File, SimMPI
from repro.mpiio.adio import METHODS
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.errors import LockUnsupported
from repro.simulation import Environment

from .conftest import ALL_METHODS, SCHEDULERS
from .reference import bytes as ref
from .reference.oracle import typemap


class Geometry(NamedTuple):
    n_ranks: int
    #: rank -> (displacement, filetype, memtype, count)
    view: Callable[[int], tuple]
    config: dict
    procs_per_node: int = 2


#: four servers, 256-byte strips: small views still cross strips
SMALL = {"n_servers": 4, "strip_size": 256}


def _workload(wl) -> Geometry:
    def view(rank):
        disp = wl.displacement(rank, 0)
        return disp, wl.filetype(rank), wl.memtype(rank), wl.mem_count(rank)

    return Geometry(wl.n_clients, view, SMALL, wl.procs_per_node)


N = 32  # rows and cols: an N × N byte array over 4 ranks


def _rows(rank):
    rows = N // 4
    filetype = subarray([N, N], [rows, N], [rank * rows, 0], BYTE)
    return 0, filetype, contiguous(N * rows, BYTE), 1


def _cols(rank):
    cols = N // 4
    filetype = subarray([N, N], [N, cols], [0, rank * cols], BYTE)
    return 0, filetype, contiguous(N * cols, BYTE), 1


def _aos_soa(rank, nv=3, nc=20):
    """FLASH-like: ``nv`` interleaved doubles per cell in memory, one
    section per variable in the file."""
    field = hvector(nc, 1, nv * 8, DOUBLE)
    memtype = struct([1] * nv, [v * 8 for v in range(nv)], [field] * nv)
    return rank * nc * 8, vector(nv, nc, 4 * nc, DOUBLE), memtype, 1


def _hindexed(blocks, disps):
    """Two ranks, 1 KiB apart, each writing two instances of a filetype
    whose regions do not ascend."""
    filetype = hindexed(blocks, disps, BYTE)
    return Geometry(
        2,
        lambda rank: (rank * 1024, filetype, contiguous(2 * filetype.size, BYTE), 1),
        {"n_servers": 3, "strip_size": 64},
    )


GEOMETRIES = {
    "block3d": _workload(Block3DWorkload.reduced(2, is_write=True)),
    "flash": _workload(FlashWorkload.reduced(2)),
    # one tile: the wall's tiles overlap, and overlapping writes are
    # undefined
    "tile": _workload(TileWorkload(tile_rows=1, tile_cols=1, tile_w=32, tile_h=16,
                                   overlap_x=0, overlap_y=0, repetitions=1)),
    "rows": Geometry(4, _rows, SMALL),
    "cols": Geometry(4, _cols, SMALL),
    "aos-soa": Geometry(4, _aos_soa, SMALL),
    "descending": _hindexed([8] * 4, [96, 64, 32, 0]),
    "shuffled": _hindexed([40, 8, 70, 8], [200, 0, 90, 50]),
}


def _views(geometry: Geometry) -> list:
    """Every rank's view with its payload: random bytes over the whole
    memtype span, skipped bytes included."""
    views = []
    for rank in range(geometry.n_ranks):
        disp, filetype, memtype, count = geometry.view(rank)
        span = max(d + n for d, n in typemap(memtype, count))
        payload = np.random.default_rng([rank, span]).integers(0, 256, span, dtype=np.uint8)
        views.append((disp, filetype, memtype, count, payload))
    return views


def _expect(geometry: Geometry) -> tuple:
    """The views, the oracle's file image and every rank's oracle read,
    all read-only: runs write from a copy of the payload."""
    views = _views(geometry)
    image = ref.image(views)
    reads = [ref.read(image, view) for view in views]
    for array in (image, *reads, *(view[-1] for view in views)):
        array.setflags(write=False)
    return views, image, reads


@functools.cache
def _expected(name: str) -> tuple:
    """:func:`_expect` of a named geometry, worked out once: its
    payloads are seeded, so every run of it must move the same bytes."""
    return _expect(GEOMETRIES[name])


def _call(f, method: str, write: bool):
    if METHODS[method].collective:
        return f.write_at_all if write else f.read_at_all
    return f.write_at if write else f.read_at


def check(name: str, writer: str, readers=ALL_METHODS, *, geometry=None, **config) -> None:
    """Hold one run of geometry ``name`` (or of ``geometry``, named
    ``name`` in messages) to the oracle: ``writer`` writes every view,
    each of ``readers`` reads it back.  ``config`` overrides the
    geometry's ``PVFSConfig`` fields."""
    views, want, reads = _expect(geometry) if geometry else _expected(name)
    shape = geometry or GEOMETRIES[name]
    cfg = PVFSConfig(**{**shape.config, **config})
    env = Environment()
    fs = PVFS(env, config=cfg)

    def rank_main(ctx):
        disp, filetype, memtype, count, payload = views[ctx.rank]
        buf = payload.copy()
        f = yield from File.open(ctx, "/oracle")
        f.set_view(disp, BYTE, filetype)
        try:
            yield from _call(f, writer, True)(0, memtype, count, buf, method=writer)
        except LockUnsupported:
            return None
        yield from ctx.comm.barrier()
        got = {}
        for reader in readers:
            got[reader] = np.zeros_like(buf)
            read = _call(f, reader, False)
            yield from read(0, memtype, count, got[reader], method=reader)
        return got

    results = SimMPI(fs, shape.n_ranks, procs_per_node=shape.procs_per_node).run(rank_main)
    if cfg.faults is None:
        fs.assert_quiescent()
    if writer == "data_sieving" and not cfg.supports_locking:
        assert results == [None] * shape.n_ranks, f"{name}: sieving wrote without locks"
        config["supports_locking"] = True
        return check(name, writer, readers, geometry=geometry, **config)

    problems = []
    for reader in readers:
        for rank, (expect, got) in enumerate(zip(reads, results)):
            bad = np.flatnonzero(got[reader] != expect)
            if bad.size:
                problems.append(
                    f"{name}: wrote with {writer}, read with {reader}: rank {rank} "
                    f"differs in {bad.size} bytes from byte {bad[0]}"
                )
    handle = fs.metadata.files["/oracle"].handle
    size = fs.logical_size(handle)
    on_file = fs.read_back(handle, 0, size)
    if size != want.size or not np.array_equal(on_file, want):
        problems.append(f"{name}: wrote with {writer}: the file ({size} bytes) is not the "
                        f"oracle's image ({want.size} bytes)")
    assert not problems, "\n".join(problems)


# -- the 6 × 6 cross of the paper's workloads ---------------------------
@pytest.mark.parametrize("writer", ALL_METHODS)
@pytest.mark.parametrize("name", ["block3d", "flash", "tile"])
def test_every_reader_reads_what_every_writer_wrote(name, writer):
    check(name, writer)


# -- writer = reader × scheduler × fault preset --------------------------
SEVERITIES = ("none", "moderate", "heavy")


def _same_method_cells():
    for name in GEOMETRIES:
        levels = ("heavy",) if name == "block3d" else SEVERITIES
        for cell in itertools.product([name], levels, SCHEDULERS, ALL_METHODS):
            yield pytest.param(*cell, id="-".join(cell))


@pytest.mark.parametrize("name, level, sched, method", _same_method_cells())
def test_same_method_under_faults(name, level, sched, method):
    faults = severity_config(level, seed=1)
    check(name, method, (method,), faults=faults, **SCHEDULERS[sched])


# -- the oracle can fail -------------------------------------------------
def test_a_flipped_read_byte_fails(monkeypatch):
    """A datatype I/O read that flips the buffer's first byte."""
    real = METHODS["datatype_io"]

    def flipped(op):
        yield from real.read(op)
        op.buf[0] ^= 0xFF

    monkeypatch.setitem(METHODS, "datatype_io", dataclasses.replace(real, read=flipped))
    named = r"rows: wrote with posix, read with datatype_io: rank 0 "
    with pytest.raises(AssertionError, match=named):
        check("rows", "posix")


def test_a_flipped_write_byte_fails(monkeypatch):
    """A block store that flips the first byte of every payload it is
    handed to write."""
    from repro.storage import BlockStore

    real = BlockStore.write_regions

    def flipped(self, handle, regions, stream):
        stream = np.array(stream, dtype=np.uint8)
        if stream.size:
            stream[0] ^= 0xFF
        real(self, handle, regions, stream)

    monkeypatch.setattr(BlockStore, "write_regions", flipped)
    named = r"flash: wrote with list_io, read with posix: rank \d"
    with pytest.raises(AssertionError, match=named):
        check("flash", "list_io")
