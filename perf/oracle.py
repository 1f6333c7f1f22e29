"""Independent oracle for the ``real_bytes`` workload.

For each geometry the oracle says, with plain numpy indexing only (no
``Regions``, dataloop, typemap or ``flatten`` code from the stack):

* which bytes every rank holds in memory before a write (``bufs``),
* the file image all ranks' writes must produce (``image``),
* what a zero-filled buffer must hold after reading the view back
  (``expect``; bytes the memory type skips stay zero).

The stack's workload classes supply the MPI datatypes under test; the
oracle recomputes the geometry from the same integers on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench import Block3DWorkload, FlashWorkload, TileWorkload


@dataclass
class Case:
    """One geometry with seeded payloads and the expected outcomes."""

    name: str
    make: object  #: () -> fresh library workload (datatypes under test)
    #: [rank][frame] -> uint8 memory image before the write (one frame
    #: per view written: the tile's frames, a single view elsewhere)
    bufs: list
    expect: list  #: [rank][frame] -> uint8 memory image after a read
    image: np.ndarray  #: expected file bytes


def _payload(rng, shape) -> np.ndarray:
    return rng.integers(0, 256, shape, dtype=np.uint8)


def block3d_case(seed: int, grid: int, m: int) -> Case:
    """``grid^3`` ints block-decomposed over ``m^3`` ranks, C order."""
    rng = np.random.default_rng([seed, 1])
    b = grid // m
    image = np.zeros((grid, grid, grid * 4), dtype=np.uint8)
    bufs = []
    for rank in range(m**3):
        i, j, k = np.unravel_index(rank, (m, m, m))
        block = _payload(rng, (b, b, b * 4))
        image[i * b:(i + 1) * b, j * b:(j + 1) * b, k * b * 4:(k + 1) * b * 4] = block
        bufs.append([block.reshape(-1)])
    return Case(
        f"block3d_g{grid}_m{m}",
        lambda: Block3DWorkload(grid=grid, clients_per_dim=m, is_write=True),
        bufs, bufs, image.reshape(-1),
    )


def tile_case(seed: int, tile_w: int, tile_h: int, frames: int) -> Case:
    """2x3 display wall with the paper's overlaps.

    Tiles overlap, so every rank's payload is its slice of one seeded
    frame: overlapping writes carry identical bytes and the file image
    is the frame sequence whatever order the writes land in.
    """
    rng = np.random.default_rng([seed, 2])
    rows, cols, bpp, ox, oy = 2, 3, 3, 270, 128
    ox = min(ox, tile_w // 2)
    oy = min(oy, tile_h // 2)
    h = rows * tile_h - (rows - 1) * oy
    row_bytes = (cols * tile_w - (cols - 1) * ox) * bpp
    movie = _payload(rng, (frames, h, row_bytes))
    bufs = []
    for rank in range(rows * cols):
        r, c = divmod(rank, cols)
        y0 = r * (tile_h - oy)
        x0 = c * (tile_w - ox) * bpp
        bufs.append([
            movie[f, y0:y0 + tile_h, x0:x0 + tile_w * bpp].copy().reshape(-1)
            for f in range(frames)
        ])
    return Case(
        f"tile_{tile_w}x{tile_h}_f{frames}",
        lambda: TileWorkload(
            tile_w=tile_w, tile_h=tile_h, overlap_x=ox, overlap_y=oy,
            repetitions=frames, is_write=True,
        ),
        bufs, bufs, movie.reshape(-1),
    )


def flash_case(seed: int, n_clients: int, nblocks: int) -> Case:
    """FLASH checkpoint: array-of-struct blocks with guard cells in
    memory, variable-major interior cells in the file."""
    rng = np.random.default_rng([seed, 3])
    nxb, g, nvar, elem = 8, 4, 24, 8
    s = nxb + 2 * g
    inner = slice(g, g + nxb)
    image = np.zeros((nvar, n_clients, nblocks, nxb, nxb, nxb, elem), np.uint8)
    bufs, expect = [], []
    for rank in range(n_clients):
        mem = _payload(rng, (nblocks, s, s, s, nvar, elem))
        interior = mem[:, inner, inner, inner]
        image[:, rank] = interior.transpose(4, 0, 1, 2, 3, 5)
        back = np.zeros_like(mem)
        back[:, inner, inner, inner] = interior
        bufs.append([mem.reshape(-1)])
        expect.append([back.reshape(-1)])
    return Case(
        f"flash_n{n_clients}_b{nblocks}",
        lambda: FlashWorkload(n_clients=n_clients, nblocks=nblocks),
        bufs, expect, image.reshape(-1),
    )
