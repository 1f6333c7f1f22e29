"""Sparse, chunked byte store (one per I/O server).

Files are identified by integer handles.  Storage is allocated lazily in
fixed-size chunks so that paper-scale *phantom* runs (which track sizes
but never store payloads) and small *real-data* runs (tests, examples)
share one code path.
"""

from __future__ import annotations

import numpy as np

from ..regions import Regions
from ..regions.core import as_u8, copy_runs, span_stops

__all__ = ["BlockStore"]

_CHUNK = 1 << 18  # 256 KiB


class _FileData:
    __slots__ = ("chunks", "size")

    def __init__(self):
        self.chunks: dict[int, np.ndarray] = {}
        self.size = 0  # one past the highest byte ever written


class BlockStore:
    """Byte-addressable store for the local portion of many files."""

    def __init__(self, chunk_size: int = _CHUNK):
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self._files: dict[int, _FileData] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    def _file(self, handle: int) -> _FileData:
        f = self._files.get(handle)
        if f is None:
            f = _FileData()
            self._files[handle] = f
        return f

    def local_size(self, handle: int) -> int:
        f = self._files.get(handle)
        return f.size if f is not None else 0

    def remove(self, handle: int) -> None:
        self._files.pop(handle, None)

    # ------------------------------------------------------------------
    def note_write(self, handle: int, regions: Regions) -> None:
        """Phantom write: extend the size without storing bytes."""
        f = self._file(handle)
        if regions.count:
            _, hi = regions.extent()
            f.size = max(f.size, hi)
        self.bytes_written += regions.total_bytes

    def note_read(self, regions: Regions) -> None:
        """Phantom read accounting."""
        self.bytes_read += regions.total_bytes

    # ------------------------------------------------------------------
    def _chunk_spans(self, regions: Regions):
        """Cut the run list at chunk edges and group it by chunk.

        Yields ``(chunk index, in-chunk offsets, lengths, a, b)`` for
        every maximal stretch of consecutive pieces that lie in one
        chunk; ``a:b`` is the stretch's slice of the packed stream.  A
        sorted list yields each chunk it touches once.  Only runs that
        straddle an edge are cut, all of them in one vectorised step.
        """
        cs = self.chunk_size
        offs, lens = regions.offsets, regions.lengths
        lo, hi = regions.extent()
        only = lo // cs
        if only == (hi - 1) // cs:
            # the common case (a strip is smaller than a chunk): no cut
            yield only, offs - only * cs, lens, 0, regions.total_bytes
            return
        ci = offs // cs
        last = (offs + lens - 1) // cs
        if (ci != last).any():
            pieces = last - ci + 1
            run = np.repeat(np.arange(offs.size), pieces)
            nth = np.arange(run.size) - (np.cumsum(pieces) - pieces)[run]
            ci = ci[run] + nth
            start = np.maximum(offs[run], ci * cs)
            lens = np.minimum(offs[run] + lens[run], (ci + 1) * cs) - start
            offs = start
        in_chunk = offs - ci * cs
        ends = np.cumsum(lens)
        first = 0
        for stop in span_stops(ci):
            yield (
                int(ci[first]), in_chunk[first:stop], lens[first:stop],
                int(ends[first] - lens[first]), int(ends[stop - 1]),
            )
            first = stop

    def write_regions(self, handle: int, regions: Regions, stream) -> None:
        """Scatter the packed ``stream`` into the given physical regions.

        Where regions overlap, the one later in sequence order wins.
        """
        stream = as_u8(stream)
        if stream.size != regions.total_bytes:
            raise ValueError(
                f"stream of {stream.size} bytes vs regions of "
                f"{regions.total_bytes} bytes"
            )
        f = self._file(handle)
        if regions.count:
            in_order = not regions.is_disjoint
            for ci, offs, lens, a, b in self._chunk_spans(regions):
                chunk = f.chunks.get(ci)
                if chunk is None:
                    chunk = f.chunks[ci] = np.zeros(
                        self.chunk_size, dtype=np.uint8
                    )
                copy_runs(chunk, offs, lens, stream[a:b], in_order=in_order)
            f.size = max(f.size, regions.extent()[1])
        self.bytes_written += stream.size

    def read_regions(self, handle: int, regions: Regions) -> np.ndarray:
        """Gather the packed stream of the given physical regions.

        Unwritten bytes read as zero (holes).  Regions may overlap,
        repeat or come unsorted.
        """
        self.bytes_read += regions.total_bytes
        if not regions.count:
            return np.zeros(0, dtype=np.uint8)
        f = self._files.get(handle)
        chunks = f.chunks if f is not None else {}
        parts = []
        for ci, offs, lens, a, b in self._chunk_spans(regions):
            chunk = chunks.get(ci)
            if chunk is None:
                parts.append(np.zeros(b - a, dtype=np.uint8))
            else:
                parts.append(copy_runs(chunk, offs, lens))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)
