"""Dataloops: the concise structured-access representation (paper §3.2).

This package reimplements the MPICH2 *dataloop* component the paper's
prototype reuses:

* :class:`Dataloop` — the five descriptor kinds of the paper
  (``contig``, ``vector``, ``blockindexed``, ``indexed``, ``struct``),
  with leaf ("final") loops carrying an element size.  MPI LB/UB are
  eliminated; only the extent is retained, so ``resized`` types process
  with no extra overhead — exactly the simplifications §3.2 describes.
* :func:`build_dataloop` — recursive conversion of an MPI datatype into
  a dataloop using **only** envelope/contents introspection (the
  portable path the paper uses via ``MPI_Type_get_envelope`` /
  ``MPI_Type_get_contents``), with regularity-preserving collapses.
* :class:`DataloopStream` — *partial processing*: a resumable cursor
  that expands any byte subrange of the (tiled) dataloop's packed
  stream into bounded batches of offset–length pairs.  This is what
  both PVFS clients and I/O servers run to create their job/access
  structures, and what bounds intermediate list storage.  One rule,
  with the batch bound as its only threshold: an instance that fits in
  a batch is a cut of its memoised flattening, a bigger one is
  descended block by block.
* :func:`dumps` / :func:`loads` — the binary wire encoding shipped
  inside datatype I/O requests; its size is what goes over the
  simulated network.
"""

from .loops import Dataloop
from .builder import build_dataloop
from .segment import DataloopStream, byte_at, stream_period, stream_regions
from .serialize import dumps, fingerprint, loads, wire_size

__all__ = [
    "Dataloop",
    "build_dataloop",
    "DataloopStream",
    "byte_at",
    "stream_period",
    "stream_regions",
    "dumps",
    "loads",
    "wire_size",
    "fingerprint",
]
