"""Pack/unpack real bytes between typed buffers and contiguous streams.

``pack`` is what an MPI implementation does when it marshals a derived
datatype for transmission; here it is also how the MPI-IO layer moves
data between a user's (possibly noncontiguous) memory buffer and the
contiguous payload of a file-system request.
"""

from __future__ import annotations

import numpy as np

from .base import Datatype

__all__ = ["pack", "unpack", "packed_size"]


def packed_size(dtype: Datatype, count: int = 1) -> int:
    """Bytes in the packed stream of ``count`` instances."""
    return dtype.size * count


def pack(
    buf, dtype: Datatype, count: int = 1, base_offset: int = 0
) -> np.ndarray:
    """Gather ``count`` instances of ``dtype`` from ``buf`` into a stream.

    ``base_offset`` is the byte position within ``buf`` where instance 0
    is anchored (its typemap displacements are relative to this point;
    displacements may be negative for exotic types, in which case the
    caller must anchor far enough in).
    """
    regions = dtype.flatten(count, base_offset)
    return regions.gather(buf)


def unpack(
    stream, buf, dtype: Datatype, count: int = 1, base_offset: int = 0
) -> None:
    """Scatter a packed ``stream`` into ``buf`` as ``count`` instances."""
    regions = dtype.flatten(count, base_offset)
    regions.scatter(buf, stream)
