"""MPI-style derived datatypes, from scratch.

This package implements the subset of the MPI datatype system that
MPI-IO needs, with identical semantics:

* predefined (primitive) types — :data:`BYTE`, :data:`INT`,
  :data:`DOUBLE`, ...;
* the full set of derived-type constructors — :func:`contiguous`,
  :func:`vector`, :func:`hvector`, :func:`indexed`, :func:`hindexed`,
  :func:`indexed_block`, :func:`hindexed_block`, :func:`struct`,
  :func:`subarray`, :func:`resized`, :func:`dup`;
* size / extent / lower-bound / upper-bound arithmetic, including
  negative strides and :func:`resized` types;
* ``MPI_Type_get_envelope`` / ``MPI_Type_get_contents`` introspection
  (:meth:`Datatype.envelope` / :meth:`Datatype.contents`) — this is the
  *only* interface the dataloop builder consumes, mirroring the paper's
  portable conversion path;
* flattening to vectorized :class:`~repro.regions.Regions` and
  pack/unpack of real bytes.

A type holds only its description: constructor arguments, size, bounds
and a run summary, all worked out from the arguments.  Its regions are
its dataloop's — :meth:`Datatype.flatten` converts the type once with
:func:`~repro.dataloops.build_dataloop` and expands that loop — so there
is one flattener.  The typemap walker the flattening is checked against
lives with the tests (``tests/reference/oracle.py``).

Example
-------
>>> from repro.datatypes import vector, INT
>>> t = vector(count=3, blocklength=2, stride=4, oldtype=INT)
>>> t.size, t.extent
(24, 40)
>>> t.flatten().to_pairs()
[(0, 8), (16, 8), (32, 8)]
"""

from .base import (
    Datatype,
    PrimitiveType,
    BYTE,
    CHAR,
    SHORT,
    INT,
    LONG,
    LONG_LONG,
    FLOAT,
    DOUBLE,
    DOUBLE_8,
    UB_MARKER_UNSUPPORTED,
)
from .constructors import (
    contiguous,
    vector,
    hvector,
    indexed,
    hindexed,
    indexed_block,
    hindexed_block,
    struct,
    subarray,
    resized,
    dup,
)
from .darray import (
    DISTRIBUTE_BLOCK,
    DISTRIBUTE_CYCLIC,
    DISTRIBUTE_DFLT_DARG,
    DISTRIBUTE_NONE,
    darray,
)
from .pack import pack, unpack

__all__ = [
    "Datatype",
    "PrimitiveType",
    "BYTE",
    "CHAR",
    "SHORT",
    "INT",
    "LONG",
    "LONG_LONG",
    "FLOAT",
    "DOUBLE",
    "DOUBLE_8",
    "UB_MARKER_UNSUPPORTED",
    "contiguous",
    "vector",
    "hvector",
    "indexed",
    "hindexed",
    "indexed_block",
    "hindexed_block",
    "struct",
    "subarray",
    "resized",
    "dup",
    "darray",
    "DISTRIBUTE_BLOCK",
    "DISTRIBUTE_CYCLIC",
    "DISTRIBUTE_NONE",
    "DISTRIBUTE_DFLT_DARG",
    "pack",
    "unpack",
]
