"""Datatype base class, bound arithmetic, and predefined types.

The MPI rules implemented here (MPI-3.1 §4.1):

* ``size``    — number of bytes of actual data in one instance;
* ``lb``/``ub`` — lower/upper bound; ``extent = ub - lb`` is the stride
  between consecutive instances in a ``count > 1`` access;
* ``true_lb``/``true_ub`` — bounds of the actual data, unaffected by
  :func:`~repro.datatypes.resized`;
* an *empty* type (zero primitive entries) has ``size = 0`` and
  ``lb = ub = 0``.

We deliberately do **not** implement the deprecated ``MPI_LB``/``MPI_UB``
marker types (``resized`` subsumes them — the same simplification the
paper's dataloop representation makes) and do not add C struct alignment
padding to ``struct`` extents (use ``resized`` for padded layouts).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..dataloops.builder import build_dataloop
from ..dataloops.loops import Dataloop
from ..regions import Regions

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
]

UB_MARKER_UNSUPPORTED = (
    "MPI_LB/MPI_UB marker types are not supported; use resized()"
)


class Datatype:
    """Base class for all datatypes.

    Instances are immutable and hold only their description.  Subclasses
    populate the bound attributes and ``run_summary`` — ``(runs, first
    offset, last end)`` of ``flatten()``, zeros when it is empty, worked
    out from the constructor arguments and never from the list — in
    ``__init__`` and implement :meth:`envelope` and :meth:`contents`,
    from which the dataloop that :meth:`flatten` expands is built.
    """

    __slots__ = ("size", "lb", "ub", "true_lb", "true_ub", "_dataloop", "run_summary")

    combiner: str = "abstract"

    def __init__(self, size: int, lb: int, ub: int, true_lb: int, true_ub: int):
        self.size = int(size)
        self.lb = int(lb)
        self.ub = int(ub)
        self.true_lb = int(true_lb)
        self.true_ub = int(true_ub)
        self._dataloop: Dataloop | None = None

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    @property
    def extent(self) -> int:
        """``ub - lb``: the stride between consecutive instances."""
        return self.ub - self.lb

    @property
    def true_extent(self) -> int:
        """Span of the actual data, ignoring ``resized`` adjustments."""
        return self.true_ub - self.true_lb

    @property
    def is_predefined(self) -> bool:
        return isinstance(self, PrimitiveType)

    @property
    def is_contiguous(self) -> bool:
        """True when one instance is a single dense run starting at lb.

        Such types behave exactly like ``contiguous(size, BYTE)`` for
        I/O purposes (tiling ``count`` instances stays dense only when
        ``size == extent``; this property covers a single instance).
        """
        return self.run_summary[0] <= 1 and self.size == self.extent

    # ------------------------------------------------------------------
    # introspection (MPI_Type_get_envelope / _get_contents)
    # ------------------------------------------------------------------
    def envelope(self) -> tuple[int, int, int, str]:
        """Return ``(num_integers, num_addresses, num_datatypes, combiner)``."""
        ints, addrs, types = self.contents()
        return (len(ints), len(addrs), len(types), self.combiner)

    def contents(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple["Datatype", ...]]:
        """Return the constructor arguments as MPI_Type_get_contents does.

        Predefined types raise ``ValueError`` (as in MPI, where calling
        get_contents on a named type is erroneous).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # flattening
    # ------------------------------------------------------------------
    def flatten(self, count: int = 1, base_offset: int = 0) -> Regions:
        """Flatten ``count`` consecutive instances into byte regions.

        Instance ``i`` is placed at ``base_offset + i * extent``; within
        an instance, entries sit at their typemap displacements.  The
        result is in packed-stream (traversal) order with sequence-
        adjacent dense runs coalesced — its region count is exactly the
        number of contiguous I/O operations a POSIX-only access needs.

        The regions are the dataloop's: the type is converted once
        (:func:`~repro.dataloops.build_dataloop`) and the loop kept, with
        the one-instance flattening it caches.  Those arrays are read-only
        because ``flatten()`` (``count == 1``, no offset) returns that
        very object.
        """
        if count < 0:
            raise ValueError("negative count")
        loop = self._dataloop
        if loop is None:
            loop = self._dataloop = build_dataloop(self)
        return loop.flatten_full().repeat(count, self.extent).shift(base_offset)

    def flat_region_count(self, count: int = 1) -> int:
        """Number of contiguous runs of ``count`` instances (coalesced) —
        the region count of ``flatten(count)`` — read off the run summary,
        without the list."""
        if count < 0:
            raise ValueError("negative count")
        return _repeat_runs(self.run_summary, count, self.extent)[0]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable structural description."""
        return f"{self.combiner}(size={self.size}, extent={self.extent})"

    def __repr__(self) -> str:
        return f"<Datatype {self.describe()}>"

    def iter_children(self) -> Iterator["Datatype"]:
        try:
            _, _, types = self.contents()
        except ValueError:
            return
        yield from types

    def depth(self) -> int:
        """Nesting depth of the constructor tree (primitives are 0)."""
        kids = list(self.iter_children())
        if not kids:
            return 0
        return 1 + max(k.depth() for k in kids)


class PrimitiveType(Datatype):
    """A predefined MPI type: a dense block of ``size`` bytes."""

    __slots__ = ("name",)

    combiner = "named"

    def __init__(self, name: str, size: int):
        if size < 0:
            raise ValueError("negative primitive size")
        super().__init__(size=size, lb=0, ub=size, true_lb=0, true_ub=size)
        self.name = name
        self.run_summary = (1, 0, size) if size else (0, 0, 0)

    def contents(self):
        raise ValueError(
            f"get_contents is invalid on predefined type {self.name}"
        )

    def envelope(self) -> tuple[int, int, int, str]:
        return (0, 0, 0, "named")

    def describe(self) -> str:
        return f"{self.name}({self.size})"


def _repeat_runs(summary, count: int, stride: int) -> tuple[int, int, int]:
    """Run summary of ``count`` replicas of ``summary`` at byte ``stride``
    — what :meth:`Regions.repeat` does to the list: runs add up, and every
    seam where a replica ends exactly where the next begins merges two."""
    runs, first, end = summary
    if not count or not runs:
        return (0, 0, 0)
    seam = end == stride + first
    return (runs * count - (count - 1) * seam, first, end + (count - 1) * stride)


def _span(points: Sequence[int]) -> tuple[int, int]:
    """Min/max helper for bound arithmetic over candidate displacements."""
    return min(points), max(points)


# Predefined types.  Sizes follow the paper's test platform (IA-32
# Linux): int is 4 bytes, long is 4 bytes on that ABI but we expose the
# LP64 sizes for LONG/LONG_LONG since nothing in the reproduction
# depends on them; the benchmarks only use BYTE, INT and DOUBLE.
BYTE = PrimitiveType("BYTE", 1)
CHAR = PrimitiveType("CHAR", 1)
SHORT = PrimitiveType("SHORT", 2)
INT = PrimitiveType("INT", 4)
LONG = PrimitiveType("LONG", 8)
LONG_LONG = PrimitiveType("LONG_LONG", 8)
FLOAT = PrimitiveType("FLOAT", 4)
DOUBLE = PrimitiveType("DOUBLE", 8)
#: Alias making the FLASH element size (8-byte values) explicit at call sites.
DOUBLE_8 = DOUBLE
