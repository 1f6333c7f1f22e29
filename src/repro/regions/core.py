"""Core :class:`Regions` implementation.

Everything here is NumPy-vectorized; no per-region Python loops on the
hot paths (tiling, shifting, coalescing, cutting, gather/scatter).
Bytes move through one kernel, :func:`copy_runs`, which the block store
shares.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Regions", "as_u8", "copy_runs", "span_stops"]

_I64 = np.int64


def _as_i64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=_I64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


class Regions:
    """An ordered sequence of contiguous byte regions.

    Parameters
    ----------
    offsets, lengths:
        Equal-length 1-D integer arrays.  Zero-length regions are
        dropped; negative lengths are rejected.

    Notes
    -----
    Instances are immutable: all transformations return new objects
    (arrays may be shared when unchanged) and nothing may write to
    ``offsets``/``lengths`` after construction.  The memos rely on it —
    the content hash, :attr:`total_bytes` and the derived
    ``_sorted_disjoint``/:attr:`is_disjoint`/"known coalesced" flags are
    computed once per instance and never invalidated.  All of them are
    scalars but one, :attr:`stream_ends`, which holds 8 bytes per
    *region*: nothing retained grows with the bytes the regions cover.
    """

    __slots__ = (
        "offsets", "lengths", "_hash", "_sd", "_dj", "_total", "_coalesced",
        "_ends",
    )

    def __init__(self, offsets, lengths, *, _trusted: bool = False):
        self._hash = None
        self._sd = None
        self._dj = None
        self._total = None
        # True once coalesce() is known to have nothing to merge here
        self._coalesced = False
        self._ends = None
        if _trusted:
            self.offsets = offsets
            self.lengths = lengths
            return
        offs = _as_i64(offsets)
        lens = _as_i64(lengths)
        if offs.shape != lens.shape:
            raise ValueError(
                f"offsets and lengths must have the same shape: "
                f"{offs.shape} != {lens.shape}"
            )
        if lens.size and lens.min() < 0:
            raise ValueError("negative region length")
        if lens.size:
            keep = lens > 0
            if not keep.all():
                offs = offs[keep]
                lens = lens[keep]
        self.offsets = offs
        self.lengths = lens

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "Regions":
        return cls(
            np.empty(0, dtype=_I64), np.empty(0, dtype=_I64), _trusted=True
        )

    @classmethod
    def single(cls, offset: int, length: int) -> "Regions":
        if length <= 0:
            return cls.empty()
        return cls(
            np.array([offset], dtype=_I64),
            np.array([length], dtype=_I64),
            _trusted=True,
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Regions":
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        arr = np.asarray(pairs, dtype=_I64)
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def concat(cls, parts: Sequence["Regions"]) -> "Regions":
        """Concatenate regions preserving sequence order."""
        parts = [p for p in parts if p.count]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(
            np.concatenate([p.offsets for p in parts]),
            np.concatenate([p.lengths for p in parts]),
            _trusted=True,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of contiguous regions."""
        return int(self.offsets.size)

    @property
    def total_bytes(self) -> int:
        """Sum of region lengths (memoized)."""
        total = self._total
        if total is None:
            total = self._total = (
                int(self.lengths.sum()) if self.lengths.size else 0
            )
        return total

    @property
    def stream_ends(self) -> np.ndarray:
        """Packed-stream position at which each region's data ends:
        ``cumsum(lengths)``, memoized and read-only (callers share it).
        Region *i* occupies stream bytes
        ``[stream_ends[i] - lengths[i], stream_ends[i])``."""
        ends = self._ends
        if ends is None:
            ends = self._ends = np.cumsum(self.lengths)
            ends.flags.writeable = False
        return ends

    @property
    def is_sorted(self) -> bool:
        """True if offsets are non-decreasing in sequence order."""
        if self.count < 2:
            return True
        return bool(np.all(np.diff(self.offsets) >= 0))

    def extent(self) -> tuple[int, int]:
        """Return ``(lo, hi)`` spanning all regions (``hi`` exclusive).

        Returns ``(0, 0)`` for an empty set.
        """
        if not self.count:
            return (0, 0)
        if self.count == 1:
            lo = int(self.offsets[0])
            return lo, lo + self.total_bytes
        if self._sd:
            # known sorted and disjoint: the first and last run bound it
            return int(self.offsets[0]), int(self.offsets[-1] + self.lengths[-1])
        lo = int(self.offsets.min())
        hi = int((self.offsets + self.lengths).max())
        return lo, hi

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for o, l in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (o, l)

    def __getitem__(self, i) -> "Regions":
        if isinstance(i, slice):
            return Regions(self.offsets[i], self.lengths[i], _trusted=True)
        return Regions.single(int(self.offsets[i]), int(self.lengths[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Regions):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self):
        """Content hash, consistent with ``__eq__`` (memoized).

        Instances are immutable by convention, so hashing over the raw
        array bytes is safe and lets region sets key caches directly.
        """
        h = self._hash
        if h is None:
            h = hash((self.offsets.tobytes(), self.lengths.tobytes()))
            self._hash = h
        return h

    def __repr__(self) -> str:
        if self.count <= 6:
            body = ", ".join(f"({o}, {l})" for o, l in self)
        else:
            head = ", ".join(f"({o}, {l})" for o, l in self[:3])
            tail = ", ".join(f"({o}, {l})" for o, l in self[-2:])
            body = f"{head}, ... {tail}"
        return f"Regions[{self.count}: {body}]"

    def to_pairs(self) -> list[tuple[int, int]]:
        return list(self)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def shift(self, delta: int) -> "Regions":
        """Return a copy with every offset displaced by ``delta``."""
        if not self.count or delta == 0:
            return self
        out = Regions(self.offsets + _I64(delta), self.lengths, _trusted=True)
        out._coalesced = self._coalesced
        return out

    def tile(self, count: int, stride: int) -> "Regions":
        """Repeat the whole set ``count`` times at byte ``stride``.

        Replica *i* is shifted by ``i * stride``.  Sequence order is
        replica-major (all of replica 0, then replica 1, ...), matching
        datatype traversal order of ``contiguous``/``vector`` types.
        """
        if count < 0:
            raise ValueError("negative tile count")
        if count == 0 or not self.count:
            return Regions.empty()
        if count == 1:
            return self
        shifts = (np.arange(count, dtype=_I64) * _I64(stride))[:, None]
        offs = (self.offsets[None, :] + shifts).reshape(-1)
        lens = np.broadcast_to(
            self.lengths[None, :], (count, self.count)
        ).reshape(-1)
        return Regions(offs, np.ascontiguousarray(lens), _trusted=True)

    def repeat(self, count: int, stride: int) -> "Regions":
        """``tile(count, stride).coalesce()``, array for array, worked
        out run by run.

        A set that coalesces to one run of exactly ``stride`` bytes
        repeats to one run of ``count * stride`` bytes without building
        a replica: ``count`` dense elements stay one offset–length pair.
        Anything else tiles its coalesced runs and merges the seams
        between replicas.
        """
        if count < 0:
            raise ValueError("negative tile count")
        base = self.coalesce()
        if count == 0 or not base.count:
            return Regions.empty()
        if count == 1:
            return base
        if base.count == 1 and int(base.lengths[0]) == stride:
            return Regions.single(int(base.offsets[0]), count * stride)
        return base.tile(count, stride).coalesce()

    def coalesce(self) -> "Regions":
        """Merge regions that are adjacent both in sequence and in space.

        Region *i+1* is merged into region *i* when
        ``offsets[i] + lengths[i] == offsets[i+1]``.  This preserves the
        packed-stream order semantics (only sequence-adjacent merges are
        valid).  The answer is memoized as a flag on the result (and on
        ``self`` when nothing merges), so coalescing a long-lived set
        again is O(1) and returns the same object.
        """
        n = self.count
        if n < 2 or self._coalesced:
            return self
        ends = self.offsets + self.lengths
        # boundary[i] is True when region i starts a new coalesced run
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = self.offsets[1:] != ends[:-1]
        if boundary.all():
            self._coalesced = True
            return self
        starts_idx = np.flatnonzero(boundary)
        # last region index of each run
        last_idx = np.empty(starts_idx.size, dtype=np.int64)
        last_idx[:-1] = starts_idx[1:] - 1
        last_idx[-1] = n - 1
        offs = self.offsets[starts_idx]
        out = Regions(offs, ends[last_idx] - offs, _trusted=True)
        out._coalesced = True
        return out

    def _sorted_disjoint(self) -> bool:
        """True when regions are sorted and pairwise non-overlapping.

        Memoized; this is the precondition for the searchsorted-based
        partition fast path below.
        """
        sd = self._sd
        if sd is None:
            if self.count < 2:
                sd = True
            else:
                ends = self.offsets + self.lengths
                sd = bool((self.offsets[1:] >= ends[:-1]).all())
            self._sd = sd
        return sd

    @property
    def is_disjoint(self) -> bool:
        """True when no two regions share a byte, in whatever order.

        Memoized.  Disjoint intervals sort the same way by start and by
        end, so two independent sorts decide it without a permutation.
        """
        dj = self._dj
        if dj is None:
            dj = self._sorted_disjoint()
            if not dj:
                starts = np.sort(self.offsets)
                ends = np.sort(self.offsets + self.lengths)
                dj = bool((starts[1:] >= ends[:-1]).all())
            self._dj = dj
        return dj

    def partition_with_stream(
        self, bounds
    ) -> list[tuple["Regions", np.ndarray]]:
        """Cut a file range: clip against consecutive intervals in one
        pass — the one way a set is cut at file offsets.

        ``bounds`` is a non-decreasing sequence of ``k + 1`` byte
        positions; the result has one ``(regions, stream_pos)`` entry
        per interval ``[bounds[i], bounds[i+1])``: the regions'
        intersection with the interval, in sequence order, and for each
        surviving piece the position in *this* set's packed stream at
        which its data begins (what lines file pieces up with the data
        once a range — a file domain, a round, a sieve buffer — is cut
        out).  When this set is sorted and disjoint (the common case
        for file accesses), each interval's regions are located with
        two ``searchsorted`` probes over the end positions instead of
        an O(n) mask per interval — total work O(n + k + output).
        Unsorted or overlapping sets get one masked clip per interval.
        """
        bounds = _as_i64(bounds)
        k = int(bounds.size) - 1
        if k < 0:
            return []
        ends = self.offsets + self.lengths
        stream_starts = self.stream_ends - self.lengths
        if not self._sorted_disjoint():
            out = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                starts = np.maximum(self.offsets, lo)
                lens = np.minimum(ends, hi) - starts
                keep = lens > 0
                starts = starts[keep]
                spos = stream_starts[keep] + (starts - self.offsets[keep])
                out.append((Regions(starts, lens[keep], _trusted=True), spos))
            return out
        i0s = np.searchsorted(ends, bounds[:-1], side="right")
        i1s = np.searchsorted(self.offsets, bounds[1:], side="left")
        out: list[tuple[Regions, np.ndarray]] = []
        empty = (Regions.empty(), np.empty(0, dtype=_I64))
        for i in range(k):
            lo = int(bounds[i])
            hi = int(bounds[i + 1])
            a, b = int(i0s[i]), int(i1s[i])
            if hi <= lo or a >= b:
                out.append(empty)
                continue
            offs = self.offsets[a:b].copy()
            lens = self.lengths[a:b].copy()
            spos = stream_starts[a:b].copy()
            head = lo - int(offs[0])
            if head > 0:
                offs[0] += head
                lens[0] -= head
                spos[0] += head
            tail = int(offs[-1]) + int(lens[-1]) - hi
            if tail > 0:
                lens[-1] -= tail
            out.append((Regions(offs, lens, _trusted=True), spos))
        return out

    def split_at_stream(self, cuts) -> "Regions":
        """Cut the packed stream: split regions at the given stream
        positions — the one way a set is cut at stream positions.

        Returns the same byte set with extra region boundaries inserted
        wherever a cut position falls strictly inside a region, so no
        piece straddles a cut.  The pieces between consecutive cuts are
        then one slice each: ``searchsorted(out.stream_ends, cuts,
        side="right")`` gives their first indices (list I/O operations,
        collective rounds).  Fully vectorized; nothing per operation is
        materialized.
        """
        if not self.count:
            return self
        cuts = np.asarray(cuts, dtype=_I64)
        ends = self.stream_ends
        starts = ends - self.lengths
        total = int(ends[-1])
        cuts = cuts[(cuts > 0) & (cuts < total)]
        if not cuts.size:
            return self
        # starts[1:] == ends[:-1], so 0 followed by ``ends`` is already
        # one sorted run of every region boundary: a stable sort merges
        # it with the cuts, and equal neighbours are the duplicates
        merged = np.concatenate((starts[:1], ends, cuts))
        merged.sort(kind="stable")
        bounds = merged[np.concatenate(([True], merged[1:] != merged[:-1]))]
        a = bounds[:-1]
        b = bounds[1:]
        # each [a, b) interval lies inside exactly one region
        ridx = np.searchsorted(ends, a, side="right")
        offs = self.offsets[ridx] + (a - starts[ridx])
        return Regions(offs, b - a, _trusted=True)

    def split_count(self, cuts) -> int:
        """``split_at_stream(cuts).count`` without building the pieces.

        ``cuts`` must be sorted (duplicates and out-of-range positions
        are fine): every distinct cut strictly inside the stream adds a
        piece unless a region already ends there.
        """
        n = self.count
        if not n:
            return 0
        cuts = np.asarray(cuts, dtype=_I64)
        ends = self.stream_ends
        cuts = cuts[
            np.searchsorted(cuts, 0, side="right") : np.searchsorted(
                cuts, ends[-1], side="left"
            )
        ]
        if not cuts.size:
            return n
        distinct = 1 + int(np.count_nonzero(cuts[1:] != cuts[:-1]))
        at = np.minimum(np.searchsorted(cuts, ends[:-1]), cuts.size - 1)
        return n + distinct - int(np.count_nonzero(cuts[at] == ends[:-1]))

    # ------------------------------------------------------------------
    # set-style operations (require sorted, non-overlapping semantics)
    # ------------------------------------------------------------------
    def normalized(self) -> "Regions":
        """Return the sorted, overlap-merged (canonical) form of this set.

        Unlike :meth:`coalesce`, this merges overlapping regions too.
        Loses stream-order information; use for set algebra only.
        """
        if self.count < 2:
            return self
        order = np.argsort(self.offsets, kind="stable")
        offs = self.offsets[order]
        ends = np.maximum.accumulate(offs + self.lengths[order])
        # region i starts a new run when it begins after the running end
        boundary = np.empty(offs.size, dtype=bool)
        boundary[0] = True
        boundary[1:] = offs[1:] > ends[:-1]
        starts_idx = np.flatnonzero(boundary)
        last_idx = np.empty(starts_idx.size, dtype=np.int64)
        last_idx[:-1] = starts_idx[1:] - 1
        last_idx[-1] = offs.size - 1
        run_offs = offs[starts_idx]
        return Regions(run_offs, ends[last_idx] - run_offs, _trusted=True)

    def intersect(self, other: "Regions") -> "Regions":
        """Set intersection (returns the canonical form).

        Both sets are normalized first, so each is sorted and disjoint;
        the overlap pairs are then found with two ``searchsorted``
        passes and expanded with ``repeat``/``arange`` interval
        arithmetic — a single vectorized sweep with no per-region
        Python loop.
        """
        a = self.normalized()
        b = other.normalized()
        if not a.count or not b.count:
            return Regions.empty()
        a_starts = a.offsets
        a_ends = a.offsets + a.lengths
        b_starts = b.offsets
        b_ends = b.offsets + b.lengths
        # b-regions overlapping a-region i are exactly [lo[i], hi[i])
        lo = np.searchsorted(b_ends, a_starts, side="right")
        hi = np.searchsorted(b_starts, a_ends, side="left")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return Regions.empty()
        a_idx = np.repeat(np.arange(a.count, dtype=_I64), counts)
        grp_start = np.concatenate(([0], np.cumsum(counts)[:-1]))
        b_idx = np.arange(total, dtype=_I64) - grp_start[a_idx] + lo[a_idx]
        s = np.maximum(b_starts[b_idx], a_starts[a_idx])
        e = np.minimum(b_ends[b_idx], a_ends[a_idx])
        # every matched pair overlaps by >= 1 byte, so no filtering needed
        return Regions(s, e - s, _trusted=True)

    def overlap_bytes(self, other: "Regions") -> int:
        """Bytes shared between the two sets."""
        return self.intersect(other).total_bytes

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------
    def _check_extent(self, size: int) -> None:
        lo, hi = self.extent()
        if lo < 0 or hi > size:
            raise IndexError(
                f"regions [{lo}, {hi}) out of bounds for buffer of "
                f"{size} bytes"
            )

    def gather(self, buf: np.ndarray) -> np.ndarray:
        """Extract the packed byte stream of these regions from ``buf``.

        ``buf`` is read as flat ``uint8``; the result is a new array of
        :attr:`total_bytes` bytes.  Regions are *sources* here, so they
        may overlap, repeat or come unsorted (tile reads overlap, a
        memory type may name a byte twice): every run is read from the
        unmodified buffer.
        """
        buf = as_u8(buf)
        if not self.count:
            return np.empty(0, dtype=np.uint8)
        self._check_extent(buf.size)
        return copy_runs(buf, self.offsets, self.lengths)

    def scatter(self, buf: np.ndarray, data: np.ndarray) -> None:
        """Write the packed byte stream ``data`` into ``buf`` at these regions.

        ``buf`` must be C-contiguous (any shape or dtype) so that its
        bytes can be addressed in place; anything else raises
        ``ValueError`` instead of writing into a copy.  Regions are
        *destinations* here: where two of them overlap, the run later in
        sequence order wins, whatever their lengths.
        """
        buf = as_u8(buf, dest=True)
        data = as_u8(data)
        if data.size != self.total_bytes:
            raise ValueError(
                f"data stream of {data.size} bytes does not match regions "
                f"totalling {self.total_bytes} bytes"
            )
        if not self.count:
            return
        in_order = not self.is_disjoint
        self._check_extent(buf.size)
        copy_runs(buf, self.offsets, self.lengths, data, in_order=in_order)


def as_u8(buf, *, dest: bool = False) -> np.ndarray:
    """``buf`` as a flat, contiguous ``uint8`` array.

    A source that is not C-contiguous is copied to get there.  A
    destination (``dest=True``) has to come back as a view of the
    caller's memory, so one that is not C-contiguous raises
    ``ValueError``: flattening it would hand back a copy and every
    write would be lost.
    """
    arr = np.asarray(buf)
    if arr.dtype != np.uint8:
        arr = arr.view(np.uint8)
    if not arr.flags.c_contiguous:
        if dest:
            raise ValueError(
                "destination buffer must be C-contiguous to be written "
                "in place"
            )
        arr = np.ascontiguousarray(arr)
    return arr.reshape(-1)


# copy_runs picks the per-byte index over the span loop when this
# inequality says so: a span costs about as much host time as indexing
# _SPAN_BYTES bytes one by one, and building the index about as much as
# _INDEX_SETUP_SPANS spans.
_SPAN_BYTES = 128
_INDEX_SETUP_SPANS = 16


def _rows(buf: np.ndarray, length: int) -> np.ndarray:
    """Every ``length``-byte window of ``buf`` as one row of a 2-D view.

    Row *o* is ``buf[o : o + length]``, so indexing the rows with an
    array of run offsets moves one whole run per index.  ``buf`` must
    be flat contiguous ``uint8`` and the offsets already range-checked:
    a negative one would wrap like a negative Python index instead of
    failing.  Index it, never ``np.take`` it: ``take`` first copies its
    operand contiguous, all ``size × length`` overlapping bytes of it.
    """
    return np.ndarray(
        (buf.size - length + 1, length), np.uint8, buf, 0, (1, 1)
    )


def _byte_index(offsets: np.ndarray, lengths: np.ndarray, total: int):
    """One index per byte of the runs, in sequence order."""
    ends = np.cumsum(lengths)
    idx = np.ones(total, dtype=_I64)
    idx[0] = offsets[0]
    # jump at each run boundary
    idx[ends[:-1]] = offsets[1:] - (offsets[:-1] + lengths[:-1] - 1)
    return np.cumsum(idx)


def span_stops(values: np.ndarray) -> list[int]:
    """Where each maximal span of consecutive equal ``values`` stops."""
    stops = ((values[1:] != values[:-1]).nonzero()[0] + 1).tolist()
    stops.append(values.size)
    return stops


def copy_runs(buf, offsets, lengths, stream=None, *, in_order=False):
    """Move runs of ``buf`` to or from their packed stream.

    Run *i* is ``buf[offsets[i] : offsets[i] + lengths[i]]``.  With
    ``stream=None`` the runs are gathered and the new packed stream is
    returned; otherwise ``stream`` (exactly ``lengths.sum()`` bytes) is
    scattered into ``buf``.  ``buf`` and ``stream`` are flat contiguous
    ``uint8``; there is at least one run, none is empty and all lie
    inside ``buf`` — callers check, this function does not.

    The run list is cut into spans of consecutive equal-length runs.  A
    span of *m* runs moves as one fancy row copy over :func:`_rows` — one
    index per run, not per byte — and a span of one as a slice, so a
    uniform list is a single copy and "one interior length plus clipped
    edges" is a handful.  Only a list whose spans are many and short
    (a seeded ``hindexed`` view) still builds a per-byte index.

    Spans are visited in sequence order, but the order *inside* a row
    copy is numpy's business: a scatter whose runs overlap in ``buf``
    must pass ``in_order=True`` to get one slice per run and with it
    "the later run wins".
    """
    stops = range(1, lengths.size + 1) if in_order else span_stops(lengths)
    pack = stream is None
    if pack and len(stops) == 1:
        # the row pick *is* the packed stream: no second pass
        return _rows(buf, int(lengths[0]))[offsets].reshape(-1)
    total = int(lengths.sum()) if pack else stream.size
    if not in_order and _SPAN_BYTES * (len(stops) - _INDEX_SETUP_SPANS) > total:
        index = _byte_index(offsets, lengths, total)
        if pack:
            return buf[index]
        buf[index] = stream
        return stream
    if pack:
        stream = np.empty(total, dtype=np.uint8)
    first = a = 0
    for stop in stops:
        length = int(lengths[first])
        runs = stop - first
        b = a + runs * length
        if runs == 1:
            o = int(offsets[first])
            if pack:
                stream[a:b] = buf[o : o + length]
            else:
                buf[o : o + length] = stream[a:b]
        elif pack:
            stream[a:b].reshape(runs, length)[...] = _rows(buf, length)[
                offsets[first:stop]
            ]
        else:
            _rows(buf, length)[offsets[first:stop]] = stream[a:b].reshape(
                runs, length
            )
        first, a = stop, b
    return stream
