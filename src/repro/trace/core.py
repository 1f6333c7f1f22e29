"""Span recording: the mechanism behind ``repro.trace``.

A *span* is one named interval on the simulated clock, attributed to an
*actor* (a client, a rank, an I/O daemon, or the network), belonging to
one *trace* (one end-to-end I/O job), and optionally nested under a
parent span.  The :class:`TraceRecorder` hands out trace and span ids
and stores spans; it never advances the simulated clock or allocates
simulation events, so recording is pure observation — a traced run and
an untraced run of the same workload produce bit-for-bit identical
timings and counters.

Zero overhead when disabled: every instrumentation site in the client,
the network model and the server pipeline guards on ``tracer.enabled``,
and the disabled singleton (:data:`NULL_TRACER`) makes that a single
attribute test.  No rows, ids, or attribute dicts are created on the
disabled path.

Span lifecycle — a span is its id, an ``int``::

    span = tracer.begin("server.plan", "server", "iod3",
                        trace_id=req.trace_id, parent=req.trace_parent,
                        op_kind="dtype")
    ...                       # simulated time passes
    tracer.attrs(span)["retries"] = 1   # annotate while open
    tracer.end(span, built=plan.built)
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

__all__ = ["Span", "TraceRecorder", "NullTracer", "NULL_TRACER"]

_OPEN = float("nan")  # the end of a span that is still open


class Span(NamedTuple):
    """A read-only snapshot of one recorded span.

    The recorder stores no span objects; :meth:`TraceRecorder.span` and
    :attr:`TraceRecorder.spans` build these on demand for tests and
    ad-hoc readers.  ``end`` is ``None`` while the span is open.
    """

    name: str
    cat: str
    actor: str
    trace_id: int
    span_id: int
    parent_id: int
    start: float
    end: Optional[float] = None
    attrs: Mapping = MappingProxyType({})

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start


class TraceRecorder:
    """The spans of one simulation run, as an append-only column table.

    Row *i* is span id *i + 1*; ids are globally unique within the run,
    so parent links survive the trip across the simulated wire as plain
    ints on the request.  Columns, one entry per row:

    * ``names``, ``cats``, ``actors`` — references to interned strings
      (literals and node names at the :meth:`add` sites; :meth:`begin`
      interns the per-operation names built at run time);
    * ``trace_ids``, ``parent_ids`` — ``array('q')``, ``-1`` for none;
    * ``starts``, ``ends`` — ``array('d')``, ``ends`` NaN while open;
    * attributes: ``attr_keys`` holds one interned tuple of names per
      row and ``attr_offsets`` where that row's values start in the flat
      ``attr_values`` list.  An open span's attributes live in a dict
      (:meth:`attrs`) until :meth:`end` packs them into its row.
    """

    enabled = True

    def __init__(self, env):
        self.env = env
        self.names: list[str] = []
        self.cats: list[str] = []
        self.actors: list[str] = []
        self.trace_ids = array("q")
        self.parent_ids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.attr_keys: list[tuple] = []
        self.attr_offsets = array("q")
        self.attr_values: list = []
        self._open: dict[int, dict] = {}  # row -> attributes while open
        self._interned: dict = {}
        self._next_trace = 0

    # ------------------------------------------------------------------
    def new_trace(self) -> int:
        """Allocate a fresh trace id (one end-to-end I/O job)."""
        self._next_trace += 1
        return self._next_trace

    def begin(
        self, name: str, cat: str, actor: str, trace_id: int = -1,
        parent: Optional[int] = None, **attrs,
    ) -> int:
        """Open a span starting now; close it with :meth:`end`.

        ``trace_id`` defaults to the parent's trace, or a fresh trace
        for a root span.  Returns the span id.  Interns ``name`` and
        ``actor``: operation spans build theirs at run time.
        """
        intern = self._interned.setdefault
        name, actor = intern(name, name), intern(actor, actor)
        span_id = self.add(name, cat, actor, self.env.now, _OPEN, trace_id, parent)
        self._open[span_id - 1] = attrs
        return span_id

    def end(self, span_id: int, **attrs) -> None:
        """Close a span at the current simulated instant."""
        row = span_id - 1
        self.ends[row] = self.env.now
        live = self._open.pop(row, None)
        if live is None:  # closed again: merge into its packed attributes
            live = dict(self.attrs(span_id))
        live.update(attrs)
        keys = tuple(live)
        self.attr_keys[row] = self._interned.setdefault(keys, keys)
        self.attr_offsets[row] = len(self.attr_values)
        self.attr_values.extend(live.values())

    def add(
        self, name: str, cat: str, actor: str, start: float, end: float,
        trace_id: int = -1, parent: Optional[int] = None, **attrs,
    ) -> int:
        """Record a closed span with explicit boundaries; returns its id.

        For intervals known analytically: the network's reservation model
        computes a transfer's completion up front, and the serial
        scheduler charges plan + storage as one combined timeout."""
        if parent is None:
            parent = -1
        if trace_id < 0:
            trace_id = self.trace_ids[parent - 1] if parent > 0 else self.new_trace()
        self.names.append(name)
        self.cats.append(cat)
        self.actors.append(actor)
        self.trace_ids.append(trace_id)
        self.parent_ids.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        keys = tuple(attrs)
        self.attr_keys.append(self._interned.setdefault(keys, keys))
        self.attr_offsets.append(len(self.attr_values))
        self.attr_values.extend(attrs.values())
        return len(self.names)

    # ------------------------------------------------------------------
    def attrs(self, span_id: int) -> Mapping:
        """A span's attributes in insertion order: for an open span the
        live dict :meth:`end` will pack (annotate through it), for a
        closed one a read-only mapping."""
        row = span_id - 1
        live = self._open.get(row)
        if live is not None:
            return live
        keys, off = self.attr_keys[row], self.attr_offsets[row]
        values = self.attr_values[off : off + len(keys)]
        return MappingProxyType(dict(zip(keys, values)))

    def trace_of(self, span_id: int) -> int:
        """The trace a span belongs to."""
        return self.trace_ids[span_id - 1]

    def span(self, span_id: int) -> Span:
        """A read-only snapshot of one row."""
        row = span_id - 1
        end = self.ends[row]
        return Span(
            self.names[row], self.cats[row], self.actors[row],
            self.trace_ids[row], span_id, self.parent_ids[row],
            self.starts[row], None if end != end else end,
            MappingProxyType(dict(self.attrs(span_id))),
        )

    @property
    def spans(self) -> list[Span]:
        """Snapshots of every span in row order."""
        return [self.span(i) for i in range(1, len(self.names) + 1)]

    def open_spans(self) -> list[Span]:
        """Spans begun but never ended (should be empty after a run)."""
        return [self.span(row + 1) for row in self._open]

    def traces(self) -> set[int]:
        return set(self.trace_ids)

    def __len__(self) -> int:
        return len(self.names)


class NullTracer:
    """The disabled tracer: it records nothing and has no recording
    methods — every instrumentation site guards with
    ``if tracer.enabled:``, or on a span only an enabled tracer opens."""

    enabled = False
    spans: tuple = ()

    def __len__(self) -> int:
        return 0


#: Shared disabled singleton; ``PVFS`` uses it when ``config.trace`` is off.
NULL_TRACER = NullTracer()
