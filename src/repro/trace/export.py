"""Trace export: Chrome ``trace_event`` JSON and aggregate summaries.

Two consumers, two formats:

* :func:`chrome_trace` renders the recorder's spans as a Chrome
  ``trace_event`` document (the ``traceEvents`` array of ``"X"``
  complete events) that loads directly in Perfetto / ``chrome://tracing``.
  Actors become processes (named via ``"M"`` metadata events) and trace
  ids become thread lanes, so one end-to-end I/O job reads as one
  horizontal lane per actor it touched.
* :func:`summarize_trace` folds the same spans into per-category and
  per-server-stage totals — the aggregate that ``repro-bench json`` and
  ``repro-bench trace`` embed next to ``StageTimes``, which
  :func:`reconcile` holds them to (an acceptance gate).

Both read the recorder's columns in row order.

Simulated-clock seconds are converted to trace-event microseconds
(``ts``/``dur``); everything else is carried through ``args``.
"""

from __future__ import annotations

import json
from itertools import count
from typing import Iterable, List

from .core import TraceRecorder

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "summarize_trace",
    "validate_chrome",
    "reconcile",
    "SERVER_STAGE_SPANS",
]

#: span name → StageTimes field, for reconciliation and stage summaries.
SERVER_STAGE_SPANS = {
    "server.decode": "decode",
    "server.plan": "plan",
    "server.cache": "cache",
    "server.storage": "storage",
    "server.respond": "respond",
}

_US = 1e6  # simulated seconds → trace-event microseconds


def _json_value(v):
    """Coerce attribute values to JSON-clean scalars (numpy included)."""
    if v is None or isinstance(v, (bool, int, float, str)):
        return v
    if hasattr(v, "item"):  # numpy scalar
        return v.item()
    return str(v)


def _actor_order(actors: Iterable[str]) -> List[str]:
    """Stable actor listing: clients/ranks first, then net, then servers."""

    def rank(actor: str):
        if actor.startswith("rank"):
            return (0, actor)
        if actor.startswith("client"):
            return (1, actor)
        if actor == "net":
            return (2, actor)
        if actor.startswith("iod"):
            # numeric sort so iod10 follows iod9
            tail = actor[3:]
            return (3, f"iod{int(tail):06d}") if tail.isdigit() else (3, actor)
        return (4, actor)

    return sorted(dict.fromkeys(actors), key=rank)  # first-seen order


def chrome_trace(recorder: TraceRecorder) -> dict:
    """Render a recorder as a Chrome ``trace_event`` JSON document.

    Mapping: actor → ``pid`` (with a ``process_name`` metadata event),
    trace id → ``tid`` (so each job gets its own lane under every actor
    it visits), span → one ``"X"`` complete event with microsecond
    ``ts``/``dur`` and the structured attributes under ``args``.

    Raises ``ValueError`` if the recorder still holds open spans — an
    unbalanced ``begin``/``end`` is an instrumentation bug.
    """
    open_spans = recorder.open_spans()
    if open_spans:
        names = ", ".join(sorted({s.name for s in open_spans}))
        raise ValueError(f"{len(open_spans)} unfinished span(s): {names}")

    rec = recorder
    pids = {actor: i + 1 for i, actor in enumerate(_actor_order(rec.actors))}
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": actor}}
        for actor, pid in pids.items()
    ]
    rows = zip(
        count(1), rec.names, rec.cats, rec.actors, rec.trace_ids,
        rec.parent_ids, rec.starts, rec.ends,
    )
    for span_id, name, cat, actor, trace_id, parent_id, start, end in rows:
        args = {k: _json_value(v) for k, v in rec.attrs(span_id).items()}
        args["trace_id"] = trace_id
        args["span_id"] = span_id
        if parent_id >= 0:
            args["parent_span_id"] = parent_id
        events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "pid": pids[actor],
                "tid": trace_id if trace_id >= 0 else 0,
                "ts": start * _US,
                "dur": (end - start) * _US,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: TraceRecorder, path) -> dict:
    """Serialize :func:`chrome_trace` output to ``path``; return the doc."""
    doc = chrome_trace(recorder)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome(doc: dict) -> List[str]:
    """Schema-check a Chrome trace document; return a list of problems.

    Checks the subset of the ``trace_event`` format the exporter uses:
    a ``traceEvents`` list whose entries carry the per-phase required
    keys, non-negative timestamps/durations, and integer pid/tid.
    An empty list means the document is well-formed.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "i"):
            problems.append(f"{where}: unexpected phase {ph!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: pid/tid must be integers")
        if ph == "X":
            for key in ("ts", "dur", "cat"):
                if key not in ev:
                    problems.append(f"{where}: missing {key!r}")
            ts, dur = ev.get("ts"), ev.get("dur")
            if isinstance(ts, (int, float)) and ts < 0:
                problems.append(f"{where}: negative ts")
            if isinstance(dur, (int, float)) and dur < 0:
                problems.append(f"{where}: negative dur")
            if "args" in ev and not isinstance(ev["args"], dict):
                problems.append(f"{where}: args not an object")
    return problems


def summarize_trace(recorder: TraceRecorder) -> dict:
    """Aggregate span totals: per category, per span name, per stage.

    The ``server_stages`` block uses :data:`SERVER_STAGE_SPANS` to sum
    each pipeline stage's span durations in seconds — directly
    comparable with ``StageTimes.as_dict()``.  ``fault_spans`` counts
    ``fault.*`` spans per family (e.g. ``disk.stall``, ``net.drop``) so
    chaos runs are auditable from the summary alone.
    """
    by_cat: dict = {}
    by_name: dict = {}
    fault_counts: dict = {}
    for name, cat, start, end in zip(
        recorder.names, recorder.cats, recorder.starts, recorder.ends
    ):
        if end != end:  # still open
            continue
        d = end - start
        by_cat[cat] = by_cat.get(cat, 0.0) + d
        ent = by_name.setdefault(name, {"count": 0, "seconds": 0.0})
        ent["count"] += 1
        ent["seconds"] += d
        if name.startswith("fault."):
            family = name[len("fault."):]
            fault_counts[family] = fault_counts.get(family, 0) + 1
    stages = {
        field: by_name.get(name, {"seconds": 0.0})["seconds"]
        for name, field in SERVER_STAGE_SPANS.items()
    }
    return {
        "spans": len(recorder),
        "traces": len(recorder.traces()),
        "by_category_s": by_cat,
        "by_name": by_name,
        "server_stages_s": stages,
        "fault_spans": fault_counts,
    }


def reconcile(recorder: TraceRecorder, stage_times, tol: float = 1e-9) -> List[str]:
    """Compare summed server-stage spans against ``StageTimes`` totals.

    ``stage_times`` is any object with ``decode``/``plan``/``cache``/
    ``storage``/``respond`` attributes (a ``StageTimes`` or the
    aggregate from ``summarize_servers``).  Returns the list of stages
    whose span sum diverges beyond ``tol`` — empty means the trace and
    the counter accounting agree.

    The collective ``server.scatter`` spans (read scatter and, under
    armed fault configs, the write-round acks) count toward ``respond``
    — they charge ``StageTimes.respond`` but are recorded under their
    own span name.  :func:`repro.trace.critical.reconcile_blame` makes
    its stage check with this function.
    """
    full = summarize_trace(recorder)
    summary = full["server_stages_s"]
    scatter = full["by_name"].get("server.scatter", {"seconds": 0.0})
    bad = []
    for name, field in SERVER_STAGE_SPANS.items():
        want = getattr(stage_times, field)
        got = summary[field]
        if field == "respond":
            got += scatter["seconds"]
        if abs(want - got) > tol:
            bad.append(f"{field}: spans={got!r} stage_times={want!r}")
    return bad
