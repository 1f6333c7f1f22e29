"""Every ``results/`` file is one record.

A :class:`Document` is declared in the module that collects it (the
paper's tables and figures in :mod:`repro.bench.report`) and listed in
:mod:`repro.bench.registry`.  It is all the rest of ``repro.bench``
knows about the file: ``compare`` walks its :class:`Gate` tables,
:func:`write_document` saves a gated one, and the CLI drives every
record through one handler (smoke → collect → write → render → problems).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Document", "Gate", "write_document"]


@dataclass(frozen=True)
class Gate:
    """What ``compare`` holds one part of a document to."""

    #: document → dicts nested ``len(levels)`` deep; the leaves are rows
    rows: Callable[[dict], dict]
    #: name of each nesting level, for "<level> missing from current
    #: run" when a baseline key is absent from (or ``None`` in) a run
    levels: tuple[str, ...]
    #: ``(metric, "higher" | "lower")`` — the better direction — and
    #: optionally a function of the row; the default is ``row[metric]``
    metrics: tuple[tuple, ...]
    #: rows carry a ``"supported"`` flag: a baseline-unsupported row
    #: compares nothing, a row that lost support is a regression
    supported: bool = False
    #: row key of the critical-path shares behind the blame-shift note
    blame: Optional[str] = None
    #: ``(metric, document → {first-level key: won}, note)``: a flag set
    #: in the baseline and lost in the current run is a regression
    flag: Optional[tuple[str, Callable[[dict], dict], str]] = None


@dataclass(frozen=True)
class Document:
    """One ``results/`` file: how to make, judge and show it.

    ``collect(replay_of=None, **flags)`` returns the document;
    ``compare`` passes the baseline it replays (``{}`` on a refresh) so
    the seed or sweep spec recorded there is reused.  A paper table or
    figure collects a :func:`~.runner.mesh` of cells.  ``render(doc,
    **flags)`` is the console text, and for a record without gates the
    file itself.  ``problems(doc, **flags)`` lists the document's own
    acceptance failures.  The CLI's ``quick`` / ``trace`` /
    ``min_speedup`` / ``plot`` options arrive as ``flags``; each
    function ignores those it does not know.  ``smoke(method)``, the
    CI gate behind ``--smoke``, returns ``(problems, what a clean run
    proved, the document it collected or None)``.
    """

    name: str  #: also the source prefix of every :class:`~.compare.Delta`
    command: str  #: the ``repro-bench`` sub-command that regenerates it
    collect: Callable[..., dict]
    #: what ``compare`` holds it to; none: saved as its rendered text
    gates: tuple[Gate, ...] = ()
    render: Optional[Callable[..., str]] = None
    problems: Optional[Callable[..., list]] = None
    smoke: Optional[Callable[[str], tuple]] = None

    @property
    def file(self) -> str:
        """``BENCH_<name>.json`` when gated (``compare`` reads the
        JSON), else ``<name>.txt`` (the rendered text)."""
        return f"BENCH_{self.name}.json" if self.gates else f"{self.name}.txt"

    @property
    def keyword(self) -> str:
        """The keyword under which tests inject a pre-collected copy."""
        return f"{self.name}_doc"


def write_document(
    record: Document,
    out_dir: Optional[pathlib.Path] = None,
    doc: Optional[dict] = None,
) -> pathlib.Path:
    """Write a gated record's ``doc`` (default: collect it) into
    ``out_dir``.

    ``out_dir`` defaults to the current directory for every document;
    ``results/`` is only ever written when named.
    """
    if doc is None:
        doc = record.collect()
    out_dir = pathlib.Path(out_dir) if out_dir else pathlib.Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / record.file
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
