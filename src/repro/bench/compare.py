"""``repro-bench compare``: perf-regression gate against baselines.

Re-collects every machine-independent benchmark document listed in
:mod:`repro.bench.registry` and diffs it against the checked-in copy
under ``results/``.  What is compared is declared beside each collector
(the :class:`~repro.bench.document.Gate` tables of its record); this
module holds the one walker that applies them.  Every compared quantity
is a *simulated* figure (bandwidth, simulated elapsed seconds, server
stage busy time, cache hit rate), so the gate is deterministic: any
change beyond the tolerance band is a real behavioural change of the
code, not machine noise.  Wall-clock fields in the baselines
(``wall_s``, ``speedup``) are machine-dependent and no gate names them.

A *regression* is a change in the harmful direction beyond the relative
tolerance — bandwidth or hit rate down, elapsed or server busy time up,
or a previously-supported (benchmark, method) pair disappearing.
Improvements beyond tolerance are reported but do not fail the gate
(refresh the baseline to lock them in).  Exit status is the CI
contract: nonzero iff at least one regression.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Optional

from .document import Gate, write_document
from .registry import DOCUMENTS

__all__ = [
    "DEFAULT_TOLERANCE",
    "Delta",
    "compare_docs",
    "compare_against_dir",
    "render_compare",
    "update_baselines",
]

#: Relative tolerance band (±5 %) applied to every compared metric.
DEFAULT_TOLERANCE = 0.05

_BY_NAME = {record.name: record for record in DOCUMENTS}


@dataclass
class Delta:
    """One compared metric: baseline vs current, and the verdict."""

    source: str  #: e.g. "pipeline/fig8_tile_read/datatype_io"
    metric: str  #: e.g. "mbps"
    baseline: Optional[float]
    current: Optional[float]
    change: float  #: signed relative change, (cur - base) / base
    regression: bool
    note: str = ""
    unit: str = ""  #: display unit of baseline/current ("MiB/s", "s", …)
    baseline_file: str = ""  #: BENCH_*.json file this delta gates against

    @property
    def improved(self) -> bool:
        # note may carry a blame-delta suffix after "improved"
        return not self.regression and self.note.startswith("improved")


#: metric name → display unit for the comparison report.
_METRIC_UNITS = {
    "mbps": "MiB/s",
    "collective_mbps": "MiB/s",
    "bytes": "B",
    "accessed_bytes": "B",
    "resent_bytes": "B",
}


def _unit(metric: str) -> str:
    if metric in _METRIC_UNITS:
        return _METRIC_UNITS[metric]
    if metric.endswith("_s") or metric == "sim_s":
        return "s"
    return ""


def _rel(base: float, cur: float) -> float:
    if base == 0:
        return 0.0 if cur == base else float("inf") * (1 if cur > 0 else -1)
    return (cur - base) / base


def _diff(
    deltas: list[Delta],
    source: str,
    metric: str,
    base: float,
    cur: float,
    tolerance: float,
    *,
    higher_is_better: bool,
) -> None:
    change = _rel(base, cur)
    harmful = -change if higher_is_better else change
    regression = harmful > tolerance
    note = ""
    if regression:
        note = "regression"
    elif -harmful > tolerance:
        note = "improved"
    deltas.append(
        Delta(
            source, metric, base, cur, change, regression, note,
            unit=_unit(metric),
        )
    )


def _blame_shift(base_blame, cur_blame) -> str:
    """Name the resource whose critical-path share moved most.

    Input: the ``critical_blame`` share dicts of two pipeline baseline
    entries (either may be missing — older baselines predate blame
    collection).  Output like ``"blame: disk 41.2%→58.0% of critical
    path"``, or ``""`` when unavailable.
    """
    if not base_blame or not cur_blame:
        return ""
    best, best_move = "", 0.0
    for resource in set(base_blame) | set(cur_blame):
        move = abs(
            cur_blame.get(resource, 0.0) - base_blame.get(resource, 0.0)
        )
        if move > best_move:
            best, best_move = resource, move
    if not best:
        return ""
    return (
        f"blame: {best} {base_blame.get(best, 0.0):.1%}"
        f"→{cur_blame.get(best, 0.0):.1%} of critical path"
    )


def _compare_row(
    deltas: list[Delta], gate: Gate, tolerance: float,
    source: str, b: dict, c: dict,
) -> None:
    if gate.supported:
        if not b.get("supported"):
            # an unsupported pair becoming supported is a new
            # capability, not a regression; nothing to compare
            return
        if not c.get("supported"):
            note = "was supported in baseline"
            deltas.append(Delta(source, "supported", 1.0, 0.0, -1.0, True, note))
            return
    mark = len(deltas)
    for metric, better, *value_of in gate.metrics:
        bv, cv = (value_of[0](r) if value_of else r[metric] for r in (b, c))
        _diff(
            deltas, source, metric, bv, cv,
            tolerance, higher_is_better=better == "higher",
        )
    if gate.blame is None:
        return
    shift = _blame_shift(b.get(gate.blame), c.get(gate.blame))
    if shift:
        for d in deltas[mark:]:
            if d.note == "regression":
                d.note = shift
            elif d.note:
                d.note += f"; {shift}"


def _walk(
    deltas: list[Delta], gate: Gate, tolerance: float,
    source: str, base: dict, cur: dict, depth: int = 0, flags=None,
) -> None:
    """Descend one gate's nested rows; the baseline's keys drive."""
    if depth == len(gate.levels):
        _compare_row(deltas, gate, tolerance, source, base, cur)
        return
    for key, b in base.items():
        here = f"{source}/{key}"
        c = cur.get(key)
        if c is None:
            note = f"{gate.levels[depth]} missing from current run"
            deltas.append(Delta(here, "coverage", None, None, 0.0, True, note))
            continue
        _walk(deltas, gate, tolerance, here, b, c, depth + 1)
        if flags and flags[0].get(key) and not flags[1].get(key):
            metric, _, note = gate.flag
            deltas.append(Delta(here, metric, 1.0, 0.0, -1.0, True, note))


def compare_docs(
    name: str, base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two copies (baseline, current) of the document ``name``.

    The only walker: applies the gate tables of the document's record.
    A baseline written under another ``"schema"`` than the current
    document's is refused by name — its layout is not the one the
    tables describe.
    """
    record = _BY_NAME[name]
    schemas = base.get("schema"), cur.get("schema")
    if None not in schemas and schemas[0] != schemas[1]:
        raise ValueError(
            f"{record.file}: baseline schema {schemas[0]} differs from "
            f"the current document's schema {schemas[1]}; refresh it "
            "with `repro-bench compare --update-baseline`"
        )
    deltas: list[Delta] = []
    for gate in record.gates:
        flags = None
        if gate.flag is not None:
            flags = gate.flag[1](base), gate.flag[1](cur)
        _walk(
            deltas, gate, tolerance, record.name,
            gate.rows(base), gate.rows(cur), flags=flags,
        )
    return deltas


def _check_injected(docs: dict) -> None:
    unknown = docs.keys() - {record.keyword for record in DOCUMENTS}
    if unknown:
        raise TypeError(f"unexpected keyword argument(s) {sorted(unknown)}")


def compare_against_dir(
    baseline_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
    save_to: Optional[pathlib.Path] = None,
    **docs: Optional[dict],
) -> tuple[list[Delta], list[str]]:
    """Re-collect fresh benchmark docs and diff against ``baseline_dir``.

    Returns ``(deltas, notes)``; ``notes`` carries a one-line summary
    per baseline file — diffed or skipped — plus a files-checked total,
    so a passing gate still says what it checked instead of staying
    silent.  Raises ``FileNotFoundError`` if *no* baseline file is
    found — a gate that silently compares nothing must not pass.  Each
    freshly collected document is also held to its record's own
    ``problems`` (a failure is a regression) and, with ``save_to``,
    written there.  A ``<name>_doc`` keyword argument injects a
    pre-collected "current" document for the record of that name (used
    by tests to simulate regressions without patching the collectors).
    """
    _check_injected(docs)
    baseline_dir = pathlib.Path(baseline_dir)
    deltas: list[Delta] = []
    notes: list[str] = []
    found = 0
    for record in DOCUMENTS:
        path = baseline_dir / record.file
        if not path.exists():
            notes.append(f"skipped: {path} not found")
            continue
        found += 1
        base = json.loads(path.read_text())
        cur = docs.get(record.keyword)
        fresh = cur is None
        if fresh:
            cur = record.collect(base)
        new = compare_docs(record.name, base, cur, tolerance)
        if fresh and record.problems is not None:
            new.extend(
                Delta(record.name, "acceptance", None, None, 0.0, True, p)
                for p in record.problems(cur)
            )
        for d in new:
            d.baseline_file = record.file
        deltas.extend(new)
        notes.append(f"{record.file}: {len(new)} field(s) diffed")
        if fresh and save_to is not None:
            notes.append(f"saved {write_document(record, save_to, cur)}")
    if not found:
        raise FileNotFoundError(
            f"no BENCH_*.json baselines under {baseline_dir}"
        )
    notes.append(f"{found} baseline file(s) checked")
    return deltas, notes


def update_baselines(
    baseline_dir: pathlib.Path, **docs: Optional[dict]
) -> list[pathlib.Path]:
    """Re-collect every benchmark document and overwrite the baselines.

    The refresh path of the compare gate (``repro-bench compare
    --update-baseline``): run after an intentional behavioural change so
    the new simulated figures become the gated reference.  Returns the
    written paths.  The ``<name>_doc`` keyword arguments inject
    pre-collected documents (tests); absent ones are collected fresh.
    """
    _check_injected(docs)
    written: list[pathlib.Path] = []
    for record in DOCUMENTS:
        doc = docs.get(record.keyword)
        if doc is None:
            doc = record.collect({})
        written.append(write_document(record, baseline_dir, doc))
    return written


def render_compare(
    deltas: list[Delta], tolerance: float = DEFAULT_TOLERANCE
) -> str:
    """Aligned text report of a comparison run.

    Values print with their units (``MiB/s``, ``s``) and the change as
    a signed percentage; every failure line names the ``BENCH_*.json``
    baseline file it gates against, and flagged drifts carry the
    blame-delta attribution when the baselines record critical-path
    shares.
    """
    title = (
        f"Benchmark comparison vs baseline "
        f"(tolerance ±{tolerance:.1%}, {len(deltas)} metrics)"
    )
    header = (
        f"{'source':>34s} {'metric':>14s} {'baseline':>16s} "
        f"{'current':>16s} {'change':>8s}  verdict"
    )
    lines = [title, "=" * len(header), header, "-" * len(header)]

    def num(v, unit):
        if v is None:
            return f"{'—':>16s}"
        s = f"{v:.6g}" + (f" {unit}" if unit else "")
        return f"{s:>16s}"

    for d in deltas:
        if d.regression:
            verdict = "REGRESSION"
        elif d.improved:
            verdict = "improved"
        else:
            verdict = d.note or "ok"
        line = (
            f"{d.source:>34s} {d.metric:>14s} {num(d.baseline, d.unit)} "
            f"{num(d.current, d.unit)} {d.change:>+7.1%}  {verdict}"
        )
        if d.regression:
            if d.note not in ("", "regression"):
                line += f" ({d.note})"
            if d.baseline_file:
                line += f" [{d.baseline_file}]"
        lines.append(line)
    n_reg = sum(d.regression for d in deltas)
    n_imp = sum(d.improved for d in deltas)
    lines.append("")
    lines.append(
        f"{n_reg} regression(s), {n_imp} improvement(s), "
        f"{len(deltas) - n_reg - n_imp} within tolerance"
    )
    return "\n".join(lines)
