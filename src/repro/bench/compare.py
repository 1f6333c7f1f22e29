"""``repro-bench compare``: perf-regression gate against baselines.

Re-collects the machine-independent benchmark documents
(``BENCH_pipeline.json`` via :func:`repro.bench.baseline
.collect_pipeline_baseline`, ``BENCH_dtype_cache.json`` via
:func:`repro.bench.dtype_cache.collect`, ``BENCH_faults.json`` via
:func:`repro.bench.faultscmd.collect_faults_bench`,
``BENCH_scale.json`` via :func:`repro.bench.scalecmd
.collect_scale_bench`, ``BENCH_collective.json`` via
:func:`repro.bench.collectivecmd.collect_collective_bench`) and diffs them
against the checked-in copies under ``results/``.  Every compared quantity is a
*simulated* figure (bandwidth, simulated elapsed seconds, server stage
busy time, cache hit rate), so the gate is deterministic: any change
beyond the tolerance band is a real behavioural change of the code, not
machine noise.  Wall-clock fields in the baselines (``wall_s``,
``speedup``) are machine-dependent and deliberately ignored.

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

__all__ = [
    "DEFAULT_TOLERANCE",
    "Delta",
    "compare_collective_docs",
    "compare_dtype_cache_docs",
    "compare_faults_docs",
    "compare_pipeline_docs",
    "compare_scale_docs",
    "compare_against_dir",
    "render_compare",
    "update_baselines",
]

#: Relative tolerance band (±5 %) applied to every compared metric.
DEFAULT_TOLERANCE = 0.05

#: Stage-seconds keys of ``server_stages`` summed into server busy time.
_STAGE_KEYS = ("decode_s", "plan_s", "cache_s", "storage_s", "respond_s")


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


def compare_pipeline_docs(
    base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two ``BENCH_pipeline.json`` documents (baseline, current)."""
    deltas: list[Delta] = []
    for bench, methods in base.get("benchmarks", {}).items():
        cur_methods = cur.get("benchmarks", {}).get(bench)
        if cur_methods is None:
            deltas.append(
                Delta(
                    f"pipeline/{bench}", "coverage", None, None, 0.0,
                    True, "benchmark missing from current run",
                )
            )
            continue
        for method, b in methods.items():
            source = f"pipeline/{bench}/{method}"
            c = cur_methods.get(method)
            if c is None:
                deltas.append(
                    Delta(
                        source, "coverage", None, None, 0.0,
                        True, "method missing from current run",
                    )
                )
                continue
            if not b.get("supported"):
                # an unsupported pair becoming supported is a new
                # capability, not a regression; nothing to compare
                continue
            if not c.get("supported"):
                deltas.append(
                    Delta(
                        source, "supported", 1.0, 0.0, -1.0,
                        True, "was supported in baseline",
                    )
                )
                continue
            mark = len(deltas)
            _diff(
                deltas, source, "mbps", b["mbps"], c["mbps"],
                tolerance, higher_is_better=True,
            )
            _diff(
                deltas, source, "elapsed_s", b["elapsed_s"], c["elapsed_s"],
                tolerance, higher_is_better=False,
            )
            busy_b = sum(b["server_stages"][k] for k in _STAGE_KEYS)
            busy_c = sum(c["server_stages"][k] for k in _STAGE_KEYS)
            _diff(
                deltas, source, "server_busy_s", busy_b, busy_c,
                tolerance, higher_is_better=False,
            )
            # any flagged drift gets the attribution story: which
            # resource's critical-path share moved ("it got slower"
            # becomes "disk went from 41% to 58% of the critical path")
            shift = _blame_shift(
                b.get("critical_blame"), c.get("critical_blame")
            )
            if shift:
                for d in deltas[mark:]:
                    if d.note == "regression":
                        d.note = shift
                    elif d.note:
                        d.note += f"; {shift}"
    return deltas


def compare_dtype_cache_docs(
    base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two ``BENCH_dtype_cache.json`` documents.

    Only the deterministic simulated fields are compared —
    ``sim_speedup``, ``hit_rate``, ``scan_reduction`` per phase.  The
    wall-clock ``speedup``/``wall_s`` numbers depend on the machine the
    baseline was recorded on and are ignored.
    """
    deltas: list[Delta] = []
    for phase, b in base.get("phases", {}).items():
        source = f"dtype_cache/{phase}"
        c = cur.get("phases", {}).get(phase)
        if c is None:
            deltas.append(
                Delta(
                    source, "coverage", None, None, 0.0,
                    True, "phase missing from current run",
                )
            )
            continue
        for metric in ("sim_speedup", "hit_rate", "scan_reduction"):
            _diff(
                deltas, source, metric, b[metric], c[metric],
                tolerance, higher_is_better=True,
            )
    return deltas


def compare_faults_docs(
    base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two ``BENCH_faults.json`` documents (baseline, current).

    Degraded-mode bandwidth and elapsed time are fully deterministic
    (fault decisions replay from the seeded plan), so they gate exactly
    like the fault-free pipeline numbers: bandwidth down or elapsed up
    beyond tolerance under any severity is a real failover/recovery
    regression.
    """
    deltas: list[Delta] = []
    for method, severities in base.get("methods", {}).items():
        cur_severities = cur.get("methods", {}).get(method)
        if cur_severities is None:
            deltas.append(
                Delta(
                    f"faults/{method}", "coverage", None, None, 0.0,
                    True, "method missing from current run",
                )
            )
            continue
        for level, b in severities.items():
            source = f"faults/{method}/{level}"
            c = cur_severities.get(level)
            if c is None:
                deltas.append(
                    Delta(
                        source, "coverage", None, None, 0.0,
                        True, "severity missing from current run",
                    )
                )
                continue
            if not b.get("supported"):
                continue
            if not c.get("supported"):
                deltas.append(
                    Delta(
                        source, "supported", 1.0, 0.0, -1.0,
                        True, "was supported in baseline",
                    )
                )
                continue
            _diff(
                deltas, source, "mbps", b["mbps"], c["mbps"],
                tolerance, higher_is_better=True,
            )
            _diff(
                deltas, source, "elapsed_s", b["elapsed_s"], c["elapsed_s"],
                tolerance, higher_is_better=False,
            )
    return deltas


def compare_scale_docs(
    base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two ``BENCH_scale.json`` documents (baseline, current).

    Per sweep cell: aggregate bandwidth and elapsed gate like the
    pipeline numbers, and Jain's weighted fairness index must not drop
    beyond tolerance — a scheduler change that silently un-fairs the
    admission rotation is a regression even if it goes faster.
    """
    deltas: list[Delta] = []

    def cells(doc):
        out = {}
        for cell in doc.get("cells", []):
            key = (
                f"{cell['clients']}x{cell['tenants']}x{cell['iods']}"
            )
            out[key] = cell
        if doc.get("weighted"):
            out["weighted"] = doc["weighted"]
        return out

    cur_cells = cells(cur)
    for key, b in cells(base).items():
        source = f"scale/{key}"
        c = cur_cells.get(key)
        if c is None:
            deltas.append(
                Delta(
                    source, "coverage", None, None, 0.0,
                    True, "cell missing from current run",
                )
            )
            continue
        _diff(
            deltas, source, "mbps", b["mbps"], c["mbps"],
            tolerance, higher_is_better=True,
        )
        _diff(
            deltas, source, "elapsed_s", b["elapsed_s"], c["elapsed_s"],
            tolerance, higher_is_better=False,
        )
        _diff(
            deltas, source, "jain_weighted",
            b["jain_weighted"], c["jain_weighted"],
            tolerance, higher_is_better=True,
        )
    return deltas


def compare_collective_docs(
    base: dict, cur: dict, tolerance: float = DEFAULT_TOLERANCE
) -> list[Delta]:
    """Diff two ``BENCH_collective.json`` documents (baseline, current).

    Per top-cell figure: every method's bandwidth gates like the
    pipeline numbers, and a dominance flag flipping from won to lost is
    a regression in its own right — the sixth curve falling behind any
    paper method at the highest client count is the acceptance bar
    breaking, even if its absolute bandwidth moved less than the
    tolerance.  The FLASH showcase gates the aggregation quality:
    merged views or saved requests dropping, or the aggregated
    data-path request count rising, beyond tolerance.
    """
    deltas: list[Delta] = []
    for name, b in base.get("figures", {}).items():
        source = f"collective/{name}"
        c = cur.get("figures", {}).get(name)
        if c is None:
            deltas.append(
                Delta(
                    source, "coverage", None, None, 0.0,
                    True, "figure missing from current run",
                )
            )
            continue
        for method, bv in b.get("mbps", {}).items():
            if bv is None:
                continue
            cv = c.get("mbps", {}).get(method)
            if cv is None:
                deltas.append(
                    Delta(
                        f"{source}/{method}", "supported", 1.0, 0.0, -1.0,
                        True, "was supported in baseline",
                    )
                )
                continue
            _diff(
                deltas, f"{source}/{method}", "mbps", bv, cv,
                tolerance, higher_is_better=True,
            )
        if base.get("dominance", {}).get(name) and not cur.get(
            "dominance", {}
        ).get(name):
            deltas.append(
                Delta(
                    source, "dominance", 1.0, 0.0, -1.0,
                    True, "collective_dtype no longer dominates",
                )
            )
    bs, cs = base.get("flash_showcase"), cur.get("flash_showcase")
    if bs and cs:
        source = "collective/flash_showcase"
        for metric, higher in (
            ("views_merged", True),
            ("requests_saved", True),
            ("collective_requests", False),
            ("collective_mbps", True),
        ):
            _diff(
                deltas, source, metric, bs[metric], cs[metric],
                tolerance, higher_is_better=higher,
            )
    return deltas


def _collect_pipeline(base: dict) -> dict:
    from .baseline import collect_pipeline_baseline

    return collect_pipeline_baseline()


def _collect_dtype_cache(base: dict) -> dict:
    from .dtype_cache import CachePhase, collect

    # repeats=1: only deterministic simulated fields are compared, so
    # best-of-N wall timing is wasted work here
    return collect(CachePhase.full(), repeats=1)


def _collect_faults(base: dict) -> dict:
    from .faultscmd import SWEEP_SEED, collect_faults_bench

    return collect_faults_bench(seed=base.get("seed", SWEEP_SEED))


def _collect_scale(base: dict) -> dict:
    from .scalecmd import collect_scale_bench

    # replay the exact grid the baseline was recorded with
    return collect_scale_bench(base.get("spec"))


def _collect_collective(base: dict) -> dict:
    from .collectivecmd import collect_collective_bench

    # replay the exact scales the baseline was recorded with
    return collect_collective_bench(base.get("spec"))


#: Every gated document, in report order: ``(file name, keyword that
#: injects a pre-collected document, collector, walker)``.  A collector
#: takes the baseline document it replays (``{}`` on a refresh: the
#: defaults) and returns the current one.
_DOCUMENTS = (
    ("BENCH_pipeline.json", "pipeline_doc",
     _collect_pipeline, compare_pipeline_docs),
    ("BENCH_dtype_cache.json", "dtype_cache_doc",
     _collect_dtype_cache, compare_dtype_cache_docs),
    ("BENCH_faults.json", "faults_doc",
     _collect_faults, compare_faults_docs),
    ("BENCH_scale.json", "scale_doc",
     _collect_scale, compare_scale_docs),
    ("BENCH_collective.json", "collective_doc",
     _collect_collective, compare_collective_docs),
)


def _check_injected(docs: dict) -> None:
    unknown = docs.keys() - {keyword for _, keyword, _, _ in _DOCUMENTS}
    if unknown:
        raise TypeError(f"unexpected keyword argument(s) {sorted(unknown)}")


def compare_against_dir(
    baseline_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
    **docs: Optional[dict],
) -> tuple[list[Delta], list[str]]:
    """Re-collect fresh benchmark docs and diff against ``baseline_dir``.

    Returns ``(deltas, notes)``; ``notes`` carries a one-line summary
    per baseline file — diffed or skipped — plus a files-checked total,
    so a passing gate still says what it checked instead of staying
    silent.  Raises ``FileNotFoundError`` if *no* baseline file is
    found — a gate that silently compares nothing must not pass.  The
    ``*_doc`` keyword arguments (``pipeline_doc``, ``dtype_cache_doc``,
    ``faults_doc``, ``scale_doc``, ``collective_doc``) inject a
    pre-collected "current" document (used by tests to simulate
    regressions without patching the collectors).
    """
    _check_injected(docs)
    baseline_dir = pathlib.Path(baseline_dir)
    deltas: list[Delta] = []
    notes: list[str] = []
    found = 0
    for name, keyword, collect, walk in _DOCUMENTS:
        path = baseline_dir / name
        if not path.exists():
            notes.append(f"skipped: {path} not found")
            continue
        found += 1
        base = json.loads(path.read_text())
        cur = docs.get(keyword)
        if cur is None:
            cur = collect(base)
        new = walk(base, cur, tolerance)
        for d in new:
            d.baseline_file = name
        deltas.extend(new)
        notes.append(f"{name}: {len(new)} field(s) diffed")
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
    written paths.  The ``*_doc`` keyword arguments inject pre-collected
    documents (tests); absent ones are collected fresh.
    """
    _check_injected(docs)
    baseline_dir = pathlib.Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for name, keyword, collect, _ in _DOCUMENTS:
        doc = docs.get(keyword)
        if doc is None:
            doc = collect({})
        path = baseline_dir / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
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
