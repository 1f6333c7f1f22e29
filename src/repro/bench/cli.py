"""``repro-bench`` command line: regenerate every ``results/`` file.

Examples::

    repro-bench table1
    repro-bench table2
    repro-bench fig12 --quick
    repro-bench all --out results/

Everything runs at paper scale in phantom mode; ``--quick`` shrinks
frame counts and sweeps for a fast smoke run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from functools import partial

from ..pvfs import PVFSConfig
from .document import write_document
from .registry import RECORDS
from .artifacts import (
    verify_metrics,
    verify_trace,
    write_metrics_artifacts,
    write_trace_artifacts,
)
from .report import render_metrics_summary, render_trace_summary
from .runner import Spec, divergence, run
from .workloads import REDUCED, reduced

__all__ = ["main"]


def _emit(text: str, out: pathlib.Path | None, filename: str) -> None:
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text + "\n")
        print(f"[saved {out / filename}]", file=sys.stderr)


def _fail(label: str, problems: list[str]) -> None:
    """Print each problem to stderr and exit nonzero (no-op if none)."""
    if not problems:
        return
    for p in problems:
        print(f"{label} problem: {p}", file=sys.stderr)
    raise SystemExit(f"{len(problems)} {label} problem(s)")


def cmd_document(record, args, out):
    """Regenerate one ``results/`` file / run its ``--smoke`` gate.

    smoke → collect (or reuse the smoke's own document) → write →
    render → problems; everything record-specific is the record's.  A
    gated document is saved as JSON (default: the current directory),
    a paper table or figure as its text (only under ``--out``).
    """
    flags = {
        "quick": args.quick,
        "trace": args.trace,
        "min_speedup": args.min_speedup,
        "plot": args.plot,
    }
    if args.smoke:
        problems, proved, doc = record.smoke(args.method)
        _fail(record.command, problems)
        print(f"[{record.command} smoke OK: {proved}]", file=sys.stderr)
        if out is None:
            return
        if doc is not None:
            # the smoke's own sweep is the artifact: save it, don't rerun
            path = write_document(record, out, doc)
            print(f"[saved {path}]", file=sys.stderr)
            return
    doc = record.collect(**flags)
    text = record.render(doc, **flags) if record.render else None
    if not record.gates:
        _emit(text, out, record.file)
        return
    path = write_document(record, out, doc)
    if text is not None:
        print(text)
    print(f"[saved {path}]", file=sys.stderr)
    if record.problems is not None:
        _fail(record.command, record.problems(doc, **flags))


def _reduced_run(args, **config):
    """The ``--workload``/``--method`` cell, run afresh under ``config``."""
    spec = Spec(reduced(args.workload), args.method, config=PVFSConfig(**config))
    result = run(spec)
    if not result.supported:
        raise SystemExit(
            f"{args.method} unsupported for {args.workload}: {result.note}"
        )
    return result


#: trace / metrics: (verify, render the summary, write the artifacts,
#: what a clean smoke proved)
_OBSERVED = {
    "trace": (
        verify_trace,
        render_trace_summary,
        write_trace_artifacts,
        lambda r: f"{len(r.tracer)} spans verified, bit-identical",
    ),
    "metrics": (
        verify_metrics,
        render_metrics_summary,
        write_metrics_artifacts,
        lambda r: f"{r.metrics.samples} samples, reconciled, bit-identical",
    ),
}


def cmd_observed(kind, args, out):
    """Traced run (Chrome trace_event JSON + span summary, Perfetto) or
    metered run (OpenMetrics text + metrics/imbalance JSON)."""
    verify, render, write, proved = _OBSERVED[kind]
    result = _reduced_run(args, **{kind: True})
    problems = verify(result)
    if args.smoke:
        # observation only: the plain run is the same simulation
        problems += divergence(result, _reduced_run(args))
    _fail(kind, problems)
    print(render(result))
    print()
    if args.smoke and out is None:
        print(f"[{kind} smoke OK: {proved(result)}]", file=sys.stderr)
        return
    # named after the --workload cell: block3d-read and block3d-write
    # are one workload class, and their files must not overwrite each other
    stem = f"{kind.upper()}_{args.workload}_{args.method}"
    for path in write(result, out, stem=stem):
        print(f"[saved {path}]", file=sys.stderr)


def cmd_compare(args, out):
    """Regression gate: fresh run vs checked-in BENCH_*.json baselines."""
    from .compare import (
        DEFAULT_TOLERANCE,
        compare_against_dir,
        render_compare,
        update_baselines,
    )

    baseline = args.baseline or pathlib.Path("results")
    if args.update_baseline:
        for path in update_baselines(baseline):
            print(f"[updated {path}]", file=sys.stderr)
        return
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    deltas, notes = compare_against_dir(baseline, tolerance, save_to=out)
    for note in notes:
        print(f"[{note}]", file=sys.stderr)
    _emit(render_compare(deltas, tolerance), out, "compare.txt")
    regressions = [d for d in deltas if d.regression]
    if regressions:
        raise SystemExit(
            f"{len(regressions)} regression(s) beyond ±{tolerance:.1%} "
            f"vs {baseline}"
        )


COMMANDS = {
    **{r.command: partial(cmd_document, r) for r in RECORDS},
    **{kind: partial(cmd_observed, kind) for kind in _OBSERVED},
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of Ching et al. "
        "(CLUSTER 2003).",
    )
    parser.add_argument(
        "what",
        choices=[*COMMANDS, "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to save the rendered text / artifacts into "
        "(BENCH_*.json documents default to the current directory)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps / fewer frames"
    )
    parser.add_argument(
        "--plot", action="store_true", help="append ASCII charts to figures"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="dtype-cache: exit nonzero unless every phase's simulated "
        "speedup reaches it with the cache hitting and scans reduced "
        "(CI smoke gate)",
    )
    parser.add_argument(
        "--workload",
        choices=list(REDUCED),
        default="tile",
        help="trace/metrics: which reduced workload to run",
    )
    parser.add_argument(
        "--method",
        default="datatype_io",
        help="trace/metrics: access method (default: datatype_io)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the command's CI gate (trace, metrics, faults, "
        "scale, collective; a usage error for any other) and write "
        "nothing unless --out is given",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="compare: directory holding BENCH_*.json baselines "
        "(default: results/)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="compare: relative tolerance band (default: 0.05 = ±5%%)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="json: include per-method span summaries in the baseline",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="compare: re-collect the benchmark documents and overwrite "
        "the baseline files instead of gating against them",
    )
    args = parser.parse_args(argv)

    # ``all`` regenerates artifacts; ``compare`` judges them against a
    # baseline directory, so it only runs when asked for by name
    targets = (
        [n for n in COMMANDS if n != "compare"]
        if args.what == "all"
        else [args.what]
    )
    no_gate = [r.command for r in RECORDS if r.command in targets and not r.smoke]
    if args.smoke and no_gate:
        parser.error(f"--smoke: no smoke gate for {', '.join(no_gate)}")
    for name in targets:
        t0 = time.time()
        COMMANDS[name](args, args.out)
        print(f"[{name}: {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
