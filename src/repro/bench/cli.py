"""``repro-bench`` command line: regenerate the paper's tables/figures.

Examples::

    repro-bench table1
    repro-bench table2 --clients 27
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

from . import characteristics as chars
from . import figures
from .document import write_document
from .plots import plot_figure
from .registry import DOCUMENTS
from .report import render_characteristics, render_figure

__all__ = ["main"]


def _emit(text: str, out: pathlib.Path | None, filename: str) -> None:
    print(text)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text + "\n")
        print(f"[saved {out / filename}]", file=sys.stderr)


def cmd_table1(args, out):
    rows = chars.table1(frames=1)
    _emit(
        render_characteristics(
            "Table 1: I/O characteristics of the tile reader benchmark "
            "(per frame)",
            rows,
        ),
        out,
        "table1.txt",
    )


def cmd_table2(args, out):
    dims = [args.clients_per_dim] if args.clients_per_dim else [2, 3, 4]
    blocks = []
    for cpd in dims:
        rows = chars.table2(cpd)
        blocks.append(
            render_characteristics(
                f"Table 2 ({cpd**3} clients): ROMIO 3-D block test", rows
            )
        )
    _emit("\n\n".join(blocks), out, "table2.txt")


def cmd_table3(args, out):
    rows = chars.table3(n_clients=args.flash_clients)
    _emit(
        render_characteristics(
            f"Table 3: FLASH I/O characteristics "
            f"({args.flash_clients} clients)",
            rows,
        ),
        out,
        "table3.txt",
    )


#: figure command -> the figures it sweeps (``--quick``: smaller sweeps)
_FIGURES = {
    "fig8": lambda quick: [figures.fig8(frames=3 if quick else 10)],
    "fig10": lambda quick: figures.fig10(
        client_dims=(2, 3) if quick else (2, 3, 4)
    ),
    "fig12": lambda quick: [
        figures.fig12(
            client_counts=(2, 8, 32)
            if quick
            else (2, 4, 8, 16, 32, 48, 64, 96, 128)
        )
    ],
}


def cmd_figure(name, args, out):
    figs = _FIGURES[name](args.quick)
    text = "\n\n".join(render_figure(fig) for fig in figs)
    if args.plot:
        text += "".join("\n\n" + plot_figure(fig) for fig in figs)
    _emit(text, out, f"{name}.txt")


def _fail(label: str, problems: list[str]) -> None:
    """Print each problem to stderr and exit nonzero (no-op if none)."""
    if not problems:
        return
    for p in problems:
        print(f"{label} problem: {p}", file=sys.stderr)
    raise SystemExit(f"{len(problems)} {label} problem(s)")


def cmd_document(record, args, out):
    """Regenerate one gated ``BENCH_*.json`` / run its ``--smoke`` gate.

    smoke → collect (or reuse the smoke's own document) → write →
    render → problems; everything document-specific is the record's.
    """
    flags = {
        "quick": args.quick,
        "trace": args.trace,
        "min_speedup": args.min_speedup,
    }
    if args.smoke and record.smoke is not None:
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
    path = write_document(record, out, doc)
    if record.render is not None:
        print(record.render(doc))
    print(f"[saved {path}]", file=sys.stderr)
    if record.problems is not None:
        _fail(record.command, record.problems(doc, **flags))


def cmd_trace(args, out):
    """Traced run: Chrome trace_event JSON + span summary (Perfetto)."""
    from .report import render_trace_summary
    from .tracecmd import run_traced, verify_trace, write_trace_artifacts

    result = run_traced(args.workload, args.method)
    if not result.supported:
        raise SystemExit(
            f"{args.method} unsupported for {args.workload}: {result.note}"
        )
    _fail("trace", verify_trace(result))
    print(render_trace_summary(result))
    print()
    if args.smoke and out is None:
        print(
            f"[trace smoke OK: {len(result.tracer)} spans verified]",
            file=sys.stderr,
        )
        return
    for path in write_trace_artifacts(result, out):
        print(f"[saved {path}]", file=sys.stderr)


def cmd_metrics(args, out):
    """Metered run: OpenMetrics text + metrics/imbalance JSON."""
    from .metricscmd import (
        check_bit_identity,
        run_metered,
        verify_metrics,
        write_metrics_artifacts,
    )
    from .report import render_metrics_summary

    result = run_metered(args.workload, args.method)
    if not result.supported:
        raise SystemExit(
            f"{args.method} unsupported for {args.workload}: {result.note}"
        )
    problems = verify_metrics(result)
    if args.smoke:
        problems.extend(check_bit_identity(args.workload, args.method))
    _fail("metrics", problems)
    print(render_metrics_summary(result))
    print()
    if args.smoke and out is None:
        print(
            f"[metrics smoke OK: {result.metrics.samples} samples, "
            "reconciled, bit-identical]",
            file=sys.stderr,
        )
        return
    for path in write_metrics_artifacts(result, out):
        print(f"[saved {path}]", file=sys.stderr)


def cmd_dash(args, out):
    """Self-contained performance dashboard (DASH_*.html)."""
    from .dashcmd import collect_dash, smoke_dash, write_dash

    if args.smoke:
        _fail("dash", smoke_dash(args.workload, args.method))
        print(
            "[dash smoke OK: byte-deterministic, blame conserved, "
            "self-contained]",
            file=sys.stderr,
        )
        if out is None:
            return
    data = collect_dash(
        args.workload,
        args.method,
        faults=args.faults,
        tenants=args.tenants,
    )
    report = data["report"]
    shares = report.shares()
    dominant = report.dominant()
    print(
        f"dash {args.workload}/{args.method}: "
        f"{report.traces} traces, critical path {report.total:.4f}s, "
        f"dominant blame {dominant} ({shares[dominant]:.1%})"
    )
    paths = [write_dash(data, out)]
    if args.trace:
        from .tracecmd import write_trace_artifacts

        paths += write_trace_artifacts(data["result"], out)
    if args.metrics:
        from .metricscmd import write_metrics_artifacts

        paths += write_metrics_artifacts(data["result"], out)
    for path in paths:
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


def cmd_validate(args, out):
    """Cross-method write x read validation on real data."""
    from .validate import validate_workload
    from .workloads import Block3DWorkload, FlashWorkload

    reports = [
        validate_workload(Block3DWorkload.reduced(2, is_write=True)),
        validate_workload(FlashWorkload.reduced(2)),
    ]
    text = "\n".join(r.summary() for r in reports)
    _emit(text, out, "validate.txt")


COMMANDS = {
    **{r.command: partial(cmd_document, r) for r in DOCUMENTS},
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "dash": cmd_dash,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    **{name: partial(cmd_figure, name) for name in _FIGURES},
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
        "--clients-per-dim",
        type=int,
        default=None,
        help="table2: run a single decomposition (2, 3 or 4)",
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
        "--flash-clients",
        type=int,
        default=4,
        help="table3: client count (affects only the resent fraction)",
    )
    parser.add_argument(
        "--workload",
        choices=["tile", "block3d-read", "block3d-write", "flash"],
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
        help="run the command's CI gate (trace, metrics, dash, faults, "
        "scale, collective) and write nothing unless --out is given",
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
        help="json: include per-method span summaries in the baseline; "
        "dash: also write the Chrome trace artifacts",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="dash: also write the OpenMetrics / imbalance artifacts",
    )
    parser.add_argument(
        "--faults",
        choices=["none", "light", "moderate", "heavy"],
        default=None,
        help="dash: arm a chaos severity preset for the dashboard run",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="dash: run N equal-weight tenants through weighted-fair "
        "admission (ranks assigned round-robin)",
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
    for name in targets:
        t0 = time.time()
        COMMANDS[name](args, args.out)
        print(f"[{name}: {time.time() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
