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

from . import characteristics as chars
from . import figures
from .plots import plot_figure
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


def cmd_fig8(args, out):
    frames = 3 if args.quick else 10
    fig = figures.fig8(frames=frames)
    text = render_figure(fig)
    if args.plot:
        text += "\n\n" + plot_figure(fig)
    _emit(text, out, "fig8.txt")


def cmd_fig10(args, out):
    dims = (2, 3) if args.quick else (2, 3, 4)
    read_fig, write_fig = figures.fig10(client_dims=dims)
    text = render_figure(read_fig) + "\n\n" + render_figure(write_fig)
    if args.plot:
        text += "\n\n" + plot_figure(read_fig)
        text += "\n\n" + plot_figure(write_fig)
    _emit(text, out, "fig10.txt")


def cmd_fig12(args, out):
    counts = (2, 8, 32) if args.quick else (2, 4, 8, 16, 32, 48, 64, 96, 128)
    fig = figures.fig12(client_counts=counts)
    text = render_figure(fig)
    if args.plot:
        text += "\n\n" + plot_figure(fig)
    _emit(text, out, "fig12.txt")


def cmd_json(args, out):
    """Machine-readable reduced-scale baseline (BENCH_pipeline.json)."""
    from .baseline import write_pipeline_baseline

    path = write_pipeline_baseline(out, trace=getattr(args, "trace", False))
    print(f"[saved {path}]", file=sys.stderr)


def cmd_trace(args, out):
    """Traced run: Chrome trace_event JSON + span summary (Perfetto)."""
    from .report import render_trace_summary
    from .tracecmd import run_traced, verify_trace, write_trace_artifacts

    result = run_traced(args.workload, args.method)
    if not result.supported:
        raise SystemExit(
            f"{args.method} unsupported for {args.workload}: {result.note}"
        )
    problems = verify_trace(result)
    if problems:
        for p in problems:
            print(f"trace problem: {p}", file=sys.stderr)
        raise SystemExit(f"{len(problems)} trace problem(s)")
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
    if problems:
        for p in problems:
            print(f"metrics problem: {p}", file=sys.stderr)
        raise SystemExit(f"{len(problems)} metrics problem(s)")
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
        problems = smoke_dash(args.workload, args.method)
        if problems:
            for p in problems:
                print(f"dash problem: {p}", file=sys.stderr)
            raise SystemExit(f"{len(problems)} dash problem(s)")
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
    path = write_dash(data, out)
    print(f"[saved {path}]", file=sys.stderr)
    if args.trace:
        from .tracecmd import write_trace_artifacts

        for p in write_trace_artifacts(data["result"], out):
            print(f"[saved {p}]", file=sys.stderr)
    if args.metrics:
        from .metricscmd import write_metrics_artifacts

        for p in write_metrics_artifacts(data["result"], out):
            print(f"[saved {p}]", file=sys.stderr)


def cmd_faults(args, out):
    """Fault-injection severity sweep (BENCH_faults.json) / chaos smoke."""
    from .faultscmd import main_smoke, write_faults_bench

    if args.smoke:
        main_smoke(args.method)
        print(
            "[faults smoke OK: heavy preset recovered, deterministic, "
            "reconciled]",
            file=sys.stderr,
        )
        if out is None:
            return
    path, doc = write_faults_bench(out)
    for method, severities in doc["methods"].items():
        cells = []
        for level, entry in severities.items():
            if not entry.get("supported"):
                cells.append(f"{level}=n/a")
                continue
            flag = "*" if entry["degraded"] else ""
            cells.append(f"{level}={entry['mbps']:g}{flag}")
        print(f"{method}: " + "  ".join(cells) + "  (MiB/s, *=degraded)")
    print(f"[saved {path}]", file=sys.stderr)


def cmd_scale(args, out):
    """Multi-tenant scale sweep (BENCH_scale.json) / fairness smoke."""
    from .scalecmd import (
        SMOKE_SPEC,
        collect_scale_bench,
        render_scale,
        smoke_check,
        write_scale_bench,
    )

    if args.smoke:
        doc = collect_scale_bench(SMOKE_SPEC)
        print(render_scale(doc))
        problems = smoke_check(doc)
        if problems:
            for p in problems:
                print(f"scale problem: {p}", file=sys.stderr)
            raise SystemExit(f"{len(problems)} scale problem(s)")
        print(
            "[scale smoke OK: completion monotone, fairness >= 0.9, "
            "weighted shares proportional]",
            file=sys.stderr,
        )
        if out is None:
            return
        path, _ = write_scale_bench(out, spec=SMOKE_SPEC)
        print(f"[saved {path}]", file=sys.stderr)
        return
    path, doc = write_scale_bench(out)
    print(render_scale(doc))
    problems = smoke_check(doc)
    if problems:
        for p in problems:
            print(f"scale problem: {p}", file=sys.stderr)
        raise SystemExit(f"{len(problems)} scale problem(s)")
    print(f"[saved {path}]", file=sys.stderr)


def cmd_collective(args, out):
    """Sixth-method benchmark (BENCH_collective.json) / CI smoke gate."""
    from .collectivecmd import (
        QUICK_SPEC,
        collect_smoke,
        dominance_problems,
        render_collective,
        smoke_check,
        write_collective_bench,
    )

    if args.smoke:
        doc = collect_smoke()
        problems = smoke_check(doc)
        if problems:
            for p in problems:
                print(f"collective problem: {p}", file=sys.stderr)
            raise SystemExit(f"{len(problems)} collective problem(s)")
        top = max(doc["spec"]["clients"])
        print(
            f"[collective smoke OK: beats list I/O at {top} clients, "
            "deterministic replay, O(servers) aggregated requests]",
            file=sys.stderr,
        )
        if out is None:
            return
    path, doc = write_collective_bench(
        out, spec=QUICK_SPEC if args.quick else None
    )
    print(render_collective(doc))
    print(f"[saved {path}]", file=sys.stderr)
    if not args.quick:
        problems = dominance_problems(doc)
        if problems:
            for p in problems:
                print(f"collective problem: {p}", file=sys.stderr)
            raise SystemExit(f"{len(problems)} collective problem(s)")


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
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    deltas, notes = compare_against_dir(baseline, tolerance)
    for note in notes:
        print(f"[{note}]", file=sys.stderr)
    _emit(render_compare(deltas, tolerance), out, "compare.txt")
    regressions = [d for d in deltas if d.regression]
    if regressions:
        raise SystemExit(
            f"{len(regressions)} regression(s) beyond ±{tolerance:.1%} "
            f"vs {baseline}"
        )


def cmd_dtype_cache(args, out):
    """Expansion-cache speedup benchmark (BENCH_dtype_cache.json)."""
    from .dtype_cache import write_dtype_cache_bench

    path, data = write_dtype_cache_bench(out, quick=args.quick)
    for name, ph in data["phases"].items():
        print(
            f"{name}: sim speedup {ph['sim_speedup']:.3f}x, "
            f"hit rate {ph['hit_rate']:.3f}, "
            f"scan reduction {ph['scan_reduction']:.4f} "
            f"(wall {ph['speedup']:.2f}x)"
        )
    # the host work of both runs goes through one ExpansionStore, so the
    # wall ratio says nothing about the simulated cache: print, don't gate
    print(f"overall: wall speedup {data['speedup']:.2f}x (not gated)")
    print(f"[saved {path}]", file=sys.stderr)
    if args.min_speedup:
        for name, ph in data["phases"].items():
            if (
                ph["sim_speedup"] < args.min_speedup
                or ph["hit_rate"] <= 0.0
                or ph["scan_reduction"] <= 0.0
            ):
                raise SystemExit(
                    f"{name}: simulated cache speedup "
                    f"{ph['sim_speedup']:.3f}x (required "
                    f"{args.min_speedup:.2f}x), hit rate "
                    f"{ph['hit_rate']:.3f}, scan reduction "
                    f"{ph['scan_reduction']:.4f}"
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
    "json": cmd_json,
    "dtype-cache": cmd_dtype_cache,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "dash": cmd_dash,
    "faults": cmd_faults,
    "scale": cmd_scale,
    "collective": cmd_collective,
    "compare": cmd_compare,
    "validate": cmd_validate,
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "fig8": cmd_fig8,
    "fig10": cmd_fig10,
    "fig12": cmd_fig12,
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
        help="directory to save the rendered text into",
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
        help="trace/metrics/faults/scale/collective: verify only (metrics "
        "also replays "
        "with collection off and requires bit-identical timing; faults "
        "runs the chaos gate: heavy preset must recover, replay "
        "deterministically and keep traces/metrics reconciled); skip "
        "writing artifacts unless --out is given (CI gate)",
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
