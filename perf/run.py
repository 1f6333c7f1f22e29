#!/usr/bin/env python3
"""The wall-clock + simulated-clock benchmark (see README.md).

    python3 perf/run.py --seed 1                      # full ledger
    python3 perf/run.py --seed 1 --quick              # smoke sizes
    python3 perf/run.py --workload rpc_storm --seed 7 --seconds 15 --trace 0

Each workload is measured in fresh single-threaded worker processes,
one at a time.  ``--trace 0`` measures the end-to-end metrics (profiling
off), ``--trace 1`` only the traced pass and the layer drivers; without
``--trace`` both run.  Every metric is printed by name with its unit,
one JSON document is written, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any cell fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import schema

HERE = pathlib.Path(__file__).resolve().parent
#: Measurement processes per workload: set-up is paid, and timed, once
#: in each, so ``setup_s`` and ``peak_rss_mib`` rest on several samples.
PROCS = 3
NOISY = 0.10


def calibrate() -> float:
    """Microseconds for a fixed pure-Python + numpy loop (best of 5).

    The machine-normalising unit: divide a wall time by it to compare
    ledger entries taken on different hosts.  Measured before and after
    each workload; a workload whose two readings differ by more than
    10 % is flagged ``noisy``.
    """
    import numpy as np

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += (i * i) % 7
        a = np.arange(100_000, dtype=np.int64)
        for _ in range(10):
            a = np.cumsum(a) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def spawn(workload, seed, quick, seconds=None, reps=None, trace=False) -> dict:
    """Run one worker process to completion and parse its report."""
    env = dict(os.environ)
    for var in ("OMP", "OPENBLAS", "MKL"):
        env[f"{var}_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--seconds", str(seconds)] if reps is None else ["--reps", str(reps)]
    if quick:
        cmd.append("--quick")
    if trace:
        cmd.append("--trace")
    cmd += ["--t0", repr(time.perf_counter())]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stat(samples, unit, value=None) -> dict:
    return {
        "value": statistics.median(samples) if value is None else value,
        "unit": unit, "median": statistics.median(samples),
        "min": min(samples), "max": max(samples), "n": len(samples),
        "samples": list(samples),
    }


def _best(reports, key) -> dict:
    """Per cell, the fastest ``key`` time over every repetition of
    every process."""
    return {
        name: min(t for r in reports for t in r["cells"][name][key])
        for name in reports[0]["cells"]
    }


def measure(workload, seed, quick, seconds, reps, trace) -> dict:
    """All processes of one workload; returns its ledger entry."""
    calib = [calibrate()]
    doc: dict = {"attempted": 0, "failed": 0, "failures": []}
    reports = []
    if trace != 1:
        for _ in range(PROCS):
            reports.append(spawn(
                workload, seed, quick,
                seconds=None if seconds is None else seconds / PROCS,
                reps=None if seconds is not None else reps,
            ))
        first = reports[0]
        walls = [w for r in reports for w in r["rep_wall_s"]]
        setups = [r["setup_s"] for r in reports]
        best = _best(reports, "host_s")
        e2e = {
            "wall_s": _stat(walls, "s", sum(best.values())),
            "peak_rss_mib": _stat([r["peak_rss_mib"] for r in reports], "MiB"),
            "sim_gmean_mib_s": {
                "value": first["sim_gmean_mib_s"], "unit": "MiB/s"},
            "setup_s": _stat(setups, "s", min(setups)),
        }
        off = sum(_best(reports, "off_s").values())
        if off:
            e2e["obs_overhead_ratio"] = {
                "value": sum(_best(reports, "on_s").values()) / off,
                "unit": "ratio",
            }
        doc["end_to_end"] = e2e
        doc["cells"] = {
            name: {"host_s": best[name], "sim_mib_s": cell["sim_mib_s"]}
            for name, cell in first["cells"].items()
        }
    if trace != 0:
        traced = spawn(workload, seed, quick, reps=1, trace=True)
        reports.append(traced)
        doc["per_layer"] = traced["per_layer"]
        doc["layer_conservation"] = traced["layer_conservation"]
    doc["sim_fingerprint"] = reports[0]["sim_fingerprint"]
    for i, r in enumerate(reports):
        doc["attempted"] += r["attempted"]
        doc["failed"] += r["failed"]
        doc["failures"] += r["failures"]
        if r["sim_fingerprint"] != doc["sim_fingerprint"]:
            doc["failed"] += 1
            doc["failures"].append({
                "cell": "*", "rep": f"process {i}",
                "error": "sim_fingerprint differs between processes",
            })
    calib.append(calibrate())
    doc["calib_us"] = calib
    doc["noisy"] = abs(calib[1] - calib[0]) / min(calib) > NOISY
    if "per_layer" in doc:
        doc["per_layer"]["harness.calib_us"] = min(calib)
    if "end_to_end" in doc:
        doc["end_to_end"]["fail_frac"] = {
            "value": doc["failed"] / doc["attempted"], "unit": "ratio"}
    return doc


def render(name: str, doc: dict) -> str:
    lines = []
    for metric, m in doc.get("end_to_end", {}).items():
        spread = (
            f"  (median {m['median']:.6g}, min {m['min']:.6g}, "
            f"max {m['max']:.6g}, n={m['n']})" if "n" in m else ""
        )
        lines.append(f"{name:13s} {metric:34s} {m['value']:.6g} {m['unit']}{spread}")
    if "end_to_end" in doc:
        lines.append(f"{name:13s} {'sim_fingerprint':34s} {doc['sim_fingerprint']}")
    for metric, value in doc.get("per_layer", {}).items():
        lines.append(
            f"{name:13s} {metric:34s} {value:.6g} {schema.UNITS[metric]}"
        )
    lines.append(
        f"{name:13s} cells attempted {doc['attempted']}, failed {doc['failed']}"
        + (", NOISY host (calibration moved > 10 %)" if doc["noisy"] else "")
    )
    for f in doc["failures"]:
        lines.append(f"{name:13s} FAILED {f['cell']} [{f['rep']}]: {f['error']}")
    return "\n".join(lines)


def contract_metrics(doc: dict) -> dict:
    """The metrics of one workload in the driver's result shape."""
    out = {}
    for metric, _unit, _better, _bound in schema.END_TO_END:
        if metric in doc.get("end_to_end", {}):
            m = doc["end_to_end"][metric]
            out[metric] = {"value": m["value"], "unit": m["unit"]}
    for metric, value in doc.get("per_layer", {}).items():
        out[metric] = {"value": value, "unit": schema.UNITS[metric]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=list(schema.WORKLOAD_WHY))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="time budget per workload (default: --reps)")
    ap.add_argument("--reps", type=int, default=3,
                    help="timed repetitions in each of the %d processes" % PROCS)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--out", type=pathlib.Path,
                    default=schema.OUT / "BENCH_wall.json")
    args = ap.parse_args(argv)
    if not (schema.PKG / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure at {schema.PKG}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(schema.WORKLOAD_WHY)
    ledger = {
        "schema": 1, "seed": args.seed, "quick": args.quick,
        "procs": PROCS,
        "reps_per_proc": None if args.seconds is not None else args.reps,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(), "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    metrics = {}
    for name in names:
        doc = measure(
            name, args.seed, args.quick, args.seconds, args.reps, args.trace
        )
        ledger["workloads"][name] = doc
        print(render(name, doc), flush=True)
        for metric, m in contract_metrics(doc).items():
            metrics[metric if args.workload else f"{name}.{metric}"] = m
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {args.out}")
    attempted = sum(d["attempted"] for d in ledger["workloads"].values())
    failed = sum(d["failed"] for d in ledger["workloads"].values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
