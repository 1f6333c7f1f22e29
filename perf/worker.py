"""One workload in one fresh process; prints one JSON line.

``run.py`` starts this file once per measurement process:

    start -> import -> build cells -> untimed quick-sized warm-up pass
          -> timed repetitions (``gc.collect()`` untimed between them)
          -> [traced pass + layer drivers] -> report

``setup_s`` runs from the parent's clock reading just before it started
this process (``--t0``; ``perf_counter`` is the system-wide monotonic
clock) to the first timed repetition, so work moved out of the timed
region shows up there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import schema


def _per_layer(traced, counters, untraced_s, traced_s, obs_ratio, drv, n_cells):
    layers = traced.layer_totals()
    bounds = traced.boundary_totals()
    m = {f"{layer}.self_s": layers[layer]["self_s"] for layer in schema.LAYERS}
    events = counters.get("engine.events", 0)
    io_ops = counters.get("client.io_ops", 0)
    lookups = counters.get("expand_cache.lookups", 0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    m.update({
        "engine.events": events,
        "engine.us_per_event": (
            1e6 * layers["engine"]["self_s"] / events if events else 0.0
        ),
        "engine.events_per_io_op": events / io_ops if io_ops else 0.0,
        "expand_cache.hit_rate": (
            counters.get("expand_cache.hits", 0) / lookups if lookups else 0.0
        ),
        "distribution.split_calls": (
            bounds["Distribution.split"]["calls"]
            + bounds["Distribution.server_regions"]["calls"]
        ),
        "regions.tile_calls": bounds["Regions.tile"]["calls"],
        "regions.gather_scatter_s": (
            bounds["Regions.gather"]["incl_s"]
            + bounds["Regions.scatter"]["incl_s"]
        ),
        "dataloops.calls": layers["dataloops"]["calls"],
        "datatypes.flatten_calls": traced.named_calls("datatypes", "flatten"),
        "storage.access_time_calls": bounds["DiskModel.access_time"]["calls"],
        "obs.overhead_ratio": obs_ratio,
        "harness.cpu_s": usage.ru_utime + usage.ru_stime,
        "harness.cells": n_cells,
        "harness.profile_overhead_ratio": traced_s / untraced_s,
    })
    for name, _unit, _better in schema.PER_LAYER:
        if name not in m and name in counters:
            m[name] = counters[name]
    m.update(drv)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--reps", type=int, default=None)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(schema.SRC))
    import workloads as W

    cells = W.build(args.workload, args.seed, args.quick)
    W.run_pass(W.build(args.workload, args.seed, True))
    gc.collect()
    t_first = time.perf_counter()

    walls, failures = [], []
    host = {c.name: {"host_s": [], "off_s": [], "on_s": []} for c in cells}
    reference = None
    attempted = 0

    def account(results, rep):
        nonlocal reference, attempted
        attempted += len(results)
        if reference is None:
            reference = results
        for cell, res, ref in zip(cells, results, reference):
            if res.ok and res.figures != ref.figures:
                res.ok, res.error = False, "simulated figures changed between repetitions"
            if not res.ok:
                failures.append({"cell": cell.name, "rep": rep, "error": res.error})

    while True:
        gc.collect()
        t0 = time.perf_counter()
        results = W.run_pass(cells)
        walls.append(time.perf_counter() - t0)
        account(results, len(walls) - 1)
        for cell, res in zip(cells, results):
            for key, times in host[cell.name].items():
                times.append(getattr(res, key))
        if args.reps is not None:
            if len(walls) >= args.reps:
                break
        # stop where the budget is nearest: overshoot by at most half a
        # repetition, whatever the speed of the machine
        elif time.perf_counter() - t_first + walls[-1] / 2 >= args.seconds:
            break

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "setup_s": t_first - args.t0,
        "rep_wall_s": walls,
        "sim_gmean_mib_s": W.gmean([r.mib_s for r in reference]),
        "sim_fingerprint": W.fingerprint(
            (c.name, r.figures) for c, r in zip(cells, reference)
        ),
        "cells": {
            c.name: {**host[c.name], "sim_mib_s": r.mib_s}
            for c, r in zip(cells, reference)
        },
    }

    if args.trace:
        import drivers
        import traced as T

        traced = T.TracedPass(args.workload)
        gc.collect()
        t0 = time.perf_counter()
        results = W.run_pass(cells, traced.wrap)
        traced_s = time.perf_counter() - t0
        account(results, "traced")
        counters: dict = {}
        for res in results:
            for key, value in res.counters.items():
                counters[key] = counters.get(key, 0) + value
        drv = drivers.run_all(args.seed, 0.05 if args.quick else 0.15)
        off = sum(h["off_s"][-1] for h in host.values())
        on = sum(h["on_s"][-1] for h in host.values())
        out["per_layer"] = _per_layer(
            traced, counters, walls[-1], traced_s,
            on / off if off else 0.0, drv, len(cells),
        )
        out["layer_conservation"] = traced.conservation()
        T.write_trace(schema.OUT / f"TRACE_{args.workload}.json", traced)

    out["attempted"] = attempted
    out["failed"] = len(failures)
    out["failures"] = failures
    # ru_maxrss is KiB on Linux
    out["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
