#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py``:  compare.py A.json B.json

One row per workload x end-to-end metric with base (A), new (B), the
ratio new/base and a verdict:

* ``improved`` / ``regressed`` — the value moved past the metric's
  bound (regressed) or past the base's own run-to-run spread
  (improved), and the runs are steady enough to say so;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so the medians cannot settle it (unless every run of one
  side beats every run of the other);
* ``unchanged`` — neither.

``sim_gmean_mib_s``, ``fail_frac``, ``sim_fingerprint`` and every
count-type per-layer metric are compared exactly: they are properties
of the simulated run, which a host-speed change must not move.  Beside
any wall-clock change the per-layer ``self_s`` that moved most is named.
Exits 1 when anything regressed or an exact value moved.
"""

from __future__ import annotations

import json
import statistics
import sys

import schema

REL_EXACT = 1e-9
#: properties of the simulated run: any move is a finding
EXACT = ("sim_gmean_mib_s", "fail_frac")


def spread(samples) -> float:
    """Run-to-run spread as a share of the median: interquartile range
    from four samples up, full range below that."""
    med = statistics.median(samples)
    if len(samples) >= 4:
        q = statistics.quantiles(samples, n=4)
        return (q[2] - q[0]) / med
    return (max(samples) - min(samples)) / med


def verdict(metric: str, base: dict, new: dict) -> str:
    bound = schema.BOUNDS[metric]
    sign = 1.0 if schema.BETTER[metric] == "lower" else -1.0
    worse = sign * (new["value"] - base["value"]) / abs(base["value"] or 1.0)
    if metric in EXACT:
        if abs(worse) <= REL_EXACT:
            return "unchanged"
        return "regressed" if worse > 0 else "improved"
    if "samples" not in base or "samples" not in new:
        if abs(worse) <= bound:
            return "unchanged"
        return "regressed" if worse > 0 else "improved"
    b = [sign * x for x in base["samples"]]
    n = [sign * x for x in new["samples"]]
    noise = max(spread(base["samples"]), spread(new["samples"]))
    if worse > bound:
        return "regressed" if noise <= bound or min(n) > max(b) else "unresolved"
    if max(n) < min(b):
        return "improved"
    if noise > bound:
        return "unresolved"
    return "improved" if -worse > spread(base["samples"]) else "unchanged"


def largest_mover(base: dict, new: dict) -> str:
    a, b = base.get("per_layer"), new.get("per_layer")
    if not a or not b:
        return ""
    moves = {
        k: b[k] - a[k] for k in a
        if k.endswith(".self_s") and k in b
    }
    k = max(moves, key=lambda k: abs(moves[k]))
    return f"largest mover {k} {a[k]:.4g} -> {b[k]:.4g} s"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    rows, bad = [], False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, _unit, _better, _bound in (
            schema.END_TO_END + schema.END_TO_END_LOCAL
        ):
            ma = wa.get("end_to_end", {}).get(metric)
            mb = wb.get("end_to_end", {}).get(metric)
            if ma is None or mb is None:
                continue
            v = verdict(metric, ma, mb)
            bad |= v == "regressed"
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            note = ""
            if metric == "wall_s" and v != "unchanged":
                note = largest_mover(wa, wb)
            rows.append(
                f"{name:13s} {metric:20s} {ma['value']:12.6g} "
                f"{mb['value']:12.6g} {ratio:8.4f}  {v:10s} {note}"
            )
        rows.append(
            f"{name:13s} {'calib_us':20s} {min(wa['calib_us']):12.6g} "
            f"{min(wb['calib_us']):12.6g} "
            f"{min(wb['calib_us']) / min(wa['calib_us']):8.4f}  (host speed)"
        )
        same = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        bad |= not same
        rows.append(
            f"{name:13s} {'sim_fingerprint':20s} {wa['sim_fingerprint'][:12]:>12s} "
            f"{wb['sim_fingerprint'][:12]:>12s} {'':8s}  "
            f"{'unchanged' if same else 'CHANGED'}"
        )
        pa, pb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for metric in sorted(schema.EXACT & pa.keys() & pb.keys()):
            if abs(pa[metric] - pb[metric]) > REL_EXACT * abs(pa[metric]):
                bad = True
                rows.append(
                    f"{name:13s} {metric:20s} {pa[metric]:12.6g} "
                    f"{pb[metric]:12.6g} {'':8s}  CHANGED"
                )
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.load(open(p)) for p in argv)
    if (a["seed"], a["quick"]) != (b["seed"], b["quick"]):
        print("ledgers differ in seed or size: exact values will not agree",
              file=sys.stderr)
    print(f"{'workload':13s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>8s}  verdict")
    rows, bad = compare(a, b)
    print("\n".join(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
