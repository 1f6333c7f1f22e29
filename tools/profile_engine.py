#!/usr/bin/env python
"""Engine throughput profile: events/sec micro-benches + a macro gate.

Two layers:

1. **Micro** — raw event-queue throughput of the two scheduling
   paths (now-FIFO, heap — the heap with near and with far deadlines)
   plus the cancellation path, measured as processed events per wall
   second.  These numbers show where
   :class:`repro.simulation.engine.Environment` spends its time and
   catch accidental O(n) behaviour in the queue.
2. **Macro** — the 1024-client / 4-tenant / 16-iod cell of the
   ``repro-bench scale`` sweep, wall-clock timed end to end.  This is
   the CI canary for "a 4096-client run finishes in CI time": the full
   cell is 4x the clients and 4x the servers, so holding the 1024 cell
   under budget holds the sweep under ~10x the budget.

``--check`` turns the macro timing into a gate: nonzero exit if the
1024-client smoke exceeds ``--budget-s`` wall seconds (default 60 —
roughly 20x the time on the hardware the budget was calibrated on, so
only a genuine complexity regression trips it, not a slow runner).

Run locally with::

    PYTHONPATH=src python tools/profile_engine.py
    PYTHONPATH=src python tools/profile_engine.py --check
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.simulation import Environment  # noqa: E402


# ----------------------------------------------------------------------
# micro: event-queue throughput
# ----------------------------------------------------------------------
def _drive(env: Environment, make_delay, n: int) -> None:
    """One process arming ``n`` timeouts with the given delay pattern."""

    def proc():
        for i in range(n):
            yield env.timeout(make_delay(i))

    env.process(proc())
    env.run()


def micro_profiles(n: int = 200_000) -> dict[str, float]:
    """Events/sec through each scheduling path."""
    out: dict[str, float] = {}

    t0 = time.perf_counter()
    _drive(Environment(), lambda i: 0.0, n)
    out["fifo_events_per_s"] = n / (time.perf_counter() - t0)

    t0 = time.perf_counter()
    _drive(Environment(), lambda i: 1e-4, n)
    out["heap_events_per_s"] = n / (time.perf_counter() - t0)

    t0 = time.perf_counter()
    _drive(Environment(), lambda i: 5e-3 + (i % 7) * 1e-3, n)
    out["far_events_per_s"] = n / (time.perf_counter() - t0)

    # armed-then-cancelled guard timers (the RPC timeout pattern)
    env = Environment()

    def canceller():
        for _ in range(n // 10):
            timers = [env.call_later(10.0, lambda _ev: None) for _ in range(10)]
            for t in timers:
                t.cancel()
            yield env.timeout(1e-3)

    env.process(canceller())
    t0 = time.perf_counter()
    env.run()
    out["cancel_timers_per_s"] = n / (time.perf_counter() - t0)
    assert env.queue_stats() == {"live": 0, "dead": 0}, env.queue_stats()
    return out


# ----------------------------------------------------------------------
# macro: the 1024-client scale-sweep smoke
# ----------------------------------------------------------------------
def macro_profile() -> dict[str, float]:
    """Wall-time the 1024x4x16 scale cell (the CI wall-clock canary)."""
    from repro.bench.scalecmd import run_scale_cell

    t0 = time.perf_counter()
    result, _ = run_scale_cell(1024, 4, 16)
    wall = time.perf_counter() - t0
    return {
        "clients_1024_wall_s": wall,
        "clients_1024_sim_elapsed_s": result.elapsed,
        "clients_1024_mbps": result.bandwidth_mbps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile the simulation engine's event queue."
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate mode: fail if the 1024-client smoke exceeds the "
        "wall-clock budget (skips the micro benches)",
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=60.0,
        help="wall-clock budget for the 1024-client smoke (default 60)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=200_000,
        help="events per micro bench (default 200000)",
    )
    args = parser.parse_args(argv)

    if not args.check:
        for name, rate in micro_profiles(args.events).items():
            print(f"{name:>24s}: {rate:12,.0f}")
    macro = macro_profile()
    for name, val in macro.items():
        print(f"{name:>24s}: {val:12,.2f}")
    if args.check and macro["clients_1024_wall_s"] > args.budget_s:
        print(
            f"FAIL: 1024-client smoke took "
            f"{macro['clients_1024_wall_s']:.1f}s "
            f"(> {args.budget_s:.0f}s budget)",
            file=sys.stderr,
        )
        return 1
    if args.check:
        print(
            f"OK: 1024-client smoke within "
            f"{args.budget_s:.0f}s budget",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
