"""``repro-bench faults``: degraded-mode bandwidth under fault injection.

Sweeps the reduced tile workload across every access method — the five
independent paths *and* collective datatype I/O, whose ack/re-election
failover is exercised by the same presets — and every
:data:`~repro.faults.SEVERITY_LEVELS` preset (``none`` → ``heavy``),
recording aggregate bandwidth, elapsed simulated time and the injector's
fault accounting into ``BENCH_faults.json``.  Every recorded field is a
deterministic simulated quantity — a given ``(workload, method,
severity, seed)`` cell replays bit-for-bit — so the document doubles as
a compare-gate baseline (:mod:`repro.bench.compare`).

``--smoke`` (the CI chaos gate) runs the ``heavy`` preset with tracing
*and* metrics on, then requires:

* the run completes (bounded retries: injected faults terminate in
  success or a typed ``RetriesExhausted``, never a hang);
* faults were actually injected and the read data still verified;
* trace spans and metrics still reconcile exactly under fault load;
* the same seed replays to an identical fault event log, a different
  seed does not;
* an armed but inert fault config (every probability zero) is
  float-equality identical to ``faults=None`` on every simulated
  quantity.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

from ..faults import SEVERITY_LEVELS, FaultConfig, severity_config
from ..pvfs import PVFSConfig
from .characteristics import METHOD_ORDER
from .document import Document, Gate
from .artifacts import verify_metrics, verify_trace
from .runner import RunResult, Spec, divergence, mesh, row, run
from .workloads import reduced

__all__ = [
    "DOCUMENT",
    "collect_faults_bench",
    "fault_spec",
    "smoke",
]

#: Schema version of the emitted document; bump on layout changes.
SCHEMA = 1

#: Seed of every sweep cell (one seed: the sweep compares severities,
#: not seeds; determinism across runs is what the smoke gate checks).
SWEEP_SEED = 1234


@row
def _fault_row(r: RunResult) -> dict:
    entry = {
        "mbps": round(r.bandwidth_mbps, 3),
        "elapsed_s": r.elapsed,
        "n_clients": r.n_clients,
        "degraded": r.degraded,
    }
    if r.faults is not None:
        entry["faults"] = r.faults.summary()
    return entry


def fault_spec(
    method: str,
    severity: str,
    *,
    seed: int = SWEEP_SEED,
    trace: bool = False,
    metrics: bool = False,
) -> Spec:
    """The reduced tile workload under one severity preset."""
    config = PVFSConfig(
        faults=severity_config(severity, seed=seed),
        trace=trace,
        metrics=metrics,
    )
    return Spec(reduced("tile"), method, config=config, observe=_fault_row)


def collect_faults_bench(
    methods: Sequence[str] = METHOD_ORDER,
    *,
    seed: int = SWEEP_SEED,
) -> dict:
    """Run the method × severity sweep and collect results as a dict."""
    severities = {}
    for level in SEVERITY_LEVELS:
        cfg = severity_config(level, seed=seed)
        if cfg is None:
            severities[level] = None
        else:
            d = asdict(cfg)
            # JSON-native: crash windows round-trip as lists, not tuples
            d["server_crashes"] = [list(w) for w in d["server_crashes"]]
            severities[level] = d
    return {
        "schema": SCHEMA,
        "scale": "reduced",
        "workload": "tile",
        "seed": seed,
        "severities": severities,
        "methods": mesh(
            lambda method, severity: fault_spec(method, severity, seed=seed),
            method=methods,
            severity=SEVERITY_LEVELS,
        ),
    }


def smoke(method: str = "datatype_io") -> list[str]:
    """The CI chaos gate; returns the list of problems (empty = OK)."""
    problems: list[str] = []

    # heavy faults with full observability on: completion here is the
    # no-hang/bounded-retry proof (every fault path ends in a response
    # or a typed exception — a hang would wedge this very call)
    heavy = fault_spec(method, "heavy", trace=True, metrics=True)
    r1 = run(heavy)
    if not r1.supported:
        return [f"{method} unsupported for the tile workload: {r1.note}"]
    if not r1.degraded:
        problems.append("heavy severity injected no faults")
    exhausted = r1.faults.summary()["exhausted"]
    if exhausted:
        problems.append(
            f"{exhausted} request(s) exhausted retries under "
            "the heavy preset (timeout budget too tight for the sweep)"
        )
    problems.extend(f"trace under faults: {p}" for p in verify_trace(r1))
    problems.extend(
        f"metrics under faults: {p}" for p in verify_metrics(r1)
    )

    # determinism: same seed replays bit-for-bit…
    r2 = run(heavy)
    if r1.faults.event_log() != r2.faults.event_log():
        problems.append("same seed produced a different fault event log")
    problems.extend(f"same seed: {p}" for p in divergence(r1, r2))
    # …and a different seed does not
    r3 = run(fault_spec(method, "heavy", seed=SWEEP_SEED + 1))
    if r3.supported and r1.faults.event_log() == r3.faults.event_log():
        problems.append("different seed replayed the same fault event log")

    # the fault-free reference point (severity "none" is faults=None):
    # an armed but inert config runs every decision site, injects
    # nothing and so may not move the simulation at all
    r_none = run(Spec(reduced("tile"), method))
    inert = PVFSConfig(faults=FaultConfig())
    r_inert = run(Spec(reduced("tile"), method, config=inert))
    diff = divergence(r_inert, r_none)
    problems.extend(f"inert faults vs faults=None: {p}" for p in diff)
    # degradation must cost time, never gain it: injected faults only
    # add stalls, drops and retries on top of the fault-free schedule
    if r1.elapsed < r_none.elapsed:
        problems.append(
            f"heavy preset finished faster than fault-free: "
            f"{r1.elapsed!r} < {r_none.elapsed!r}"
        )
    return problems


def _collect(replay_of=None, **_) -> dict:
    return collect_faults_bench(seed=(replay_of or {}).get("seed", SWEEP_SEED))


def _render(doc: dict, **_) -> str:
    lines = []
    for method, severities in doc["methods"].items():
        cells = []
        for level, entry in severities.items():
            if not entry.get("supported"):
                cells.append(f"{level}=n/a")
                continue
            flag = "*" if entry["degraded"] else ""
            cells.append(f"{level}={entry['mbps']:g}{flag}")
        lines.append(
            f"{method}: " + "  ".join(cells) + "  (MiB/s, *=degraded)"
        )
    return "\n".join(lines)


def _smoke(method: str) -> tuple:
    """The chaos gate for ``method`` and, always, collective datatype
    I/O: its failover machinery (per-round acks, re-election) is a
    separate code path from the independent RPC ladder and regresses
    independently."""
    methods = dict.fromkeys((method, "collective_dtype"))
    problems = [f"{m}: {p}" for m in methods for p in smoke(m)]
    return problems, "heavy preset recovered, deterministic, reconciled", None


DOCUMENT = Document(
    name="faults",
    command="faults",
    collect=_collect,
    gates=(
        # degraded-mode figures replay from the seeded plan, so they gate
        # exactly like the fault-free ones: bandwidth down or elapsed up
        # under any severity is a real failover/recovery regression
        Gate(
            rows=lambda doc: doc.get("methods", {}),
            levels=("method", "severity"),
            metrics=(("mbps", "higher"), ("elapsed_s", "lower")),
            supported=True,
        ),
    ),
    render=_render,
    smoke=_smoke,
)
