"""``repro-bench scale``: the multi-tenant scale-out sweep.

Sweeps ``clients × tenants × iods`` cells (up to 4096 clients, 4
tenants, 64 servers) of the strip-aligned :class:`~repro.bench
.workloads.ScaleWorkload` under weighted-fair admission and writes
``BENCH_scale.json``.  Each cell reports aggregate bandwidth,
per-tenant makespan throughput, Jain's fairness index, and how busy
the server pipeline was — the saturation attribution for datatype
I/O's server-CPU advantage: once ``server_busy_frac`` approaches 1 the
daemons, not the network, bound the run, and adding clients only
deepens admission queues.

Fairness methodology: tenant *i*'s offered demand is scaled in
proportion to its admission weight (``ScaleWorkload.tenant_reps``), so
under weighted-fair service all tenants finish together and
``throughput_i = bytes_i / makespan_i`` comes out proportional to
``weight_i``.  A scheduler that ignored weights would let the
light-demand tenants finish early and skew the ratios — the sweep
would see it.  For equal weights the same numbers feed
:func:`repro.metrics.jain_index` (CI smoke requires >= 0.9).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..metrics import jain_index
from ..pvfs import PVFSConfig, TenantConfig
from .document import Document, Gate
from .runner import RunResult, run_workload
from .workloads import ScaleWorkload

__all__ = [
    "DOCUMENT",
    "FULL_SPEC",
    "SMOKE_SPEC",
    "collect_scale_bench",
    "run_scale_cell",
    "smoke_check",
]

MIB = 1024 * 1024

#: 16 KiB strips (= ``ScaleWorkload.block_bytes``, so each request
#: maps to exactly one server).  Deliberately small: a 16 KiB response
#: costs ~1.3 ms of NIC time vs ~4.4 ms of daemon CPU per request, so
#: the *daemon* is the saturated resource and weighted-fair admission
#: directly orders completions.  With the paper's 64 KiB strips the
#: server NIC (5.2 ms/response) out-bottlenecks the daemon and its
#: FIFO transmit queue launders the DRR ordering back to near-equal
#: shares — the sweep's ``server_busy_frac`` column quantifies exactly
#: this crossover.
STRIP = 16384

#: Full sweep: equal-weight cells up to the 4096-client /
#: 4-tenant / 64-iod corner, plus one weighted (1:2:4:8) cell.
FULL_SPEC = {
    "cells": [
        [64, 1, 4],
        [256, 2, 8],
        [1024, 4, 16],
        [4096, 4, 64],
    ],
    "weighted": {"cell": [256, 4, 8], "weights": [1.0, 2.0, 4.0, 8.0]},
    "blocks": 2,
    "base_reps": 4,
}

#: CI smoke: small grid, same shape, seconds not minutes.
SMOKE_SPEC = {
    "cells": [
        [16, 2, 4],
        [64, 4, 8],
    ],
    "weighted": {"cell": [32, 4, 4], "weights": [1.0, 2.0, 4.0, 8.0]},
    "blocks": 2,
    "base_reps": 4,
}


def _tenant_configs(weights: Sequence[float]) -> tuple[TenantConfig, ...]:
    return tuple(
        TenantConfig(name=f"t{i}", weight=float(w))
        for i, w in enumerate(weights)
    )


def run_scale_cell(
    n_clients: int,
    n_tenants: int,
    n_iods: int,
    *,
    weights: Optional[Sequence[float]] = None,
    blocks: int = 2,
    base_reps: int = 4,
    method: str = "datatype_io",
) -> tuple[RunResult, ScaleWorkload]:
    """Run one sweep cell; returns the result and its workload."""
    if n_clients % n_iods:
        raise ValueError("n_clients must be a multiple of n_iods")
    weights = list(weights) if weights is not None else [1.0] * n_tenants
    if len(weights) != n_tenants:
        raise ValueError("need one weight per tenant")
    wmin = min(weights)
    reps = tuple(max(1, round(base_reps * w / wmin)) for w in weights)
    # Reads, deliberately: a read request is a small descriptor, so
    # requests pile up in the per-tenant admission queues and the DRR
    # rotation is what orders service.  (Writes are NIC-bound — the
    # payload's 10+ ms wire time per 128 KiB starves the queue and
    # there is nothing for weighted-fair admission to arbitrate.)
    workload = ScaleWorkload(
        n_clients=n_clients,
        block_bytes=STRIP,
        blocks=blocks,
        n_tenants=n_tenants,
        tenant_reps=reps,
        is_write=False,
    )
    config = PVFSConfig(
        n_servers=n_iods,
        strip_size=STRIP,
        tenants=_tenant_configs(weights),
    )
    result = run_workload(
        workload,
        method,
        phantom=True,
        config=config,
        tenant_of=workload.tenant_of,
    )
    return result, workload


def _cell_doc(
    result: RunResult,
    workload: ScaleWorkload,
    weights: Sequence[float],
) -> dict:
    """Condense one cell run into the JSON cell document."""
    t0 = min(t for t, _ in result.rank_times.values())
    per_rep = workload.bytes_per_client_per_rep()
    tenants = {}
    rates = []
    for i, w in enumerate(weights):
        ranks = workload.tenant_ranks(i)
        nbytes = sum(
            per_rep * workload.repetitions_for(r) for r in ranks
        )
        makespan = max(result.rank_times[r][1] for r in ranks) - t0
        mbps = nbytes / MIB / makespan if makespan > 0 else 0.0
        tenants[f"t{i}"] = {
            "weight": w,
            "ranks": len(ranks),
            "bytes": nbytes,
            "makespan_s": makespan,
            "mbps": mbps,
        }
        rates.append(mbps / w)
    # admission-side starvation accounting, summed across daemons
    admitted = {f"t{i}": 0 for i in range(len(weights))}
    max_wait = {f"t{i}": 0.0 for i in range(len(weights))}
    wait_sum = {f"t{i}": 0.0 for i in range(len(weights))}
    for server in result.servers:
        if server.admission is None:
            continue
        for row in server.admission.report():
            t = row["tenant"]
            admitted[t] += row["admitted"]
            max_wait[t] = max(max_wait[t], row["max_wait_s"])
            wait_sum[t] += row["mean_wait_s"] * row["admitted"]
    for t, doc in tenants.items():
        doc["admitted"] = admitted[t]
        doc["max_wait_s"] = max_wait[t]
        doc["mean_wait_s"] = (
            wait_sum[t] / admitted[t] if admitted[t] else 0.0
        )
    busy = 0.0
    if result.pipeline is not None:
        total = result.pipeline.total
        busy = sum(getattr(total, f) for f in total.stage_fields())
    n_iods = len(result.servers)
    return {
        "clients": workload.n_clients,
        "tenants": len(weights),
        "iods": n_iods,
        "weights": list(weights),
        "total_bytes": workload.total_bytes(),
        "elapsed_s": result.elapsed,
        "mbps": result.bandwidth_mbps,
        "per_tenant": tenants,
        #: Jain over weight-normalized makespan throughputs: 1.0 means
        #: every tenant got exactly its weighted share.
        "jain_weighted": jain_index(rates),
        "server_busy_s": busy,
        #: fraction of aggregate daemon time the pipeline was busy —
        #: the saturation attribution (≈1: server CPU bound the run)
        "server_busy_frac": (
            busy / (result.elapsed * n_iods)
            if result.elapsed > 0 and n_iods
            else 0.0
        ),
    }


def collect_scale_bench(spec: Optional[dict] = None) -> dict:
    """Run every cell of ``spec`` (default :data:`FULL_SPEC`)."""
    spec = spec or FULL_SPEC

    def cell(shape, weights=None) -> dict:
        n_clients, n_tenants, n_iods = shape
        weights = weights or [1.0] * n_tenants
        result, workload = run_scale_cell(
            n_clients,
            n_tenants,
            n_iods,
            weights=weights,
            blocks=spec.get("blocks", 2),
            base_reps=spec.get("base_reps", 4),
        )
        return _cell_doc(result, workload, weights)

    cells = [cell(shape) for shape in spec["cells"]]
    wspec = spec.get("weighted")
    return {
        "schema": 1,
        "method": "datatype_io",
        "spec": spec,
        "cells": cells,
        "weighted": (
            None if wspec is None else cell(wspec["cell"], wspec["weights"])
        ),
    }


def smoke_check(doc: dict) -> list[str]:
    """CI gate over a collected scale document.

    * completed bytes must grow monotonically along the grid (bigger
      cells really did more work — a truncated sweep fails);
    * every equal-weight cell needs Jain >= 0.9;
    * the weighted cell's per-tenant throughput must be proportional
      to its weights within 10 %.
    """
    problems: list[str] = []
    prev = -1
    for cell in doc["cells"]:
        label = "x".join(
            str(cell[k]) for k in ("clients", "tenants", "iods")
        )
        if cell["total_bytes"] <= prev:
            problems.append(
                f"cell {label}: completed bytes {cell['total_bytes']} "
                f"not above previous cell ({prev})"
            )
        prev = cell["total_bytes"]
        if cell["jain_weighted"] < 0.9:
            problems.append(
                f"cell {label}: Jain index {cell['jain_weighted']:.3f} "
                "< 0.9 for equal weights"
            )
    weighted = doc.get("weighted")
    if weighted is not None:
        rates = [
            t["mbps"] / t["weight"] for t in weighted["per_tenant"].values()
        ]
        mean = sum(rates) / len(rates)
        for name, t in weighted["per_tenant"].items():
            err = abs(t["mbps"] / t["weight"] - mean) / mean if mean else 0.0
            if err > 0.10:
                problems.append(
                    f"weighted cell: tenant {name} throughput/weight "
                    f"deviates {err:.1%} from proportional (> 10%)"
                )
    return problems


def render_scale(doc: dict) -> str:
    """One line per sweep cell for the console."""
    lines = []
    for cell in doc["cells"] + (
        [doc["weighted"]] if doc.get("weighted") else []
    ):
        w = cell["weights"]
        tag = (
            "equal"
            if len(set(w)) == 1
            else ":".join(f"{x:g}" for x in w)
        )
        lines.append(
            f"{cell['clients']:>5d} clients x {cell['tenants']} tenants "
            f"({tag}) x {cell['iods']:>2d} iods: "
            f"{cell['mbps']:8.1f} MiB/s, jain {cell['jain_weighted']:.3f}, "
            f"server busy {cell['server_busy_frac']:.0%}"
        )
    return "\n".join(lines)


def _collect(replay_of=None, **_) -> dict:
    # a replay runs the exact grid the baseline was recorded with
    return collect_scale_bench((replay_of or {}).get("spec"))


def _smoke(method: str) -> tuple:
    doc = collect_scale_bench(SMOKE_SPEC)
    print(render_scale(doc))
    ok = (
        "completion monotone, fairness >= 0.9, "
        "weighted shares proportional"
    )
    return smoke_check(doc), ok, doc


def _rows(doc: dict) -> dict:
    out = {}
    for cell in doc.get("cells", []):
        out[f"{cell['clients']}x{cell['tenants']}x{cell['iods']}"] = cell
    if doc.get("weighted"):
        out["weighted"] = doc["weighted"]
    return out


DOCUMENT = Document(
    name="scale",
    command="scale",
    collect=_collect,
    gates=(
        # bandwidth and elapsed gate like the pipeline numbers, and
        # Jain's weighted fairness index must not drop — a scheduler
        # change that silently un-fairs the admission rotation is a
        # regression even if it goes faster
        Gate(
            rows=_rows,
            levels=("cell",),
            metrics=(
                ("mbps", "higher"),
                ("elapsed_s", "lower"),
                ("jain_weighted", "higher"),
            ),
        ),
    ),
    render=render_scale,
    problems=lambda doc, **_: smoke_check(doc),
    smoke=_smoke,
)
