"""``repro-bench collective``: the sixth-method benchmark + CI gate.

Two modes:

* ``--smoke`` — the CI gate: a reduced FLASH sweep that must show
  collective datatype I/O beating list I/O at the top client count,
  replaying deterministically (bit-equal elapsed), and issuing a
  data-path request count that stays roughly constant when the rank
  count doubles (the O(servers·rounds) contract);
* full — collects ``BENCH_collective.json``: the paper-scale top cells
  of Figures 10 and 12 across all six methods plus a FLASH dedup
  showcase (fingerprint-merged views, requests saved vs the
  independent path), and asserts the acceptance bar — the sixth curve
  dominates the five paper methods at the highest client count.

Every recorded figure is simulated (bandwidth, elapsed, counters), so
the document diffs deterministically under ``repro-bench compare``.
"""

from __future__ import annotations

from typing import Optional

from .characteristics import METHOD_ORDER
from .document import Document, Gate
from .runner import run_workload
from .workloads import Block3DWorkload, FlashWorkload

__all__ = [
    "collect_collective_bench",
    "collect_smoke",
    "smoke_check",
    "render_collective",
    "DOCUMENT",
    "DEFAULT_SPEC",
    "SMOKE_SPEC",
]

#: Paper-scale top cells: 64-client 3-D block (Figure 10) and
#: 128-client FLASH (Figure 12), plus the dedup-showcase client count.
DEFAULT_SPEC = {
    "grid": 600,
    "clients_per_dim": 4,
    "fig12_clients": 128,
    "showcase_clients": 64,
}

#: Reduced spec for tests (same shape, small scales).
QUICK_SPEC = {
    "grid": 120,
    "clients_per_dim": 2,
    "fig12_clients": 8,
    "showcase_clients": 4,
}

#: The CI smoke sweep: FLASH at two client counts, the three methods
#: whose ordering the gate asserts.
SMOKE_SPEC = {
    "clients": (8, 16),
    "methods": ("list_io", "datatype_io", "collective_dtype"),
}


def _mbps(r) -> Optional[float]:
    return r.bandwidth_mbps if r.supported else None


def _data_requests(r) -> int:
    return sum(s.requests for s in r.servers)


# ----------------------------------------------------------------------
# full benchmark document
# ----------------------------------------------------------------------
def collect_collective_bench(spec: Optional[dict] = None) -> dict:
    """Run the top-cell sweeps and assemble the benchmark document."""
    spec = dict(DEFAULT_SPEC if spec is None else spec)
    figures: dict = {}

    block_clients = spec["clients_per_dim"] ** 3
    for name, is_write in (("fig10_read", False), ("fig10_write", True)):
        cell: dict = {"clients": block_clients, "mbps": {}}
        for method in METHOD_ORDER:
            wl = Block3DWorkload(
                grid=spec["grid"],
                clients_per_dim=spec["clients_per_dim"],
                is_write=is_write,
            )
            cell["mbps"][method] = _mbps(run_workload(wl, method, phantom=True))
        figures[name] = cell

    n12 = spec["fig12_clients"]
    cell = {"clients": n12, "mbps": {}}
    for method in METHOD_ORDER:
        if method == "posix" and n12 > 32:
            cell["mbps"][method] = None  # paper: "nearly unusable"
            continue
        r = run_workload(FlashWorkload.paper(n12), method, phantom=True)
        cell["mbps"][method] = _mbps(r)
    figures["fig12"] = cell

    # FLASH dedup showcase: all ranks share one view fingerprint, so
    # the aggregators collapse the whole communicator to a single view
    # and O(servers·rounds) requests
    from ..pvfs import PVFSConfig

    ns = spec["showcase_clients"]
    coll = run_workload(
        FlashWorkload.paper(ns),
        "collective_dtype",
        phantom=True,
        config=PVFSConfig(metrics=True),
    )
    indep = run_workload(FlashWorkload.paper(ns), "datatype_io", phantom=True)

    def counter(result, name):
        fam = result.metrics.registry.families.get(name)
        if fam is None:
            return 0
        return int(sum(inst.value for _, inst in fam.labeled()))

    views_merged = counter(coll, "repro_collective_views_merged")
    showcase = {
        "clients": ns,
        "views_merged": views_merged,
        "dedup_ratio": views_merged / ns,
        "requests_saved": counter(coll, "repro_collective_requests_saved"),
        "collective_requests": _data_requests(coll),
        "independent_requests": _data_requests(indep),
        "collective_mbps": coll.bandwidth_mbps,
        "independent_mbps": indep.bandwidth_mbps,
    }

    dominance = {}
    for name, cell in figures.items():
        ours = cell["mbps"]["collective_dtype"]
        others = [
            v
            for m, v in cell["mbps"].items()
            if m != "collective_dtype" and v is not None
        ]
        dominance[name] = ours is not None and all(ours > v for v in others)

    return {
        "schema": 1,
        "spec": spec,
        "figures": figures,
        "flash_showcase": showcase,
        "dominance": dominance,
    }


def dominance_problems(doc: dict) -> list[str]:
    """The acceptance bar: the sixth curve wins every top cell."""
    problems = []
    for name, won in doc.get("dominance", {}).items():
        if not won:
            cell = doc["figures"][name]
            problems.append(
                f"{name}@{cell['clients']}: collective_dtype "
                f"({cell['mbps']['collective_dtype']}) does not dominate "
                f"{cell['mbps']}"
            )
    return problems


# ----------------------------------------------------------------------
# CI smoke gate
# ----------------------------------------------------------------------
def collect_smoke(spec: Optional[dict] = None) -> dict:
    """Reduced FLASH sweep + a bit-equal replay of the top cell."""
    spec = dict(SMOKE_SPEC if spec is None else spec)
    cells: dict = {}
    for n in spec["clients"]:
        cells[n] = {}
        for method in spec["methods"]:
            r = run_workload(FlashWorkload.paper(n), method, phantom=True)
            cells[n][method] = {
                "mbps": _mbps(r),
                "elapsed_s": r.elapsed,
                "requests": _data_requests(r),
            }
    top = max(spec["clients"])
    replay = run_workload(
        FlashWorkload.paper(top), "collective_dtype", phantom=True
    )
    return {
        "spec": spec,
        "cells": cells,
        "replay": {"mbps": _mbps(replay), "elapsed_s": replay.elapsed},
    }


def smoke_check(doc: dict) -> list[str]:
    """The three smoke assertions; empty list == gate passes."""
    problems = []
    counts = sorted(doc["cells"])
    top = counts[-1]
    cell = doc["cells"][top]
    ours = cell["collective_dtype"]

    if not (ours["mbps"] and ours["mbps"] > (cell["list_io"]["mbps"] or 0)):
        problems.append(
            f"collective_dtype {ours['mbps']} MiB/s does not beat list_io "
            f"{cell['list_io']['mbps']} at {top} clients"
        )
    if doc["replay"]["elapsed_s"] != ours["elapsed_s"]:
        problems.append(
            f"nondeterministic replay: {doc['replay']['elapsed_s']!r} != "
            f"{ours['elapsed_s']!r}"
        )
    if len(counts) >= 2:
        lo = counts[0]
        lo_reqs = doc["cells"][lo]["collective_dtype"]["requests"]
        ratio = ours["requests"] / max(lo_reqs, 1)
        growth = top / lo
        # O(servers·rounds): doubling the ranks must not come close to
        # doubling the aggregated request count (list I/O scales 1:1)
        if ratio > (1 + growth) / 2:
            problems.append(
                f"aggregated requests grew {ratio:.2f}x when ranks grew "
                f"{growth:.0f}x ({lo_reqs} -> {ours['requests']})"
            )
    return problems


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_collective(doc: dict) -> str:
    lines = ["Collective datatype I/O: paper-scale top cells (MiB/s)"]
    for name, cell in doc["figures"].items():
        won = "dominates" if doc["dominance"][name] else "DOES NOT dominate"
        lines.append(f"\n{name} @ {cell['clients']} clients ({won}):")
        for method in METHOD_ORDER:
            v = cell["mbps"].get(method)
            lines.append(
                f"  {method:>16s}  " + (f"{v:8.3f}" if v else "     n/a")
            )
    s = doc["flash_showcase"]
    lines.append(
        f"\nFLASH showcase @ {s['clients']} clients: "
        f"{s['views_merged']} views merged "
        f"(dedup ratio {s['dedup_ratio']:.2f}), "
        f"{s['requests_saved']} requests saved; "
        f"{s['collective_requests']} aggregated data requests vs "
        f"{s['independent_requests']} independent; "
        f"{s['collective_mbps']:.1f} vs {s['independent_mbps']:.1f} MiB/s"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the document record
# ----------------------------------------------------------------------
def _collect(replay_of=None, quick=False, **_) -> dict:
    # a replay runs the exact scales the baseline was recorded with
    spec = QUICK_SPEC if quick else (replay_of or {}).get("spec")
    return collect_collective_bench(spec)


def _problems(doc: dict, quick=False, **_) -> list[str]:
    # the acceptance bar is a paper-scale claim
    return [] if quick else dominance_problems(doc)


def _smoke(method: str) -> tuple:
    doc = collect_smoke()
    top = max(doc["spec"]["clients"])
    ok = (
        f"beats list I/O at {top} clients, deterministic replay, "
        "O(servers) aggregated requests"
    )
    return smoke_check(doc), ok, None


def _figure_rows(doc: dict) -> dict:
    """``{figure: {method: row}}``; ``None`` bandwidth = unsupported.

    A figure that is ``None`` stays ``None`` (a coverage failure).
    """
    return {
        name: cell and {
            method: {"supported": v is not None, "mbps": v}
            for method, v in cell.get("mbps", {}).items()
        }
        for name, cell in doc.get("figures", {}).items()
    }


def _showcase_rows(doc: dict) -> dict:
    showcase = doc.get("flash_showcase")
    return {"flash_showcase": showcase} if showcase else {}


DOCUMENT = Document(
    name="collective",
    command="collective",
    collect=_collect,
    gates=(
        # every method's top-cell bandwidth gates like the pipeline
        # numbers, and a dominance flag flipping from won to lost is a
        # regression in its own right — the sixth curve falling behind
        # any paper method at the highest client count is the acceptance
        # bar breaking, even inside the tolerance band
        Gate(
            rows=_figure_rows,
            levels=("figure", "method"),
            metrics=(("mbps", "higher"),),
            supported=True,
            flag=(
                "dominance",
                lambda doc: doc.get("dominance", {}),
                "collective_dtype no longer dominates",
            ),
        ),
        # the aggregation quality: merged views or saved requests
        # dropping, or the aggregated request count rising
        Gate(
            rows=_showcase_rows,
            levels=("showcase",),
            metrics=(
                ("views_merged", "higher"),
                ("requests_saved", "higher"),
                ("collective_requests", "lower"),
                ("collective_mbps", "higher"),
            ),
        ),
    ),
    render=render_collective,
    problems=_problems,
    smoke=_smoke,
)
