"""``repro-bench collective``: the sixth-method benchmark + CI gate.

Two modes:

* ``--smoke`` — the CI gate: a reduced FLASH sweep that must show
  collective datatype I/O beating list I/O at the top client count,
  replaying deterministically (bit-equal elapsed), and issuing a
  data-path request count that stays roughly constant when the rank
  count doubles (the O(servers·rounds) contract);
* full — collects ``BENCH_collective.json``: the paper-scale top cells
  of Figures 10 and 12 across all six methods (the figures' own cell
  specs, so ``repro-bench all`` runs each cell once) plus a FLASH dedup
  showcase (fingerprint-merged views, requests saved vs the
  independent path), and asserts the acceptance bar — the sixth curve
  dominates the five paper methods at the highest client count.

Every recorded figure is simulated (bandwidth, elapsed, counters), so
the document diffs deterministically under ``repro-bench compare``.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..pvfs import PVFSConfig
from .characteristics import METHOD_ORDER, block3d_spec, flash_spec
from .document import Document, Gate
from .report import bandwidths
from .runner import RunResult, Spec, cell, mesh, row, run
from .workloads import FlashWorkload

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


@row
def _smoke_row(r: RunResult) -> dict:
    return {
        "mbps": r.bandwidth_mbps,
        "elapsed_s": r.elapsed,
        "requests": r.server_stats["requests"],
    }


def _counter(r: RunResult, name: str) -> int:
    fam = r.metrics.registry.families.get(name)
    if fam is None:
        return 0
    return int(sum(inst.value for _, inst in fam.labeled()))


def _showcase_row(r: RunResult) -> dict:
    return {
        "views_merged": _counter(r, "repro_collective_views_merged"),
        "requests_saved": _counter(r, "repro_collective_requests_saved"),
        "collective_requests": r.server_stats["requests"],
        "collective_mbps": r.bandwidth_mbps,
    }


def _top(spec_at, clients: int) -> dict:
    """One column of a figure: every method's bandwidth at ``clients``
    (``None`` for a point the figure leaves out)."""
    return {"clients": clients, "mbps": bandwidths(mesh(spec_at, method=METHOD_ORDER))}


# ----------------------------------------------------------------------
# full benchmark document
# ----------------------------------------------------------------------
def collect_collective_bench(spec: Optional[dict] = None) -> dict:
    """Run the top-cell sweeps and assemble the benchmark document."""
    spec = dict(DEFAULT_SPEC if spec is None else spec)
    cpd, n12 = spec["clients_per_dim"], spec["fig12_clients"]
    figures = {
        f"fig10_{direction}": _top(
            partial(block3d_spec, cpd, direction=direction, grid=spec["grid"]),
            cpd**3,
        )
        for direction in ("read", "write")
    }
    figures["fig12"] = _top(partial(flash_spec, n12), n12)

    # FLASH dedup showcase: all ranks share one view fingerprint, so
    # the aggregators collapse the whole communicator to a single view
    # and O(servers·rounds) requests
    ns = spec["showcase_clients"]
    coll = cell(
        Spec(
            FlashWorkload.paper(ns),
            "collective_dtype",
            config=PVFSConfig(metrics=True),
            observe=_showcase_row,
        )
    )
    indep = cell(Spec(FlashWorkload.paper(ns), "datatype_io"))
    showcase = {
        "clients": ns,
        **coll,
        "dedup_ratio": coll["views_merged"] / ns,
        "independent_requests": indep.requests,
        "independent_mbps": indep.bandwidth_mbps,
    }

    dominance = {}
    for name, top in figures.items():
        ours = top["mbps"]["collective_dtype"]
        others = [
            v
            for m, v in top["mbps"].items()
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
    cells = mesh(
        lambda clients, method: Spec(
            FlashWorkload.paper(clients), method, observe=_smoke_row
        ),
        clients=spec["clients"],
        method=spec["methods"],
    )
    top = max(spec["clients"])
    replay = run(Spec(FlashWorkload.paper(top), "collective_dtype"))
    return {
        "spec": spec,
        "cells": cells,
        "replay": {"mbps": replay.bandwidth_mbps, "elapsed_s": replay.elapsed},
    }


def smoke_check(doc: dict) -> list[str]:
    """The three smoke assertions; empty list == gate passes."""
    problems = []
    counts = sorted(doc["cells"])
    top = counts[-1]
    cell = doc["cells"][top]
    ours = cell["collective_dtype"]

    theirs = cell["list_io"].get("mbps", 0)
    if not ours.get("mbps", 0) > theirs:
        problems.append(
            f"collective_dtype {ours.get('mbps')} MiB/s does not beat "
            f"list_io {theirs} at {top} clients"
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
def render_collective(doc: dict, **_) -> str:
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
