"""The traced pass: per-layer host time from outside the program.

End-to-end metrics are measured with profiling off.  The traced pass
runs one more repetition with a separate ``cProfile.Profile`` around
each cell's call (deterministic, not sampled; no source edits) and
folds every profiled function's ``tottime`` into the layer its file
belongs to (``schema.layer_of_file``).  Spans stay in memory and
``write_trace`` dumps them when the worker ends:

    workload -> cell (real interval: name, start, end, parent, id)
             -> one aggregated child per layer (``self_s``, ``calls``)
             -> inclusive time of the layer-boundary functions
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time

import schema


class TracedPass:
    """Profiles cells one by one; ``wrap`` plugs into ``run_pass``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.t_start = time.perf_counter()
        self.cells: list[dict] = []

    def wrap(self, cell, fn):
        prof = cProfile.Profile()
        start = time.perf_counter()
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
            end = time.perf_counter()
            self.cells.append(_fold(cell.name, start, end, prof))

    # ------------------------------------------------------------------
    def _totals(self, key, names, fields) -> dict:
        out = {name: dict.fromkeys(fields, 0) for name in names}
        for cell in self.cells:
            for name, agg in cell[key].items():
                for f in fields:
                    out[name][f] += agg[f]
        return out

    def layer_totals(self) -> dict:
        """``{layer: {"self_s", "calls"}}`` summed over cells."""
        return self._totals("layers", schema.LAYERS, ("self_s", "calls"))

    def boundary_totals(self) -> dict:
        """``{boundary: {"incl_s", "calls"}}`` summed over cells."""
        return self._totals(
            "boundaries", [b[0] for b in schema.BOUNDARIES], ("incl_s", "calls")
        )

    def named_calls(self, layer: str, func: str) -> int:
        return sum(c["named_calls"].get(f"{layer}:{func}", 0) for c in self.cells)

    def conservation(self) -> float:
        """Σ layer self time / Σ profiled cell time (1.0 is exact)."""
        wall = sum(c["end"] - c["start"] for c in self.cells)
        attributed = sum(
            agg["self_s"] for c in self.cells for agg in c["layers"].values()
        )
        return attributed / wall if wall else 0.0

    def spans(self) -> dict:
        root = {
            "id": self.workload, "name": self.workload, "parent": None,
            "start": self.t_start, "end": time.perf_counter(),
        }
        spans = [root]
        for cell in self.cells:
            cid = f"{self.workload}/{cell['name']}"
            spans.append({
                "id": cid, "name": cell["name"], "parent": root["id"],
                "start": cell["start"], "end": cell["end"],
            })
            for layer, agg in cell["layers"].items():
                spans.append({
                    "id": f"{cid}/{layer}", "name": layer, "parent": cid,
                    "aggregated": True, **agg,
                })
            for name, agg in cell["boundaries"].items():
                spans.append({
                    "id": f"{cid}/{name}", "name": name, "parent": cid,
                    "boundary": True, **agg,
                })
        return {"workload": self.workload, "clock": "perf_counter", "spans": spans}


def _fold(name, start, end, prof) -> dict:
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in schema.LAYERS}
    boundaries = {}
    named_calls: dict[str, int] = {}
    stats = pstats.Stats(prof).stats
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime, _) in stats.items():
        layer = schema.layer_of_file(filename)
        layers[layer]["self_s"] += tottime
        layers[layer]["calls"] += ncalls
        if layer not in ("other", "harness"):
            key = f"{layer}:{func}"
            named_calls[key] = named_calls.get(key, 0) + ncalls
        for bname, suffix, bfunc in schema.BOUNDARIES:
            if func == bfunc and filename.endswith(suffix):
                agg = boundaries.setdefault(bname, {"incl_s": 0.0, "calls": 0})
                agg["incl_s"] += cumtime
                agg["calls"] += ncalls
    return {
        "name": name, "start": start, "end": end, "layers": layers,
        "boundaries": boundaries, "named_calls": named_calls,
    }


def write_trace(path, traced: TracedPass) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(traced.spans(), indent=1) + "\n")
