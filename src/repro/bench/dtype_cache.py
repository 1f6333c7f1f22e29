"""Repeated-access benchmark for the server-side expansion cache.

The paper's workloads (tile reader, ROMIO 3-D block, FLASH) re-send the
*same* file view every iteration — only the displacement or window
moves.  This benchmark reproduces that access shape directly against
the PVFS client API and measures what the expansion cache buys: each of
``n_clients`` clients issues ``iterations`` datatype-I/O reads of a 3-D
block subarray view, twice over —

* **shifted** — same window, displacement stepped by whole stripe
  periods (``P = strip_size * n_servers``) per operation; every request
  after the first normalizes to the same cache entry (exact path);
* **windowed** — same view, per-operation windows sliding over a tiled
  file; requests assemble from one cached *period* entry.

Each phase runs with the cache on and off (client-side conversion
caching enabled in both, so only server-side expansion differs) and
reports the simulated speedup, the cache hit rate and the scan
reduction read back from the server pipeline stats — the deterministic
acceptance numbers in ``BENCH_dtype_cache.json`` that ``compare`` and
``--min-speedup`` gate.  Every field of the document is simulated, so
one run per phase and setting reproduces it byte for byte.  There is
no wall-clock field: both runs compute their expansions through the
file system's host-level ``ExpansionStore``, so a wall ratio would not
be a property of the simulated cache (the one recorded until schema 2
read 2.53 where a re-measurement gave 1.10–1.15).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datatypes import INT, subarray
from ..dataloops import build_dataloop
from ..pvfs import PVFS, PVFSConfig
from ..simulation import Environment
from .document import Document, Gate

__all__ = ["DOCUMENT", "CachePhase", "run_phase", "collect"]

SCHEMA = 2


@dataclass(frozen=True)
class CachePhase:
    """One repeated-access pattern at one scale."""

    name: str
    n_clients: int
    iterations: int
    dim: int  #: 3-D array edge (elements); selection is the inner half
    tile_count: int  #: filetype instances per request window
    n_servers: int = 4
    strip_size: int = 65536
    windowed: bool = False  #: slide windows instead of displacements

    @classmethod
    def full(cls) -> list["CachePhase"]:
        return [
            cls("shifted", n_clients=4, iterations=12, dim=64, tile_count=32),
            cls("windowed", n_clients=4, iterations=12, dim=64, tile_count=64,
                windowed=True),
        ]

    @classmethod
    def quick(cls) -> list["CachePhase"]:
        return [
            cls("shifted", n_clients=2, iterations=4, dim=32, tile_count=6),
            cls("windowed", n_clients=2, iterations=4, dim=32, tile_count=16,
                windowed=True),
        ]


def _make_loop(phase: CachePhase):
    d = phase.dim
    h, q = d // 2, d // 4
    # inner-half block in every dimension (paper §4.3 shape): rows do
    # not coalesce, so expansion really costs (d/2)^2 regions/instance
    t = subarray([d, d, d], [h, h, h], [q, q, q], INT)
    return build_dataloop(t)


def run_phase(phase: CachePhase, cache_on: bool) -> dict:
    """Run one phase once; returns the simulated time and the server
    cache stats.  The run must end quiescent, as every ``runner.run``
    does."""
    env = Environment()
    cfg = PVFSConfig(
        n_servers=phase.n_servers,
        strip_size=phase.strip_size,
        datatype_cache=True,
        expand_cache=cache_on,
    )
    fs = PVFS(env, config=cfg)
    loop = _make_loop(phase)
    period = phase.strip_size * phase.n_servers
    ds = loop.data_size

    def client_main(client, rank):
        fh = yield from client.open("/bench")
        for it in range(phase.iterations):
            if phase.windowed:
                # slide a many-instance window across the tiled view;
                # whole periods inside it come from one cache entry
                first = ((rank + it) % 4) * ds
                last = first + (phase.tile_count - 4) * ds
                yield from client.read_dtype(
                    fh, loop, first=first, last=last, phantom=True
                )
            else:
                # same window, displacement stepped by stripe periods
                disp = (rank * phase.iterations + it) * period
                yield from client.read_dtype(
                    fh,
                    loop,
                    displacement=disp,
                    last=phase.tile_count * ds,
                    phantom=True,
                )

    for rank in range(phase.n_clients):
        client = fs.client(f"cn{rank}")
        env.process(client_main(client, rank), name=f"bench{rank}")

    env.run()
    fs.assert_quiescent()

    stages = fs.pipeline_summary().total
    hits, misses = stages.cache_hits, stages.cache_misses
    lookups = hits + misses
    return {
        "sim_s": env.now,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_evictions": stages.cache_evictions,
        "cache_bytes_held": stages.cache_bytes_held,
        "hit_rate": hits / lookups if lookups else 0.0,
        "regions_scanned": fs.total_server_stats()["regions_scanned"],
    }


def collect(phases: list[CachePhase] | None = None) -> dict:
    """Run every phase cached and uncached."""
    phases = phases if phases is not None else CachePhase.full()
    out: dict = {
        "schema": SCHEMA,
        "note": (
            "simulated server-side expansion cost, cache on vs off; "
            "phantom datatype-I/O reads, client conversion cache on in "
            "both runs"
        ),
        "phases": {},
    }
    for phase in phases:
        off = run_phase(phase, cache_on=False)
        on = run_phase(phase, cache_on=True)
        out["phases"][phase.name] = {
            "n_clients": phase.n_clients,
            "iterations": phase.iterations,
            "requests": phase.n_clients * phase.iterations,
            "cached": on,
            "uncached": off,
            "sim_speedup": off["sim_s"] / on["sim_s"] if on["sim_s"] else 0.0,
            "hit_rate": on["hit_rate"],
            "scan_reduction": (
                1.0 - on["regions_scanned"] / off["regions_scanned"]
                if off["regions_scanned"]
                else 0.0
            ),
        }
    out["hit_rate"] = min(p["hit_rate"] for p in out["phases"].values())
    return out


def _collect(replay_of=None, quick=False, **_) -> dict:
    # every field is simulated, so replaying a baseline is a plain run
    return collect(CachePhase.quick() if quick else CachePhase.full())


def _render(doc: dict, **_) -> str:
    return "\n".join(
        f"{name}: sim speedup {ph['sim_speedup']:.3f}x, "
        f"hit rate {ph['hit_rate']:.3f}, "
        f"scan reduction {ph['scan_reduction']:.4f}"
        for name, ph in doc["phases"].items()
    )


def _min_speedup_gate(doc: dict, min_speedup=None, **_) -> list:
    """``--min-speedup``: exit naming the first phase below the bar.

    Gates what ``compare`` compares — the simulated speedup, with the
    cache hitting and scans reduced.  Exits itself (the message is the
    command's contract) instead of returning the problem.
    """
    for name, ph in doc["phases"].items():
        if min_speedup and (
            ph["sim_speedup"] < min_speedup
            or ph["hit_rate"] <= 0.0
            or ph["scan_reduction"] <= 0.0
        ):
            raise SystemExit(
                f"{name}: simulated cache speedup "
                f"{ph['sim_speedup']:.3f}x (required "
                f"{min_speedup:.2f}x), hit rate "
                f"{ph['hit_rate']:.3f}, scan reduction "
                f"{ph['scan_reduction']:.4f}"
            )
    return []


DOCUMENT = Document(
    name="dtype_cache",
    command="dtype-cache",
    collect=_collect,
    gates=(
        Gate(
            rows=lambda doc: doc.get("phases", {}),
            levels=("phase",),
            metrics=(
                ("sim_speedup", "higher"),
                ("hit_rate", "higher"),
                ("scan_reduction", "higher"),
            ),
        ),
    ),
    render=_render,
    problems=_min_speedup_gate,
)
