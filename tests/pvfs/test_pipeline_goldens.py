"""Parent-recorded goldens of the server request lifecycle.

``pipeline_goldens.json`` was recorded at the commit *before* the two
schedulers and the collective pre-plan were folded onto one skeleton
(the ``tests/faults/recovery_goldens.json`` pattern): six methods x
both schedulers x {plain, trace+metrics+expansion cache, two weighted
tenants, heavy faults}.  Each cell pins the simulated clock
(``float.hex``), every :class:`StageTimes` field and counter of every
server, every client's counters, the *ordered* span list (name, start,
end, parent name, attrs — threaded books its plan/cache spans before it
waits for the disk arm, serial after the whole busy period, and that
order is part of the contract), the stage/request/queue-wait
histograms, the whole metrics document and the fault event log.

A refactor of ``pvfs/pipeline.py`` / ``pvfs/server.py`` must reproduce
the file bit for bit; it is re-recorded (``python -m
tests.pvfs.test_pipeline_goldens`` from the repository root) only by a
change that argues the old figures were wrong.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datatypes import BYTE, DOUBLE, contiguous, vector
from repro.faults import severity_config
from repro.metrics.export import metrics_json
from repro.mpiio import File, SimMPI
from repro.pvfs import PVFS, PVFSConfig, TenantConfig
from repro.simulation import Environment

from ..conftest import (
    ALL_METHODS,
    COLLECTIVE_METHODS,
    INDEPENDENT_WRITE_METHODS,
    SCHEDULERS,
)

GOLDENS_PATH = Path(__file__).parent / "pipeline_goldens.json"

NR, NC = 6, 16  # per-rank view: NR rows of NC doubles, rank-interleaved
NBYTES = NR * NC * 8
N_RANKS = 16

VARIANTS = {
    "plain": {},
    # a tight admission bound makes the threaded daemons reject
    "observed": dict(
        trace=True, metrics=True, expand_cache=True, server_queue_depth=4
    ),
    "tenants": dict(
        trace=True,
        metrics=True,
        tenants=(
            TenantConfig(name="alpha"),
            TenantConfig(name="beta", weight=2.0),
        ),
    ),
    # the heavy preset, its crash window (iod1) moved onto the first
    # collective round so requests *and* segments are dropped
    "faults": dict(
        trace=True,
        metrics=True,
        faults=dataclasses.replace(
            severity_config("heavy", seed=21),
            server_crashes=((1, 0.05, 0.075),),
        ),
    ),
}

CELLS = [
    (method, scheduler, variant)
    for method in ALL_METHODS
    for scheduler in SCHEDULERS
    for variant in VARIANTS
]


def run_cell(method, scheduler, variant):
    """Two write+read passes of a strided view by ``N_RANKS`` ranks
    (writing through datatype I/O where the method only reads); the
    second pass repeats the first's descriptors, so an expansion cache
    answers it from memory."""
    env = Environment()
    cfg = dict(n_servers=4, strip_size=256)
    cfg.update(SCHEDULERS[scheduler])
    cfg.update(VARIANTS[variant])
    fs = PVFS(env, config=PVFSConfig(**cfg))
    collective = method in COLLECTIVE_METHODS
    writer = method
    if not collective and method not in INDEPENDENT_WRITE_METHODS:
        writer = "datatype_io"

    def rank_main(ctx):
        f = yield from File.open(ctx, "/golden")
        f.set_view(
            ctx.rank * NC * 8, BYTE, vector(NR, NC, ctx.size * NC, DOUBLE)
        )
        mt = contiguous(NBYTES, BYTE)
        exact = True
        for it in range(2):
            buf = np.random.default_rng(10 * it + ctx.rank).integers(
                0, 255, NBYTES, dtype=np.uint8
            )
            out = np.zeros_like(buf)
            if collective:
                yield from f.write_at_all(0, mt, 1, buf, method=method)
                yield from f.read_at_all(0, mt, 1, out, method=method)
            else:
                yield from f.write_at(0, mt, 1, buf, method=writer)
                yield from f.read_at(0, mt, 1, out, method=method)
            exact = exact and bool(np.array_equal(out, buf))
        return exact

    mpi = SimMPI(fs, N_RANKS, tenant_of=lambda r: r % 2)
    exact = mpi.run(rank_main)
    env.run()  # let ghost duplicates and cancelled timers drain
    return fs, exact


def _hexed(value):
    return float.hex(value) if isinstance(value, float) else value


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def snapshot(fs, exact):
    assert all(exact), "read back differs from what was written"
    out = {
        "now": float.hex(fs.env.now),
        "servers": [
            {
                "requests": s.stage_times.requests,
                "ops": s.ops,
                "accesses_built": s.accesses_built,
                "regions_scanned": s.regions_scanned,
                "bytes_read": s.bytes_read,
                "bytes_written": s.bytes_written,
                "disk_seeks": s.disk.total_seeks,
                "stages": {
                    k: _hexed(v) for k, v in s.stage_times.as_dict().items()
                },
            }
            for s in fs.servers
        ],
    }
    per_client = {c.name: dataclasses.asdict(c.counters) for c in fs.clients}
    out["clients"] = {
        "per_client": _digest(sorted(per_client.items())),
        "total": {
            f: sum(c[f] for c in per_client.values())
            for f in next(iter(per_client.values()))
        },
    }
    if fs.tracer.enabled:
        spans = fs.tracer.spans
        assert not fs.tracer.open_spans()
        names = {s.span_id: s.name for s in spans}
        ordered = [
            (
                s.name,
                float.hex(s.start),
                float.hex(s.end),
                names.get(s.parent_id),
                sorted(s.attrs.items()),
            )
            for s in spans
        ]
        counts: dict[str, int] = {}
        for s in spans:
            if s.name.startswith("server."):
                counts[s.name] = counts.get(s.name, 0) + 1
        out["spans"] = {
            "n": len(spans),
            "server": dict(sorted(counts.items())),
            "ordered": _digest(ordered),
        }
    if fs.metrics.enabled:
        fs.metrics.finalize()
        hub = fs.metrics
        hists = {f"stage.{k}": h for k, h in hub._h_stage.items()}
        hists["request"] = hub._h_request
        hists["queue_wait"] = hub._h_queue_wait
        out["histograms"] = {
            k: {
                "buckets": _digest(h.counts),
                "sum": float.hex(h.sum),
                "count": h.count,
            }
            for k, h in hists.items()
        }
        out["metrics"] = _digest(metrics_json(hub))
    if fs.faults.enabled:
        out["faults"] = {
            "summary": {
                k: _hexed(v) for k, v in fs.faults.summary().items()
            },
            "events": _digest(fs.faults.event_log()),
        }
    if fs.config.tenants is not None:
        out["admission"] = [
            [
                {k: _hexed(v) for k, v in row.items()}
                for row in s.admission.report()
            ]
            for s in fs.servers
        ]
    return out


def record():
    """Write the goldens file from the working tree's behaviour."""
    doc = {
        "-".join(cell): snapshot(*run_cell(*cell)) for cell in CELLS
    }
    rows = ",\n".join(
        f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(doc.items())
    )
    GOLDENS_PATH.write_text("{\n" + rows + "\n}\n")  # one cell per line
    return doc


GOLDENS = json.loads(GOLDENS_PATH.read_text()) if GOLDENS_PATH.exists() else {}


@pytest.mark.parametrize(
    "method,scheduler,variant", CELLS, ids=["-".join(c) for c in CELLS]
)
def test_pipeline_golden(method, scheduler, variant):
    got = snapshot(*run_cell(method, scheduler, variant))
    # through JSON: tuples and int keys compare as the file stores them
    got = json.loads(json.dumps(got, sort_keys=True))
    assert got == GOLDENS[f"{method}-{scheduler}-{variant}"]


def test_goldens_exercise_every_lifecycle_branch():
    """The recorded cells reach what the skeleton merges: rejections,
    cache hits, pre-planned collective writes, scatters, admission
    waits and crash drops."""
    g = GOLDENS

    def total(cell, field):
        return sum(s["stages"][field] for s in g[cell]["servers"])

    assert total("two_phase-threaded-observed", "rejected") > 0
    assert total("data_sieving-threaded-observed", "rejected") > 0
    assert total("datatype_io-serial-observed", "cache_hits") > 0
    for sched in SCHEDULERS:
        spans = g[f"collective_dtype-{sched}-observed"]["spans"]["server"]
        assert spans["server.scatter"] > 0
        assert spans["server.cache"] > 0
        # pre-planned rounds decode before they become a server.request
        assert spans["server.decode"] > spans["server.request"]
        cell = g[f"collective_dtype-{sched}-faults"]
        assert cell["faults"]["summary"]["crash_drops"] > 0
        assert cell["spans"]["server"]["server.scatter"] > 0
    # a serial daemon makes the tenant queues wait (a threaded
    # dispatcher admits at arrival)
    waits = [
        row["max_wait_s"]
        for srv in g["posix-serial-tenants"]["admission"]
        for row in srv
    ]
    assert all(w != float.hex(0.0) for w in waits)


if __name__ == "__main__":  # pragma: no cover
    print(f"recorded {len(record())} cells -> {GOLDENS_PATH}")
