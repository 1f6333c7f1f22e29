"""The one-op-per-piece sequence, planned over (file runs, cuts).

``PVFSClient._sequence`` takes a POSIX / single-region list access as
it is described — the file runs plus the packed-stream positions at
which the memory list cuts them — and plans its exchanges over atoms
(runs cut at strip edges) instead of enumerating the pieces.  Three
things pin it:

* ``sequence_goldens.json`` was recorded at the commit *before* that
  change (9b89c4f, ``python -m tests.pvfs.test_sequence_cuts`` from the
  repository root — the recorder drives ``run_workload`` only, so it
  runs there): the reduced FLASH / Block3D / tile workloads through
  ``posix`` and ``list_io``, both directions, over batching on/off, the
  threaded scheduler, moderate faults and two strip sizes that make
  8-byte pieces straddle strip edges.  The plan is host-only, so every
  simulated figure must come out bit for bit.
* a Hypothesis equivalence: handing the client ``(regions, cuts=c)``
  and handing it the enumerated ``regions.split_at_stream(c)`` are the
  same simulation — clock, events, messages, counters, disk seeks,
  stored bytes — and both read back what was written.
* the negative-offset check the in-strip fast path used to skip.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import run_workload
from repro.bench.workloads import Block3DWorkload, FlashWorkload, TileWorkload
from repro.faults import severity_config
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.protocol import OP_CONTIG, OP_LIST
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists

GOLDENS_PATH = Path(__file__).parent / "sequence_goldens.json"

WORKLOADS = {
    "flash": FlashWorkload.reduced,
    "block3d": Block3DWorkload.reduced,
    "tile": TileWorkload.reduced,
}

VARIANTS = {
    "default": {},
    "unbatched": dict(sim_batching=False),
    "threads4": dict(server_threads=4),
    "moderate": dict(faults=severity_config("moderate", 1)),
    # 8-byte FLASH pieces straddle every other edge of a 100-byte strip
    # and span two edges of a 5-byte one
    "strip100": dict(n_servers=4, strip_size=100),
    "strip5": dict(n_servers=3, strip_size=5),
}

CELLS = [
    (workload, method, direction, variant)
    for workload in WORKLOADS
    for method in ("posix", "list_io")
    for direction in ("read", "write")
    for variant in VARIANTS
]


def run_cell(workload, method, direction, variant) -> dict:
    wl = WORKLOADS[workload]()
    wl.is_write = direction == "write"
    r = run_workload(wl, method, config=PVFSConfig(**VARIANTS[variant]))
    fs = r.servers[0].system
    counters = [c.counters for c in fs.clients]
    return {
        "elapsed": float.hex(r.elapsed),
        "events": fs.env.scheduled_events,
        "messages": r.network.total_messages,
        "wire_bytes": r.network.total_bytes,
        "io_ops": r.io_ops,
        "request_desc_bytes": r.request_desc_bytes,
        "regions_shipped": sum(c.regions_shipped for c in counters),
        "retries_timeouts": sum(c.retries + c.timeouts for c in counters),
    }


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS_PATH.read_text())


@pytest.mark.parametrize(
    "cell", CELLS, ids=lambda cell: "-".join(cell)
)
def test_sequence_matches_parent_recorded_goldens(cell, goldens):
    assert run_cell(*cell) == goldens["/".join(cell)]


def test_goldens_cover_every_cell(goldens):
    assert sorted(goldens) == sorted("/".join(cell) for cell in CELLS)
    # the cut path is genuinely in play: FLASH POSIX issues one op per
    # 8-byte value, far more than it has file runs
    assert goldens["flash/posix/write/default"]["io_ops"] == 768.0


# ----------------------------------------------------------------------
# (regions, cuts=c) == regions.split_at_stream(c)
# ----------------------------------------------------------------------
@st.composite
def cut_lists(draw, r: Regions, strip: int):
    """Sorted stream positions to cut ``r`` at, of every awkward kind."""
    total = r.total_bytes
    kind = draw(
        st.sampled_from(["none", "every", "random", "strip_edges", "mixed"])
    )
    cuts: list[int] = []
    if kind in ("every", "mixed"):
        k = draw(st.integers(1, 24))
        cuts += range(k, total + k, k)
    if kind in ("random", "mixed"):
        # positions at or outside both ends, and duplicates, included
        cuts += draw(st.lists(st.integers(-5, total + 5), max_size=24))
    if kind in ("strip_edges", "mixed"):
        # the file's own strip edges as stream positions, some dropped:
        # the kept ones are clean edges, the dropped ones leave a piece
        # straddling a strip boundary
        start = 0
        for off, ln in r:
            first = -(-off // strip) * strip
            for edge in range(first, off + ln + 1, strip):
                if draw(st.booleans()):
                    cuts.append(start + edge - off)
            start += ln
    return np.array(sorted(cuts), dtype=np.int64)


def drive(r, cuts, described, strip, servers, batching, kind, data):
    """Write then read ``r`` cut at ``cuts`` — described to the client
    or enumerated for it — and return everything the run can show."""
    env = Environment()
    fs = PVFS(
        env, n_servers=servers, strip_size=strip, sim_batching=batching
    )
    client = fs.client("cl0")
    if described:
        regions, kw = r, dict(cuts=cuts)
    else:
        regions, kw = r.split_at_stream(cuts), {}

    def main():
        fh = yield from client.open("/f")
        if kind == OP_CONTIG:
            yield from client.write_posix(fh, regions, data, **kw)
            out = yield from client.read_posix(fh, regions, **kw)
        else:
            yield from client.write_sequence(fh, regions, kind, data, **kw)
            out = yield from client.read_sequence(fh, regions, kind, **kw)
        return fh.handle, out

    handle, out = env.run(env.process(main()))
    stores = []
    for s in fs.servers:
        size = s.store.local_size(handle)
        held = s.store.read_regions(handle, Regions.single(0, size))
        stores.append((s.disk.total_seeks, s.requests, s.ops, held.tobytes()))
    return {
        "now": float.hex(env.now),
        "events": env.scheduled_events,
        "messages": fs.net.message_count,
        "wire_bytes": fs.net.bytes_transferred,
        "counters": dataclasses.asdict(client.counters),
        "servers": stores,
        "out": out.tobytes(),
    }


@given(
    st.data(),
    sorted_region_lists(max_regions=10),
    st.integers(8, 64),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from([OP_CONTIG, OP_LIST]),
)
@settings(max_examples=150, deadline=None)
def test_described_cuts_equal_enumerated_pieces(
    data, pairs, strip, servers, batching, kind
):
    r = Regions.from_pairs(pairs)
    cuts = data.draw(cut_lists(r, strip))
    pieces = r.split_at_stream(cuts)
    assert r.split_count(cuts) == pieces.count
    if not r.count:
        return
    payload = np.random.default_rng(r.count).integers(
        0, 255, r.total_bytes, dtype=np.uint8
    )
    described, enumerated = (
        drive(r, cuts, flag, strip, servers, batching, kind, payload)
        for flag in (True, False)
    )
    assert described == enumerated
    assert described["out"] == payload.tobytes()
    assert described["counters"]["io_ops"] == 2 * pieces.count


def test_pieces_longer_than_a_strip_with_clean_and_dirty_edges():
    """One 40-byte run over 8-byte strips, cut at 8 (a clean edge), 20
    (inside a strip) and 33: pieces [0,8) [8,20) [20,33) [33,40) — the
    first lies in one strip, the rest straddle one or two edges."""
    r = Regions.single(0, 40)
    cuts = np.array([8, 20, 33])
    payload = np.arange(40, dtype=np.uint8)
    described, enumerated = (
        drive(r, cuts, flag, 8, 3, True, OP_CONTIG, payload)
        for flag in (True, False)
    )
    assert described == enumerated
    assert described["out"] == payload.tobytes()
    assert described["counters"]["io_ops"] == 8


def test_unsorted_and_overlapping_runs_are_planned_in_stream_order():
    """The plan lives in packed-stream space, so the file order of the
    runs is free: later pieces overwrite earlier ones as they would one
    operation at a time."""
    r = Regions.from_pairs([(100, 30), (10, 50), (40, 40)])
    cuts = np.arange(7, 120, 7)
    payload = np.random.default_rng(5).integers(0, 255, 120, dtype=np.uint8)
    for batching in (True, False):
        described, enumerated = (
            drive(r, cuts, flag, 16, 4, batching, OP_LIST, payload)
            for flag in (True, False)
        )
        assert described == enumerated


class TestStreamEnds:
    @given(sorted_region_lists())
    def test_memoized_read_only_cumsum(self, pairs):
        r = Regions.from_pairs(pairs)
        ends = r.stream_ends
        assert ends is r.stream_ends
        assert ends.dtype == np.int64
        assert ends.tolist() == np.cumsum(r.lengths).tolist()
        assert not ends.flags.writeable
        if r.count:
            with pytest.raises(ValueError):
                ends[0] = 0

    @given(
        sorted_region_lists(),
        st.lists(st.integers(-10, 2100), max_size=40),
    )
    def test_split_count_is_the_split_count(self, pairs, cuts):
        r = Regions.from_pairs(pairs)
        cuts = sorted(cuts)
        assert r.split_count(cuts) == r.split_at_stream(cuts).count
        # its own boundaries cut nothing
        assert r.split_count(r.stream_ends) == r.count


# ----------------------------------------------------------------------
# negative file offsets
# ----------------------------------------------------------------------
class TestNegativeOffsets:
    """A region below offset 0 that happens to fit inside one strip
    used to be shipped (physical offset -10 on iod3, five bytes written,
    logical size still 0) where ``read``, ``read_list`` and the same
    region one strip longer raised."""

    ENTRIES = {
        "write_posix": lambda c, fh, r, data, kw: c.write_posix(
            fh, r, data, **kw
        ),
        "read_posix": lambda c, fh, r, data, kw: c.read_posix(fh, r, **kw),
        "write_sequence": lambda c, fh, r, data, kw: c.write_sequence(
            fh, r, OP_LIST, data, **kw
        ),
        "read_sequence": lambda c, fh, r, data, kw: c.read_sequence(
            fh, r, OP_LIST, **kw
        ),
        # the generic path always checked: the reference behaviour
        "read_list": lambda c, fh, r, data, kw: c.read_list(fh, [r]),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("cuts", [None, [2, 7]], ids=["whole", "cut"])
    @pytest.mark.parametrize(
        "regions",
        [
            Regions.single(-10, 5),
            Regions.from_pairs([(3, 4), (-10, 5)]),
            Regions.single(-10, 5 + 64),
        ],
        ids=["in-strip", "mixed", "strip-crossing"],
    )
    def test_rejected_before_anything_is_sent(self, entry, cuts, regions):
        env = Environment()
        fs = PVFS(env, n_servers=4, strip_size=64)
        c = fs.client("cl0")
        data = np.ones(regions.total_bytes, np.uint8)
        kw = {} if cuts is None else dict(cuts=np.array(cuts))

        def main():
            fh = yield from c.open("/f")
            with pytest.raises(ValueError, match="negative file offset"):
                yield from self.ENTRIES[entry](c, fh, regions, data, kw)
            return fh.handle

        handle = env.run(env.process(main()))
        assert c.counters.requests_sent == 0
        assert c.counters.io_ops == 0
        for s in fs.servers:
            assert s.requests == 0
            assert s.bytes_written == 0
            assert s.store.local_size(handle) == 0
        assert fs.logical_size(handle) == 0


def record() -> None:  # pragma: no cover
    goldens = {"/".join(cell): run_cell(*cell) for cell in CELLS}
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(goldens)} cells to {GOLDENS_PATH}")


if __name__ == "__main__":  # pragma: no cover
    record()
