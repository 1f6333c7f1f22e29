"""The client's one list I/O entry: the cut form ``(pieces, bounds)``.

An access's file regions and the stream positions that cut it into
operations issue exactly the requests the per-operation form issued —
one request per server for each run of consecutive operations touching
the same servers, carrying those operations' shares in order — with
the same ``op_count`` and ``listio_pairs``; a write's payload is the
stream bytes at those shares' positions, and the bytes land and read
back.  The reference below walks every piece strip by strip in plain
Python, operation by operation, sharing no code with the client's
``op_groups`` / ``Distribution.shares``.

Besides arbitrary cuts, four shapes are drawn on purpose: accesses
whose server set changes at every operation (a group per operation),
long runs of operations on one server (one long group), pieces
crossing strip edges — up to more than a whole stripe — and real-data
writes and reads of all of them.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pvfs import PVFS
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists


def per_op_requests(ops, strip, servers):
    """``(server, pairs, op_count, listio_pairs, stream positions)`` of
    every request the per-operation form sends for ``ops`` (one list of
    ``(offset, length)`` pieces per operation, consecutive in the
    stream), in order."""
    shares = []
    pos = 0
    for op in ops:
        mine = {}
        for off, ln in op:
            end = off + ln
            while off < end:
                k = off // strip
                stop = min(end, (k + 1) * strip)
                phys = (k // servers) * strip + off - k * strip
                mine.setdefault(k % servers, []).append((phys, stop - off, pos))
                pos += stop - off
                off = stop
        shares.append(mine)
    out = []
    i = 0
    while i < len(ops):
        j = i + 1
        while j < len(ops) and shares[j].keys() == shares[i].keys():
            j += 1
        for server in sorted(shares[i]):
            pieces = [p for s in shares[i:j] for p in s[server]]
            pairs = [(o, n) for o, n, _ in pieces]
            out.append((server, pairs, j - i, len(pairs), [p for *_, p in pieces]))
        i = j
    return out


def _cut_at(regions, bounds):
    """``regions`` cut at ``bounds``, as one piece list per operation."""
    pieces = regions.split_at_stream(bounds)
    idx = np.searchsorted(pieces.stream_ends, bounds, side="right").tolist()
    return [pieces[a:b].to_pairs() for a, b in zip(idx[:-1], idx[1:])]


@st.composite
def cut_accesses(draw):
    """Sorted disjoint file regions, and operation bounds at drawn
    stream positions: region boundaries and points inside runs."""
    pairs = draw(sorted_region_lists(max_regions=24).filter(bool))
    regions = Regions.from_pairs(pairs)
    total = regions.total_bytes
    ends = regions.stream_ends.tolist()
    inside = st.integers(1, max(total - 1, 1))
    cuts = draw(
        st.lists(st.one_of(st.sampled_from(ends), inside), max_size=12)
    )
    bounds = np.unique(np.array([0, total, *cuts], dtype=np.int64))
    strip = draw(st.sampled_from([8, 16, 64]))
    return regions, bounds, strip, draw(st.integers(1, 4))


@st.composite
def hopping_accesses(draw):
    """Every operation on a server other than the previous one's: the
    server set changes at every operation, one group each."""
    strip = draw(st.sampled_from([8, 16, 64]))
    servers = draw(st.integers(2, 5))
    srv = [draw(st.integers(0, servers - 1))]
    for _ in range(draw(st.integers(1, 10))):
        srv.append((srv[-1] + draw(st.integers(1, servers - 1))) % servers)
    return _one_server_ops(draw, strip, servers, srv)


@st.composite
def single_server_runs(draw):
    """Long runs of operations on one server: one long group."""
    strip = draw(st.sampled_from([8, 16, 64]))
    servers = draw(st.integers(1, 5))
    srv = draw(st.integers(0, servers - 1))
    return _one_server_ops(draw, strip, servers, [srv] * draw(st.integers(2, 16)))


def _one_server_ops(draw, strip, servers, srv_of_op):
    """Operation *i*: one to three pieces, each inside one strip of
    server ``srv_of_op[i]``, at ascending file offsets."""
    pairs, bounds, stripe = [], [0], 0
    for srv in srv_of_op:
        nbytes = 0
        for _ in range(draw(st.integers(1, 3))):
            stripe += draw(st.integers(0, 2))
            lo = draw(st.integers(0, strip - 1))
            ln = draw(st.integers(1, strip - lo))
            pairs.append(((stripe * servers + srv) * strip + lo, ln))
            nbytes += ln
            stripe += 1
        bounds.append(bounds[-1] + nbytes)
    return Regions.from_pairs(pairs), np.array(bounds), strip, servers


@st.composite
def crossing_accesses(draw):
    """Pieces straddling strip edges, some longer than a whole stripe,
    cut anywhere — operations that mix crossing and in-strip pieces."""
    strip = draw(st.sampled_from([8, 16]))
    servers = draw(st.integers(1, 4))
    pairs, cursor = [], 0
    for _ in range(draw(st.integers(1, 10))):
        cursor += draw(st.integers(0, 2 * strip))
        ln = draw(st.integers(1, (servers + 2) * strip))
        pairs.append((cursor, ln))
        cursor += ln
    regions = Regions.from_pairs(pairs)
    total = regions.total_bytes
    cuts = draw(st.lists(st.integers(1, max(total - 1, 1)), max_size=6))
    bounds = np.unique(np.array([0, total, *cuts], dtype=np.int64))
    return regions, bounds, strip, servers


@settings(max_examples=60, deadline=None)
@given(
    access=st.one_of(
        cut_accesses(), hopping_accesses(), single_server_runs(),
        crossing_accesses(),
    ),
    seed=st.integers(0, 2**16),
)
def test_cut_form_issues_the_per_operation_requests(access, seed):
    regions, bounds, strip, servers = access
    env = Environment()
    fs = PVFS(env, n_servers=servers, strip_size=strip)
    client = fs.client("cl0")
    sent = []
    ship = client._send_io

    def spy(req):
        payload = None if req.payload is None else req.payload.tolist()
        sent.append((
            req.server, req.regions.to_pairs(), req.op_count,
            req.listio_pairs, payload,
        ))
        return ship(req)

    client._send_io = spy
    data = np.random.default_rng(seed).integers(
        0, 256, regions.total_bytes, dtype=np.uint8
    )

    def main():
        fh = yield from client.open("/f")
        yield from client.write_list(fh, regions, data, bounds=bounds)
        written = list(sent)
        sent.clear()
        ops = client.counters.io_ops
        out = yield from client.read_list(fh, regions, bounds=bounds)
        read = list(sent)
        sent.clear()
        phantom = yield from client.read_list(
            fh, regions, phantom=True, bounds=bounds
        )
        return fh, written, read, ops, out, phantom

    fh, written, read, ops, out, phantom = env.run(env.process(main()))
    per_op = _cut_at(regions, bounds)
    want = per_op_requests(per_op, strip, servers)
    # a write carries the stream bytes at its shares' positions
    assert written == [
        (s, pairs, g, n, [int(b) for p, (_, ln) in zip(spos, pairs)
                          for b in data[p : p + ln]])
        for s, pairs, g, n, spos in want
    ]
    no_payload = [(s, pairs, g, n, None) for s, pairs, g, n, _ in want]
    assert read == no_payload
    assert sent == no_payload
    assert ops == len(per_op)
    assert client.counters.io_ops == 3 * len(per_op)
    # the read scatters each response at its shares' positions: every
    # byte comes back where the stream had it, and the file holds each
    # region's bytes (checked out of band)
    assert np.array_equal(out, data)
    assert phantom is None
    pos = 0
    for off, ln in regions:
        assert np.array_equal(fs.read_back(fh.handle, off, ln), data[pos : pos + ln])
        pos += ln
