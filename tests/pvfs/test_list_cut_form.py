"""The client's one list I/O entry: the cut form ``(pieces, bounds)``.

An access's file regions and the stream positions that cut it into
operations issue exactly the requests the per-operation form issued —
one request per server for each run of consecutive operations touching
the same servers, carrying those operations' shares in order — with
the same ``op_count`` and ``listio_pairs``, and the bytes land and read
back.  The reference below computes those requests operation by
operation from ``Distribution.split``, sharing nothing with the
client's one-pass ``split_ops``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.pvfs import PVFS
from repro.regions import Regions
from repro.simulation import Environment

from ..conftest import sorted_region_lists


def per_op_requests(ops, dist):
    """``(server, pairs, op_count, listio_pairs)`` of every request the
    per-operation form sends for the operations ``ops``, in order."""
    shares = [dict(dist.split(op)) for op in ops]
    out = []
    i = 0
    while i < len(ops):
        j = i + 1
        while j < len(ops) and shares[j].keys() == shares[i].keys():
            j += 1
        for server in sorted(shares[i]):
            regions = Regions.concat([s[server].regions for s in shares[i:j]])
            out.append((server, regions.to_pairs(), j - i, regions.count))
        i = j
    return out


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
    return regions, np.unique(np.array([0, total, *cuts], dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(
    access=cut_accesses(),
    strip=st.sampled_from([8, 16, 64]),
    servers=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_cut_form_issues_the_per_operation_requests(access, strip, servers, seed):
    regions, bounds = access
    env = Environment()
    fs = PVFS(env, n_servers=servers, strip_size=strip)
    client = fs.client("cl0")
    sent = []
    ship = client._send_io

    def spy(req):
        sent.append(
            (req.server, req.regions.to_pairs(), req.op_count, req.listio_pairs)
        )
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
        return fh, written, ops, out

    fh, written, ops, out = env.run(env.process(main()))
    pieces = regions.split_at_stream(bounds)
    idx = np.searchsorted(pieces.stream_ends, bounds, side="right").tolist()
    per_op = [pieces[a:b] for a, b in zip(idx[:-1], idx[1:])]
    want = per_op_requests(per_op, fh.dist)
    assert written == want
    assert sent == want
    assert ops == len(per_op)
    assert client.counters.io_ops == 2 * len(per_op)
    assert np.array_equal(out, data)
