"""One retransmission timer per (client, server) connection.

A client's timer for a server runs while it owes or is owed anything by
that server, restarts on every arrival from it, and on expiry escalates
only the oldest obligation (RFC 6298 §5).  So a server that works
through a backlog one obligation at a time is not resent the rest of
it, and a silent server sees one doubling ladder per client, not one
per obligation.
"""

from collections import defaultdict

import numpy as np

from repro.datatypes import BYTE, contiguous
from repro.faults import FaultConfig
from repro.mpiio import File, Hints, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.simulation import Environment

from .test_collective_chaos import run_collective

ARMED_AND_FAULTLESS = FaultConfig(seed=1, net_drop_prob=1e-12)


def test_a_server_answering_its_backlog_in_turn_is_resent_nothing():
    """Four ranks write and read 1 MiB through one server in 16 rounds
    each way: ≈ 0.23 s of back-to-back service, a dozen times the
    50 ms base RTO, but every round is answered within it.  Each
    answer restarts the connection's timer, so no later round is
    resent (a deadline per obligation, started at posting, made 14
    timeouts and 55 resends of this run)."""
    per_rank = 256 * 1024
    hints = Hints(cb_nodes=1, coll_round_bytes=16 * 1024)
    mt = contiguous(per_rank, BYTE)

    def main(ctx):
        f = yield from File.open(ctx, "/busy", hints)
        f.set_view(ctx.rank * per_rank, BYTE, mt)
        buf = np.full(per_rank, ctx.rank + 1, np.uint8)
        yield from f.write_at_all(0, mt, 1, buf, method="collective_dtype")
        out = np.zeros(per_rank, np.uint8)
        yield from f.read_at_all(0, mt, 1, out, method="collective_dtype")
        return bool(np.array_equal(out, buf))

    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=1, faults=ARMED_AND_FAULTLESS))
    assert all(SimMPI(fs, 4).run(main))
    assert env.now > 4 * ARMED_AND_FAULTLESS.rpc_timeout
    summary = fs.faults.summary()
    assert summary["timeouts"] == 0
    assert summary["coll_resends"] == 0
    env.run()
    fs.assert_quiescent()


def test_one_expiry_escalates_only_the_oldest_obligation():
    """iod1 discards everything for its first 30 ms, so every segment
    and request sent to it then is lost.  Each client escalates only its
    oldest obligation to iod1 — the lowest round, whose request and own
    segment travel together on the aggregator — while the window lasts.
    A deadline per obligation escalated all six rounds on each rank and
    all six requests on the aggregator."""
    crash_end = 0.03
    faults = FaultConfig(
        seed=1,
        server_crashes=((1, 0.0, crash_end),),
        rpc_timeout=2e-3,
        retry_backoff=1e-4,
    )
    fs, exact = run_collective(
        4, faults, hints=Hints(cb_nodes=2, coll_round_bytes=256)
    )
    assert all(exact)
    rounds, requests = defaultdict(set), defaultdict(set)
    for _seq, t, kind, where, info in fs.faults.event_log():
        info = dict(info)
        if t >= crash_end or info.get("server") != 1:
            continue
        if kind == "coll.resend":
            rounds[where].add(info["round"])
        elif kind == "rpc.timeout":
            requests[where].add(info["req_id"])
    assert rounds and requests  # the window did cost escalations
    assert all(r == {0} for r in rounds.values()), dict(rounds)
    assert all(len(r) == 1 for r in requests.values()), dict(requests)
