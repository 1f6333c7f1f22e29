"""ROADMAP 7: the retry ladder fires on a healthy, merely busy, run.

Pinned, not fixed — the cure moves ``results/BENCH_faults.json`` — so
each case is ``xfail(strict=True)``: the PR that repairs the ladder has
to delete the marker.

Fault tolerance armed with *no fault ever injected*
(``net_drop_prob=1e-12`` never draws a drop) must be the unarmed run:
same ``elapsed``, same message count, no ``rpc.timeout`` and no
``coll.resend`` event.  Each client now keeps one retransmission timer
per server, restarted by every arrival from it, and escalates only the
oldest obligation when it expires (``pvfs.client._Conn``; before it,
every obligation's deadline ran from its posting).  A ``collective_dtype``
read of the paper's tile workload still misfires, less:

* ``paper(1)``: ships 994 messages, not 574 (``elapsed`` equal; 1 628
  with a deadline per obligation);
* ``paper(2)``: takes 0.56 simulated seconds, not 0.40, in 2 431
  messages, not 1 133, with 69 RPC timeouts and no re-election (1.89 s,
  7 226 messages, 482 timeouts and 23 re-elections of healthy
  aggregators before);
* ``paper(5)``: completes, in 1.95 s instead of 1.00, with 225 timeouts
  and 1 197 segment re-fetches (before: ``RetriesExhausted("collective
  read segment for round 0 on iod0 from cn:r3 gave up after 9
  timeouts")``).

What is left is one server round: unarmed, a rank hears from a server
every 60–75 ms at ``paper(1)``, longer than the 50 ms base RTO, and
nothing arrives from the server in between, so the connection's oldest
request or owed segment times out about once per round however the
timer is kept (``rpc_timeout=0.2`` makes all
three identical to the unarmed run).  Only an RTT estimator can cure
that.  The independent paths show the same spurious first timeout:
``datatype_io`` 46, ``two_phase`` 30, ``posix`` 11, all with zero
faults.

With a ladder patient enough never to fire, the two runs must agree on
everything a collective's completion decides: when a rejected round is
resent, and when each aggregator response is settled (its ``rpc`` span
end and its ``repro_rpc_seconds`` observation).  Both runs complete
through the one collective engine; arming adds deadlines only.
"""

from dataclasses import replace

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.faults import FaultConfig
from repro.mpiio import Hints
from repro.pvfs import PVFSConfig
from repro.pvfs.protocol import OP_COLL

ARMED_AND_FAULTLESS = dict(seed=1, net_drop_prob=1e-12)
#: two aggregators, 256 KiB rounds: many rounds per aggregator, so
#: responses to one aggregator arrive out of posting order
FEW_AGGREGATORS = Hints(cb_nodes=2, coll_round_bytes=256 * 1024)
#: no response of these runs takes a second: no timeout can fire
PATIENT = dict(rpc_timeout=1.0)


def _rpc_ends(result) -> list[float]:
    t = result.tracer
    return [t.ends[i] for i, name in enumerate(t.names) if name == "rpc"]


def _rpc_seconds(result) -> float:
    fam = result.metrics.registry.families["repro_rpc_seconds"]
    return sum(
        h.sum for labels, h in fam.children.items()
        if dict(labels)["op"] == OP_COLL
    )


def assert_armed_is_unarmed(frames, config=PVFSConfig(), hints=None, **ladder):
    def run(faults):
        return run_workload(
            TileWorkload.paper(frames),
            "collective_dtype",
            config=replace(config, faults=faults),
            hints=hints,
        )

    off = run(None)
    on = run(FaultConfig(**ARMED_AND_FAULTLESS, **ladder))
    counts = on.faults.summary()
    assert counts["drops"] == 0  # nothing was injected
    assert counts["timeouts"] == 0 and counts["coll_resends"] == 0
    assert on.faults.event_log() == []
    assert on.network.total_messages == off.network.total_messages
    assert on.pipeline.total.rejected == off.pipeline.total.rejected
    assert on.elapsed == off.elapsed
    if config.trace:
        assert _rpc_ends(on) == _rpc_ends(off)
    if config.metrics:
        assert _rpc_seconds(on) == _rpc_seconds(off)
    return off


@pytest.mark.xfail(
    strict=True, reason="ROADMAP 7: RTO ladder fires on a healthy busy server"
)
@pytest.mark.parametrize("frames", [1, 2, 5])
def test_1c_armed_and_faultless_is_the_unarmed_run(frames):
    assert_armed_is_unarmed(frames)


def test_1c_armed_and_faultless_paper5_completes():
    """The busy-server case of the xfail above, short of equality: the
    armed run no longer gives up on a healthy server, and re-elects no
    healthy aggregator."""
    result = run_workload(
        TileWorkload.paper(5),
        "collective_dtype",
        config=PVFSConfig(faults=FaultConfig(**ARMED_AND_FAULTLESS)),
    )
    counts = result.faults.summary()
    assert counts["drops"] == 0 and counts["exhausted"] == 0
    assert counts["coll_reelections"] == 0


@pytest.mark.parametrize("frames", [1, 2, 5])
def test_1c_a_ladder_as_patient_as_a_frame_does_not_misfire(frames):
    """The same runs pass once the base RTO covers a healthy frame, so
    it is the 50 ms deadline, not the arming, that the xfail pins."""
    assert_armed_is_unarmed(frames, rpc_timeout=0.2)


def test_1c_a_rejected_collective_round_is_resent_on_arrival():
    """A bounded admission queue rejects aggregator rounds.  Unarmed or
    armed, the rank resends a rejected round as soon as the rejection
    arrives — not once every round posted before it has settled."""
    off = assert_armed_is_unarmed(
        1,
        PVFSConfig(server_threads=4, server_queue_depth=4),
        FEW_AGGREGATORS,
        **PATIENT,
    )
    assert off.pipeline.total.rejected > 0  # the case stays meaningful


def test_1c_a_collective_rpc_latency_is_request_to_its_own_response():
    """An aggregator's ``rpc`` span and ``repro_rpc_seconds`` sample end
    when that request's response is processed, armed or not — a
    response that overtakes an earlier-posted one is not held behind
    it."""
    assert_armed_is_unarmed(
        1, PVFSConfig(trace=True, metrics=True), FEW_AGGREGATORS, **PATIENT
    )
