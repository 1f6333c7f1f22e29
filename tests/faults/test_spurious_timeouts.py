"""ROADMAP 7: the retry ladder fires on a healthy, merely busy, run.

Pinned, not fixed — the cure moves ``results/BENCH_faults.json`` — so
each case is ``xfail(strict=True)``: the PR that repairs the ladder has
to delete the marker.

Fault tolerance armed with *no fault ever injected*
(``net_drop_prob=1e-12`` never draws a drop) must be the unarmed run:
same ``elapsed``, same message count, no ``rpc.timeout`` and no
``coll.resend`` event.  Today a ``collective_dtype`` read of the paper's
tile workload instead

* ``paper(1)``: ships 1 628 messages, not 574 (``elapsed`` equal);
* ``paper(2)``: takes 1.89 simulated seconds, not 0.40, in 7 226
  messages, not 1 133, with 482 RPC timeouts and 23 re-elections of
  healthy aggregators;
* ``paper(5)``: raises ``RetriesExhausted("collective read segment for
  round 0 on iod0 from cn:r3 gave up after 9 timeouts")``.

``CollEngine.run`` starts every obligation's deadline when it is
posted, and the 50 ms base RTO is a quarter of a healthy frame's
200 ms, so the ladder retransmits into a server that is only busy
(``rpc_timeout=0.2`` makes all three identical to the unarmed run; the
independent paths show the same spurious first timeout: ``datatype_io``
46, ``two_phase`` 30, ``posix`` 11, all with zero faults).
"""

import pytest

from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.faults import FaultConfig
from repro.pvfs import PVFSConfig

ARMED_AND_FAULTLESS = dict(seed=1, net_drop_prob=1e-12)


def assert_armed_is_unarmed(frames, **ladder):
    def run(faults):
        return run_workload(
            TileWorkload.paper(frames),
            "collective_dtype",
            config=PVFSConfig(faults=faults),
        )

    off = run(None)
    # paper(5) on the default ladder: RetriesExhausted
    on = run(FaultConfig(**ARMED_AND_FAULTLESS, **ladder))
    counts = on.faults.summary()
    assert counts["drops"] == 0  # nothing was injected
    assert counts["timeouts"] == 0 and counts["coll_resends"] == 0
    assert on.faults.event_log() == []
    assert on.network.total_messages == off.network.total_messages
    assert on.elapsed == off.elapsed


@pytest.mark.xfail(
    strict=True, reason="ROADMAP 7: RTO ladder fires on a healthy busy server"
)
@pytest.mark.parametrize("frames", [1, 2, 5])
def test_1c_armed_and_faultless_is_the_unarmed_run(frames):
    assert_armed_is_unarmed(frames)


@pytest.mark.parametrize("frames", [1, 2, 5])
def test_1c_a_ladder_as_patient_as_a_frame_does_not_misfire(frames):
    """The same runs pass once the base RTO covers a healthy frame, so
    it is the 50 ms deadline, not the arming, that the xfail pins."""
    assert_armed_is_unarmed(frames, rpc_timeout=0.2)
