"""The client's wait / ladder / settle trio (docs/observability.md §9.2).

* concurrent waits on one client mailbox file each other's responses
  and deadlines under the receive posted for them — overlapped
  nonblocking operations finish, healthy or under an armed injector;
* nothing is left behind: after a run under duplicating, dropping
  fault presets no receive is left posted at any client and the event
  queue carries no dead timer;
* the ladder's arithmetic, and one event per ladder step through both
  the independent and the collective entry points;
* the recovery figures recorded at the commit *before* the three
  receive/settle implementations were merged (re-election on every
  server, crash chaos on both schedulers, 100 % duplication) still
  hold bit for bit.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datatypes import BYTE, DOUBLE, contiguous, vector
from repro.faults import FaultConfig, severity_config
from repro.mpiio import File, Hints, SimMPI
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.client import _Conn, _Ladder
from repro.pvfs.errors import RetriesExhausted
from repro.simulation import Environment

from ..conftest import ALL_METHODS, COLLECTIVE_METHODS, INDEPENDENT_WRITE_METHODS
from .test_collective_chaos import (
    chaos_config,
    reelection_config,
    run_collective,
)

GOLDENS = json.loads(
    (Path(__file__).parent / "recovery_goldens.json").read_text()
)


# ----------------------------------------------------------------------
# concurrent waits on one mailbox
# ----------------------------------------------------------------------
def run_overlapped(seed):
    """``iwrite_at`` x2 then ``iread_at`` x2 on one rank, every pair
    overlapped, under drops and duplicates."""
    env = Environment()
    faults = FaultConfig(
        seed=seed, net_drop_prob=0.15, net_dup_prob=0.1, rpc_timeout=5e-3
    )
    fs = PVFS(
        env, config=PVFSConfig(n_servers=4, strip_size=128, faults=faults)
    )
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 255, 1024, dtype=np.uint8)
    b = rng.integers(0, 255, 1024, dtype=np.uint8)

    def main(ctx):
        f = yield from File.open(ctx, "/ovl")
        mt = contiguous(1024, BYTE)
        w1 = f.iwrite_at(0, mt, 1, a, method="list_io")
        w2 = f.iwrite_at(4096, mt, 1, b, method="datatype_io")
        yield ctx.env.all_of([w1, w2])
        got_a, got_b = np.zeros_like(a), np.zeros_like(b)
        r1 = f.iread_at(0, mt, 1, got_a, method="datatype_io")
        r2 = f.iread_at(4096, mt, 1, got_b, method="posix")
        yield ctx.env.all_of([r1, r2])
        return bool(np.array_equal(got_a, a) and np.array_equal(got_b, b))

    (exact,) = SimMPI(fs, 1).run(main)
    return exact, env.now, fs.faults.event_log()


@pytest.mark.parametrize("seed", range(12))
def test_overlapped_nonblocking_under_faults_finishes(seed):
    first = run_overlapped(seed)
    assert first[0], "read back differs from what was written"
    assert run_overlapped(seed) == first  # bit-equal now + event log


def test_crossed_responses_reach_their_waiters():
    # fault-free: the short read's response overtakes the long one's
    # and is taken off the mailbox by the long read's wait
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=4, strip_size=65536))

    def main(ctx):
        f = yield from File.open(ctx, "/x")
        slow = f.iread_at(0, contiguous(60000, BYTE), 1, None, method="posix")
        fast = f.iread_at(65536, contiguous(8, BYTE), 1, None, method="posix")
        yield ctx.env.all_of([slow, fast])
        return True

    assert SimMPI(fs, 1).run(main) == [True]


# ----------------------------------------------------------------------
# nothing left behind
# ----------------------------------------------------------------------
NR, NC = 3, 16
NBYTES = NR * NC * 8

LEAK_PRESETS = {
    "moderate": severity_config("moderate", seed=21),
    "heavy": severity_config("heavy", seed=21),
    "dup": FaultConfig(seed=21, net_dup_prob=1.0),
}


def run_roundtrip(method, faults):
    """4 ranks write then read a strided view through ``method``
    (writing through datatype I/O where the method only reads)."""
    env = Environment()
    fs = PVFS(
        env, config=PVFSConfig(n_servers=4, strip_size=256, faults=faults)
    )
    collective = method in COLLECTIVE_METHODS
    writer = method
    if not collective and method not in INDEPENDENT_WRITE_METHODS:
        writer = "datatype_io"

    def rank_main(ctx):
        f = yield from File.open(ctx, "/leak")
        f.set_view(
            ctx.rank * NC * 8, BYTE, vector(NR, NC, ctx.size * NC, DOUBLE)
        )
        mt = contiguous(NBYTES, BYTE)
        buf = np.random.default_rng(ctx.rank).integers(
            0, 255, NBYTES, dtype=np.uint8
        )
        out = np.zeros_like(buf)
        if collective:
            yield from f.write_at_all(0, mt, 1, buf, method=method)
            yield from f.read_at_all(0, mt, 1, out, method=method)
        else:
            yield from f.write_at(0, mt, 1, buf, method=writer)
            yield from f.read_at(0, mt, 1, out, method=method)
        return bool(np.array_equal(out, buf))

    return fs, SimMPI(fs, 4, procs_per_node=2).run(rank_main)


@pytest.mark.parametrize("preset", LEAK_PRESETS)
@pytest.mark.parametrize("method", ALL_METHODS)
def test_no_client_state_outlives_the_run(method, preset):
    fs, exact = run_roundtrip(method, LEAK_PRESETS[preset])
    assert all(exact)
    assert fs.faults.degraded
    for c in fs.clients:
        assert not c._posted, c.name
        assert not c._conns, c.name  # every connection timer stopped
    assert not fs.coll_recovery
    fs.env.run()  # drain what the ranks left scheduled (ghost copies)
    assert fs.env.queue_stats() == {"live": 0, "dead": 0}


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
@pytest.mark.parametrize("max_retries", [0, 1, 8, 30])
def test_ladder_arithmetic(max_retries):
    cfg = FaultConfig(
        rpc_timeout=3e-3, retry_backoff=7e-5, max_retries=max_retries
    )
    lad = _Ladder(cfg, server=1)
    conn = _Conn()
    conn.ladders[lad] = "key"
    conn.restart(1.0)
    assert conn.deadline == 1.0 + 3e-3
    for n in range(1, max_retries + 1):
        assert lad.escalate() == 7e-5 * 2 ** (n - 1)
        assert lad.attempts == n
        assert lad.rto == 3e-3 * 2 ** min(n, 20)  # capped at 2^20
        # restarting (after the resend, or after any arrival) runs the
        # timer at the oldest obligation's *current* attempt count
        conn.restart(5.0)
        assert conn.deadline == 5.0 + lad.rto
    assert lad.escalate() is None  # timeout max_retries + 1: spent
    assert lad.attempts == max_retries + 1
    # the oldest settled: the next one's RTO; nothing left: stopped
    younger = _Ladder(cfg, server=1)
    conn.ladders[younger] = "younger"
    del conn.ladders[lad]
    conn.restart(6.0)
    assert conn.deadline == 6.0 + 3e-3
    del conn.ladders[younger]
    conn.restart(7.0)
    assert conn.deadline is None


def ladder_steps(fs, kinds):
    """``{obligation: [(t, attempt), ...]}`` of the given event kinds."""
    steps = {}
    for _seq, t, kind, where, info in fs.faults.event_log():
        if kind in kinds:
            info = dict(info)
            who = (kind, where, info.get("req_id"), info.get("server"),
                   info.get("round"), info.get("what"))
            steps.setdefault(who, []).append(
                (t, info.get("attempt", info.get("attempts")))
            )
    return steps


def run_crashed(entry, crash_until, max_retries):
    """One write through ``entry`` while iod1 discards requests until
    ``crash_until``; returns the file system, or the
    ``RetriesExhausted`` the write died of."""
    faults = FaultConfig(
        server_crashes=((1, 0.0, crash_until),),
        rpc_timeout=2e-3,
        retry_backoff=1e-4,
        max_retries=max_retries,
        coll_reelect_after=max_retries + 2,  # keep the plain ladder
    )
    if entry == "collective":
        try:
            fs, exact = run_collective(2, faults)
        except RetriesExhausted as exc:
            return exc
        assert all(exact)
        return fs
    env = Environment()
    fs = PVFS(env, config=PVFSConfig(n_servers=4, strip_size=64, faults=faults))

    def main(c):
        fh = yield from c.open("/l")
        yield from c.write(fh, 64, np.arange(64, dtype=np.uint8))  # iod1

    try:
        env.run(env.process(main(fs.client("cl0"))))
    except RetriesExhausted as exc:
        return exc
    return fs


@pytest.mark.parametrize("entry", ["independent", "collective"])
def test_ladder_steps_emit_one_event_each(entry, monkeypatch):
    escalations = []
    escalate = _Ladder.escalate

    def counting(self):
        escalations.append(self)
        return escalate(self)

    monkeypatch.setattr(_Ladder, "escalate", counting)
    max_retries = 4
    fs = run_crashed(entry, crash_until=0.025, max_retries=max_retries)
    assert not isinstance(fs, Exception), fs
    summary = fs.faults.summary()
    assert summary["exhausted"] == 0
    # one event per escalation of the one ladder class, either entry
    assert len(escalations) == summary["timeouts"] + summary["coll_resends"]
    assert summary["failovers"] >= 1
    cfg = fs.faults.config
    by_obligation = ladder_steps(fs, {"rpc.timeout", "coll.resend"})
    assert max(len(steps) for steps in by_obligation.values()) >= 3
    for who, steps in by_obligation.items():
        assert [n for _, n in steps] == list(range(1, len(steps) + 1)), who
        assert len(steps) <= max_retries
        for (t0, n), (t1, _) in zip(steps, steps[1:]):
            # consecutive steps are one backoff and one doubled deadline
            # apart: a timeout is logged at its deadline, a collective
            # resend after the backoff that follows it
            backoff = cfg.retry_backoff * 2 ** (n - 1)
            if who[0] == "coll.resend":
                backoff *= 2
            gap = cfg.rpc_timeout * 2**n + backoff
            assert t1 - t0 >= gap, (who, n)
            if entry == "independent":  # nothing else shares the pass
                assert t1 - t0 < gap + 1e-4, (who, n)
    failed_over = ladder_steps(fs, {"rpc.failover"})
    timed_out = ladder_steps(fs, {"rpc.timeout"})
    for who, steps in failed_over.items():
        assert len(steps) == 1  # once per recovered request
        assert steps[0][1] == len(timed_out[("rpc.timeout",) + who[1:]])


@pytest.mark.parametrize("max_retries", [0, 2])
@pytest.mark.parametrize("entry", ["independent", "collective"])
def test_ladder_exhausts_at_max_retries_plus_one(entry, max_retries):
    exc = run_crashed(entry, crash_until=1e9, max_retries=max_retries)
    assert isinstance(exc, RetriesExhausted)
    assert exc.attempts == max_retries + 1
    assert exc.server == 1


# ----------------------------------------------------------------------
# parent-recorded recovery goldens
# ----------------------------------------------------------------------
def snapshot(fs, exact):
    assert all(exact)
    log = repr(fs.faults.event_log()).encode()
    return {
        "now": float.hex(fs.env.now),
        "summary": fs.faults.summary(),
        "events": hashlib.blake2b(log, digest_size=16).hexdigest(),
        "counters": {
            c.name: dataclasses.asdict(c.counters) for c in fs.clients
        },
    }


@pytest.mark.parametrize("crash_server", [0, 1, 2, 3])
def test_reelection_golden(crash_server):
    run = run_collective(
        4, reelection_config(crash_server), hints=Hints(cb_nodes=2)
    )
    assert snapshot(*run) == GOLDENS[f"reelect-iod{crash_server}"]


@pytest.mark.parametrize("scheduler", ["serial", "threaded"])
@pytest.mark.parametrize("seed", [3, 42, 1009])
def test_crash_chaos_golden(seed, scheduler):
    cfg = {"server_threads": 4} if scheduler == "threaded" else {}
    run = run_collective(4, chaos_config(seed, crash=True), **cfg)
    assert snapshot(*run) == GOLDENS[f"chaos-{seed}-{scheduler}"]


def test_full_duplication_golden():
    run = run_collective(
        4, chaos_config(11, net_drop_prob=0.0, net_dup_prob=1.0)
    )
    assert snapshot(*run) == GOLDENS["dup-1.0"]
