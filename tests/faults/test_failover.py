"""Client failover: crashed servers are survived or surfaced, typed.

A crash window ends → the RPC timer fires, the client backs off,
resends, and the revived daemon answers (failover).  A crash that never
ends → retries exhaust into a typed
:class:`~repro.pvfs.errors.RetriesExhausted` carrying the job id, the
server, the client and the attempt count — never a hang, never a bare
assert.
"""

import numpy as np
import pytest

from repro.faults import FaultConfig
from repro.pvfs import PVFS, PVFSConfig
from repro.pvfs.errors import PVFSError, RetriesExhausted, ServerTimeout
from repro.simulation import Environment


def make_fs(faults, **kw):
    env = Environment()
    defaults = dict(n_servers=4, strip_size=64, faults=faults)
    defaults.update(kw)
    return PVFS(env, config=PVFSConfig(**defaults))


def run_client(fs, fn):
    p = fs.env.process(fn(fs.client("cl0")))
    return fs.env.run(p)


def test_transient_crash_recovers_via_failover():
    # iod0 discards I/O for its first 10ms (covering the first write
    # request, which arrives ~4ms in, after the open); the client's
    # 10ms timer fires, backoff + resend lands after the window closes
    fs = make_fs(
        FaultConfig(
            seed=0,
            server_crashes=((0, 0.0, 10e-3),),
            rpc_timeout=10e-3,
            retry_backoff=1e-4,
        )
    )
    data = np.arange(64, dtype=np.uint8)

    def main(c):
        fh = yield from c.open("/t")  # control path: crash-immune
        yield from c.write(fh, 0, data)  # offset 0 -> strip on iod0
        out = yield from c.read(fh, 0, data.size)
        return out

    out = run_client(fs, main)
    assert np.array_equal(out, data)
    s = fs.faults.summary()
    assert s["crash_drops"] >= 1
    assert s["timeouts"] >= 1
    assert s["failovers"] >= 1
    assert s["exhausted"] == 0
    assert fs.faults.degraded
    assert fs.clients[0].counters.timeouts == s["timeouts"]
    assert fs.clients[0].counters.failovers == s["failovers"]


def test_permanent_crash_raises_typed_exhaustion():
    fs = make_fs(
        FaultConfig(
            seed=0,
            server_crashes=((0, 0.0, 1e9),),  # never comes back
            rpc_timeout=1e-3,
            max_retries=2,
            retry_backoff=1e-4,
        )
    )

    def main(c):
        fh = yield from c.open("/p")
        yield from c.write(fh, 0, np.arange(64, dtype=np.uint8))

    with pytest.raises(RetriesExhausted) as excinfo:
        run_client(fs, main)
    err = excinfo.value
    assert err.server == 0
    assert err.client == "c0"  # client name (node "cl0" hosts client c0)
    assert err.attempts == 3  # initial deadline + max_retries resends
    assert err.job_id > 0
    assert "iod0" in str(err)
    # the exception family nests under the file-system error hierarchy
    assert isinstance(err, ServerTimeout)
    assert isinstance(err, PVFSError)
    assert fs.faults.summary()["exhausted"] == 1


def test_crash_spares_other_servers():
    # a write striped only onto healthy servers never notices the crash
    # (the 20ms deadline is comfortably above the ~6ms legitimate RTT)
    fs = make_fs(
        FaultConfig(
            seed=0,
            server_crashes=((0, 0.0, 1e9),),
            rpc_timeout=20e-3,
            max_retries=1,
        )
    )
    data = np.arange(64, dtype=np.uint8)

    def main(c):
        fh = yield from c.open("/s")
        yield from c.write(fh, 64, data)  # strip 1 -> iod1 only
        out = yield from c.read(fh, 64, data.size)
        return out

    out = run_client(fs, main)
    assert np.array_equal(out, data)
    assert fs.faults.summary()["timeouts"] == 0
    assert not fs.faults.degraded


def test_exhaustion_bounded_by_max_retries():
    # max_retries=0: a single missed deadline is terminal
    fs = make_fs(
        FaultConfig(
            seed=0,
            server_crashes=((0, 0.0, 1e9),),
            rpc_timeout=1e-3,
            max_retries=0,
        )
    )

    def main(c):
        fh = yield from c.open("/b")
        yield from c.write(fh, 0, np.arange(8, dtype=np.uint8))

    with pytest.raises(RetriesExhausted) as excinfo:
        run_client(fs, main)
    assert excinfo.value.attempts == 1
    # exactly one send: no resends were permitted
    assert fs.clients[0].counters.timeouts == 1
