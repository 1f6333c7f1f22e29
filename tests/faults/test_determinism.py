"""Fault schedules replay bit-for-bit from ``(workload, seed, config)``.

The determinism contract: every fault decision comes from the seeded
:class:`~repro.faults.FaultPlan` (counter-keyed BLAKE2b streams), never
the wall clock, so the same run replays to an identical fault event log
and identical simulated timings, and a different seed produces a
different schedule.
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys
from hashlib import blake2b

import pytest

import repro
from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.faults import FaultConfig, FaultPlan, severity_config


def run(method="datatype_io", faults=None):
    wl = TileWorkload.reduced(frames=2)
    from repro.pvfs import PVFSConfig

    return run_workload(
        wl, method, config=PVFSConfig(faults=faults)
    )


class TestFaultPlan:
    def test_draws_are_pure_functions_of_seed_kind_counter(self):
        a = FaultPlan(7)
        b = FaultPlan(7)
        seq_a = [a.draw("net.drop") for _ in range(32)]
        seq_b = [b.draw("net.drop") for _ in range(32)]
        assert seq_a == seq_b
        assert all(0.0 <= x < 1.0 for x in seq_a)

    def test_kinds_have_independent_streams(self):
        a = FaultPlan(7)
        b = FaultPlan(7)
        # interleaving another kind's draws must not perturb the first
        seq_a = [a.draw("net.drop") for _ in range(8)]
        seq_b = []
        for _ in range(8):
            b.draw("disk.slow")
            seq_b.append(b.draw("net.drop"))
        assert seq_a == seq_b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_draws_equal_the_documented_formula(self, seed):
        """The *n*-th draw of a kind is BLAKE2b-64 of ``seed:kind:n``
        read big-endian over 2⁶⁴: 10 000 draws of every kind the
        injector draws, the kinds shuffled together."""
        kinds = ("net.drop", "net.dup", "disk.slow", "disk.stall")
        plan = FaultPlan(seed)
        order = list(kinds) * 10_000
        random.Random(seed).shuffle(order)
        seen = dict.fromkeys(kinds, 0)
        for kind in order:
            n = seen[kind]
            seen[kind] = n + 1
            want = int.from_bytes(
                blake2b(f"{seed}:{kind}:{n}".encode(), digest_size=8).digest(),
                "big",
            ) / 2.0**64
            assert plan.draw(kind) == want, (kind, n)

    def test_different_seeds_differ(self):
        assert [FaultPlan(1).draw("x") for _ in range(4)] != [
            FaultPlan(2).draw("x") for _ in range(4)
        ]


class TestReplays:
    def test_same_seed_identical_log_and_timing(self):
        cfg = severity_config("moderate", seed=99)
        r1 = run(faults=cfg)
        r2 = run(faults=cfg)
        assert r1.degraded and r2.degraded
        assert r1.faults.event_log() == r2.faults.event_log()
        assert r1.faults.summary() == r2.faults.summary()
        assert r1.elapsed == r2.elapsed  # exact float equality

    def test_different_seed_different_log(self):
        r1 = run(faults=severity_config("moderate", seed=1))
        r2 = run(faults=severity_config("moderate", seed=2))
        assert r1.faults.event_log() != r2.faults.event_log()

    def test_heavy_preset_replays_across_methods(self):
        for method in ("posix", "list_io"):
            cfg = severity_config("heavy", seed=5)
            r1 = run(method, cfg)
            r2 = run(method, cfg)
            assert r1.faults.event_log() == r2.faults.event_log()
            assert r1.elapsed == r2.elapsed

    def test_event_log_is_ordered_and_self_describing(self):
        r = run(faults=severity_config("heavy", seed=3))
        log = r.faults.event_log()
        assert log, "heavy preset must inject something"
        seqs = [e[0] for e in log]
        assert seqs == list(range(len(log)))
        kinds = {e[2] for e in log}
        assert kinds <= {
            "net.drop", "net.dup", "disk.slow", "disk.stall",
            "server.crash", "rpc.timeout", "rpc.failover", "rpc.exhausted",
        }


# One faulted, traced and metered tile cell per method, printed as
# ``elapsed.hex()``, the number of fault events, a digest of the event
# log, the fault summary, a digest of the OpenMetrics text and the span
# count.
_HASHSEED_CELL = """
import hashlib, json
from repro.bench.runner import run_workload
from repro.bench.workloads import TileWorkload
from repro.faults import severity_config
from repro.metrics import openmetrics
from repro.pvfs import PVFSConfig

def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()

out = {}
for method in ("list_io", "collective_dtype"):
    r = run_workload(
        TileWorkload.reduced(frames=8), method,
        config=PVFSConfig(
            trace=True, metrics=True, faults=severity_config("moderate", 1)
        ),
    )
    log = r.faults.event_log()
    out[method] = [
        r.elapsed.hex(), len(log), sha(repr(log)),
        {k: float(v).hex() for k, v in r.faults.summary().items()},
        sha(openmetrics(r.metrics)), len(r.tracer),
    ]
print(json.dumps(out, sort_keys=True))
"""


def test_results_independent_of_pythonhashseed():
    """Nothing simulated may depend on set or dict-of-str iteration
    order: two interpreters with different hash seeds produce the same
    clock to the last bit, the same fault event log and summary, the
    same metrics export and the same number of spans."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    outputs = []
    for hashseed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_CELL],
            env={**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    for method, (_, events, *_) in json.loads(outputs[0]).items():
        assert events > 0, f"{method}: moderate preset injected nothing"


class TestConfigValidation:
    def test_bad_probability_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            FaultConfig(net_drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultConfig(disk_slow_factor=0.5)
        with pytest.raises(ValueError):
            FaultConfig(rpc_timeout=0.0)
        with pytest.raises(ValueError):
            FaultConfig(server_crashes=((0, 5.0, 1.0),))

    @pytest.mark.parametrize(
        "field",
        ["rpc_timeout", "retry_backoff", "disk_slow_factor",
         "disk_stall_seconds"],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            FaultConfig(**{field: math.nan})

    def test_nan_crash_window_rejected(self):
        with pytest.raises(ValueError, match="crash window"):
            FaultConfig(server_crashes=((0, 0.0, math.nan),))

    def test_crash_window_must_name_existing_server(self):
        import pytest

        from repro.pvfs import PVFSConfig

        with pytest.raises(ValueError):
            PVFSConfig(
                n_servers=4,
                faults=FaultConfig(server_crashes=((7, 0.0, 1.0),)),
            )
