"""Network summaries, stage accounting, and bottleneck attribution."""

from dataclasses import replace

import pytest

from repro.simulation import (
    CostModel,
    Environment,
    Network,
    summarize_network,
)
from repro.simulation.stats import (
    NetworkSummary,
    NodeUtilization,
    StageTimes,
    summarize_servers,
)


class _FakeServer:
    def __init__(self, index, st):
        self.index = index
        self.stage_times = st


def test_stage_fields_in_charge_order():
    assert StageTimes.stage_fields() == (
        "decode", "plan", "cache", "storage", "respond",
    )


def test_stage_times_add_sums_and_maxes():
    a = StageTimes(decode=1.0, requests=2, peak_queue=3, cache_hits=1)
    b = StageTimes(decode=0.5, storage=2.0, requests=1, peak_queue=7)
    a.add(b)
    assert a.decode == 1.5
    assert a.storage == 2.0
    assert a.requests == 3
    assert a.peak_queue == 7  # max, not sum
    assert a.cache_hits == 1


def test_stage_times_busy_and_as_dict():
    st = StageTimes(decode=1.0, plan=2.0, cache=0.5, storage=4.0,
                    respond=0.25, requests=7)
    assert st.busy == pytest.approx(7.75)
    d = st.as_dict()
    # stage seconds get the _s suffix, counters keep their bare name
    assert d["decode_s"] == 1.0 and d["storage_s"] == 4.0
    assert d["requests"] == 7 and "requests_s" not in d
    assert set(d) == {
        f + "_s" for f in StageTimes.stage_fields()
    } | {
        "requests", "rejected", "peak_queue", "cache_hits",
        "cache_misses", "cache_evictions", "cache_regions_held",
        "cache_bytes_held",
    }


def test_summarize_servers_aggregates():
    servers = [
        _FakeServer(0, StageTimes(decode=1.0, requests=2, peak_queue=4)),
        _FakeServer(1, StageTimes(plan=2.0, requests=3, peak_queue=2)),
    ]
    s = summarize_servers(servers)
    assert s.total.decode == 1.0 and s.total.plan == 2.0
    assert s.total.requests == 5
    assert s.total.peak_queue == 4
    assert set(s.per_server) == {0, 1}


def _summary(elapsed=1.0, **busy):
    """NetworkSummary with named nodes: busy = {name: (tx, rx)}."""
    return NetworkSummary(
        elapsed=elapsed,
        total_bytes=0,
        total_messages=0,
        nodes=[
            NodeUtilization(name, tx, rx, 0, 0)
            for name, (tx, rx) in busy.items()
        ],
    )


def test_peak_and_mean_utilization():
    s = _summary(ios0=(0.8, 0.2), ios1=(0.4, 0.6), cn0=(0.1, 0.9))
    assert s.mean_utilization("ios", "tx") == pytest.approx(0.6)
    assert s.mean_utilization("cn", "rx") == pytest.approx(0.9)


def test_bottleneck_disk_aware():
    # NICs half idle, but the two server disks are 80% busy
    s = _summary(ios0=(0.3, 0.3), ios1=(0.3, 0.3), cn0=(0.2, 0.4))
    assert s.bottleneck() == "cpu-or-latency"
    stages = StageTimes(storage=1.6)  # 1.6s over 2 servers x 1s elapsed
    assert s.bottleneck(stages) == "server-disk"
    # a saturated NIC still wins when the disk fraction is lower
    hot = _summary(ios0=(0.95, 0.3), ios1=(0.95, 0.3), cn0=(0.2, 0.4))
    assert hot.bottleneck(StageTimes(storage=1.2)) == "server-tx"


def test_bottleneck_disk_aware_no_servers():
    # no ios nodes: passing stages must not divide by zero
    s = _summary(cn0=(0.2, 0.4))
    assert s.bottleneck(StageTimes(storage=5.0)) == "cpu-or-latency"


def test_summary_counts():
    env = Environment()
    net = Network(env, replace(CostModel(), per_message_cpu=0, latency=0))
    a, b = net.node("cn0"), net.node("ios0")
    ma, mb = net.mailbox(a, "a"), net.mailbox(b, "b")

    def sender():
        yield from net.send(ma, mb, 125_000)

    def receiver():
        yield mb.get()

    env.process(sender())
    p = env.process(receiver())
    env.run(p)
    s = summarize_network(net, env.now)
    assert s.total_bytes == 125_000
    assert s.total_messages == 1
    assert len(s.nodes) == 2
    cn = s.group("cn")[0]
    assert cn.bytes_sent == 125_000
    assert cn.tx_busy / s.elapsed == pytest.approx(1.0)
    assert max(n.rx_busy for n in s.group("ios")) / s.elapsed == pytest.approx(1.0)
    assert s.mean_utilization("cn", "rx") == 0.0


def test_bottleneck_attribution():
    env = Environment()
    net = Network(env, replace(CostModel(), per_message_cpu=0, latency=0))
    servers = [net.node(f"ios{i}") for i in range(2)]
    client = net.node("cn0")
    mc = net.mailbox(client, "c")
    mss = [net.mailbox(s, f"s{i}") for i, s in enumerate(servers)]

    def sender(ms):
        # both servers send to one client: client rx saturates
        yield from net.send(ms, mc, 1_000_000, pace=False)

    def recv(n):
        for _ in range(n):
            yield mc.get()

    for ms in mss:
        env.process(sender(ms))
    env.run(env.process(recv(2)))
    s = summarize_network(net, env.now)
    assert s.bottleneck() == "client-rx"


def test_bottleneck_idle():
    env = Environment()
    net = Network(env, CostModel())
    net.node("cn0")
    env.now = 0.0
    s = summarize_network(net, 1.0)
    assert s.bottleneck() == "cpu-or-latency"


def test_empty_group():
    env = Environment()
    net = Network(env, CostModel())
    s = summarize_network(net, 1.0)
    assert s.group("xyz") == []
    assert s.mean_utilization("xyz") == 0.0


def test_runner_populates_summary():
    from repro.bench import TileWorkload, run_workload

    r = run_workload(TileWorkload.reduced(frames=1), "datatype_io")
    assert r.network is not None
    assert r.network.total_bytes > 0
    assert 0 <= r.network.mean_utilization("ios", "tx") <= 1
    assert isinstance(r.network.bottleneck(), str)
