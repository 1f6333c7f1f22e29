"""Indexed event queue: ordering equivalence + cancellation hygiene.

The engine's two scheduling containers (now-FIFO, heap) are an
implementation detail; the observable contract is the old flat-heapq
one — events fire in exactly ``(time, seq)`` order.  Hypothesis drives
random delay mixes across the container boundary and checks the fired
order against that key, and the cancellation tests pin the satellite
guarantee: a drained queue holds no dead entries
(``queue_stats() == {"live": 0, "dead": 0}``).
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.simulation import Environment

# Delays for both containers: 0 → now-FIFO, anything else → the heap.
# The menu spans thirteen decades with near-equal neighbours (0.999 / 1 /
# 1.0001 ms, 255 / 256 / 257 ms, 65.535 / 65.536 s) so fire times tie or
# miss by little and ``seq`` has to break the tie; plus arbitrary floats
# for the unprincipled cases.
DELAYS = st.one_of(
    st.sampled_from(
        [
            0.0,
            1e-9,
            9.99e-4,
            1e-3,
            1.0001e-3,
            0.255,
            0.256,
            0.257,
            65.535,
            65.536,
            70.0,
            1e4,
        ]
    ),
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False, width=32),
)


@given(st.lists(st.tuples(DELAYS, st.booleans()), min_size=1, max_size=150))
@settings(max_examples=200, deadline=None)
def test_fire_order_is_time_seq(ops):
    """Timers fire in (time, seq) order; cancelled ones never fire."""
    env = Environment()
    fired: list[int] = []
    entries = []  # (fire_time, seq, idx, cancelled)
    timers = []
    for idx, (delay, cancel) in enumerate(ops):
        timer = env.call_later(delay, lambda _ev, i=idx: fired.append(i))
        entries.append((delay, env.scheduled_events, idx, cancel))
        timers.append(timer)
    for (_, _, _, cancel), timer in zip(entries, timers):
        if cancel:
            assert timer.cancel()
            assert not timer.cancel()  # idempotent
    env.run()
    want = [
        idx
        for _, _, idx, cancel in sorted(entries, key=lambda e: (e[0], e[1]))
        if not cancel
    ]
    assert fired == want
    assert env.queue_stats() == {"live": 0, "dead": 0}


@given(st.lists(st.tuples(DELAYS, DELAYS), min_size=1, max_size=60))
@settings(max_examples=150, deadline=None)
def test_nested_scheduling_keeps_time_seq_order(pairs):
    """Timers armed *while the clock runs* obey the same total order.

    Every root timer schedules a child on firing — children enter the
    queue mid-run (far deadlines and the same-instant FIFO path
    alike) and must still interleave with everything else by
    ``(time, seq)``.
    """
    env = Environment()
    fired: list[tuple] = []
    entries: list[tuple] = []  # (fire_time, seq, label)

    def arm(delay, label, child_delay=None):
        def cb(_ev):
            fired.append(label)
            if child_delay is not None:
                arm(child_delay, ("child",) + label)

        env.call_later(delay, cb)
        entries.append((env.now + delay, env.scheduled_events, label))

    for i, (d1, d2) in enumerate(pairs):
        arm(d1, ("root", i), child_delay=d2)
    env.run()
    want = [label for _, _, label in sorted(entries, key=lambda e: (e[0], e[1]))]
    assert fired == want
    assert env.queue_stats() == {"live": 0, "dead": 0}


def test_ten_thousand_armed_then_cancelled_rpc_timers():
    """The PR-6 satellite regression: guard-timer churn must not leak.

    10k armed-then-cancelled RPC deadline guards (the client failover
    pattern) plus one real timer: only the real one fires, and the
    drained queue reports zero live *and* zero dead entries — the
    heap-compaction path really reclaims the corpses.  Cancelled far
    timers wait in the heap until that pass, so mid-run the dead may
    never outgrow ``max(64, live)``: the bound on what guard churn can
    hold in memory.
    """
    env = Environment()
    fired: list[str] = []
    sampled: list[dict] = []

    def proc():
        for _ in range(100):
            timers = [
                env.call_later(30.0, lambda _ev: fired.append("guard"))
                for _ in range(100)
            ]
            for t in timers:
                assert t.cancel()
                sampled.append(env.queue_stats())
            yield env.timeout(1e-3)
        yield env.timeout(0.5)
        fired.append("real")

    env.process(proc())
    env.run()
    assert fired == ["real"]
    assert len(sampled) == 10_000
    assert all(s["dead"] <= max(64, s["live"]) for s in sampled)
    assert env.queue_stats() == {"live": 0, "dead": 0}


def test_cancel_after_fire_is_refused():
    env = Environment()
    hits: list[int] = []
    timer = env.call_later(0.25, lambda _ev: hits.append(1))
    env.run()
    assert hits == [1]
    assert not timer.cancel()
    assert env.queue_stats() == {"live": 0, "dead": 0}


def test_deadline_leaves_future_entries_queued():
    """run(until=t) must not disturb entries beyond the deadline."""
    env = Environment()
    fired: list[float] = []
    for delay in (0.1, 0.3, 5.0, 500.0):
        env.call_later(delay, lambda _ev, d=delay: fired.append(d))
    env.run(until=1.0)
    assert fired == [0.1, 0.3]
    assert env.now == 1.0
    stats = env.queue_stats()
    assert stats["live"] == 2
    env.run(until=1000.0)
    assert fired == [0.1, 0.3, 5.0, 500.0]
    assert env.queue_stats() == {"live": 0, "dead": 0}


# ----------------------------------------------------------------------
# differential: the indexed queue against one flat heap
# ----------------------------------------------------------------------
class _FlatHeap:
    """The contract itself: a single ``heapq`` keyed ``(time, seq)``,
    tombstone cancellation, ``run(until)`` leaving later entries queued."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []

    def arm(self, delay, fn):
        self._seq += 1
        entry = [self.now + delay, self._seq, fn]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry):
        live = entry[2] is not None
        entry[2] = None
        return live

    def live(self):
        return sum(e[2] is not None for e in self._heap)

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            entry = heapq.heappop(heap)
            fn, entry[2] = entry[2], None
            if fn is not None:
                self.now = entry[0]
                fn(None)
        if until is not None:
            self.now = until


class _Indexed:
    """The engine under test behind the same four calls."""

    def __init__(self):
        self.env = Environment()

    now = property(lambda self: self.env.now)

    def arm(self, delay, fn):
        return self.env.call_later(delay, fn)

    def cancel(self, timer):
        return timer.cancel()

    def live(self):
        return self.env.queue_stats()["live"]

    def run(self, until=None):
        self.env.run(until)


def _play(q, plan, roots, slices):
    """Run ``plan`` on queue ``q`` and log everything observable.

    ``plan[k] = (delay, kids, victim)`` describes the k-th timer armed:
    on firing it arms the next ``kids`` timers of the plan (zero-delay
    ones join the same instant, timed ones land in the heap) and
    cancels timer ``victim`` — fired, pending or itself.
    """
    log, handles = [], []

    def arm_next():
        k = len(handles)
        if k == len(plan):
            return
        delay, kids, victim = plan[k]

        def fire(_ev):
            log.append(("fire", k, q.now))
            for _ in range(kids):
                arm_next()
            if victim is not None:
                v = victim % len(handles)
                log.append(("cancel", v, q.cancel(handles[v])))

        handles.append(q.arm(delay, fire))

    for _ in range(roots):
        arm_next()
    t = 0.0
    for dt in slices:
        t += dt
        q.run(t)
        log.append(("slice", q.now, q.live()))
    q.run()
    log.append(("end", q.now, q.live()))
    return log


# weighted towards what a simulation run is made of: same-instant
# children, sub-millisecond timers, and deadlines a few ms out
_MIXED = st.one_of(
    st.sampled_from([0.0, 0.0, 0.0, 1e-9, 2e-4, 9.99e-4, 1e-3, 2.5e-3, 0.3]),
    DELAYS,
)


@given(
    st.lists(
        st.tuples(
            _MIXED, st.integers(0, 3), st.one_of(st.none(), st.integers(0, 400))
        ),
        min_size=1,
        max_size=120,
    ),
    st.integers(1, 12),
    st.lists(
        st.one_of(st.sampled_from([0.0, 5e-4, 1e-3, 0.26]), st.floats(0.0, 80.0)),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_indexed_queue_equals_flat_heap(plan, roots, slices):
    """Fire order, cancel outcomes, the clock and the live count after
    every ``run(until=t)`` slice equal the flat-heap model's, with
    callbacks arming zero-delay and timed children while far timers
    are live and cancelling near and far timers mid-run (a dead heap
    head meeting a live FIFO head included)."""
    indexed = _Indexed()
    got = _play(indexed, plan, roots, slices)
    assert got == _play(_FlatHeap(), plan, roots, slices)
    assert got[-1][2] == 0
    assert indexed.env.queue_stats() == {"live": 0, "dead": 0}
