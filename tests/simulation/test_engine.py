"""Event loop and process machinery."""

import pytest

from repro.simulation import Environment, Event
from repro.simulation.engine import SimulationError


class TestTimeouts:
    def test_timeout_advances_clock(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(1.5)
            log.append(env.now)
            yield env.timeout(0.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5, 2.0]

    def test_timeout_value(self):
        env = Environment()

        def proc():
            v = yield env.timeout(1, value="hello")
            return v

        p = env.process(proc())
        assert env.run(p) == "hello"

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, delay):
        """Refused by ``Timeout`` itself, before anything is queued: a
        NaN key on a bare heap would silently break the fire order."""
        env = Environment()
        with pytest.raises(ValueError, match="delay"):
            env.timeout(delay)
        assert env.scheduled_events == 0
        assert env.queue_stats() == {"live": 0, "dead": 0}

    def test_same_time_fifo_order(self):
        env = Environment()
        log = []

        def proc(i):
            yield env.timeout(1.0)
            log.append(i)

        for i in range(5):
            env.process(proc(i))
        env.run()
        assert log == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1)
            return 42

        p = env.process(proc())
        assert env.run(p) == 42

    def test_process_waits_on_process(self):
        env = Environment()

        def inner():
            yield env.timeout(2)
            return "inner-done"

        def outer():
            v = yield env.process(inner())
            return (v, env.now)

        p = env.process(outer())
        assert env.run(p) == ("inner-done", 2)

    def test_exception_propagates_to_waiter(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("boom")

        def outer():
            try:
                yield env.process(bad())
            except RuntimeError as e:
                return f"caught {e}"

        p = env.process(outer())
        assert env.run(p) == "caught boom"

    def test_unhandled_exception_fails_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise ValueError("x")

        p = env.process(bad())
        with pytest.raises(ValueError):
            env.run(p)

    def test_yield_non_event_fails(self):
        env = Environment()

        def bad():
            yield 42

        p = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(p)

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_run_until_event_leaves_no_entry(self):
        env = Environment()
        done = env.all_of([env.timeout(1), env.timeout(2)])
        env.run(done)
        assert env.queue_stats() == {"live": 0, "dead": 0}
        assert done._state == Event.PROCESSED

    def test_run_until_event_drops_cancelled_timers(self):
        env = Environment()
        env.timeout(5).cancel()
        kept = env.timeout(9)
        env.run(env.timeout(1))
        # a live entry keeps the queue (and its dead) as it is...
        assert env.queue_stats() == {"live": 1, "dead": 1}
        kept.cancel()
        done = env.timeout(1)
        env.run(done)
        # ...and once nothing live is left, the cancelled go with the run
        assert env.queue_stats() == {"live": 0, "dead": 0}
        assert env.now == 2


class TestEvents:
    def test_manual_event(self):
        env = Environment()
        ev = env.event()

        def waiter():
            v = yield ev
            return (v, env.now)

        def trigger():
            yield env.timeout(5)
            ev.succeed("go")

        p = env.process(waiter())
        env.process(trigger())
        assert env.run(p) == ("go", 5)

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_value_before_trigger_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().value

    def test_late_callback_still_fires(self):
        env = Environment()
        ev = env.event()
        ev.succeed("v")
        env.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        env.run()
        assert got == ["v"]

    def test_fail(self):
        env = Environment()
        ev = env.event()

        def waiter():
            try:
                yield ev
            except KeyError:
                return "failed"

        p = env.process(waiter())
        ev.fail(KeyError("k"))
        assert env.run(p) == "failed"


class TestConditions:
    def test_all_of(self):
        env = Environment()

        def worker(d):
            yield env.timeout(d)
            return d

        procs = [env.process(worker(d)) for d in (3, 1, 2)]
        done = env.all_of(procs)
        assert env.run(done) == [3, 1, 2]
        assert env.now == 3

    def test_all_of_empty(self):
        env = Environment()
        assert env.run(env.all_of([])) == []


class TestRun:
    def test_run_until_deadline(self):
        env = Environment()

        def forever():
            while True:
                yield env.timeout(1)

        env.process(forever())
        env.run(until=10.5)
        assert env.now == 10.5

    def test_run_until_before_now_rejected(self):
        """The clock never runs backwards; ``until == now`` is a legal
        empty slice."""
        env = Environment()
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=2.0)
        assert env.now == 5.0
        env.run(until=5.0)
        assert env.now == 5.0

    def test_run_drains_queue(self):
        env = Environment()

        def p():
            yield env.timeout(7)

        env.process(p())
        env.run()
        assert env.now == 7

    def test_deadlock_detection(self):
        env = Environment()
        ev = env.event()

        def stuck():
            yield ev

        p = env.process(stuck())
        with pytest.raises(SimulationError, match="deadlock"):
            env.run(p)
