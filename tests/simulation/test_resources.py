"""Resource and Store behaviour."""

import pytest

from repro.simulation import Environment, Resource, Store


class TestResource:
    def test_fifo_serialization(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def worker(i):
            yield res.request()
            log.append(("start", i, env.now))
            yield env.timeout(2)
            res.release()
            log.append(("end", i, env.now))

        for i in range(3):
            env.process(worker(i))
        env.run()
        assert [e for e in log if e[0] == "start"] == [
            ("start", 0, 0),
            ("start", 1, 2),
            ("start", 2, 4),
        ]

    def test_capacity_two(self):
        env = Environment()
        res = Resource(env, capacity=2)
        starts = []

        def worker(i):
            yield res.request()
            starts.append((i, env.now))
            yield env.timeout(5)
            res.release()

        for i in range(4):
            env.process(worker(i))
        env.run()
        assert starts == [(0, 0), (1, 0), (2, 5), (3, 5)]

    def test_release_idle_raises(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, 0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        st = Store(env)
        st.put("a")
        st.put("b")

        def getter():
            x = yield st.get()
            y = yield st.get()
            return [x, y]

        p = env.process(getter())
        assert env.run(p) == ["a", "b"]

    def test_get_blocks_until_put(self):
        env = Environment()
        st = Store(env)

        def getter():
            x = yield st.get()
            return (x, env.now)

        def putter():
            yield env.timeout(5)
            st.put("late")

        p = env.process(getter())
        env.process(putter())
        assert env.run(p) == ("late", 5)

    def test_multiple_getters_fifo(self):
        env = Environment()
        st = Store(env)
        got = []

        def getter(i):
            x = yield st.get()
            got.append((i, x))

        for i in range(3):
            env.process(getter(i))

        def putter():
            yield env.timeout(1)
            for v in "abc":
                st.put(v)

        env.process(putter())
        env.run()
        assert got == [(0, "a"), (1, "b"), (2, "c")]

    def test_len_and_counters(self):
        env = Environment()
        st = Store(env)
        st.put(1)
        st.put(2)
        assert len(st) == 2
