"""Simulated MPI communicator."""

import pytest

from repro.mpiio import SimMPI
from repro.pvfs import PVFS
from repro.simulation import Environment


def make_mpi(n, ppn=2):
    env = Environment()
    fs = PVFS(env, n_servers=2)
    return SimMPI(fs, n, procs_per_node=ppn)


class TestPointToPoint:
    def test_send_recv(self):
        mpi = make_mpi(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 100, payload="hi", tag=7)
                return None
            src, payload, nbytes = yield from ctx.comm.recv(src=0, tag=7)
            return (src, payload, nbytes)

        res = mpi.run(main)
        assert res[1] == (0, "hi", 100)

    def test_tag_matching_out_of_order(self):
        mpi = make_mpi(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 10, payload="a", tag="A")
                yield from ctx.comm.send(1, 10, payload="b", tag="B")
                return None
            _, pb, _ = yield from ctx.comm.recv(tag="B")
            _, pa, _ = yield from ctx.comm.recv(tag="A")
            return (pa, pb)

        assert mpi.run(main)[1] == ("a", "b")

    def test_self_send(self):
        mpi = make_mpi(1)

        def main(ctx):
            yield from ctx.comm.send(0, 50, payload="me")
            _, p, _ = yield from ctx.comm.recv(src=0)
            return p

        assert mpi.run(main)[0] == "me"

    def test_wildcard_recv(self):
        mpi = make_mpi(3)

        def main(ctx):
            if ctx.rank != 0:
                yield from ctx.comm.send(0, 10, payload=ctx.rank)
                return None
            got = set()
            for _ in range(2):
                src, p, _ = yield from ctx.comm.recv()
                got.add((src, p))
            return got

        assert mpi.run(main)[0] == {(1, 1), (2, 2)}

    def test_p2p_counters(self):
        mpi = make_mpi(2)

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, 123)
                return ctx.comm.bytes_sent_p2p
            yield from ctx.comm.recv()
            return ctx.comm.bytes_received_p2p

        assert mpi.run(main) == [123, 123]


class TestCollectives:
    def test_barrier_synchronizes(self):
        mpi = make_mpi(4)
        env = mpi.env

        def main(ctx):
            yield env.timeout(ctx.rank)  # stagger arrivals
            yield from ctx.comm.barrier()
            return env.now

        times = mpi.run(main)
        assert len(set(round(t, 9) for t in times)) == 1
        assert min(times) >= 3

    def test_repeated_barriers(self):
        mpi = make_mpi(3)

        def main(ctx):
            for _ in range(5):
                yield from ctx.comm.barrier()
            return True

        assert all(mpi.run(main))

    def test_allgather(self):
        mpi = make_mpi(4)

        def main(ctx):
            vals = yield from ctx.comm.allgather(ctx.rank * 10)
            return vals

        res = mpi.run(main)
        assert all(v == [0, 10, 20, 30] for v in res)

    def test_allgather_repeated_no_bleed(self):
        mpi = make_mpi(3)

        def main(ctx):
            a = yield from ctx.comm.allgather(("x", ctx.rank))
            b = yield from ctx.comm.allgather(("y", ctx.rank))
            return (a, b)

        for a, b in mpi.run(main):
            assert a == [("x", 0), ("x", 1), ("x", 2)]
            assert b == [("y", 0), ("y", 1), ("y", 2)]

    def test_alltoallv(self):
        mpi = make_mpi(3)

        def main(ctx):
            outgoing = {
                dst: ((ctx.rank, dst), 10)
                for dst in range(ctx.size)
                if dst != ctx.rank
            }
            expected = [r for r in range(ctx.size) if r != ctx.rank]
            got = yield from ctx.comm.alltoallv(outgoing, expected)
            return {src: payload for src, (payload, _) in got.items()}

        res = mpi.run(main)
        assert res[0] == {1: (1, 0), 2: (2, 0)}
        assert res[2] == {0: (0, 2), 1: (1, 2)}


class TestTopology:
    def test_procs_per_node_share_nodes(self):
        mpi = make_mpi(4, ppn=2)
        nodes = {ctx.node.name for ctx in mpi.contexts}
        assert len(nodes) == 2

    def test_one_proc_per_node(self):
        mpi = make_mpi(4, ppn=1)
        nodes = {ctx.node.name for ctx in mpi.contexts}
        assert len(nodes) == 4

    def test_invalid_params(self):
        env = Environment()
        fs = PVFS(env, n_servers=2)
        with pytest.raises(ValueError):
            SimMPI(fs, 0)
        with pytest.raises(ValueError):
            SimMPI(fs, 2, procs_per_node=0)

    def test_mpi_bandwidth_slower_than_nic(self):
        """MPI payloads move below line rate (§2.3 caveat)."""
        mpi = make_mpi(2, ppn=1)
        env = mpi.env
        costs = mpi.costs
        nbytes = 1_000_000

        def main(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(1, nbytes)
                return env.now
            yield from ctx.comm.recv()
            return env.now

        times = mpi.run(main)
        assert times[0] >= nbytes / costs.mpi_bandwidth
