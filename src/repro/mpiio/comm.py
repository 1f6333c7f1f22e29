"""Simulated MPI ranks and communicator.

Ranks are simulation processes placed two-per-node by default (the
paper's benchmark configuration for the 3-D block and FLASH tests).
Point-to-point messages and ``alltoallv`` payloads cross the simulated
network — so the two-phase exchange really contends with file traffic
for NICs.  Small-metadata collectives (``barrier``, ``allgather``) are
synchronized through shared state and charged an analytic
``O(log n)``-latency cost, which is standard practice for simulators
and irrelevant to the benchmarks' data volumes.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from ..pvfs import PVFS, PVFSClient
from ..simulation import Environment
from ..simulation.network import Mailbox

__all__ = ["SimMPI", "Comm", "RankContext"]


class RankContext:
    """Everything one rank's coroutine needs."""

    __slots__ = ("rank", "size", "comm", "fs", "env", "node")

    def __init__(self, rank: int, size: int, comm: "Comm", fs: PVFSClient, env):
        self.rank = rank
        self.size = size
        self.comm = comm
        self.fs = fs
        self.env = env
        self.node = fs.node

    def __repr__(self) -> str:
        return f"<RankContext {self.rank}/{self.size}>"


class _SharedState:
    """Rendezvous state shared by all ranks of a SimMPI world."""

    def __init__(self, env: Environment, nprocs: int):
        self.env = env
        self.nprocs = nprocs
        self.barrier_count = 0
        self.barrier_event = env.event()
        self.gather_slots: dict[str, dict[int, Any]] = {}


class Comm:
    """Per-rank communicator handle (no reference back to its world)."""

    def __init__(self, mpi: "SimMPI", rank: int, mailbox: Mailbox):
        self.env = mpi.env
        self.net = mpi.net
        self.costs = mpi.costs
        self.shared = mpi.shared
        self._mailboxes = mpi.mailboxes
        self.rank = rank
        self.size = mpi.nprocs
        self.mailbox = mailbox
        self._pending: list = []  # unmatched incoming messages
        self._coll_seq: dict[str, int] = {}  # per-key collective epoch
        self.bytes_sent_p2p = 0
        self.bytes_received_p2p = 0

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, nbytes: int, payload: Any = None, tag: Any = 0):
        """Send a message (generator; returns when it left the NIC)."""
        self.bytes_sent_p2p += nbytes
        if dst == self.rank:
            # self message: memcpy, no wire
            yield self.env.timeout(nbytes / self.costs.memcpy_bandwidth)
            self.mailbox._store.put(
                _SelfMessage(payload, nbytes, (tag, self.rank))
            )
            return
        yield from self.net.send(
            self.mailbox,
            self._mailboxes[dst],
            nbytes,
            payload=payload,
            tag=(tag, self.rank),
            latency=self.costs.mpi_latency,
            per_msg_cpu=self.costs.mpi_per_message_cpu,
            bandwidth=self.costs.mpi_bandwidth,
        )

    def recv(self, src: Optional[int] = None, tag: Any = None):
        """Receive a matching message; returns ``(src, payload, nbytes)``."""
        while True:
            for i, msg in enumerate(self._pending):
                mtag, msrc = msg.tag
                if (src is None or msrc == src) and (
                    tag is None or mtag == tag
                ):
                    self._pending.pop(i)
                    self.bytes_received_p2p += msg.nbytes
                    return msrc, msg.payload, msg.nbytes
            msg = yield self.mailbox.get()
            yield self.env.timeout(self.costs.mpi_per_message_cpu)
            self._pending.append(msg)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self):
        """Synchronize all ranks (log-latency cost)."""
        st = self.shared
        yield self.env.timeout(self._log_latency())
        st.barrier_count += 1
        if st.barrier_count == st.nprocs:
            st.barrier_count = 0
            ev = st.barrier_event
            st.barrier_event = self.env.event()
            ev.succeed()
        else:
            yield st.barrier_event

    def _log_latency(self) -> float:
        n = max(self.size, 2)
        return math.ceil(math.log2(n)) * self.costs.mpi_latency

    def epoch(self, key: str = "ag") -> int:
        """Number of ``key``-collectives this rank has entered so far.

        Every rank calls collectives in the same order (SPMD), so the
        value is identical across ranks *before* the matching collective
        — a free world-unique id for the upcoming invocation.
        """
        return self._coll_seq.get(key, 0)

    def allgather(self, value: Any, nbytes: int = 16, key: str = "ag"):
        """Gather a small value from every rank; returns rank-ordered list.

        Synchronized via shared state; charged an analytic
        recursive-doubling cost.
        """
        st = self.shared
        # every rank calls collectives in the same order, so a local
        # per-key sequence number names this invocation's slot uniquely
        seq = self._coll_seq.get(key, 0)
        self._coll_seq[key] = seq + 1
        slot_key = (key, seq)
        slot = st.gather_slots.setdefault(slot_key, {})
        slot[self.rank] = value
        yield from self.barrier()
        result = [slot[r] for r in range(self.size)]
        yield self.env.timeout(
            self._log_latency()
            + (self.size - 1) * nbytes / self.costs.nic_bandwidth
        )
        yield from self.barrier()
        if self.rank == 0:
            st.gather_slots.pop(slot_key, None)
        return result

    def alltoallv(
        self,
        outgoing: dict[int, tuple[Any, int]],
        expected_from: list[int],
        tag: Any = "a2a",
    ):
        """Exchange payloads pairwise.

        ``outgoing`` maps destination rank to ``(payload, nbytes)``;
        ``expected_from`` lists ranks that will send to me this round
        (every rank computes this consistently from shared knowledge).
        Returns ``{src: (payload, nbytes)}``.
        """
        for dst in sorted(outgoing):
            payload, nbytes = outgoing[dst]
            yield from self.send(dst, nbytes, payload, tag=tag)
        received: dict[int, tuple[Any, int]] = {}
        for _ in range(len(expected_from)):
            src, payload, nbytes = yield from self.recv(tag=tag)
            received[src] = (payload, nbytes)
        return received


class _SelfMessage:
    __slots__ = ("payload", "nbytes", "tag", "sender")

    def __init__(self, payload, nbytes, tag):
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        self.sender = None


class SimMPI:
    """An MPI world of ``nprocs`` ranks over a PVFS cluster."""

    def __init__(
        self,
        fs: PVFS,
        nprocs: int,
        procs_per_node: int = 2,
        node_prefix: str = "cn",
        tenant_of: Optional[Callable[[int], int]] = None,
    ):
        if nprocs < 1:
            raise ValueError("need at least one rank")
        if procs_per_node < 1:
            raise ValueError("procs_per_node must be positive")
        self.env = fs.env
        self.net = fs.net
        self.costs = fs.costs
        self.nprocs = nprocs
        self.procs_per_node = procs_per_node
        self.shared = _SharedState(self.env, nprocs)
        self.mailboxes: list[Mailbox] = []  #: by rank
        self.comms: list[Comm] = []
        self.contexts: list[RankContext] = []
        for r in range(nprocs):
            node = self.net.node(f"{node_prefix}{r // procs_per_node}")
            mailbox = self.net.mailbox(node, f"mpi:{node_prefix}:r{r}")
            self.mailboxes.append(mailbox)
            comm = Comm(self, r, mailbox)
            self.comms.append(comm)
            tenant = tenant_of(r) if tenant_of is not None else 0
            client = fs.client(
                node.name, name=f"{node_prefix}:r{r}", tenant=tenant
            )
            self.contexts.append(
                RankContext(r, nprocs, comm, client, self.env)
            )

    # ------------------------------------------------------------------
    def spawn(self, rank_main: Callable, *args):
        """Start ``rank_main(ctx, *args)`` on every rank.

        Returns the list of rank processes; wait on them with
        ``env.all_of(procs)``.
        """
        procs = []
        for ctx in self.contexts:
            procs.append(
                self.env.process(
                    rank_main(ctx, *args), name=f"rank{ctx.rank}"
                )
            )
        return procs

    def run(self, rank_main: Callable, *args) -> list:
        """Spawn all ranks, run the simulation, return rank results."""
        procs = self.spawn(rank_main, *args)
        done = self.env.all_of(procs)
        return self.env.run(done)
