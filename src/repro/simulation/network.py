"""Cluster network model.

Nodes have one full-duplex NIC each (independent transmit and receive
sides, 100 Mbit/s per direction by default).  Multiple simulated
entities on the same node (e.g. two MPI ranks, or a client and an I/O
daemon) share the node's NIC — exactly the contention the paper's
two-processes-per-node runs experience.

Transfers use a *reservation* model: a message occupies the sender's
transmit side and the receiver's receive side for ``nbytes/bandwidth``
seconds starting when both are free (``max`` of their busy horizons).
This serializes traffic per NIC direction without introducing
head-of-line convoys between unrelated flows — the behaviour of TCP
sockets multiplexed by ``select()`` in the real PVFS daemons.

A message send:

1. charges sender CPU (``per_message_cpu``);
2. reserves both NIC sides;
3. is delivered into the destination mailbox one latency after the
   transfer completes.

``pace=True`` (default) suspends the sender until its bytes have left
the NIC (a blocking socket); servers pass ``pace=False`` so a response
drains in the background while the daemon handles its next request.

``faultable=True`` marks client↔iod data-path messages as eligible for
fault injection (``repro.faults``): with an armed injector such a
message may be *dropped* (the bytes still cross the wire — the
reservations and byte counters stand — but the mailbox never hears of
it) or *duplicated* (a ghost copy arrives one extra latency later,
charged to no NIC: a retransmission artifact, not new traffic).
Control traffic (metadata, MPI exchanges, loopback) never sets it.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..faults import NULL_FAULTS
from ..metrics import NULL_METRICS
from ..trace import NULL_TRACER
from .costs import CostModel
from .engine import Environment, Event
from .resources import Store

__all__ = ["Network", "Node", "Mailbox", "Message"]


class Node:
    """A cluster node with a full-duplex NIC (busy-horizon model)."""

    __slots__ = (
        "name",
        "tx_busy_until",
        "rx_busy_until",
        "tx_busy_time",
        "rx_busy_time",
        "bytes_sent",
        "bytes_received",
    )

    def __init__(self, name: str):
        self.name = name
        self.tx_busy_until = 0.0
        self.rx_busy_until = 0.0
        self.tx_busy_time = 0.0
        self.rx_busy_time = 0.0
        self.bytes_sent = 0
        self.bytes_received = 0

    def __repr__(self) -> str:
        return f"<Node {self.name}>"


class Message:
    """A delivered message."""

    __slots__ = ("sender", "payload", "nbytes", "tag", "t_enqueued")

    def __init__(self, sender: "Mailbox", payload: Any, nbytes: int, tag: Any):
        self.sender = sender
        self.payload = payload
        self.nbytes = nbytes
        self.tag = tag
        #: Simulated instant the message entered the destination
        #: mailbox (set at delivery); receivers derive queue wait as
        #: ``env.now - t_enqueued`` at dequeue time.
        self.t_enqueued = 0.0

    def __repr__(self) -> str:
        return f"<Message {self.nbytes}B tag={self.tag!r} from {self.sender.name}>"


class Mailbox:
    """An addressable inbox owned by a simulated entity on some node."""

    __slots__ = ("name", "node", "_store")

    def __init__(self, env: Environment, node: Node, name: str):
        self.name = name
        self.node = node
        self._store = Store(env, name=name)

    def get(self) -> Event:
        """Event firing with the next :class:`Message`."""
        return self._store.get()

    def drain(self) -> list:
        """Take every queued :class:`Message` at once (batched wakeup)."""
        return self._store.drain()

    def __len__(self) -> int:
        return len(self._store)


class Network:
    """Factory for nodes/mailboxes plus the transfer primitive."""

    def __init__(self, env: Environment, costs: Optional[CostModel] = None):
        self.env = env
        self.costs = costs or CostModel()
        self.nodes: dict[str, Node] = {}
        self.mailboxes: dict[str, Mailbox] = {}
        # global statistics
        self.message_count = 0
        self.bytes_transferred = 0
        #: Span recorder (``repro.trace``); the disabled singleton by
        #: default — ``PVFS`` swaps in a live one when tracing is on.
        self.tracer = NULL_TRACER
        #: Metrics hub (``repro.metrics``); same pattern as the tracer.
        self.metrics = NULL_METRICS
        #: Fault injector (``repro.faults``); the disarmed singleton by
        #: default — ``PVFS`` swaps in a live one when faults are armed.
        self.faults = NULL_FAULTS

    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Get or create the named node."""
        node = self.nodes.get(name)
        if node is None:
            node = Node(name)
            self.nodes[name] = node
        return node

    def mailbox(self, node: Node, name: str) -> Mailbox:
        if name in self.mailboxes:
            raise ValueError(f"duplicate mailbox name {name!r}")
        mb = Mailbox(self.env, node, name)
        self.mailboxes[name] = mb
        return mb

    # ------------------------------------------------------------------
    def _reserve(
        self, src: Node, dst: Node, nbytes: int, bandwidth: Optional[float] = None
    ) -> float:
        """Queue the message at both NIC sides; returns completion time.

        Each side drains its own byte queue at line rate; the message
        completes when the slower side has drained it.  Sides are
        deliberately *not* coupled (one slow receiver does not stall a
        sender's traffic to other destinations — TCP sockets multiplex).
        """
        now = self.env.now
        rate = bandwidth or self.costs.nic_bandwidth
        dur = nbytes / rate if nbytes else 0.0
        src.tx_busy_until = max(src.tx_busy_until, now) + dur
        dst.rx_busy_until = max(dst.rx_busy_until, now) + dur
        src.tx_busy_time += dur
        dst.rx_busy_time += dur
        src.bytes_sent += nbytes
        dst.bytes_received += nbytes
        self.bytes_transferred += nbytes
        return max(src.tx_busy_until, dst.rx_busy_until)

    def send(
        self,
        src: Mailbox,
        dst: Mailbox,
        nbytes: int,
        payload: Any = None,
        tag: Any = None,
        *,
        pace: bool = True,
        latency: Optional[float] = None,
        per_msg_cpu: Optional[float] = None,
        bandwidth: Optional[float] = None,
        faultable: bool = False,
    ) -> Generator[Event, Any, None]:
        """Transfer a message; ``yield from`` this inside a process.

        With ``pace=True`` the caller resumes once the payload has left
        its NIC; with ``pace=False`` it resumes right after the send CPU
        charge and the transfer drains in the background.  Delivery into
        ``dst`` happens one latency after the transfer completes.
        """
        env = self.env
        c = self.costs
        if nbytes < 0:
            raise ValueError("negative message size")
        lat = c.latency if latency is None else latency
        msg_cpu = c.per_message_cpu if per_msg_cpu is None else per_msg_cpu

        if msg_cpu > 0:
            yield env.timeout(msg_cpu)

        msg = Message(src, payload, nbytes, tag)
        self.message_count += 1
        if src.node is dst.node:
            # loopback: no wire, no latency
            msg.t_enqueued = env.now
            dst._store.put(msg)
            return env.now
        end = self._reserve(src.node, dst.node, nbytes, bandwidth)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inflight(nbytes)
        tracer = self.tracer
        if tracer.enabled and getattr(payload, "trace_id", -1) >= 0:
            tracer.add(
                "net.xfer",
                "net",
                "net",
                env.now,
                end,
                trace_id=payload.trace_id,
                parent=payload.trace_parent,
                src=src.node.name,
                dst=dst.node.name,
                nbytes=nbytes,
            )
        deliver_delay = (end - env.now) + lat
        faults = self.faults
        verdict = (
            faults.net_fault(src.node.name, dst.node.name, nbytes, payload)
            if faultable and faults.enabled
            else None
        )
        if verdict == "drop":
            _discard_later(env, msg, deliver_delay, metrics)
        else:
            _deliver_later(env, dst, msg, deliver_delay, metrics)
            if verdict == "dup":
                # the ghost copy: one extra latency late, free of NIC
                # reservations and counters (a retransmission artifact,
                # not new traffic — receivers must deduplicate)
                dup = Message(src, payload, nbytes, tag)
                _deliver_later(env, dst, dup, deliver_delay + lat)
        if pace and end > env.now:
            yield env.timeout(end - env.now)
        # completion time of the transfer (both NIC sides drained);
        # callers implementing windowed flow control block on it later
        return end


def _deliver_later(
    env: Environment,
    dst: Mailbox,
    msg: Message,
    delay: float,
    metrics=NULL_METRICS,
):
    if delay <= 0:
        if metrics.enabled:
            metrics.inflight(-msg.nbytes)
        msg.t_enqueued = env.now
        dst._store.put(msg)
        return

    def _put(_ev):
        if metrics.enabled:
            metrics.inflight(-msg.nbytes)
        msg.t_enqueued = env.now
        dst._store.put(msg)

    env.call_later(delay, _put)


def _discard_later(
    env: Environment,
    msg: Message,
    delay: float,
    metrics=NULL_METRICS,
):
    """A dropped message: the bytes crossed the wire (reservations and
    byte counters already stand) but delivery never happens.  Only the
    in-flight gauge needs settling at the would-be delivery instant."""
    if delay <= 0:
        if metrics.enabled:
            metrics.inflight(-msg.nbytes)
        return

    def _gone(_ev):
        if metrics.enabled:
            metrics.inflight(-msg.nbytes)

    env.call_later(delay, _gone)
