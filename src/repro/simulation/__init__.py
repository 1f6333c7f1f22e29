"""Discrete-event simulation substrate.

The reproduction's performance figures come from replaying the real
file-system protocol over a simulated cluster.  This package provides
the generic machinery:

* :mod:`~repro.simulation.engine` — a SimPy-style event loop:
  :class:`Environment`, generator-based processes, timeouts, composite
  events;
* :mod:`~repro.simulation.resources` — FIFO :class:`Resource` and
  :class:`Store` (mailboxes);
* :mod:`~repro.simulation.network` — cluster nodes with full-duplex
  NICs, latency + bandwidth message timing, delivery into mailboxes;
* :mod:`~repro.simulation.costs` — the calibrated :class:`CostModel`
  (Chiba City-like constants: 100 Mbit/s Ethernet, TCP latency,
  single-threaded I/O daemons, per-region processing costs).

Simulated time is in seconds (floats).  Determinism: the event queue
breaks ties by insertion order, so runs are exactly reproducible.
"""

from .engine import Environment, Event, Process, Timeout, AllOf
from .resources import Resource, Store
from .network import Network, Node, Mailbox
from .costs import CostModel
from .stats import (
    NetworkSummary,
    NodeUtilization,
    ServerPipelineSummary,
    StageTimes,
    summarize_network,
    summarize_servers,
)

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "Resource",
    "Store",
    "Network",
    "Node",
    "Mailbox",
    "CostModel",
    "NetworkSummary",
    "NodeUtilization",
    "ServerPipelineSummary",
    "StageTimes",
    "summarize_network",
    "summarize_servers",
]
