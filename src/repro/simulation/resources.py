"""FIFO resources and mailboxes for the simulation engine."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from .engine import Environment, Event

__all__ = ["Resource", "Store"]


class Resource:
    """A FIFO resource with integer capacity (e.g. a NIC or a disk arm).

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield env.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        return self._in_use

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = self.env.event()
        if self._in_use < self.capacity:
            self._grant(ev)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        ev.succeed(self)


class Store:
    """An unbounded FIFO queue of items (a mailbox).

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is queued).
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env.event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> list:
        """Take every queued item at once (a batched mailbox wakeup).

        Lets a daemon woken by one ``get`` absorb the whole backlog
        synchronously instead of paying one event hop per message.
        """
        items = list(self._items)
        self._items.clear()
        return items
