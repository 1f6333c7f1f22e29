"""Event loop and process machinery.

A deliberately small SimPy-like core:

* an :class:`Event` is a one-shot trigger carrying a value (or an
  exception);
* a :class:`Process` wraps a generator; each ``yield``-ed event suspends
  the process until the event fires, whose value becomes the ``yield``
  expression's result.  A process is itself an event that fires with the
  generator's return value;
* :class:`Environment` owns the clock and the event queue.

Events fire in ``(time, sequence)`` order so same-time events fire in
scheduling order — simulations are bit-for-bit deterministic.  That
order is the whole contract; the queue behind it is two containers:

* **now-FIFO** — an event scheduled at the current instant
  (``succeed``, process resumes, mailbox wakeups: by far the common
  case) is an O(1) deque append, with no heap traffic;
* **heap** — one binary heap keyed ``(time, seq)`` for every positive
  delay, RPC timeout guards and fault timers included.

:meth:`Timeout.cancel` marks the queue entry dead; dead entries are
dropped when met at a queue head, or swept by a compaction pass when
they outnumber the live heap entries — amortized O(log n) cancellation,
and a drained :meth:`Environment.run` leaves none behind (see
:meth:`Environment.queue_stats`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for simulation protocol violations (e.g. double trigger)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence.

    States: *pending* → *triggered* (scheduled) → *processed* (callbacks
    run).  ``succeed``/``fail`` move it to triggered.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_state")

    PENDING = 0
    TRIGGERED = 1
    PROCESSED = 2

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._state = Event.PENDING

    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state >= Event.TRIGGERED

    @property
    def processed(self) -> bool:
        return self._state == Event.PROCESSED

    @property
    def ok(self) -> bool:
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("value of untriggered event")
        if self._exc is not None:
            raise self._exc
        return self._value

    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._state:  # anything but PENDING
            raise SimulationError("event already triggered")
        self._value = value
        self._state = Event.TRIGGERED
        self.env._schedule(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._state:
            raise SimulationError("event already triggered")
        self._exc = exc
        self._state = Event.TRIGGERED
        self.env._schedule(self)
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._state == Event.PROCESSED:
            # late subscriber: run at the current instant
            self.env._schedule(_CallbackShim(self, cb))
        else:
            self.callbacks.append(cb)

    def _run_callbacks(self) -> None:
        self._state = Event.PROCESSED
        callbacks = self.callbacks
        if len(callbacks) == 1:
            callbacks.pop()(self)  # the usual case: one waiting process
        else:
            self.callbacks = []
            for cb in callbacks:
                cb(self)


class _CallbackShim(Event):
    """Delivers a late callback for an already-processed event."""

    __slots__ = ("_orig", "_cb")

    def __init__(self, orig: Event, cb: Callable[[Event], None]):
        super().__init__(orig.env)
        self._orig = orig
        self._cb = cb
        self._state = Event.TRIGGERED

    def _run_callbacks(self) -> None:
        self._state = Event.PROCESSED
        self._cb(self._orig)


class Timeout(Event):
    """Fires ``delay`` seconds after creation.

    Doubles as the timer handle: :meth:`cancel` marks a not-yet-fired
    timer dead in the queue so defensive deadline timers stop leaving
    entries behind.  ``delay`` must be finite and non-negative: a NaN
    or infinite key would silently break the heap order.
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not 0 <= delay < _INF:
            raise ValueError(f"negative or non-finite delay {delay!r}")
        # Event.__init__ inlined: one is built per simulated wait
        self.env = env
        self.callbacks = []
        self._value = value
        self._exc = None
        self._state = Event.TRIGGERED
        self.delay = delay
        self._entry = env._schedule(self, delay)

    def cancel(self) -> bool:
        """Cancel the timer if it has not fired; returns True if it was
        still pending.  A cancelled timer never runs its callbacks."""
        return self.env._cancel_entry(self._entry, self.delay)


class Process(Event):
    """A running generator; fires with the generator's return value.

    It holds nothing of the event it waits on (which holds it), so a
    process parked on an unreachable event is freed with it; only after
    an :meth:`interrupt` does it track its wait until the abandoned one
    (``_stale``) has fired."""

    __slots__ = ("_gen", "_target", "_stale", "name")

    def __init__(
        self,
        env: "Environment",
        gen: Generator[Event, Any, Any],
        name: str = "",
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                f"process target must be a generator, got {type(gen).__name__}"
            )
        super().__init__(env)
        self._gen = gen
        self._target: Optional[Event] = None
        self._stale = 0
        self.name = name or getattr(gen, "__name__", "process")
        # bootstrap at the current instant
        boot = Event(env)
        boot._state = Event.TRIGGERED
        boot.callbacks.append(self._resume)
        env._schedule(boot)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at this instant."""
        if self.triggered:
            return
        target = self._target
        if target is None:
            self._stale += 1  # the untracked wait: ignored when it fires
        else:  # detach from the tracked wait
            target.callbacks = [
                cb
                for cb in target.callbacks
                if getattr(cb, "__self__", None) is not self
            ]
        shim = Event(self.env)
        shim._state = Event.TRIGGERED
        shim._exc = Interrupt(cause)
        shim.add_callback(self._resume)
        self._target = shim
        self.env._schedule(shim)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._stale:
            if event is not self._target:
                # a wait an interrupt abandoned
                self._stale -= 1
                if not self._stale:
                    self._target = None
                return
            self._target = None
        try:
            if event._exc is not None:
                next_event = self._gen.throw(event._exc)
            else:
                next_event = self._gen.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(next_event, Event):
            err = SimulationError(
                f"process {self.name!r} yielded {type(next_event).__name__}, "
                "expected an Event"
            )
            self._gen.close()
            self.fail(err)
            return
        next_event.add_callback(self._resume)
        if self._stale:
            self._target = next_event


class _Condition(Event):
    """Base for AllOf/AnyOf."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            if not self._check_immediate(ev):
                self._pending += 1
                ev.add_callback(self._on_event)
        self._maybe_finish()

    def _check_immediate(self, ev: Event) -> bool:
        return False

    def _on_event(self, ev: Event) -> None:
        raise NotImplementedError

    def _maybe_finish(self) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every event has fired; value is the list of values."""

    __slots__ = ()

    def _on_event(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self._pending -= 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if not self.triggered and self._pending == 0:
            self.succeed([ev.value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first event fires; value is ``(index, value)``."""

    __slots__ = ()

    def _on_event(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exc is not None:
            self.fail(ev._exc)
            return
        self.succeed((self.events.index(ev), ev._value))

    def _maybe_finish(self) -> None:
        pass


# Queue entry layout: a mutable list ``[time, seq, event]``.  ``event``
# is set to None when the entry is cancelled or popped (the dead
# marker).  List comparison only ever reaches (time, seq) because seq
# is unique.


class Environment:
    """Owns simulated time and the event queue."""

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        # now-FIFO: entries scheduled with zero delay, in seq order;
        # the heap: every timed entry.  An entry is live or cancelled,
        # so only the dead are counted (see queue_stats).
        self._fifo: deque[list] = deque()
        self._fifo_dead = 0
        self._heap: list[list] = []
        self._heap_dead = 0
        #: Optional observer called as ``hook(prev_now, next_t)`` just
        #: before the clock advances (strictly: only when ``next_t``
        #: exceeds ``now``).  It runs outside the event queue and must
        #: not create events — ``repro.metrics`` uses it to take
        #: periodic samples without perturbing the simulation.
        self.clock_hook: Optional[Callable[[float, float], None]] = None

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> list:
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            entry = [self.now, seq, event]
            self._fifo.append(entry)
        else:
            entry = [self.now + delay, seq, event]
            heapq.heappush(self._heap, entry)
        return entry

    def _cancel_entry(self, entry: list, delay: float) -> bool:
        """Mark ``entry`` dead; ``delay`` (what it was scheduled with)
        says which container it waits in."""
        if entry[2] is None:
            return False
        entry[2] = None
        if delay == 0.0:
            self._fifo_dead += 1
        else:
            self._heap_dead += 1
            # sweep when the dead outnumber the living (in place: run()
            # holds a reference to the list)
            heap = self._heap
            if self._heap_dead > 64 and 2 * self._heap_dead > len(heap):
                heap[:] = [e for e in heap if e[2] is not None]
                heapq.heapify(heap)
                self._heap_dead = 0
        return True

    def _retire(self, event: Event) -> None:
        """Drop the FIFO entry of ``event`` (nothing waits on it) that
        :meth:`run` stopped short of, so the queue holds nothing."""
        fifo = self._fifo
        for i in range(len(fifo) - 1, -1, -1):
            if fifo[i][2] is event:
                del fifo[i]
                event._state = Event.PROCESSED
                return

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queue_stats(self) -> dict[str, int]:
        """Live/dead entry counts across the FIFO and the heap.

        A fully drained :meth:`run` leaves ``{"live": 0, "dead": 0}`` —
        cancelled timers are physically removed, never popped as events.
        """
        dead = self._fifo_dead + self._heap_dead
        live = len(self._fifo) + len(self._heap) - dead
        return {"live": live, "dead": dead}

    @property
    def scheduled_events(self) -> int:
        """Total events ever scheduled (monotone; profiling counter)."""
        return self._seq

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, fn: Callable[[Event], None]
    ) -> Timeout:
        """Schedule ``fn(event)`` to run in ``delay`` seconds.

        A plain timeout + callback, packaged because detached one-shot
        actions (message delivery, fault-injection timers) are not
        processes: nothing suspends on them, and the callback must not
        create further events at trigger time beyond what a process
        resume could.

        Returns the :class:`Timeout`, which doubles as a timer handle:
        callers arming defensive deadlines (RPC timeout guards) should
        :meth:`Timeout.cancel` it once the guarded operation completes,
        so the queue is not left carrying dead entries.
        """
        ev = Timeout(self, delay)
        ev.add_callback(fn)
        return ev

    def process(self, gen, name: str = "") -> Process:
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline, or an event fires.

        Returns the event's value when ``until`` is an event.  A
        deadline earlier than ``now`` raises ``ValueError``: the clock
        never runs backwards.
        """
        deadline: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if not deadline >= self.now:  # NaN included
                raise ValueError(
                    f"until={deadline!r} precedes now={self.now!r}"
                )
        limit = _INF if deadline is None else deadline

        hook = self.clock_hook
        fifo = self._fifo
        heap = self._heap
        while True:
            # next entry in (time, seq) order; the dead are dropped as
            # they surface.  FIFO times never exceed ``now``, so only a
            # heap head can lie beyond the deadline (and stays queued).
            if fifo and (not heap or fifo[0] < heap[0]):
                entry = fifo.popleft()
                if entry[2] is None:
                    self._fifo_dead -= 1
                    continue
            elif heap:
                entry = heap[0]
                if entry[2] is None:
                    heapq.heappop(heap)
                    self._heap_dead -= 1
                    continue
                if entry[0] > limit:
                    break
                heapq.heappop(heap)
            else:
                break
            t = entry[0]
            event = entry[2]
            entry[2] = None  # popped: the handle (if any) is now inert
            if hook is not None and t > self.now:
                hook(self.now, t)
            self.now = t
            event._run_callbacks()
            if stop_event is not None and stop_event.triggered:
                if not stop_event.callbacks:
                    self._retire(stop_event)
                return stop_event.value

        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "event queue drained before the awaited event fired "
                "(deadlock: a process is waiting on something that will "
                "never happen)"
            )
        if deadline is not None:
            if hook is not None and deadline > self.now:
                hook(self.now, deadline)
            self.now = deadline
        return None
