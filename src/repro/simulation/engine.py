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
scheduling order — simulations are bit-for-bit deterministic.

The queue is *indexed* rather than a single flat heap, so that a
4096-client run does not collapse under timer traffic:

* **now-FIFO** — the overwhelmingly common case, an event scheduled at
  the current instant (``succeed``, process resumes, mailbox wakeups),
  is an O(1) deque append instead of a heap push.  Mailbox wakeups at
  the same instant therefore batch in arrival order with no heap
  traffic.
* **near heap** — a classic binary heap for short deadlines (within the
  current timer-wheel slot).
* **hierarchical timer wheel** — far deadlines (RPC timeout guards,
  fault timers, long sleeps) land in per-slot buckets; a bucket is
  flushed into the near heap with original ``(time, seq)`` keys just
  before the clock can reach it, so delivery order is *exactly* the
  order the flat heap produced.  Cancelling a wheel timer is O(1) and
  the dead entry dies in its bucket without ever touching the heap.

:meth:`Timeout.cancel` (the handle :meth:`Environment.call_later`
returns) marks the queue entry dead; dead entries are dropped when
encountered at a queue head, filtered on bucket flush, or swept by a
compaction pass when they outnumber live heap entries — amortized
O(log n) cancellation, and a fully drained :meth:`Environment.run`
leaves no dead entries behind (see :meth:`Environment.queue_stats`).
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

    Doubles as the timer handle: :meth:`cancel` removes a not-yet-fired
    timer from the queue (O(1) in the wheel, lazy in the heap) so
    defensive deadline timers stop leaving dead entries behind.
    """

    __slots__ = ("delay", "_entry")

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
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
        entry = self._entry
        if entry is None:
            return False
        self._entry = None
        return self.env._cancel_entry(entry)


class Process(Event):
    """A running generator; fires with the generator's return value."""

    __slots__ = ("_gen", "_waiting_on", "name")

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
        self._waiting_on: Optional[Event] = None
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
        target = self._waiting_on
        if target is not None and self in [  # detach from the event
            getattr(cb, "__self__", None) for cb in target.callbacks
        ]:
            target.callbacks = [
                cb
                for cb in target.callbacks
                if getattr(cb, "__self__", None) is not self
            ]
        shim = Event(self.env)
        shim._state = Event.TRIGGERED
        shim._exc = Interrupt(cause)
        shim.add_callback(self._resume)
        self.env._schedule(shim)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
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
        self._waiting_on = next_event
        next_event.add_callback(self._resume)


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


# Queue entry layout: a mutable list ``[time, seq, event, where]``.
# ``event`` is set to None when the entry is cancelled or popped (the
# dead marker); ``where`` tracks the container for counter bookkeeping.
# List comparison only ever reaches (time, seq) because seq is unique.
_IN_FIFO = 0
_IN_HEAP = 1
_IN_WHEEL = 2


class Environment:
    """Owns simulated time and the indexed event queue."""

    #: Width of a level-0 timer-wheel slot (seconds).  Deadlines within
    #: the current slot go straight to the near heap.
    WHEEL_SLOT = 1e-3
    #: Slots per wheel level; level k buckets are SLOT * SPL**k wide.
    WHEEL_SPL = 256
    #: Number of wheel levels.  The top level is uncapped (buckets are
    #: keyed by absolute index in a dict, not a ring), so any horizon
    #: fits.
    WHEEL_LEVELS = 2

    def __init__(self):
        self.now: float = 0.0
        self._seq = 0
        # now-FIFO: entries scheduled with zero delay, in seq order.
        # Everything in the FIFO and the heap is live or cancelled, so
        # only the dead are counted (see queue_stats).
        self._fifo: deque[list] = deque()
        self._fifo_dead = 0
        # near heap: deadlines within the current wheel slot
        self._heap: list[list] = []
        self._heap_dead = 0
        # hierarchical timer wheel: level -> {bucket index: [entries]}
        self._wheel_buckets: list[dict[int, list[list]]] = [
            {} for _ in range(self.WHEEL_LEVELS)
        ]
        self._wheel_due: list[tuple[float, int, int]] = []  # (start, level, idx)
        self._wheel_widths = tuple(
            self.WHEEL_SLOT * self.WHEEL_SPL**k
            for k in range(self.WHEEL_LEVELS)
        )
        self._wheel_live = 0
        self._wheel_dead = 0
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
            entry = [self.now, seq, event, _IN_FIFO]
            self._fifo.append(entry)
            return entry
        entry = [self.now + delay, seq, event, _IN_HEAP]
        if delay < self.WHEEL_SLOT:
            heapq.heappush(self._heap, entry)
        else:
            self._wheel_place(entry, self.WHEEL_LEVELS - 1)
        return entry

    def _wheel_place(self, entry: list, max_level: int) -> None:
        """File a future entry in the coarsest wheel bucket that is
        strictly ahead of the clock, or the near heap if none is."""
        t = entry[0]
        now = self.now
        widths = self._wheel_widths
        for level in range(max_level, -1, -1):
            width = widths[level]
            idx = int(t / width)
            if idx > int(now / width):
                bucket = self._wheel_buckets[level].get(idx)
                if bucket is None:
                    bucket = self._wheel_buckets[level][idx] = []
                    heapq.heappush(self._wheel_due, (idx * width, level, idx))
                entry[3] = _IN_WHEEL
                bucket.append(entry)
                self._wheel_live += 1
                return
        entry[3] = _IN_HEAP
        heapq.heappush(self._heap, entry)

    def _cancel_entry(self, entry: list) -> bool:
        if entry[2] is None:
            return False
        entry[2] = None
        where = entry[3]
        if where == _IN_FIFO:
            self._fifo_dead += 1
        elif where == _IN_HEAP:
            self._heap_dead += 1
            # sweep when the dead outnumber the living (in place: run()
            # holds a reference to the list)
            heap = self._heap
            if self._heap_dead > 64 and 2 * self._heap_dead > len(heap):
                heap[:] = [e for e in heap if e[2] is not None]
                heapq.heapify(heap)
                self._heap_dead = 0
        else:
            self._wheel_live -= 1
            self._wheel_dead += 1
        return True

    def _pop_next(self, limit: float) -> Optional[list]:
        """Remove and return the next live entry in (time, seq) order,
        or None if the queue is empty / the next entry lies beyond
        ``limit`` (which is then left queued, matching the flat-heap
        semantics)."""
        fifo = self._fifo
        heap = self._heap
        while fifo and fifo[0][2] is None:
            fifo.popleft()
            self._fifo_dead -= 1
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._heap_dead -= 1
        if self._wheel_live or self._wheel_dead:
            due = self._wheel_due
            buckets = self._wheel_buckets
            while True:
                if fifo and (not heap or fifo[0] < heap[0]):
                    cand_t = fifo[0][0]
                elif heap:
                    cand_t = heap[0][0]
                else:
                    cand_t = None
                while due and due[0][2] not in buckets[due[0][1]]:
                    heapq.heappop(due)  # stale registration
                if not due:
                    break
                start, level, idx = due[0]
                if cand_t is not None:
                    if start > cand_t:
                        break
                elif start > limit:
                    break
                # flush: every entry in this bucket keeps its original
                # (time, seq) key, so heap order is exactly what the
                # flat heap would have produced
                heapq.heappop(due)
                bucket = buckets[level].pop(idx)
                for entry in bucket:
                    if entry[2] is None:
                        self._wheel_dead -= 1
                        continue
                    self._wheel_live -= 1
                    if level:
                        self._wheel_place(entry, level - 1)  # cascade finer
                    else:
                        entry[3] = _IN_HEAP
                        heapq.heappush(heap, entry)
                while heap and heap[0][2] is None:
                    heapq.heappop(heap)
                    self._heap_dead -= 1
        if fifo and (not heap or fifo[0] < heap[0]):
            entry = fifo[0]
            if entry[0] > limit:
                return None
            fifo.popleft()
            return entry
        if heap:
            entry = heap[0]
            if entry[0] > limit:
                return None
            heapq.heappop(heap)
            return entry
        return None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def queue_stats(self) -> dict[str, int]:
        """Live/dead entry counts across the FIFO, heap, and wheel.

        A fully drained :meth:`run` leaves ``{"live": 0, "dead": 0}`` —
        cancelled timers are physically removed, never popped as events.
        """
        dead = self._fifo_dead + self._heap_dead
        return {
            "live": len(self._fifo) + len(self._heap) - dead + self._wheel_live,
            "dead": dead + self._wheel_dead,
        }

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

        Returns the event's value when ``until`` is an event.
        """
        deadline: Optional[float] = None
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)

        hook = self.clock_hook
        fifo = self._fifo
        heap = self._heap
        due = self._wheel_due
        limit = float("inf") if deadline is None else deadline
        while True:
            # Fast paths, the same (time, seq) order _pop_next produces
            # the long way round.  A live now-FIFO head that sorts
            # before the heap head is next: every wheel bucket still due
            # starts after ``now``, so nothing filed there precedes it.
            # With the FIFO empty, a live heap head is next when it
            # fires before the earliest due bucket starts.
            if fifo:
                entry = fifo[0]
                if (
                    entry[2] is not None
                    and (not heap or entry < heap[0])
                    and entry[0] <= limit
                ):
                    fifo.popleft()
                else:
                    entry = self._pop_next(limit)
            elif (
                heap
                and (entry := heap[0])[2] is not None
                and (not due or entry[0] < due[0][0])
                and entry[0] <= limit
            ):
                heapq.heappop(heap)
            else:
                entry = self._pop_next(limit)
            if entry is None:
                break
            t = entry[0]
            event = entry[2]
            entry[2] = None  # popped: the handle (if any) is now inert
            if hook is not None and t > self.now:
                hook(self.now, t)
            self.now = t
            event._run_callbacks()
            if stop_event is not None and stop_event.triggered:
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
