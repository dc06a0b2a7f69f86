"""A small, deterministic discrete-event simulation engine.

The scheduling-level experiments (Fig. 1 reconstruction, task-level EDF
simulation) and several integration tests run on this engine.  Design
goals:

* **Determinism** — ties in time are broken by (priority, sequence
  number), so two runs of the same scenario produce identical traces.
* **Simplicity** — events are callbacks; longer behaviours are modelled
  with :class:`Process`, a thin generator-based coroutine wrapper that
  yields delays.

The instruction-level core models do *not* run on this engine (they are
simple cycle-cost loops for speed); they only share its statistics and
tracing helpers.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ReproError


class SimulationError(ReproError):
    """Raised on misuse of the simulation engine."""


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Ordering is (time, priority, seq): lower priority value fires first
    at equal times; seq preserves insertion order for full determinism.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Owning queue while the event is buried in its heap; the queue
    #: clears it on pop so late cancels don't corrupt the live count.
    _queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancel()


class EventQueue:
    """A priority queue of :class:`Event` with lazy cancellation.

    Internally the heap holds ``(time, priority, seq, event)`` tuples,
    so sift comparisons run on plain tuples at C speed instead of
    calling the dataclass ``__lt__`` — the SoC co-simulation's heap
    scheduler pushes and pops one event per arbitration round.

    ``len()``/``bool()`` are O(1): the queue keeps a live-event counter
    maintained at push/pop/cancel time.  Cancelled events stay buried
    in the heap until popped past, or until they outnumber live ones —
    then the heap is compacted in one pass.
    """

    #: Compact when cancelled events exceed this many *and* the live
    #: share of the heap drops below half.
    COMPACT_MIN_DEAD = 16

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._live = 0

    def push(self, time: float, callback: Callable[[], None], *,
             priority: int = 0, name: str = "") -> Event:
        seq = next(self._seq)
        event = Event(time=time, priority=priority, seq=seq,
                      callback=callback, name=name)
        event._queue = self
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            event._queue = None
            if not event.cancelled:
                self._live -= 1
                return event
        return None

    def peek(self) -> Optional[Event]:
        """The next live event without popping it, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._queue = None
        return heap[0][3] if heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without popping it."""
        event = self.peek()
        return event.time if event is not None else None

    def _note_cancel(self) -> None:
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > self.COMPACT_MIN_DEAD and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop buried cancelled events and re-heapify in one pass."""
        for entry in self._heap:
            if entry[3].cancelled:
                entry[3]._queue = None
        self._heap = [entry for entry in self._heap
                      if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


class Simulator:
    """Event loop with a monotonically advancing clock.

    Time units are whatever the caller chooses (the scheduling layer uses
    abstract time units; latency analysis uses microseconds).
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self._running = False
        self.events_processed = 0

    def at(self, time: float, callback: Callable[[], None], *,
           priority: int = 0, name: str = "") -> Event:
        """Schedule ``callback`` at absolute ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} < now {self.now}")
        return self.queue.push(time, callback, priority=priority, name=name)

    def after(self, delay: float, callback: Callable[[], None], *,
              priority: int = 0, name: str = "") -> Event:
        """Schedule ``callback`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, callback,
                       priority=priority, name=name)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final simulation time."""
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            fired = 0
            while True:
                next_time = self.queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = until
                    break
                if max_events is not None and fired >= max_events:
                    break
                event = self.queue.pop()
                assert event is not None
                self.now = event.time
                event.callback()
                self.events_processed += 1
                fired += 1
        finally:
            self._running = False
        return self.now

    def spawn(self, generator: Generator[float, None, Any], *,
              name: str = "") -> "Process":
        """Run a generator-based process; each yielded value is a delay."""
        return Process(self, generator, name=name)


class Process:
    """Generator-driven coroutine: ``yield delay`` sleeps for ``delay``.

    The process starts immediately (its first segment runs at spawn time's
    next event boundary, i.e. scheduled with zero delay).
    """

    def __init__(self, sim: Simulator,
                 generator: Generator[float, None, Any], *, name: str = ""):
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self._pending: Optional[Event] = None
        self._pending = sim.after(0.0, self._step, name=name or "process")

    def _step(self) -> None:
        self._pending = None
        try:
            delay = next(self.generator)
        except StopIteration as stop:
            self.finished = True
            self.result = getattr(stop, "value", None)
            return
        if delay < 0:
            raise SimulationError(
                f"process {self.name!r} yielded negative delay {delay}")
        self._pending = self.sim.after(delay, self._step,
                                       name=self.name or "process")

    def cancel(self) -> None:
        """Stop the process before its next step."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self.finished = True


def run_all(sim: Simulator, processes: Iterable[Process],
            until: Optional[float] = None) -> float:
    """Convenience: run ``sim`` until done and assert processes finished."""
    end = sim.run(until=until)
    for proc in processes:
        if not proc.finished and until is None:
            raise SimulationError(
                f"process {proc.name!r} did not finish by simulation end")
    return end
