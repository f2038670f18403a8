"""The discrete-event engine: one heap of timestamped callbacks and a clock."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, List

from ..errors import SimulationError

EventCallback = Callable[["Event"], None]


@dataclass
class Event:
    """One queued callback, fired as ``callback(event)`` at ``time``."""

    time: float
    callback: EventCallback
    priority: int = 0
    name: str = ""
    payload: Any = None


class Engine:
    """A deterministic discrete-event simulation engine.

    Time is in seconds.  Events are dispatched strictly in non-decreasing
    time order; ties break by event priority, then by scheduling order.

    Example::

        engine = Engine()
        engine.schedule_at(60.0, lambda ev: print("one minute in"))
        engine.run_until(3600.0)
    """

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._dispatched = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_dispatched(self) -> int:
        """Total events fired since construction (for diagnostics)."""
        return self._dispatched

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def schedule_at(self, time: float, callback: EventCallback, *,
                    priority: int = 0, name: str = "",
                    payload: Any = None) -> Event:
        """Queue ``callback`` at absolute simulation time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}")
        event = Event(time=time, callback=callback, priority=priority,
                      name=name, payload=payload)
        heapq.heappush(self._heap,
                       (time, priority, next(self._counter), event))
        return event

    def cancel(self, event: Event) -> None:
        """Remove ``event`` from the queue (a no-op once it has fired)."""
        self._heap[:] = [entry for entry in self._heap
                         if entry[3] is not event]
        heapq.heapify(self._heap)

    def run_until(self, end_time: float) -> None:
        """Dispatch every event with ``time <= end_time`` in order, then
        leave the clock at ``end_time``."""
        if not end_time >= self._now:
            raise SimulationError("end_time is in the past")
        heap = self._heap
        while heap and heap[0][0] <= end_time:
            event = heapq.heappop(heap)[3]
            self._now = event.time
            event.callback(event)
            self._dispatched += 1
        self._now = end_time

    def advance_to(self, end_time: float) -> None:
        """Alias of :meth:`run_until`, kept because ``perfbench`` wraps
        both names."""
        self.run_until(end_time)

    # -- snapshot protocol -------------------------------------------------

    def state_dict(self) -> dict:
        """Clock and dispatch counter (events are not serializable).

        The queue holds live callbacks, so it is deliberately not part of
        this state: snapshots are only taken at quiescent tick boundaries,
        where the fault injector can rebuild every pending event from its
        configuration and its own state on restore.
        """
        return {"now_s": self._now, "dispatched": self._dispatched}

    def load_state_dict(self, state: dict) -> None:
        """Restore the clock; the queue must be empty (fresh engine)."""
        if self._heap:
            raise SimulationError(
                "cannot restore engine state over a non-empty event queue")
        self._now = float(state["now_s"])
        self._dispatched = int(state["dispatched"])

    def register_metrics(self, registry) -> None:
        """Publish engine gauges on a :class:`~repro.obs.registry.MetricRegistry`."""
        registry.gauge("engine.events_dispatched",
                       lambda: float(self._dispatched))
        registry.gauge("engine.pending_events",
                       lambda: float(len(self._heap)))
