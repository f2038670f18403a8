"""Timestamped events and the simulation event queue."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from ..errors import SimulationError

EventCallback = Callable[["Event"], None]


@dataclass(order=False)
class Event:
    """A single scheduled callback.

    Events compare by ``(time, priority, sequence)``; the sequence number
    is assigned by the queue so events scheduled at the same time and
    priority fire in insertion order (a stable queue keeps the simulation
    deterministic).
    """

    time: float
    callback: EventCallback
    priority: int = 0
    name: str = ""
    payload: Any = None
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue drops it instead of firing it."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (no-op when cancelled)."""
        if not self.cancelled:
            self.callback(self)


class EventQueue:
    """A stable min-heap of :class:`Event` objects keyed by time."""

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> Event:
        """Insert an event and return it (for later cancellation)."""
        if event.time < 0:
            raise SimulationError("cannot schedule an event before time 0")
        heapq.heappush(
            self._heap, (event.time, event.priority, next(self._counter), event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises :class:`SimulationError` when the queue is empty.
        """
        while self._heap:
            __, __, __, event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        raise SimulationError("event queue is empty")

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the next live event, or ``None``."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    @property
    def live_count(self) -> int:
        """Number of non-cancelled events still queued.

        ``len(queue)`` counts tombstones left behind by :meth:`Event.cancel`;
        this walks the heap and counts only events that will actually fire.
        Queues here are small (fault events only), so the
        linear scan is fine.
        """
        return sum(1 for *_, event in self._heap if not event.cancelled)

    def live_events(self) -> List[Event]:
        """The non-cancelled events in dispatch order (for snapshots)."""
        return [entry[3] for entry in sorted(self._heap)
                if not entry[3].cancelled]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
