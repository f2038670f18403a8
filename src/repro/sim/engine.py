"""The discrete-event engine: clock, scheduling, and run loop."""

from __future__ import annotations

from typing import Any

from ..errors import SimulationError
from .events import Event, EventCallback, EventQueue


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
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
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
        """Number of live (non-cancelled) events still queued."""
        return self._queue.live_count

    def schedule_at(self, time: float, callback: EventCallback, *,
                    priority: int = 0, name: str = "",
                    payload: Any = None) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}")
        return self._queue.push(
            Event(time=time, callback=callback, priority=priority,
                  name=name, payload=payload))

    def schedule_after(self, delay: float, callback: EventCallback, *,
                       priority: int = 0, name: str = "",
                       payload: Any = None) -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback,
                                priority=priority, name=name, payload=payload)

    def run_until(self, end_time: float) -> None:
        """Dispatch all events with ``time <= end_time`` in order.

        The clock is left at ``end_time`` when the queue drains (or only
        later events remain), matching the usual discrete-event
        convention.  When :meth:`stop` halts the loop early, undispatched
        events may remain before ``end_time``, so the clock stays at the
        last dispatched event's time instead of jumping ahead of them.
        """
        if end_time < self._now:
            raise SimulationError("end_time is in the past")
        if self._running:
            raise SimulationError(
                "run_until called re-entrantly from inside an event")
        self._running = True
        stopped_early = False
        try:
            while True:
                if not self._running:
                    stopped_early = True
                    break
                next_time = self._queue.peek_time()
                if next_time is None or next_time > end_time:
                    break
                event = self._queue.pop()
                self._now = event.time
                event.fire()
                self._dispatched += 1
        finally:
            self._running = False
        if not stopped_early:
            self._now = max(self._now, end_time)

    def advance_to(self, end_time: float) -> None:
        """Incrementally advance the clock to ``end_time``.

        The re-entrant spelling of :meth:`run_until` for live/streaming
        drivers that feed the engine one slice of time per arrival.  Each
        call dispatches exactly the events one big ``run_until`` over the
        same span would have, and the stop()/clock-jump contract holds
        *per call*: a :meth:`stop` inside a callback leaves the clock at
        the last dispatched event (undispatched events before
        ``end_time`` stay queued), and the next ``advance_to`` resumes
        from there -- including re-advancing to the same ``end_time`` to
        drain what the stop left behind.  ``end_time == now`` is legal
        and dispatches any events scheduled exactly at ``now``.
        """
        self.run_until(end_time)

    def run(self) -> None:
        """Dispatch every queued event (the queue must be finite)."""
        self._running = True
        try:
            while self._running and self._queue.peek_time() is not None:
                event = self._queue.pop()
                self._now = event.time
                event.fire()
                self._dispatched += 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._running = False

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero."""
        self._queue.clear()
        self._now = 0.0
        self._dispatched = 0

    # -- snapshot protocol -------------------------------------------------

    def state_dict(self) -> dict:
        """Clock and dispatch counter (events are not serializable).

        The event queue holds live callbacks, so it is deliberately not
        part of this state: snapshots are only taken at quiescent tick
        boundaries where every pending event is reconstructable from
        configuration (scripted fault events, the hazard process, pending
        auto-repairs -- each owner re-schedules its own on restore).
        """
        return {"now_s": self._now, "dispatched": self._dispatched}

    def load_state_dict(self, state: dict) -> None:
        """Restore the clock; the queue must be empty (fresh engine)."""
        if len(self._queue) != 0:
            raise SimulationError(
                "cannot restore engine state over a non-empty event queue")
        self._now = float(state["now_s"])
        self._dispatched = int(state["dispatched"])

    def register_metrics(self, registry) -> None:
        """Publish engine gauges on a :class:`~repro.obs.registry.MetricRegistry`."""
        registry.gauge("engine.events_dispatched",
                       lambda: float(self._dispatched))
        registry.gauge("engine.pending_events",
                       lambda: float(self._queue.live_count))
