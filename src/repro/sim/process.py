"""Periodic processes on top of the event engine."""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SimulationError
from .engine import Engine
from .events import Event

TickCallback = Callable[[float], None]


class PeriodicProcess:
    """A fixed-rate process, e.g. the per-tick hazard-failure sampler.

    The callback receives the current simulation time.  Returning normally
    reschedules the next tick; calling :meth:`stop` (from inside the
    callback or outside) halts the process.
    """

    def __init__(self, engine: Engine, period_s: float,
                 callback: TickCallback, *, start_at: Optional[float] = None,
                 priority: int = 0, name: str = "periodic") -> None:
        if period_s <= 0:
            raise SimulationError("period must be positive")
        self._engine = engine
        self._period = period_s
        self._callback = callback
        self._priority = priority
        self._name = name
        self._stopped = False
        self._ticks = 0
        first = engine.now if start_at is None else start_at
        self._pending: Optional[Event] = engine.schedule_at(
            first, self._fire, priority=priority, name=name)

    @property
    def ticks(self) -> int:
        """Number of times the callback has fired."""
        return self._ticks

    @property
    def period_s(self) -> float:
        """Tick period in seconds."""
        return self._period

    def _fire(self, event: Event) -> None:
        if self._stopped:
            return
        self._callback(self._engine.now)
        self._ticks += 1
        if not self._stopped:
            self._pending = self._engine.schedule_after(
                self._period, self._fire, priority=self._priority,
                name=self._name)

    def stop(self) -> None:
        """Halt the process; any queued tick is cancelled."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
