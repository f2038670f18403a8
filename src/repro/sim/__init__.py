"""Event-driven simulation kernel.

This subpackage is the reproduction's stand-in for DCsim, the event-driven
datacenter simulator the paper uses for its scale-out study.  It provides a
minimal but complete discrete-event engine:

* :class:`~repro.sim.events.Event` and
  :class:`~repro.sim.events.EventQueue` -- a stable priority queue of
  timestamped callbacks;
* :class:`~repro.sim.engine.Engine` -- the clock and run loop;
* :class:`~repro.sim.process.PeriodicProcess` -- fixed-rate processes such
  as the per-tick hazard-failure sampler;
* :class:`~repro.sim.rng.RngStreams` -- named, independently seeded random
  streams so that adding randomness to one subsystem never perturbs
  another.
"""

from .engine import Engine
from .events import Event, EventQueue
from .process import PeriodicProcess
from .rng import RngStreams

__all__ = ["Engine", "Event", "EventQueue", "PeriodicProcess", "RngStreams"]
