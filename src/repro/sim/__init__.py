"""Event-driven simulation kernel.

This subpackage is the reproduction's stand-in for DCsim, the event-driven
datacenter simulator the paper uses for its scale-out study:

* :class:`~repro.sim.engine.Engine` -- one stable heap of timestamped
  :class:`~repro.sim.engine.Event` callbacks, its clock and its dispatch
  counter.  Fault events (scripted faults, repairs, the hazard draws)
  are the only events on it; the tick drivers in :mod:`repro.kernel`
  drain them at tick boundaries;
* :class:`~repro.sim.rng.RngStreams` -- named, independently seeded random
  streams so that adding randomness to one subsystem never perturbs
  another.
"""

from .engine import Engine, Event
from .rng import RngStreams

__all__ = ["Engine", "Event", "RngStreams"]
