"""The two tick drivers every simulation runs on.

The model advances one scheduler tick per trace step: placement,
air-node relaxation, PCM enthalpy integration, estimator update, and
metrics recording.  Batch, restored and live runs all advance through
one segment loop,
:meth:`~repro.cluster.simulation.ClusterSimulation._advance`: it runs
ticks in segments that end at each checkpoint tick, picks the driver
for each segment from what the run needs, and writes the checkpoint
between segments, after the tick is counted.  There is nothing to
configure:

* :mod:`.planned` -- batched kernel for every clean open-loop segment
  (:func:`.planned.plannable`): VMT-TA at any grouping value and
  round-robin, whose placement never reads thermal feedback, so any
  span of ticks whose rows are known is plannable up front -- from
  tick 0, or from the tick a snapshot restored (checkpoint resumes, MPC
  shadow simulations); a checkpointing run between two writes; a live
  run one decision or checkpoint interval at a time;
* :mod:`.stepped` -- every other segment: the per-tick chain
  (``Scheduler.place`` -> ``Cluster.advance`` ->
  ``MetricsCollector.fill_block``) called once per tick with one row,
  all policies, faults, telemetry, sanitizer, observers and live rows
  included.  Fault events are the only events left on the engine; the
  driver drains them at tick boundaries.

Both drivers run the same physics and metrics stages, a planned segment
as one block and a stepped tick as a block of one row, so they are
bit-identical: same RNG stream consumption, same IEEE-754 operation
order per element, same recorded series --
``SimulationResult.fingerprint()`` is the enforced contract (see
``tests/test_kernel_equivalence.py``).

The ``backend`` keyword that used to choose between an event-heap loop
and these drivers selects nothing any more; every surface still accepts
and validates it (:func:`check_backend`), and ``REPRO_BACKEND`` is
ignored.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError

#: Values the retired ``backend`` keyword still accepts.
BACKENDS = ("reference", "fast")


def check_backend(backend: Optional[str]) -> None:
    """Validate the retired ``backend`` keyword, which selects nothing.

    ``None`` and every name in :data:`BACKENDS` are accepted; anything
    else raises :class:`~repro.errors.ConfigurationError`, as it did
    while the keyword chose a tick loop.
    """
    if backend is not None and backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {', '.join(BACKENDS)}; "
            f"got {backend!r}")


def is_numba_available() -> bool:
    """Retired: always ``False``.

    The numba-compiled physics loop is gone; every run takes the numpy
    block stage (:meth:`~repro.cluster.cluster.Cluster.advance`).  Run
    provenance still records the answer.
    """
    return False
