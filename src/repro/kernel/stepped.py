"""The per-tick driver: every segment the planned kernel does not take.

One scheduler tick per trace step, each a direct call of
``ClusterSimulation._tick`` -- the per-tick chain ``Scheduler.place`` ->
``Cluster.advance`` -> ``MetricsCollector.fill_block``, each physics and
metrics call over a block of one row -- at ``now +=
step_seconds`` accumulated in float from the run's start (``k *
step_seconds`` on a run restored at tick ``k``, or after a planned
segment that ended there), the times the fault injector's hazard draws
accumulate too.  The driver keeps the engine's clock and dispatch
counter by hand, one dispatch per tick, as the planned kernel does, so
the snapshots ``ClusterSimulation._advance`` writes between segments,
and post-run state, read the same on every path.

Fault events are the only events on the engine.  When a fault injector
is attached, the driver runs the engine up to each tick's time before
firing the tick, so every scripted fault, repair, and hazard draw at or
before it lands first, and :func:`drain` runs it up to the end of the
run once the last tick has fired.

The scheduler's allocation is validated once by ``Scheduler.place`` and
then trusted (``Cluster.step`` is the validated one-row call).  The
physics and metrics are the planned kernel's stages with one row, so
bit-identity is by construction for every policy, with faults,
telemetry, checkpoints, sanitizer levels, observers, live rows, and
restored runs all supported.
"""

from __future__ import annotations


def advance(sim, t1: int) -> None:
    """Fire ticks ``[t0, t1)`` of ``sim``, where ``t0`` is its next tick.

    The caller checks that the rows have arrived
    (:meth:`~repro.cluster.simulation.ClusterSimulation._advance`).
    """
    engine = sim._engine
    step_s = sim._trace.step_seconds
    tick = sim._tick
    faults = sim._injector is not None
    now = sim._next_tick_s
    for _ in range(sim._step_index, t1):
        if faults:
            engine.run_until(now)
        else:
            engine._now = now
        tick(now)
        engine._dispatched += 1
        now += step_s
        sim._next_tick_s = now


def drain(sim) -> None:
    """Close the run's span: engine clock to just before its end.

    Fault events after the last tick but inside the span fire here, as
    they did before the end of the run.
    """
    end = sim._trace.num_steps * sim._trace.step_seconds - 1e-9
    engine = sim._engine
    if sim._injector is not None:
        engine.run_until(end)
    else:
        engine._now = max(engine._now, end)
