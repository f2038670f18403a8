"""The per-tick driver: every segment the planned kernel does not take.

One scheduler tick per trace step, each a direct call of
``ClusterSimulation._tick`` -- the per-tick chain ``Scheduler.place`` ->
``Cluster.step`` -> ``MetricsCollector.record`` -- at the simulated time
a periodic process would fire it: ``now += step_seconds`` accumulated
in float from the run's start (``k * step_seconds`` on a run restored at
tick ``k``, or after a planned segment that ended there).  The driver
keeps the engine's clock and dispatch counter by hand, one dispatch per
tick, as the planned kernel does, so the snapshots
``ClusterSimulation._advance`` writes between segments, and post-run
state, read the same on every path.

Fault events are the only events on the engine.  When a fault injector
is attached, the driver runs the engine up to each tick's time before
firing the tick, so every scripted fault, repair, and hazard draw at or
before it lands first (fault events outrank ticks at a shared
timestamp), and :func:`drain` runs it up to the end of the run once the
last tick has fired.

The scheduler's allocation is validated once by ``Scheduler.place`` and
then trusted -- ``Cluster.step``'s re-validation of the same array is
skipped when no sanitizer is attached (``Cluster._validate``).  Error
paths aside, the arithmetic is the per-tick chain itself, so
bit-identity is by construction for every policy, with faults,
telemetry, checkpoints, sanitizer levels, observers, live rows, and
restored runs all supported.
"""

from __future__ import annotations


def advance(sim, t1: int) -> None:
    """Fire ticks ``[t0, t1)`` of ``sim``, where ``t0`` is its next tick.

    A tick whose row has not arrived in a live buffer raises
    :class:`~repro.errors.TraceError` from ``demand_at``, leaving the
    ticks before it run.
    """
    engine = sim._engine
    cluster = sim._cluster
    step_s = sim._trace.step_seconds
    tick = sim._tick
    faults = sim._injector is not None
    skip_validation = sim._sanitizer is None
    if skip_validation:
        cluster._validate = False
    now = sim._next_tick_s
    try:
        for _ in range(sim._step_index, t1):
            if faults:
                engine.run_until(now)
            else:
                engine._now = now
            tick(now)
            engine._dispatched += 1
            now += step_s
    finally:
        sim._next_tick_s = now
        if skip_validation:
            cluster._validate = True


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
