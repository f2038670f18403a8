"""Schedules failure, sensor, and cooling events on the event engine.

The injector turns a :class:`~repro.config.FaultConfig` scenario into
engine events that mutate a shared :class:`~repro.faults.state.FaultState`:

* **scripted faults** fire deterministically at their configured times;
* **hazard failures** are sampled every tick from the Section IV-D
  reliability model evaluated at each server's *current* air temperature,
  so hot-group servers really do fail more often -- the closed loop the
  paper only estimates analytically.

Fault events are the only events on the engine.  The per-tick driver
(:mod:`repro.kernel.stepped`) runs the engine up to each scheduler
tick's time before firing the tick, so at a shared timestamp they fire
first: a scheduler never places work on a server that died "this
minute".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import SimulationConfig
from ..errors import FaultInjectionError
from ..obs.tracer import NULL_TRACER
from ..server.reliability import ReliabilityModel
from ..sim.engine import Engine
from ..sim.process import PeriodicProcess
from ..sim.rng import RngStreams

#: Priority of fault events on the engine (ahead of priority-0 events
#: at the same timestamp).
FAULT_EVENT_PRIORITY = -10

#: Seconds per hour (hazard rates are per hour).
_SECONDS_PER_HOUR = 3600.0


class FaultInjector:
    """Drives a fault scenario against one cluster simulation."""

    def __init__(self, config: SimulationConfig, *,
                 rng_streams: Optional[RngStreams] = None,
                 reliability: Optional[ReliabilityModel] = None) -> None:
        config.validate()
        self._config = config
        self._fault_cfg = config.faults
        streams = rng_streams if rng_streams is not None \
            else RngStreams(config.seed)
        self._rng = streams.stream("fault-injector")
        self._reliability = reliability if reliability is not None \
            else ReliabilityModel(
                mtbf_hours_at_ref=config.faults.mtbf_hours)
        # Imported here to avoid a cycle: faults.state imports config only.
        from .state import FaultState
        self._state = FaultState(config)
        self._cluster = None
        self._hazard_process: Optional[PeriodicProcess] = None
        self._tracer = NULL_TRACER
        # Hazard auto-repairs are scheduled dynamically (unlike scripted
        # events they cannot be re-derived from the config), so their
        # (absolute time, server) pairs are tracked for snapshots.
        self._pending_auto_repairs: list = []

    @property
    def state(self):
        """The live :class:`~repro.faults.state.FaultState`."""
        return self._state

    @property
    def reliability(self) -> ReliabilityModel:
        """The hazard model sampled for random failures."""
        return self._reliability

    # -- wiring -------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Emit fault onset/recovery events on ``tracer`` from now on."""
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def register_metrics(self, registry) -> None:
        """Publish fault-state gauges on a :class:`~repro.obs.registry.MetricRegistry`."""
        registry.gauge("faults.active_servers",
                       lambda: float(self._state.num_active))
        registry.gauge("faults.availability",
                       lambda: float(self._state.availability))
        registry.gauge("faults.cooling_factor",
                       lambda: float(self._state.cooling_factor))
        registry.gauge("faults.sensor_faults",
                       lambda: float(self._state.sensor_fault_count))

    def attach(self, engine: Engine, cluster) -> None:
        """Register the scenario's events on a simulation's engine."""
        if self._cluster is not None:
            raise FaultInjectionError(
                "fault injector is already attached to a simulation")
        self._cluster = cluster
        self._schedule_scripted(engine, after_s=None)
        if (self._fault_cfg.hazard_failures
                and self._fault_cfg.hazard_acceleration > 0):
            self._hazard_process = PeriodicProcess(
                engine, self._config.trace.step_seconds,
                self._hazard_tick, priority=FAULT_EVENT_PRIORITY,
                name="fault-hazard")
        self._engine = engine

    def reattach(self, engine: Engine, cluster, *,
                 next_tick_s: float) -> None:
        """Re-register events on a restored simulation's engine.

        The snapshot does not serialize event callbacks, so the injector
        rebuilds its queue entries: scripted events strictly after the
        engine clock (earlier ones already fired and live on in the
        restored :class:`FaultState`), the snapshot's pending hazard
        auto-repairs, and the hazard process aligned to the next
        scheduler tick at ``next_tick_s``.
        """
        if self._cluster is not None:
            raise FaultInjectionError(
                "fault injector is already attached to a simulation")
        self._cluster = cluster
        # Events at or before the restored clock already fired -- their
        # effects live in the restored FaultState.  The one exception is
        # a tick-0 snapshot (nothing dispatched yet): there, even t=0
        # events are still pending.
        after_s = engine.now if engine.events_dispatched > 0 else None
        self._schedule_scripted(engine, after_s=after_s)
        for time_s, server_id in self._pending_auto_repairs:
            engine.schedule_at(
                float(time_s), self._fire_server_repair,
                priority=FAULT_EVENT_PRIORITY,
                name=f"repair-server-{server_id}",
                payload=int(server_id))
        if (self._fault_cfg.hazard_failures
                and self._fault_cfg.hazard_acceleration > 0):
            self._hazard_process = PeriodicProcess(
                engine, self._config.trace.step_seconds,
                self._hazard_tick, start_at=next_tick_s,
                priority=FAULT_EVENT_PRIORITY, name="fault-hazard")
        self._engine = engine

    def _schedule_scripted(self, engine: Engine,
                           after_s: Optional[float]) -> None:
        """Schedule the config's deterministic events on ``engine``.

        With ``after_s`` set, events at or before that time are skipped
        -- they already fired before the snapshot was taken.
        """
        def schedule(time_s, callback, name, payload):
            if after_s is not None and time_s <= after_s:
                return
            engine.schedule_at(time_s, callback,
                               priority=FAULT_EVENT_PRIORITY,
                               name=name, payload=payload)

        for spec in self._fault_cfg.server_faults:
            schedule(spec.time_s, self._fire_server_fault,
                     f"fail-server-{spec.server_id}", spec)
            if spec.repair_after_s is not None:
                schedule(spec.time_s + spec.repair_after_s,
                         self._fire_server_repair,
                         f"repair-server-{spec.server_id}",
                         spec.server_id)

        for spec in self._fault_cfg.sensor_faults:
            schedule(spec.time_s, self._fire_sensor_fault,
                     f"{spec.sensor}-sensor-{spec.mode}-{spec.server_id}",
                     spec)
            if spec.clear_after_s is not None:
                schedule(spec.time_s + spec.clear_after_s,
                         self._fire_sensor_clear,
                         f"{spec.sensor}-sensor-clear-{spec.server_id}",
                         spec)

        for spec in self._fault_cfg.cooling_faults:
            schedule(spec.time_s, self._fire_cooling_derate,
                     f"cooling-derate-{spec.capacity_factor:g}",
                     spec.capacity_factor)
            if spec.restore_after_s is not None:
                schedule(spec.time_s + spec.restore_after_s,
                         self._fire_cooling_derate,
                         "cooling-restore", 1.0)

    def detach(self) -> None:
        """Stop the hazard process (scripted events stay scheduled)."""
        if self._hazard_process is not None:
            self._hazard_process.stop()
            self._hazard_process = None

    # -- snapshot protocol ---------------------------------------------------

    def state_dict(self) -> dict:
        """Hazard RNG position, pending auto-repairs, and fault state.

        The injector's RNG is captured here (not only via the shared
        stream registry) because an injector passed in explicitly owns a
        private :class:`RngStreams` the simulation cannot see.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "pending_auto_repairs": [[float(t), int(s)]
                                     for t, s in
                                     self._pending_auto_repairs],
            "state": self._state.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
        self._pending_auto_repairs = [
            (float(t), int(s))
            for t, s in state["pending_auto_repairs"]]
        self._state.load_state_dict(state["state"])

    # -- event callbacks ----------------------------------------------------

    def _fire_server_fault(self, event) -> None:
        spec = event.payload
        if not self._state.active[spec.server_id]:
            # Already down: a hazard failure (drawn at run time, so no
            # config check can rule this out) or an earlier scripted
            # fault took it.  Nothing more fails; the fault's scripted
            # repair still fires.
            return
        self._state.fail_server(spec.server_id, event.time)
        if self._tracer.enabled:
            self._tracer.event("fault-onset", event.time,
                               server=spec.server_id, cause="scripted")

    def _fire_server_repair(self, event) -> None:
        self._state.repair_server(event.payload)
        entry = (float(event.time), int(event.payload))
        if entry in self._pending_auto_repairs:
            self._pending_auto_repairs.remove(entry)
        if self._tracer.enabled:
            self._tracer.event("fault-recovery", event.time,
                               server=int(event.payload))

    def _fire_sensor_fault(self, event) -> None:
        spec = event.payload
        bank = (self._state.air_faults if spec.sensor == "air"
                else self._state.wax_faults)
        bank.set_fault(spec.server_id, spec.mode, time_s=event.time,
                       drift_per_hour=spec.drift_c_per_hour,
                       stuck_value=spec.stuck_value_c)
        self._state.sensor_fault_count += 1
        if self._tracer.enabled:
            self._tracer.event("sensor-fault", event.time,
                               server=spec.server_id, sensor=spec.sensor,
                               mode=spec.mode)

    def _fire_sensor_clear(self, event) -> None:
        spec = event.payload
        bank = (self._state.air_faults if spec.sensor == "air"
                else self._state.wax_faults)
        bank.clear_fault(spec.server_id)
        if self._tracer.enabled:
            self._tracer.event("sensor-fault-cleared", event.time,
                               server=spec.server_id, sensor=spec.sensor)

    def _fire_cooling_derate(self, event) -> None:
        self._state.set_cooling_factor(event.payload)
        if self._tracer.enabled:
            self._tracer.event("cooling-derate", event.time,
                               factor=float(event.payload))

    # -- temperature-dependent random failures ------------------------------

    def _hazard_tick(self, now_s: float) -> None:
        """Sample per-server failures from the temperature hazard.

        The per-tick failure probability is
        ``rate(T_i) * acceleration * dt`` -- the exact thinning of the
        inhomogeneous failure process at the tick resolution.  One
        uniform is drawn per server every tick regardless of who is
        alive, so the stream stays aligned across scenarios.
        """
        cluster = self._cluster
        temps = cluster.air_temp_c
        rates = self._reliability.failure_rate_per_hour(temps)
        dt_h = self._config.trace.step_seconds / _SECONDS_PER_HOUR
        prob = rates * self._fault_cfg.hazard_acceleration * dt_h
        draws = self._rng.uniform(size=self._state.num_servers)
        doomed = np.flatnonzero(self._state.active & (draws < prob))
        for server_id in doomed:
            self._state.fail_server(int(server_id), now_s)
            if self._tracer.enabled:
                self._tracer.event("fault-onset", now_s,
                                   server=int(server_id), cause="hazard")
            if self._fault_cfg.auto_repair:
                repair_at = now_s + self._fault_cfg.repair_time_s
                self._pending_auto_repairs.append(
                    (float(repair_at), int(server_id)))
                self._engine.schedule_at(
                    repair_at,
                    self._fire_server_repair,
                    priority=FAULT_EVENT_PRIORITY,
                    name=f"repair-server-{server_id}",
                    payload=int(server_id))
