"""Wiring: trace + scheduler + cluster, driven one tick per trace step.

One :class:`ClusterSimulation` reproduces the paper's experimental loop:
every minute (the wax model's update period) the scheduler observes the
sensed cluster state, places the current demand, and the physical models
advance one tick; a metrics collector records the series the figures
need.  Batch, restored and live runs all advance through one segment
loop, :meth:`ClusterSimulation._advance`: each segment ends at a
checkpoint tick (or at the end of the span), takes the planned kernel
when the run is open-loop and clean and the per-tick driver otherwise
(:mod:`repro.kernel`), and the checkpoint is written between segments.

When the configuration carries an enabled
:class:`~repro.config.FaultConfig` (or a
:class:`~repro.faults.injector.FaultInjector` is passed explicitly), the
injector's events run on the discrete-event engine, drained at tick
boundaries: servers fail and recover, sensors corrupt, cooling derates
-- and the per-tick loop additionally tracks availability, displaced
jobs, and failure-to-replacement times.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Callable, List, Optional

import numpy as np

from ..config import SimulationConfig
from ..core.scheduler import Placement, Scheduler
from ..errors import SimulationError
from ..kernel import check_backend
from ..obs.telemetry import Telemetry, TelemetryLike
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from ..workloads.trace import TraceMatrix, TwoDayTrace
from .cluster import Cluster
from .metrics import MetricsCollector, Profile, SimulationResult, add_timing

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.registry import MetricRegistry
    from ..perf.runner import Deadline

#: Observer signature: (time_s, demand_vector, placement, cluster).
Observer = Callable[[float, np.ndarray, Placement, Cluster], None]


class ClusterSimulation:
    """A complete, runnable cluster experiment.

    Observers registered with :meth:`add_observer` are called after every
    tick with ``(time_s, demand, placement, cluster)`` -- the extension
    point for QoS monitoring, custom metrics, or live controllers.

    ``profile=True`` times the tick's sections
    (:func:`~repro.cluster.metrics.add_timing`) into one dict that lands
    on ``SimulationResult.profile``.
    """

    def __init__(self, config: SimulationConfig, scheduler: Scheduler, *,
                 trace: Optional[TraceMatrix] = None,
                 record_heatmaps: bool = True,
                 fault_injector: Optional["FaultInjector"] = None,
                 profile: bool = False,
                 telemetry: TelemetryLike = None,
                 checks: Optional[str] = None,
                 backend: Optional[str] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 deadline: Optional["Deadline"] = None) -> None:
        config.validate()
        check_backend(backend)  # retired: validated, selects nothing
        self._deadline = deadline
        self._kernel_path = "stepped"
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise SimulationError("checkpoint_every must be positive")
        if checkpoint_every is not None and checkpoint_dir is None:
            raise SimulationError(
                "checkpoint_every requires a checkpoint_dir")
        self._checkpoint_every = checkpoint_every
        self._checkpoint_dir = checkpoint_dir
        self._checkpoint_records: List[dict] = []
        self._restored = False
        if scheduler.config.num_servers != config.num_servers:
            raise SimulationError(
                "scheduler was built for a different cluster size")
        self._config = config
        self._streams = RngStreams(config.seed)
        if fault_injector is None and config.faults.enabled:
            from ..faults.injector import FaultInjector
            fault_injector = FaultInjector(config,
                                           rng_streams=self._streams)
        self._injector = fault_injector
        fault_state = (fault_injector.state
                       if fault_injector is not None else None)
        self._fault_state = fault_state
        self._telemetry = Telemetry.coerce(telemetry)
        if self._telemetry is not None and not self._telemetry.bound:
            self._telemetry.bind(
                f"{scheduler.name}-n{config.num_servers}"
                f"-seed{config.seed}",
                capacity=config.trace.num_steps)
        self._profile: Optional[Profile] = {} if profile else None
        self._cluster = Cluster(config, self._streams,
                                fault_state=fault_state)
        self._scheduler = scheduler
        if trace is None:
            trace = TwoDayTrace(config.trace).generate(
                config.num_servers, config.server.cores,
                rng=self._streams.stream("trace"))
        if trace.total_cores != config.total_cores:
            trace = trace.scaled_to(config.num_servers, config.server.cores)
        self._trace = trace
        self._metrics = MetricsCollector(record_heatmaps=record_heatmaps,
                                         capacity=trace.num_steps)
        self._engine = Engine()
        self._step_index = 0
        # When the per-tick driver fires the next tick (kernel.stepped).
        self._next_tick_s = 0.0
        self._streaming = False
        self._stream_wall_start = 0.0
        self._observers: List[Observer] = []
        self._last_allocation: Optional[np.ndarray] = None
        # Event-edge state for the tracer (previous-tick values).
        self._prev_hot_size: Optional[int] = None
        self._prev_above_threshold = False
        self._prev_degraded = False
        if self._telemetry is not None:
            registry = self._telemetry.registry
            self._engine.register_metrics(registry)
            self._scheduler.register_metrics(registry)
            self._cluster.register_metrics(registry)
            if self._injector is not None:
                self._injector.register_metrics(registry)
                self._injector.set_tracer(self._telemetry.tracer)
            self._obs_registry: Optional["MetricRegistry"] = registry
            self._obs_tracer = self._telemetry.tracer
        else:
            self._obs_registry = None
            self._obs_tracer = None
        # Imported lazily so the checks package (which imports the
        # scheduler classes) never participates in this module's import.
        from ..checks.sanitizer import (SimulationSanitizer,
                                        resolve_check_level)
        level = resolve_check_level(checks, scheduler.name)
        if level == "off":
            self._sanitizer: Optional[SimulationSanitizer] = None
        else:
            self._sanitizer = SimulationSanitizer(
                config=config, cluster=self._cluster,
                scheduler=scheduler, metrics=self._metrics,
                level=level, tracer=self._obs_tracer)
            if self._obs_registry is not None:
                self._sanitizer.register_metrics(self._obs_registry)

    @property
    def sanitizer(self) -> Optional["SimulationSanitizer"]:
        """The attached invariant sanitizer, or ``None`` (checks off)."""
        return self._sanitizer

    @property
    def kernel_path(self) -> str:
        """Which driver ran the last segment of :meth:`_advance`.

        ``planned`` when the planned kernel ran it, ``stepped`` otherwise
        (including before any tick has run).
        """
        return self._kernel_path

    def add_observer(self, observer: Observer) -> None:
        """Register a per-tick observer (see class docstring)."""
        self._observers.append(observer)

    @property
    def cluster(self) -> Cluster:
        """The physical cluster under simulation."""
        return self._cluster

    @property
    def trace(self) -> TraceMatrix:
        """The demand trace driving the run."""
        return self._trace

    @property
    def engine(self) -> Engine:
        """The discrete-event engine."""
        return self._engine

    @property
    def fault_injector(self) -> Optional["FaultInjector"]:
        """The attached fault injector, if any."""
        return self._injector

    def _displaced_this_tick(self) -> int:
        """Job-cores orphaned by failures since the previous tick."""
        if self._fault_state is None:
            return 0
        newly_failed = self._fault_state.drain_newly_failed()
        if not newly_failed or self._last_allocation is None:
            return 0
        return int(self._last_allocation[newly_failed].sum())

    def _notify_observers(self, demand: np.ndarray, placement) -> None:
        """Dispatch observers; a raising observer aborts the run loudly.

        Without the wrapper an exception from one observer would unwind
        through the tick driver mid-tick and leave the run silently
        truncated; instead it surfaces as a :class:`SimulationError`
        naming the culprit.
        """
        for observer in self._observers:
            try:
                observer(self._cluster.time_s, demand, placement,
                         self._cluster)
            except Exception as exc:
                name = getattr(observer, "__qualname__",
                               getattr(observer, "__name__",
                                       repr(observer)))
                raise SimulationError(
                    f"observer {name} raised {type(exc).__name__}: {exc}"
                ) from exc

    def _emit_tick_events(self, now_s: float, demand: np.ndarray,
                          placement: Placement, tick_start: float) -> None:
        """Emit the per-tick trace span plus edge-triggered events.

        Reads only ground-truth views and already-computed placement
        state, so emission can never perturb the simulated physics.
        """
        tracer = self._obs_tracer
        tracer.span("tick", now_s, time.perf_counter() - tick_start,
                    step=self._step_index, jobs=int(demand.sum()))
        hot = placement.hot_group_mask
        hot_size = int(hot.sum()) if hot is not None else None
        tracer.event("placement", now_s, jobs=placement.jobs_placed,
                     hot_group=hot_size)
        if hot_size is not None:
            if (self._prev_hot_size is not None
                    and hot_size != self._prev_hot_size):
                tracer.event("group-resize", now_s,
                             prev=self._prev_hot_size, size=hot_size)
            self._prev_hot_size = hot_size
        threshold = self._config.scheduler.wax_threshold
        above = int(np.count_nonzero(
            self._cluster.wax_melt_fraction_view >= threshold))
        if (above > 0) != self._prev_above_threshold:
            tracer.event("wax-threshold-crossing", now_s,
                         direction="melted" if above > 0 else "cleared",
                         servers_above=above, threshold=threshold)
            self._prev_above_threshold = above > 0
        if not self._prev_degraded and getattr(self._scheduler,
                                               "degraded", False):
            tracer.event("vmt-wa-degraded", now_s,
                         hot_group=hot_size)
            self._prev_degraded = True

    def _tick(self, now_s: float) -> None:
        if self._deadline is not None:
            # Cooperative wall-clock budget: raises RunTimeout from inside
            # the tick, unwinding through the driver -- works on any
            # thread, unlike the SIGALRM scheme this replaced.
            self._deadline.check()
        prof = self._profile
        tick_start = (time.perf_counter()
                      if self._obs_tracer is not None
                      and self._obs_tracer.enabled else 0.0)
        demand = self._trace.demand_at(self._step_index)
        displaced = self._displaced_this_tick()
        view = self._cluster.view()
        mark = time.perf_counter() if prof is not None else 0.0
        placement = self._scheduler.place(demand, view)
        if prof is not None:
            add_timing(prof, "placement", time.perf_counter() - mark)
        sanitizer = self._sanitizer
        if sanitizer is not None:
            mark = time.perf_counter() if prof is not None else 0.0
            sanitizer.check_placement(self._step_index, now_s, demand,
                                      view, placement)
            if prof is not None:
                add_timing(prof, "checks", time.perf_counter() - mark)
        if self._fault_state is not None:
            # The full demand (including any displaced jobs) has been
            # re-placed on surviving servers: pending failures recovered.
            self._fault_state.note_recovered(now_s)
        block = self._cluster.advance(placement.allocation[np.newaxis],
                                      self._trace.step_seconds, prof)
        mark = time.perf_counter() if prof is not None else 0.0
        faults = self._fault_state
        self._metrics.fill_block(
            block, jobs=int(demand.sum()),
            hot_mask=placement.hot_group_mask,
            availability=1.0 if faults is None else faults.availability,
            displaced_jobs=displaced,
            cooling_capacity_factor=(1.0 if faults is None
                                     else faults.cooling_factor))
        if prof is not None:
            add_timing(prof, "metrics", time.perf_counter() - mark)
        if sanitizer is not None:
            mark = time.perf_counter() if prof is not None else 0.0
            sanitizer.check_state(self._step_index, now_s,
                                  self._trace.step_seconds)
            if prof is not None:
                add_timing(prof, "checks", time.perf_counter() - mark)
        if self._obs_registry is not None:
            self._obs_registry.snapshot_tick(self._cluster.time_s)
            if self._obs_tracer.enabled:
                self._emit_tick_events(now_s, demand, placement,
                                       tick_start)
        self._last_allocation = placement.allocation
        self._notify_observers(demand, placement)
        self._step_index += 1

    # -- checkpoint/resume ---------------------------------------------------

    def snapshot(self) -> "SimulationSnapshot":
        """Capture the complete run state at the current tick boundary.

        Valid between ticks (snapshots taken mid-callback would miss the
        in-flight tick); the checkpoint path calls it between two
        segments of :meth:`_advance`, after the last tick is counted,
        where the only live queue entries are reconstructable from
        configuration.
        """
        # Imported lazily: repro.state sits above the cluster layer.
        from ..obs.ledger import config_sha256, git_describe
        from ..state.snapshot import (SNAPSHOT_SCHEMA_VERSION,
                                      SimulationSnapshot)
        state = {
            "engine": self._engine.state_dict(),
            "streams": self._streams.state_dict(),
            "scheduler": self._scheduler.state_dict(),
            "cluster": self._cluster.state_dict(),
            "metrics": self._metrics.state_dict(),
            "faults": (self._injector.state_dict()
                       if self._injector is not None else None),
            "sim": {
                "last_allocation":
                    (None if self._last_allocation is None
                     else self._last_allocation.copy()),
                "prev_hot_size": self._prev_hot_size,
                "prev_above_threshold": self._prev_above_threshold,
                "prev_degraded": self._prev_degraded,
            },
        }
        if getattr(self._trace, "is_live", False):
            # Live runs carry the ingested demand prefix so a restored
            # process can treat the checkpoint as a state migration: the
            # buffer resumes exactly where ingestion left off.
            state["live"] = self._trace.state_dict()
        return SimulationSnapshot(
            schema=SNAPSHOT_SCHEMA_VERSION,
            tick=self._step_index,
            policy=self._scheduler.name.split("(")[0],
            scheduler_name=self._scheduler.name,
            record_heatmaps=self._metrics.record_heatmaps,
            config=self._config.to_dict(),
            config_sha256=config_sha256(self._config),
            trace_sha256=self._trace.fingerprint(),
            git_describe=git_describe(),
            state=state,
        )

    def restore(self, snapshot: "SimulationSnapshot", *,
                trace_check: bool = True) -> None:
        """Load a snapshot into this freshly constructed simulation.

        The simulation must have been built from the *same* experiment:
        config hash, scheduler name, trace fingerprint, heatmap setting,
        and fault-injector presence are all verified before any state is
        touched, so a stale checkpoint directory fails loudly instead of
        resuming the wrong run.  After a successful restore,
        :meth:`run` continues from the captured tick.

        ``trace_check=False`` skips the trace-fingerprint guard -- the
        escape hatch for MPC shadow simulations, which deliberately fork
        a live snapshot onto a *forecast* trace that diverges from the
        observed history beyond the fork point.
        """
        from ..errors import CheckpointError
        from ..obs.ledger import config_sha256

        if self._step_index != 0 or self._engine.events_dispatched != 0:
            raise CheckpointError(
                "restore() requires a freshly constructed simulation")
        own_sha = config_sha256(self._config)
        if snapshot.config_sha256 != own_sha:
            raise CheckpointError(
                "snapshot was taken under a different configuration "
                f"(config sha {snapshot.config_sha256[:12]} != "
                f"{own_sha[:12]})")
        if snapshot.scheduler_name != self._scheduler.name:
            raise CheckpointError(
                f"snapshot holds policy {snapshot.scheduler_name!r}, "
                f"this simulation runs {self._scheduler.name!r}")
        if (getattr(self._trace, "is_live", False)
                and "live" in snapshot.state):
            # Replaying the ingested prefix must happen before the
            # fingerprint guard: a live buffer's fingerprint covers its
            # filled rows, so a fresh (empty) buffer can only match the
            # snapshot after the captured prefix is loaded back.
            self._trace.load_state_dict(snapshot.state["live"])
        if trace_check and snapshot.trace_sha256 != self._trace.fingerprint():
            raise CheckpointError(
                "snapshot was taken against a different demand trace")
        if snapshot.record_heatmaps != self._metrics.record_heatmaps:
            raise CheckpointError(
                "snapshot and simulation disagree on record_heatmaps")
        has_faults = snapshot.state["faults"] is not None
        if has_faults != (self._injector is not None):
            raise CheckpointError(
                "snapshot and simulation disagree on fault injection")

        state = snapshot.state
        self._engine.load_state_dict(state["engine"])
        self._streams.load_state_dict(state["streams"])
        self._scheduler.load_state_dict(state["scheduler"])
        self._cluster.load_state_dict(state["cluster"])
        self._metrics.load_state_dict(state["metrics"])
        if self._injector is not None:
            self._injector.load_state_dict(state["faults"])
        sim_state = state["sim"]
        alloc = sim_state["last_allocation"]
        self._last_allocation = (
            None if alloc is None
            else np.asarray(alloc, dtype=np.int64).copy())
        hot = sim_state["prev_hot_size"]
        self._prev_hot_size = None if hot is None else int(hot)
        self._prev_above_threshold = bool(
            sim_state["prev_above_threshold"])
        self._prev_degraded = bool(sim_state["prev_degraded"])
        self._step_index = int(snapshot.tick)
        self._next_tick_s = self._step_index * self._trace.step_seconds
        self._restored = True

    def _write_checkpoint(self) -> None:
        """Serialize the current state into the checkpoint directory."""
        from ..state.checkpoint import checkpoint_path
        from ..state.snapshot import save_snapshot
        path = checkpoint_path(self._checkpoint_dir, self._step_index)
        manifest = save_snapshot(self.snapshot(), path)
        self._checkpoint_records.append({
            "tick": self._step_index,
            "file": os.path.abspath(path),
            "sha256": manifest["snapshot_sha256"],
        })

    @property
    def checkpoint_records(self) -> List[dict]:
        """Checkpoints written so far (tick, file, payload sha)."""
        return list(self._checkpoint_records)

    def run(self) -> SimulationResult:
        """Run the full trace and return the collected result.

        The ticks run through :meth:`_advance`: planned where the run is
        open-loop and clean (:mod:`repro.kernel.planned`), and otherwise
        on the per-tick driver (:mod:`repro.kernel.stepped`), which
        drains the fault injector's events at tick boundaries.

        With telemetry attached, the bundle is finished on the way out:
        the trace is flushed, metric columns saved, and the run manifest
        written -- none of which touches the returned result, so the
        fingerprint is bit-identical with telemetry on or off.

        On a restored simulation the scheduler is *not* reset (its
        mid-run state came from the snapshot) and the ticks and fault
        events re-align to the next unfinished tick.
        """
        from ..kernel import stepped
        wall_start = time.perf_counter()
        self._start()
        if self._injector is not None:
            self._injector.attach(self._engine, self._cluster,
                                  first_tick_s=self._next_tick_s)
        self._advance(self._trace.num_steps)
        stepped.drain(self)
        if self._injector is not None:
            self._injector.detach()
        return self._finish(wall_start)

    def _advance(self, t1: int) -> None:
        """Run the ticks before ``t1``, in segments that end at each
        checkpoint tick.

        The span's last row is read first, through the trace's own
        guard, so a span past a live buffer's arrival frontier raises
        :class:`~repro.errors.TraceError` before any state changes.  A
        segment is planned when :func:`repro.kernel.planned.plannable`
        holds, and fired tick by tick on the per-tick driver otherwise.
        A segment that ends on a checkpoint tick writes its snapshot
        after that tick's dispatch is counted.
        """
        from ..kernel import planned, stepped
        if self._step_index >= t1:
            return
        self._trace.demand_at(t1 - 1)
        every = self._checkpoint_every
        while self._step_index < t1:
            stop = t1
            if every is not None:
                stop = min(t1, (self._step_index // every + 1) * every)
            if planned.plannable(self, stop):
                planned.advance(self, stop)
                self._kernel_path = "planned"
            else:
                stepped.advance(self, stop)
                self._kernel_path = "stepped"
            if every is not None and stop % every == 0:
                self._write_checkpoint()

    def _start(self, **attrs) -> None:
        """The prologue a run and a stream share."""
        if not self._restored:
            self._scheduler.reset()
        if self._obs_tracer is not None and self._obs_tracer.enabled:
            self._obs_tracer.event(
                "run-start", self._engine.now,
                run_id=self._telemetry.run_id,
                scheduler=self._scheduler.name,
                servers=self._config.num_servers,
                ticks=self._trace.num_steps, **attrs)

    def _finish(self, wall_start: float) -> SimulationResult:
        """The epilogue a run and a stream share: result, then telemetry."""
        result = self._metrics.finish(
            self._config, self._scheduler.name,
            recovery_times_s=(self._fault_state.recovery_times_s
                              if self._injector is not None else None),
            profile=self._profile)
        if self._telemetry is not None:
            if self._obs_tracer.enabled:
                self._obs_tracer.event("run-end", self._cluster.time_s,
                                       fingerprint=result.fingerprint())
            self._telemetry.finish(
                config=self._config,
                scheduler_name=self._scheduler.name,
                result=result,
                trace_sha256=self._trace.fingerprint(),
                wall_clock_s=time.perf_counter() - wall_start,
                checkpoints=(self._checkpoint_records or None))
        return result

    # -- streaming (live) mode ---------------------------------------------

    def begin_streaming(self) -> None:
        """Start a run for incremental, no-lookahead driving.

        The streaming spelling of :meth:`run`'s prologue: the caller (a
        :class:`~repro.live.LiveRunner`) feeds demand rows into the live
        trace buffer and calls :meth:`advance_stream` at each decision
        and checkpoint tick and once the feed ends, so the simulation
        only ever advances over demand that has actually been observed.
        Ticks run at exactly the same simulation times as a batch run,
        which is what keeps a live run with a perfect forecaster
        bit-identical to the offline batch fingerprint.

        Fault injection is not supported live yet: scripted fault events
        are scheduled against the full run span up front, which would be
        lookahead.
        """
        if self._injector is not None:
            raise SimulationError(
                "live streaming does not support fault injection")
        if self._streaming:
            raise SimulationError("begin_streaming called twice")
        self._streaming = True
        self._stream_wall_start = time.perf_counter()
        self._start(live=True)

    def advance_stream(self, step_index: int) -> None:
        """Run every tick up to ``step_index`` (their rows must be fed).

        The ticks run through :meth:`_advance`, as a batch run's do, at
        the times the batch run fires them.
        """
        if not self._streaming:
            raise SimulationError(
                "advance_stream requires begin_streaming first")
        self._advance(step_index + 1)

    def finish_streaming(self) -> SimulationResult:
        """End the stream and return the collected result.

        The streaming spelling of :meth:`run`'s epilogue; safe to call
        after any number of ticks (an early-closed feed simply yields a
        shorter result).
        """
        if not self._streaming:
            raise SimulationError(
                "finish_streaming requires begin_streaming first")
        self._streaming = False
        return self._finish(self._stream_wall_start)


def run_simulation(config: SimulationConfig, scheduler: Scheduler, *,
                   trace: Optional[TraceMatrix] = None,
                   record_heatmaps: bool = True,
                   fault_injector: Optional["FaultInjector"] = None,
                   profile: bool = False,
                   telemetry: TelemetryLike = None,
                   checks: Optional[str] = None,
                   backend: Optional[str] = None,
                   checkpoint_every: Optional[int] = None,
                   checkpoint_dir: Optional[str] = None,
                   deadline: Optional["Deadline"] = None) -> SimulationResult:
    """Convenience one-call experiment runner.

    ``backend`` is retired: validated, and it selects nothing.
    """
    check_backend(backend)
    return ClusterSimulation(config, scheduler, trace=trace,
                             record_heatmaps=record_heatmaps,
                             fault_injector=fault_injector,
                             profile=profile,
                             telemetry=telemetry,
                             checks=checks,
                             checkpoint_every=checkpoint_every,
                             checkpoint_dir=checkpoint_dir,
                             deadline=deadline).run()
