"""The live run loop: feed -> buffer -> decision -> tick.

One :class:`LiveRunner` drives a :class:`~repro.cluster.simulation.ClusterSimulation`
through its streaming entry points, one arrival at a time:

1. the next demand row is taken from the feed and appended to the
   :class:`~repro.live.buffer.LiveTraceBuffer` (after this, and only
   after this, may the engine advance into that interval);
2. the forecaster observes the row;
3. on decision boundaries the scheduler is retargeted -- directly from
   the forecaster's GV estimate, or via the
   :class:`~repro.live.mpc.MPCController`'s shadow-simulation race;
4. :meth:`~repro.cluster.simulation.ClusterSimulation.advance_stream`
   runs the ticks whose rows have arrived, through the same segment
   loop and at the same simulation times as the offline batch run.
   Between two decisions a VMT-TA or round-robin run is open-loop, so
   when the simulation
   :attr:`~repro.cluster.simulation.ClusterSimulation.plans_stream`,
   the runner advances once before each decision and once after the
   feed ends, and the planned kernel plans each decision interval as
   one segment.  Every other run advances once per arrival: a
   checkpointing VMT-TA or round-robin run plans each arrival's tick
   (a live snapshot must hold no row past its tick), and closed-loop
   policies, telemetry, the sanitizer, observers and ambient profiles
   fire it on the per-tick driver.

Step 4's exact tick times are what make the oracle differential test
possible: with a perfect forecaster every decision is a no-op, so the
live run's physics, RNG consumption, metric series -- and therefore its
fingerprint -- are bit-identical to the batch run over the same trace.

Checkpoints written mid-stream double as *state migration*: a fresh
process restores the snapshot (which carries the buffer's ingested
prefix), rewinds the feed to the migration point, and continues as if
the stream had never stopped.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster.metrics import SimulationResult
from ..cluster.simulation import ClusterSimulation
from ..config import SimulationConfig
from ..core.policies import make_scheduler
from ..errors import SimulationError
from ..obs.telemetry import TelemetryLike
from .buffer import LiveTraceBuffer
from .forecast import make_forecaster
from .mpc import MPCController

#: Default decision cadence: one retarget per simulated hour.
DEFAULT_DECISION_EVERY = 60


@dataclass
class LiveRunReport:
    """A live run's result plus its control trail."""

    result: SimulationResult
    forecaster: str
    decision_every: int
    steps_ingested: int
    #: (step, gv) pairs, one per decision boundary.
    gv_trail: List[tuple] = field(default_factory=list)
    mpc_decisions: Optional[List[dict]] = None
    wall_clock_s: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": "repro.live/1",
            "result": self.result.to_json(),
            "forecaster": self.forecaster,
            "decision_every": self.decision_every,
            "steps_ingested": self.steps_ingested,
            "gv_trail": [[int(s), float(g)] for s, g in self.gv_trail],
            "mpc_decisions": self.mpc_decisions,
            "wall_clock_s": self.wall_clock_s,
        }


class LiveRunner:
    """Drive one simulation from a streaming feed with no lookahead."""

    def __init__(self, config: SimulationConfig, policy: str, feed, *,
                 forecaster="oracle",
                 decision_every: int = DEFAULT_DECISION_EVERY,
                 mpc: Optional[MPCController] = None,
                 telemetry: TelemetryLike = None,
                 checks: Optional[str] = None,
                 record_heatmaps: bool = True,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 deadline=None,
                 speedup: Optional[float] = None,
                 restore_from=None) -> None:
        if decision_every < 1:
            raise SimulationError("decision_every must be >= 1")
        if speedup is not None and speedup <= 0:
            raise SimulationError("speedup must be positive")
        if feed.total_cores != config.total_cores:
            raise SimulationError(
                f"feed is sized for {feed.total_cores} cores, the "
                f"cluster has {config.total_cores}")
        if feed.step_seconds != config.trace.step_seconds:
            raise SimulationError(
                "feed and configuration disagree on step_seconds")
        self._config = config
        self._feed = feed
        self._decision_every = int(decision_every)
        self._mpc = mpc
        self._speedup = speedup
        if isinstance(forecaster, str):
            trace = getattr(feed, "trace", None)
            forecaster = make_forecaster(forecaster, config, trace=trace)
        self._forecaster = forecaster
        self._buffer = LiveTraceBuffer(feed.num_steps,
                                       feed.step_seconds,
                                       feed.total_cores)
        scheduler = make_scheduler(policy, config)
        self._sim = ClusterSimulation(
            config, scheduler, trace=self._buffer,
            record_heatmaps=record_heatmaps, telemetry=telemetry,
            checks=checks, checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir, deadline=deadline)
        self._gv = config.scheduler.grouping_value
        self._gv_trail: List[tuple] = []
        if restore_from is not None:
            # Live state migration: the snapshot refills the buffer's
            # ingested prefix and positions the next tick; the feed
            # is rewound to the first un-ingested interval in run().
            self._sim.restore(restore_from)
            if self._buffer.filled != self._sim._step_index:
                raise SimulationError(
                    "live snapshot is not at a quiescent boundary "
                    f"(buffer {self._buffer.filled} rows, tick "
                    f"{self._sim._step_index})")

    @property
    def simulation(self) -> ClusterSimulation:
        """The underlying simulation (for observers and inspection)."""
        return self._sim

    @property
    def buffer(self) -> LiveTraceBuffer:
        """The no-lookahead demand buffer."""
        return self._buffer

    def _decide(self, step: int) -> None:
        if self._mpc is not None:
            gv = self._mpc.decide(self._sim, self._buffer,
                                  self._forecaster, step, self._gv)
        else:
            gv = float(self._forecaster.grouping_value(step))
        self._gv = gv
        self._gv_trail.append((step, gv))
        self._sim._scheduler.retarget_grouping(gv)
        tracer = self._sim._obs_tracer
        if tracer is not None and tracer.enabled:
            tracer.event("live-retarget",
                         step * self._buffer.step_seconds,
                         step=step, gv=gv,
                         forecaster=getattr(self._forecaster, "name",
                                            "custom"))

    def run(self) -> LiveRunReport:
        """Consume the feed to the end and return the report."""
        wall_start = _time.perf_counter()
        start_step = self._buffer.filled
        step_s = self._buffer.step_seconds
        pace = (None if self._speedup is None
                else step_s / self._speedup)
        self._sim.begin_streaming()
        segmented = self._sim.plans_stream
        steps = 0
        for step, row in self._feed.iter_rows(start=start_step):
            if step != self._buffer.filled:
                raise SimulationError(
                    f"feed yielded step {step}, expected "
                    f"{self._buffer.filled}")
            self._buffer.append(row)
            self._forecaster.observe(step, row)
            if step % self._decision_every == 0:
                if segmented:
                    # Every tick before this decision (a no-op when
                    # none is pending).
                    self._sim.advance_stream(step - 1)
                self._decide(step)
            if not segmented:
                self._sim.advance_stream(step)
            steps += 1
            if pace is not None:
                _time.sleep(pace)
        if segmented:
            self._sim.advance_stream(self._buffer.filled - 1)
        result = self._sim.finish_streaming()
        return LiveRunReport(
            result=result,
            forecaster=getattr(self._forecaster, "name", "custom"),
            decision_every=self._decision_every,
            steps_ingested=steps,
            gv_trail=self._gv_trail,
            mpc_decisions=([d.to_json() for d in self._mpc.decisions]
                           if self._mpc is not None else None),
            wall_clock_s=_time.perf_counter() - wall_start)


def resume_live(source, feed, *, forecaster="oracle",
                decision_every: int = DEFAULT_DECISION_EVERY,
                mpc: Optional[MPCController] = None,
                telemetry: TelemetryLike = None,
                checks: Optional[str] = None,
                checkpoint_every: Optional[int] = None,
                checkpoint_dir: Optional[str] = None,
                deadline=None) -> LiveRunner:
    """Rebuild a live run from a mid-stream snapshot (state migration).

    ``source`` is a snapshot path or object written by a live run's
    checkpoint machinery; ``feed`` must be the same (rewindable) feed
    the original run consumed.  The returned runner continues from the
    first un-ingested interval.
    """
    from ..state.snapshot import SimulationSnapshot, load_snapshot

    snapshot = (source if isinstance(source, SimulationSnapshot)
                else load_snapshot(source))
    if "live" not in snapshot.state:
        raise SimulationError(
            "snapshot carries no live state; use "
            "repro.state.restore_simulation for batch checkpoints")
    config = SimulationConfig.from_dict(snapshot.config)
    return LiveRunner(
        config, snapshot.policy, feed, forecaster=forecaster,
        decision_every=decision_every, mpc=mpc, telemetry=telemetry,
        checks=checks,
        record_heatmaps=snapshot.record_heatmaps,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, deadline=deadline,
        restore_from=snapshot)
