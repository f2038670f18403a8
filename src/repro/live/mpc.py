"""Model-predictive GV control by shadow simulation.

At each decision boundary the controller forks the running simulation's
:class:`~repro.state.snapshot.SimulationSnapshot` and races shadow
simulations of the candidate grouping values over a trace built from
the observed history plus the forecaster's horizon.  Each shadow
restores the snapshot into a fresh fast-backend simulation, retargets
its scheduler to the candidate, runs the horizon out, and reports its
peak cooling load over the forecast window.  A VMT-TA shadow is a
clean open-loop run restored at a tick boundary, so it takes the
planned kernel; closed-loop policies take the stepped one.  The
candidate with the lowest predicted peak wins.

Every policy reads a grouping value only through its Eq. 1 hot-group
size, so candidates of one size would race bit-identical shadows: one
shadow runs per distinct size, and its peak scores every candidate of
that size.

Shadows restore with ``trace_check=False``: they deliberately run
against a forecast trace whose fingerprint differs from the live
buffer's, which is the one sanctioned use of that escape hatch.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import SimulationConfig
from ..core.grouping import hot_group_size
from ..errors import SimulationError

#: Default GV perturbations (degrees of virtual melting temperature)
#: explored around the incumbent and forecast estimates.
DEFAULT_GV_DELTAS = (-2.0, 0.0, 2.0)


@dataclass(frozen=True)
class MPCDecision:
    """One decision boundary's outcome, for telemetry and reports."""

    step: int
    chosen_gv: float
    candidates: Tuple[float, ...]
    predicted_peak_w: Tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "chosen_gv": self.chosen_gv,
            "candidates": list(self.candidates),
            "predicted_peak_w": list(self.predicted_peak_w),
        }


class MPCController:
    """Race candidate grouping values through shadow simulations."""

    def __init__(self, config: SimulationConfig, *,
                 horizon_steps: int = 60,
                 gv_deltas: Sequence[float] = DEFAULT_GV_DELTAS,
                 max_workers: int = 4) -> None:
        if horizon_steps < 1:
            raise SimulationError("horizon_steps must be >= 1")
        if max_workers < 1:
            raise SimulationError("max_workers must be >= 1")
        self._config = config
        self._horizon = int(horizon_steps)
        self._gv_deltas = tuple(float(d) for d in gv_deltas)
        self._max_workers = int(max_workers)
        self._decisions: List[MPCDecision] = []

    @property
    def horizon_steps(self) -> int:
        """Forecast window length, in scheduling intervals."""
        return self._horizon

    @property
    def decisions(self) -> List[MPCDecision]:
        """Every decision taken so far, in order."""
        return list(self._decisions)

    def _candidates(self, incumbent_gv: float,
                    forecast_gv: float) -> Tuple[float, ...]:
        """Candidate GVs: incumbent, forecast estimate, perturbations."""
        pmt = self._config.wax.melt_temp_c
        n = self._config.num_servers
        lo, hi = pmt / n, pmt * (n - 1) / n  # 1..n-1 hot servers (Eq. 1)
        raw = [incumbent_gv]
        raw.extend(forecast_gv + d for d in self._gv_deltas)
        seen, out = set(), []
        for gv in raw:
            gv = min(hi, max(lo, float(gv)))
            if gv not in seen:
                seen.add(gv)
                out.append(gv)
        return tuple(out)

    def _score_shadow(self, snapshot, shadow_trace, candidate_gv: float,
                      history_rows: int) -> float:
        """Predicted peak cooling load (W) over the forecast window."""
        # Imported lazily: the live layer sits above cluster/state.
        from ..cluster.simulation import ClusterSimulation
        from ..core.policies import make_scheduler

        config = SimulationConfig.from_dict(snapshot.config)
        scheduler = make_scheduler(snapshot.policy, config)
        shadow = ClusterSimulation(
            config, scheduler, trace=shadow_trace,
            record_heatmaps=snapshot.record_heatmaps,
            checks="off", backend="fast")
        shadow.restore(snapshot, trace_check=False)
        scheduler.retarget_grouping(candidate_gv)
        result = shadow.run()
        cooling = np.asarray(result.cooling_load_w)
        window = cooling[history_rows:]
        if window.size == 0:
            return float("inf")
        return float(window.max())

    def decide(self, sim, buffer, forecaster, step: int,
               incumbent_gv: float) -> float:
        """Pick the next GV by racing shadows from ``sim``'s snapshot."""
        # The buffer already holds rows [0, filled); the forecast covers
        # the intervals beyond it, clipped to the run's capacity.
        horizon = max(0, min(self._horizon,
                             buffer.num_steps - buffer.filled))
        forecast_gv = float(forecaster.grouping_value(step))
        candidates = self._candidates(incumbent_gv, forecast_gv)
        snapshot = sim.snapshot()
        shadow_trace = buffer.with_forecast(
            forecaster.forecast(buffer.filled, horizon))
        history_rows = int(snapshot.tick)

        # One shadow per distinct hot-group size, raced with the first
        # candidate of that size.
        pmt = self._config.wax.melt_temp_c
        n = self._config.num_servers
        sizes = [hot_group_size(gv, pmt, n) for gv in candidates]
        racers = {}
        for size, gv in zip(sizes, candidates):
            racers.setdefault(size, gv)
        if len(racers) == 1 or self._max_workers == 1:
            peaks = [self._score_shadow(snapshot, shadow_trace, gv,
                                        history_rows)
                     for gv in racers.values()]
        else:
            workers = min(self._max_workers, len(racers))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(self._score_shadow, snapshot,
                                       shadow_trace, gv, history_rows)
                           for gv in racers.values()]
                peaks = [f.result() for f in futures]
        peak_by_size = dict(zip(racers, peaks))
        scores = [peak_by_size[size] for size in sizes]

        best = int(np.argmin(scores))
        decision = MPCDecision(step=step, chosen_gv=candidates[best],
                               candidates=candidates,
                               predicted_peak_w=tuple(scores))
        self._decisions.append(decision)
        return candidates[best]
