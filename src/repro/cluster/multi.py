"""Multi-cluster datacenter simulation.

Section IV-E scales the single-cluster DCsim results to the datacenter
"multiplied linearly", which is exact when every cluster sees the same
trace.  This module simulates the datacenter directly -- K clusters,
each with its own scheduler and (optionally time-shifted) trace -- and
aggregates the cooling load the shared plant must remove.  That enables
studies the linear scaling cannot express: timezone-staggered load,
per-cluster policy mixes, and how VMT composes with the natural
flattening that staggering already provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..config import SimulationConfig
from ..errors import ConfigurationError, SimulationError
from ..obs.telemetry import TelemetryLike, telemetry_directory
from ..perf.runner import (ExperimentRunner, RunSpec,
                           collect_cluster_results)
from .metrics import SimulationResult


@dataclass(frozen=True)
class DatacenterResult:
    """Aggregated outcome of a multi-cluster run."""

    cluster_results: List[SimulationResult]
    times_s: np.ndarray
    total_cooling_load_w: np.ndarray

    @property
    def num_clusters(self) -> int:
        """How many clusters were simulated."""
        return len(self.cluster_results)

    @property
    def peak_cooling_load_w(self) -> float:
        """Peak of the datacenter-wide cooling load."""
        return float(self.total_cooling_load_w.max())

    def peak_reduction_vs(self, baseline: "DatacenterResult") -> float:
        """Fractional peak reduction against another datacenter run."""
        base = baseline.peak_cooling_load_w
        if base <= 0:
            raise SimulationError("baseline peak must be positive")
        return 1.0 - self.peak_cooling_load_w / base


class MultiClusterSimulation:
    """K clusters sharing one cooling plant.

    Parameters
    ----------
    config:
        Per-cluster configuration (every cluster uses the same one; the
        per-cluster seed is derived so traces and noise differ).
    num_clusters:
        How many clusters to simulate.
    policies:
        Scheduler name per cluster, or a single name for all.
    stagger_hours:
        Time shift applied to cluster ``k``'s trace as
        ``k * stagger_hours`` (wrapping), emulating clusters that serve
        different regions.
    max_workers:
        Worker-process bound for the underlying
        :class:`~repro.perf.runner.ExperimentRunner`; ``1`` (the
        default) simulates the clusters serially in-process, ``None``
        uses every core.  Results are identical either way.
    record_heatmaps:
        Record per-server temperature heatmaps on every cluster result.
    telemetry:
        A directory (or :class:`~repro.obs.telemetry.Telemetry`, of
        which only the directory is used) receiving one telemetry
        bundle per cluster.
    """

    def __init__(self, config: SimulationConfig, num_clusters: int, *,
                 policies: Sequence[str] = ("round-robin",),
                 stagger_hours: float = 0.0,
                 max_workers: Optional[int] = 1,
                 record_heatmaps: bool = False,
                 telemetry: "TelemetryLike" = None) -> None:
        config.validate()
        if num_clusters <= 0:
            raise ConfigurationError("need at least one cluster")
        if len(policies) not in (1, num_clusters):
            raise ConfigurationError(
                "pass one policy or one per cluster")
        self._config = config
        self._k = num_clusters
        if len(policies) == 1:
            policies = tuple(policies) * num_clusters
        self._policies = tuple(policies)
        self._stagger_h = float(stagger_hours)
        self._max_workers = max_workers
        self._record_heatmaps = record_heatmaps
        self._telemetry_dir = telemetry_directory(telemetry)

    def _config_for(self, index: int) -> SimulationConfig:
        """Per-cluster config: the shared one under a derived seed."""
        return self._config.replace(seed=self._config.seed + index)

    def _spec_for(self, index: int) -> RunSpec:
        """The cluster's run, as an independent job.

        The runner takes the trace from the shared trace cache
        (:func:`~repro.perf.cache.shared_trace`), which builds it from
        the cluster's *derived* seed -- so staggered clusters genuinely
        differ in trace noise, as the class docstring promises -- and
        time-shifts it by ``index * stagger_hours``.
        """
        return RunSpec(config=self._config_for(index),
                       policy=self._policies[index],
                       label=f"cluster-{index}[{self._policies[index]}]",
                       trace_shift_hours=index * self._stagger_h,
                       record_heatmaps=self._record_heatmaps,
                       telemetry_dir=self._telemetry_dir)

    def run(self) -> DatacenterResult:
        """Simulate every cluster and aggregate the cooling load.

        A cluster whose worker fails (even twice, exhausting the pool's
        bounded retry) aborts the run with a :class:`SimulationError`
        naming the cluster index, its policy, and the worker traceback
        -- never a bare ``AttributeError`` off a ``RunFailure`` row.
        """
        specs = [self._spec_for(index) for index in range(self._k)]
        outcomes = ExperimentRunner(self._max_workers).run(
            specs, raise_on_error=False)
        results = collect_cluster_results(outcomes)
        total: Optional[np.ndarray] = None
        for result in results:
            total = (result.cooling_load_w if total is None
                     else total + result.cooling_load_w)
        assert total is not None
        return DatacenterResult(cluster_results=list(results),
                                times_s=results[0].times_s,
                                total_cooling_load_w=total)


def run_datacenter(config: SimulationConfig, num_clusters: int, *,
                   policy: str = "round-robin",
                   stagger_hours: float = 0.0,
                   max_workers: Optional[int] = 1,
                   record_heatmaps: bool = False,
                   telemetry: TelemetryLike = None) -> DatacenterResult:
    """Convenience wrapper: one policy across ``num_clusters`` clusters."""
    return MultiClusterSimulation(config, num_clusters,
                                  policies=(policy,),
                                  stagger_hours=stagger_hours,
                                  max_workers=max_workers,
                                  record_heatmaps=record_heatmaps,
                                  telemetry=telemetry).run()
