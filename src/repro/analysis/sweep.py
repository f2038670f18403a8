"""Generic parameter sweep helpers.

The paper's evaluation is mostly sweeps: grouping value, wax threshold,
inlet variation.  These helpers run a scheduler across a parameter range
against a shared round-robin baseline, optionally averaging over seeds
(Figs. 19/20 average five runs).

Every sweep point is an independent simulation, so the helpers describe
their runs as :class:`~repro.perf.runner.RunSpec` jobs and hand them to
an :class:`~repro.perf.runner.ExperimentRunner`: ``max_workers=1`` (the
default) executes serially in-process, larger values fan the points
across a process pool.  Either way the demand trace for each distinct
(trace config, cluster size, seed) is built exactly once per process via
the shared trace cache, and results are bit-identical to the naive
one-at-a-time loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.metrics import SimulationResult
from ..config import paper_cluster_config
from ..kernel import check_backend
from ..obs.telemetry import TelemetryLike, telemetry_directory
from ..perf.runner import ExperimentRunner, RunSpec


@dataclass(frozen=True)
class SweepResult:
    """Peak-cooling-load reductions across a swept parameter.

    This is a frozen v1 response schema: :meth:`to_json` /
    :meth:`from_json` round-trip the full dataclass losslessly, and the
    serving layer returns exactly this shape for ``POST /v1/sweeps``
    jobs.
    """

    parameter_name: str
    values: np.ndarray
    reductions: Dict[str, np.ndarray]  # policy name -> fraction per value

    def best(self, policy: str) -> tuple:
        """(best parameter value, best reduction) for a policy."""
        series = self.reductions[policy]
        idx = int(np.argmax(series))
        return float(self.values[idx]), float(series[idx])

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dict that round-trips losslessly."""
        return {
            "schema": "repro.sweep/1",
            "parameter_name": self.parameter_name,
            "values": np.asarray(self.values, dtype=np.float64).tolist(),
            "reductions": {
                policy: np.asarray(series, dtype=np.float64).tolist()
                for policy, series in self.reductions.items()},
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "SweepResult":
        """Rebuild a sweep result from :meth:`to_json` output."""
        from ..errors import SimulationError
        if payload.get("schema") != "repro.sweep/1":
            raise SimulationError(
                f"not a repro.sweep/1 payload "
                f"(schema={payload.get('schema')!r})")
        return cls(
            parameter_name=str(payload["parameter_name"]),
            values=np.asarray(payload["values"], dtype=np.float64),
            reductions={
                str(policy): np.asarray(series, dtype=np.float64)
                for policy, series in payload["reductions"].items()},
        )


def _gv_sweep_specs(grouping_values: Sequence[float],
                    policies: Sequence[str], *, num_servers: int,
                    seed: int, inlet_stdev_c: float,
                    wax_threshold: float,
                    checks: Optional[str] = None) -> List[RunSpec]:
    """Baseline spec followed by one spec per (gv, policy), in order."""
    base = paper_cluster_config(num_servers=num_servers, seed=seed,
                                inlet_stdev_c=inlet_stdev_c,
                                wax_threshold=wax_threshold)
    specs = [RunSpec(base, "round-robin",
                     label=f"baseline[seed={seed}]", checks=checks)]
    for gv in grouping_values:
        config = paper_cluster_config(num_servers=num_servers,
                                      grouping_value=gv, seed=seed,
                                      inlet_stdev_c=inlet_stdev_c,
                                      wax_threshold=wax_threshold)
        for policy in policies:
            specs.append(RunSpec(config, policy,
                                 label=f"{policy}[gv={gv:g},seed={seed}]",
                                 checks=checks))
    return specs


def _gv_reductions(results: Sequence[SimulationResult],
                   grouping_values: Sequence[float],
                   policies: Sequence[str]) -> Dict[str, np.ndarray]:
    """Fold a ``_gv_sweep_specs`` result list back into reduction series."""
    baseline = results[0]
    reductions: Dict[str, List[float]] = {p: [] for p in policies}
    cursor = 1
    for _gv in grouping_values:
        for policy in policies:
            reductions[policy].append(
                results[cursor].peak_reduction_vs(baseline))
            cursor += 1
    return {p: np.asarray(v) for p, v in reductions.items()}


def gv_sweep(grouping_values: Sequence[float], *,
             policies: Sequence[str] = ("vmt-ta", "vmt-wa"),
             num_servers: int = 100, seed: int = 7,
             inlet_stdev_c: float = 0.0,
             wax_threshold: float = 0.98,
             max_workers: Optional[int] = 1,
             workers_mode: str = "process",
             telemetry: TelemetryLike = None,
             checks: Optional[str] = None,
             backend: Optional[str] = None) -> SweepResult:
    """Sweep the grouping value for one or more VMT policies (Fig. 18).

    Every sweep point shares one generated trace (they only differ in
    GV, which the trace does not depend on), and ``max_workers`` > 1
    runs the points in parallel without changing a single output bit.
    ``workers_mode`` and ``backend`` are retired: validated, and they
    select nothing.
    With ``telemetry`` (a directory), every sweep point writes its own
    trace/metrics/manifest bundle there, labeled by policy and GV.
    """
    check_backend(backend)
    specs = _gv_sweep_specs(grouping_values, policies,
                            num_servers=num_servers, seed=seed,
                            inlet_stdev_c=inlet_stdev_c,
                            wax_threshold=wax_threshold, checks=checks)
    telemetry_dir = telemetry_directory(telemetry)
    if telemetry_dir is not None:
        specs = [replace(spec, telemetry_dir=telemetry_dir)
                 for spec in specs]
    results = ExperimentRunner(max_workers, workers_mode).run(specs)
    return SweepResult(
        parameter_name="grouping_value",
        values=np.asarray(list(grouping_values), dtype=np.float64),
        reductions=_gv_reductions(results, grouping_values, policies),
    )


def seed_averaged_sweep(grouping_values: Sequence[float], policy: str, *,
                        num_servers: int = 100,
                        seeds: Sequence[int] = range(5),
                        inlet_stdev_c: float = 0.0,
                        max_workers: Optional[int] = 1) -> SweepResult:
    """Average a GV sweep over several seeds (Figs. 19/20).

    Each seed re-draws the inlet temperature distribution (and the
    trace/scheduler noise streams); reductions are computed against that
    seed's own round-robin baseline, then averaged.  All seeds' runs go
    to the runner as one batch so a parallel pool can interleave them.
    """
    seeds = list(seeds)
    specs: List[RunSpec] = []
    spans: List[Tuple[int, int]] = []
    for seed in seeds:
        start = len(specs)
        specs.extend(_gv_sweep_specs(grouping_values, (policy,),
                                     num_servers=num_servers, seed=seed,
                                     inlet_stdev_c=inlet_stdev_c,
                                     wax_threshold=0.98))
        spans.append((start, len(specs)))
    results = ExperimentRunner(max_workers).run(specs)
    per_seed = [
        _gv_reductions(results[start:end], grouping_values,
                       (policy,))[policy]
        for start, end in spans]
    stacked = np.vstack(per_seed)
    return SweepResult(
        parameter_name="grouping_value",
        values=np.asarray(list(grouping_values), dtype=np.float64),
        reductions={policy: stacked.mean(axis=0)},
    )
