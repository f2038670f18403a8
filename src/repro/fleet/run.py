"""The fleet engine: resolve, route, simulate, and price every site.

Two execution paths, chosen by the fleet policy's routing mode:

* **Unrouted** (``"none"``) -- each site is an independent job and fans
  out across the :class:`~repro.perf.runner.ExperimentRunner` exactly
  like the multi-cluster datacenter study (same specs, same derived
  seeds, same trace stagger).  This is what keeps a homogeneous fleet
  bit-identical to :func:`~repro.cluster.multi.run_datacenter`, and it
  inherits the runner's whole fault-tolerance story (pool-crash retry,
  structured failures).
* **Routed** -- the router rewrites the per-site traces first, and the
  sites then simulate in-process with their explicit routed traces
  (traces are deliberately not picklable spec fields).

After simulation every site is *priced*: the chiller's electrical draw
under the site's condenser ambient, the battery dispatch on the total
grid draw, and the site's bill and emissions under its own tariff and
carbon curve.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..checks.sanitizer import resolve_check_level
from ..cluster.metrics import SimulationResult
from ..config import SimulationConfig
from ..obs.telemetry import TelemetryLike, telemetry_directory
from ..perf.cache import shared_trace
from ..perf.runner import (ExperimentRunner, RunSpec, _execute_captured,
                           collect_cluster_results)
from ..tco.energy import cooling_energy_account
from ..thermal.plant import ChillerPlant
from ..workloads.trace import TraceMatrix
from .battery import dispatch_battery
from .result import FleetResult, SiteResult, aggregate_sites
from .router import RoutingPlan, routed_site_traces
from .spec import FleetSpec

#: COP lost per degree of condenser ambient above reference on plants
#: the fleet sizes itself (a site that supplies its own plant decides
#: its own derate).  ~2%/K is a typical air-cooled chiller slope.
DEFAULT_COP_DERATE_PER_C = 0.02


class FleetSimulation:
    """Execute a :class:`~repro.fleet.spec.FleetSpec` end to end."""

    def __init__(self, spec: FleetSpec, *,
                 max_workers: Optional[int] = 1,
                 record_heatmaps: bool = False,
                 telemetry: TelemetryLike = None,
                 checks: Optional[str] = None) -> None:
        spec.validate()
        self._spec = spec
        self._max_workers = max_workers
        self._record_heatmaps = record_heatmaps
        self._telemetry_dir = telemetry_directory(telemetry)
        self._checks = checks

    @property
    def spec(self) -> FleetSpec:
        """The fleet being simulated."""
        return self._spec

    def _site_configs(self) -> List[SimulationConfig]:
        return [self._spec.site_config(index)
                for index in range(self._spec.num_sites)]

    def _ambient_series(self, config: SimulationConfig, index: int,
                        times_s: np.ndarray) -> np.ndarray:
        """Condenser ambient the site's plant sees, per tick.

        The site's weather profile (the same one shifting server
        inlets) swings around its outdoor base -- so a desert site's
        afternoon derates its chiller exactly when its servers run hot.
        """
        site = self._spec.sites[index]
        ambient = config.ambient
        offsets = np.fromiter(
            (ambient.offset_c_at(float(t)) for t in times_s),
            dtype=np.float64, count=len(times_s))
        return site.outdoor_base_c + offsets

    def _plant_for(self, index: int,
                   cooling_load_w: np.ndarray) -> ChillerPlant:
        """The site's plant: as specified, or sized at its own peak."""
        site = self._spec.sites[index]
        if site.plant is not None:
            return site.plant
        peak = float(cooling_load_w.max()) if cooling_load_w.size else 0.0
        return ChillerPlant(capacity_w=max(peak, 1.0),
                            cop_derate_per_c=DEFAULT_COP_DERATE_PER_C)

    def _spec_for(self, index: int,
                  config: SimulationConfig) -> RunSpec:
        policy = self._spec.scheduler_for(index)
        site = self._spec.sites[index]
        return RunSpec(config=config, policy=policy,
                       label=f"site-{site.name}[{policy}]",
                       trace_shift_hours=self._spec.trace_shift_hours(
                           index),
                       record_heatmaps=self._record_heatmaps,
                       telemetry_dir=self._telemetry_dir,
                       checks=self._checks)

    def _run_unrouted(self, configs: List[SimulationConfig]
                      ) -> List[SimulationResult]:
        specs = [self._spec_for(index, config)
                 for index, config in enumerate(configs)]
        outcomes = ExperimentRunner(self._max_workers).run(
            specs, raise_on_error=False)
        return collect_cluster_results(outcomes, what="site")

    def _run_routed(self, configs: List[SimulationConfig],
                    plan: RoutingPlan) -> List[SimulationResult]:
        """Simulate every site in-process on its routed trace.

        Routed traces cannot ride a :class:`RunSpec` across a process
        boundary, so this path runs serially -- but through the runner's
        captured execution, so a failing site still surfaces as a
        readable error naming it, not a bare traceback mid-batch.
        """
        outcomes = [_execute_captured(self._spec_for(index, config),
                                      plan.traces[index])
                    for index, config in enumerate(configs)]
        return collect_cluster_results(outcomes, what="site")

    def run(self) -> FleetResult:
        """Simulate the fleet and return the aggregated result."""
        spec = self._spec
        policy = spec.fleet_policy
        configs = self._site_configs()

        if policy.routing == "none":
            plan: Optional[RoutingPlan] = None
            results = self._run_unrouted(configs)
        else:
            traces = [shared_trace(config,
                                   shift_hours=spec.trace_shift_hours(i))
                      for i, config in enumerate(configs)]
            plan = routed_site_traces(
                policy.routing, traces,
                tariffs=[site.tariff for site in spec.sites],
                ambients_c=[self._routing_ambient(configs[i], i,
                                                  traces[i])
                            for i in range(spec.num_sites)],
                sites_latency_ms=[site.latency_ms
                                  for site in spec.sites],
                latency_budget_ms=spec.latency_budget_ms,
                spill_fraction=spec.spill_fraction)
            results = self._run_routed(configs, plan)

        site_results = tuple(
            self._price_site(index, configs[index], results[index],
                             plan)
            for index in range(spec.num_sites))
        fleet_result = aggregate_sites(
            site_results, policy=spec.policy,
            moved_job_cores=plan.moved_job_cores if plan else 0)
        if resolve_check_level(self._checks) != "off":
            from .verify import verify_fleet_result
            verify_fleet_result(spec, fleet_result, plan=plan)
        return fleet_result

    def _routing_ambient(self, config: SimulationConfig, index: int,
                         trace: TraceMatrix) -> np.ndarray:
        times_s = np.arange(trace.num_steps) * trace.step_seconds
        return self._ambient_series(config, index, times_s)

    def _price_site(self, index: int, config: SimulationConfig,
                    result: SimulationResult,
                    plan: Optional[RoutingPlan]) -> SiteResult:
        """Attach market and battery accounting to one site's physics."""
        site = self._spec.sites[index]
        policy = self._spec.fleet_policy
        dt_s = config.trace.step_seconds
        times_h = result.times_s / 3600.0
        ambient = self._ambient_series(config, index, result.times_s)
        plant = self._plant_for(index, result.cooling_load_w)
        cooling = cooling_energy_account(
            plant, result.cooling_load_w, times_h, site.tariff, dt_s,
            carbon=site.carbon, ambient_c=ambient)
        cooling_kw = plant.electrical_power_w(result.cooling_load_w,
                                              ambient) / 1e3
        it_kw = result.it_power_w / 1e3
        dispatch = dispatch_battery(it_kw + cooling_kw, times_h, dt_s,
                                    site.battery, site.tariff,
                                    mode=policy.battery_mode)
        rates = site.tariff.rate_usd_per_kwh(times_h)
        dt_h = dt_s / 3600.0
        cost = float((dispatch.grid_kw * rates).sum() * dt_h)
        carbon = site.carbon.carbon_kg(dispatch.grid_kw, times_h, dt_s)
        return SiteResult(
            site=site, result=result, plant=plant, cooling=cooling,
            grid_kw=dispatch.grid_kw, ambient_c=ambient,
            battery=dispatch, energy_cost_usd=cost, carbon_kg=carbon,
            net_routed_job_cores=(plan.net_received[index]
                                  if plan else 0))


def run_fleet(spec: FleetSpec, *, max_workers: Optional[int] = 1,
              record_heatmaps: bool = False,
              telemetry: TelemetryLike = None,
              checks: Optional[str] = None) -> FleetResult:
    """Convenience wrapper: build and run a :class:`FleetSimulation`."""
    return FleetSimulation(spec, max_workers=max_workers,
                           record_heatmaps=record_heatmaps,
                           telemetry=telemetry, checks=checks).run()
