"""Tests for the heterogeneous fleet subsystem.

The load-bearing contract: a homogeneous fleet under the
``"independent"`` policy is *bit-identical* to ``run_datacenter`` --
same derived seeds, same stagger, same fingerprints.  Everything the
fleet layer adds (hardware classes, markets, routing, batteries) is
then tested against its own invariants: demand conservation, battery
envelopes, non-negative money.
"""

import numpy as np
import pytest

from repro import api
from repro.cluster.multi import run_datacenter
from repro.config import (BatteryConfig, SimulationConfig, TraceConfig,
                          hardware_class)
from repro.core import SCHEDULER_NAMES
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import (FLEET_POLICIES, FleetSpec, SiteSpec, demo_fleet,
                         run_fleet)
from repro.fleet.battery import dispatch_battery
from repro.fleet.router import (conservation_violation, route_traces,
                                routed_site_traces)
from repro.perf.cache import shared_trace
from repro.tco.energy import ElectricityTariff


def tiny_config(**kwargs):
    return SimulationConfig(
        num_servers=kwargs.pop("num_servers", 10),
        trace=TraceConfig(duration_hours=4.0),
        seed=kwargs.pop("seed", 5), **kwargs)


class TestHomogeneousIdentity:
    @pytest.mark.parametrize("policy", SCHEDULER_NAMES)
    def test_fingerprint_identical_to_run_datacenter(self, policy):
        # The acceptance oracle: per-site fingerprints and the
        # aggregate load must match the multi-cluster study exactly.
        config = tiny_config()
        golden = run_datacenter(config, 2, policy=policy,
                                stagger_hours=2.0)
        fleet = run_fleet(FleetSpec.homogeneous(config, 2, policy=policy,
                                                stagger_hours=2.0),
                          checks="cheap")
        assert ([r.fingerprint() for r in fleet.cluster_results]
                == [r.fingerprint() for r in golden.cluster_results])
        assert np.array_equal(fleet.total_cooling_load_w,
                              golden.total_cooling_load_w)

    def test_datacenter_projection_matches(self):
        config = tiny_config()
        golden = run_datacenter(config, 3)
        projected = run_fleet(
            FleetSpec.homogeneous(config, 3)).to_datacenter_result()
        assert np.array_equal(projected.total_cooling_load_w,
                              golden.total_cooling_load_w)
        assert np.array_equal(projected.times_s, golden.times_s)

    def test_api_fleet_run_homogeneous(self):
        config = tiny_config()
        golden = run_datacenter(config, 2)
        fleet = api.fleet_run(num_sites=2, config=config)
        assert ([r.fingerprint() for r in fleet.cluster_results]
                == [r.fingerprint() for r in golden.cluster_results])


class TestFleetSpec:
    def test_site_config_applies_hardware_class(self):
        base = tiny_config()
        spec = FleetSpec(sites=(SiteSpec(name="a"),
                                SiteSpec(name="b", hardware="gpu")),
                         base_config=base)
        gpu = hardware_class("gpu")
        assert spec.site_config(0).server == base.server
        assert spec.site_config(1).server == gpu.server
        assert spec.site_config(1).wax == gpu.wax

    def test_site_config_derives_seed_per_site(self):
        spec = FleetSpec.homogeneous(tiny_config(), 3)
        assert [spec.site_config(i).seed for i in range(3)] == [5, 6, 7]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(sites=()).validate()
        with pytest.raises(ConfigurationError):
            FleetSpec(sites=(SiteSpec(name="x"),
                             SiteSpec(name="x"))).validate()
        with pytest.raises(ConfigurationError):
            FleetSpec(sites=(SiteSpec(name="x"),),
                      policy="no-such-policy").validate()
        with pytest.raises(ConfigurationError):
            SiteSpec(name="x", hardware="tpu").validate()
        with pytest.raises(ConfigurationError):
            SiteSpec(name="x", latency_ms=-1.0).validate()

    def test_policy_table(self):
        assert set(FLEET_POLICIES) == {
            "independent", "latency-spill", "price-arbitrage",
            "battery-co-schedule", "thermal-placement"}
        for policy in FLEET_POLICIES.values():
            policy.validate()

    def test_demo_fleet_has_the_documented_shape(self):
        spec = demo_fleet(tiny_config())
        spec.validate()
        names = [site.name for site in spec.sites]
        assert names == ["ashburn", "reykjavik", "phoenix"]
        hardware = {site.name: site.hardware for site in spec.sites}
        assert hardware["reykjavik"] == "gpu"
        assert spec.sites[1].tariff.wraps_midnight
        assert spec.sites[1].battery.enabled
        assert not spec.sites[0].battery.enabled


class TestRouting:
    def _traces(self, num_sites=3):
        config = tiny_config()
        return [shared_trace(config.replace(seed=config.seed + i))
                for i in range(num_sites)]

    def test_conserves_demand(self):
        traces = self._traces()
        steps = traces[0].num_steps
        # Site 0 is expensive every tick; sites 1-2 are cheap.
        scores = np.tile(np.array([1.0, 0.0, 0.0]), (steps, 1))
        plan = route_traces(traces, scores,
                            sites_latency_ms=[1.0, 1.0, 1.0],
                            latency_budget_ms=50.0,
                            spill_fraction=0.25)
        assert plan.moved_job_cores > 0
        assert sum(plan.net_received) == 0
        assert plan.net_received[0] < 0
        assert conservation_violation(traces, plan.traces) is None

    def test_latency_budget_blocks_moves(self):
        traces = self._traces()
        steps = traces[0].num_steps
        scores = np.tile(np.array([1.0, 0.0, 0.0]), (steps, 1))
        plan = route_traces(traces, scores,
                            sites_latency_ms=[100.0, 100.0, 100.0],
                            latency_budget_ms=50.0,
                            spill_fraction=0.25)
        assert plan.moved_job_cores == 0
        assert plan.active_tick_fraction == 0.0

    def test_flat_scores_move_nothing(self):
        traces = self._traces()
        steps = traces[0].num_steps
        plan = route_traces(traces, np.zeros((steps, 3)),
                            sites_latency_ms=[1.0, 1.0, 1.0],
                            latency_budget_ms=50.0,
                            spill_fraction=0.25)
        assert plan.moved_job_cores == 0

    def test_none_mode_is_a_no_op(self):
        traces = self._traces(2)
        plan = routed_site_traces(
            "none", traces, tariffs=[ElectricityTariff()] * 2,
            ambients_c=[np.zeros(traces[0].num_steps)] * 2,
            sites_latency_ms=[1.0, 1.0], latency_budget_ms=50.0,
            spill_fraction=0.25)
        assert plan.moved_job_cores == 0
        assert plan.traces[0] is traces[0]

    def test_price_mode_moves_away_from_peak(self):
        traces = self._traces(2)
        # Site 0 is in its peak window all day; site 1's tariff is flat
        # at the off-peak rate, so demand flows 0 -> 1 every tick.
        plan = routed_site_traces(
            "price", traces,
            tariffs=[ElectricityTariff(peak_window_h=(0.0, 24.0)),
                     ElectricityTariff(peak_rate_usd_per_kwh=0.08,
                                       off_peak_rate_usd_per_kwh=0.08)],
            ambients_c=[np.zeros(traces[0].num_steps)] * 2,
            sites_latency_ms=[1.0, 1.0], latency_budget_ms=50.0,
            spill_fraction=0.25)
        assert plan.net_received[0] < 0 < plan.net_received[1]
        assert conservation_violation(traces, plan.traces) is None


class TestBattery:
    BATTERY = BatteryConfig(capacity_kwh=100.0, max_charge_kw=50.0,
                            max_discharge_kw=50.0)

    def test_idle_mode_is_a_no_op(self):
        load = np.full(24, 80.0)
        hours = np.arange(24, dtype=np.float64)
        dispatch = dispatch_battery(load, hours, 3600.0, self.BATTERY,
                                    ElectricityTariff(), mode="idle")
        assert np.array_equal(dispatch.grid_kw, load)
        assert not dispatch.active

    def test_arbitrage_charges_off_peak_discharges_in_peak(self):
        tariff = ElectricityTariff(peak_window_h=(12.0, 22.0))
        load = np.full(24, 80.0)
        hours = np.arange(24, dtype=np.float64)
        dispatch = dispatch_battery(load, hours, 3600.0, self.BATTERY,
                                    tariff, mode="arbitrage")
        peak = tariff.is_peak(hours)
        assert (dispatch.grid_kw[peak] < load[peak]).any()
        assert (dispatch.grid_kw[~peak] > load[~peak]).any()
        assert dispatch.charged_kwh > 0
        assert dispatch.discharged_kwh > 0

    def test_envelopes_hold(self):
        tariff = ElectricityTariff(peak_window_h=(22.0, 8.0))
        load = np.abs(np.sin(np.linspace(0, 6, 48))) * 120.0
        hours = np.linspace(0.0, 24.0, 48, endpoint=False)
        dispatch = dispatch_battery(load, hours, 1800.0, self.BATTERY,
                                    tariff, mode="arbitrage")
        assert dispatch.grid_kw.min() >= 0.0
        assert dispatch.soc_kwh.min() >= 0.0
        assert dispatch.soc_kwh.max() <= self.BATTERY.capacity_kwh

    def test_round_trip_losses(self):
        # A full cycle returns round_trip_efficiency of what it stored.
        battery = BatteryConfig(capacity_kwh=50.0, max_charge_kw=50.0,
                                max_discharge_kw=50.0,
                                round_trip_efficiency=0.81,
                                initial_soc=0.0)
        tariff = ElectricityTariff(peak_window_h=(12.0, 24.0))
        load = np.full(24, 100.0)
        hours = np.arange(24, dtype=np.float64)
        dispatch = dispatch_battery(load, hours, 3600.0, battery, tariff,
                                    mode="arbitrage")
        # Stored energy is drained completely by the 12-hour peak.
        assert dispatch.soc_kwh[-1] == pytest.approx(0.0, abs=1e-9)
        grid_extra = float((dispatch.grid_kw - load)[
            dispatch.grid_kw > load].sum())
        assert dispatch.discharged_kwh == pytest.approx(
            grid_extra * 0.81, rel=1e-6)

    def test_peak_shave_flattens_the_draw(self):
        load = np.concatenate([np.full(12, 40.0), np.full(12, 120.0)])
        hours = np.arange(24, dtype=np.float64)
        dispatch = dispatch_battery(load, hours, 3600.0, self.BATTERY,
                                    ElectricityTariff(),
                                    mode="peak-shave")
        # Above-mean ticks are shaved (until the cell drains) and
        # recharging never lifts the valley above the mean line.
        assert dispatch.discharged_kwh > 0
        assert (dispatch.grid_kw[12:] < load[12:]).any()
        mean_kw = float(load.mean())
        assert dispatch.grid_kw[:12].max() <= mean_kw + 1e-9
        assert dispatch.grid_kw.max() <= load.max()
        assert dispatch.grid_kw.min() >= load.min()

    def test_disabled_battery_never_acts(self):
        load = np.full(24, 80.0)
        hours = np.arange(24, dtype=np.float64)
        dispatch = dispatch_battery(load, hours, 3600.0, BatteryConfig(),
                                    ElectricityTariff(),
                                    mode="arbitrage")
        assert not dispatch.active
        assert np.array_equal(dispatch.grid_kw, load)


class TestHeterogeneousFleet:
    def test_demo_fleet_end_to_end(self):
        result = api.fleet_run(demo=True, config=tiny_config(),
                               policy="price-arbitrage", checks="cheap")
        assert result.num_sites == 3
        assert result.sites == ("ashburn", "reykjavik", "phoenix")
        assert np.isfinite(result.total_energy_cost_usd)
        assert result.total_energy_cost_usd >= 0
        assert np.isfinite(result.total_carbon_kg)
        summary = result.summary()
        assert len(summary["sites"]) == 3
        assert "energy_cost_usd" in summary["sites"][0]
        text = result.to_text()
        assert "reykjavik" in text

    def test_gpu_site_runs_hotter_hardware(self):
        result = api.fleet_run(demo=True, config=tiny_config(),
                               policy="independent", checks="cheap")
        gpu = result.site("reykjavik").result.config.server
        assert gpu == hardware_class("gpu").server

    def test_thermal_placement_routes_away_from_the_desert(self):
        spec = demo_fleet(tiny_config(),
                          fleet_policy_name="thermal-placement",
                          stagger_hours=0.0)
        result = run_fleet(spec, checks="cheap")
        assert result.moved_job_cores > 0
        assert result.site("phoenix").net_routed_job_cores < 0

    def test_routed_site_failure_names_the_site(self, monkeypatch):
        # The routed (in-process) path must surface a failing site as a
        # readable SimulationError, mirroring the unrouted bugfix.
        from repro.perf import runner as runner_module

        real_execute = runner_module.execute_spec

        def failing(spec, trace=None):
            if "broken" in spec.name:
                raise ValueError("injected site failure")
            return real_execute(spec, trace)

        monkeypatch.setattr(runner_module, "execute_spec", failing)
        spec = FleetSpec(
            sites=(SiteSpec(name="good"), SiteSpec(name="broken")),
            base_config=tiny_config(), policy="latency-spill")
        with pytest.raises(SimulationError) as err:
            run_fleet(spec)
        message = str(err.value)
        assert "broken" in message
        assert "injected site failure" in message
        assert "Traceback" in message

    def test_unknown_site_lookup(self):
        result = api.fleet_run(num_sites=2, config=tiny_config())
        with pytest.raises(SimulationError):
            result.site("atlantis")

    def test_api_argument_validation(self):
        with pytest.raises(ConfigurationError):
            api.fleet_run(config=tiny_config())  # no shape chosen
        with pytest.raises(ConfigurationError):
            api.fleet_run(demo=True, num_sites=2, config=tiny_config())
        with pytest.raises(ConfigurationError):
            api.fleet_run(fleet=demo_fleet(tiny_config()), demo=True)
        with pytest.raises(ConfigurationError):
            api.fleet_run(num_sites=2, policy="no-such-policy",
                          config=tiny_config())


class TestSuiteLeaderboardColumns:
    def test_cost_and_carbon_columns_are_finite(self):
        report = api.stress(scenarios=("heat-wave",),
                            policies=("round-robin", "vmt-ta"),
                            num_servers=6, duration_hours=3.0, seed=2)
        for record in report.records:
            if record.failure is None:
                assert np.isfinite(record.energy_cost_usd)
                assert record.energy_cost_usd >= 0
                assert np.isfinite(record.carbon_kg)
        for entry in report.leaderboard():
            row = entry.to_json()
            assert np.isfinite(row["mean_energy_cost_usd"])
            assert np.isfinite(row["mean_carbon_kg"])
