"""Fault injection and graceful degradation.

Covers the fault subsystem bottom-up: the sensor fault bank, the fault
configuration, the shared fault state, the injector's scripted and
hazard-driven events, and the end-to-end guarantees -- every scheduler
survives a mid-trace outage, displaced jobs re-place within one tick,
``CapacityError`` fires only on genuine exhaustion, fault-free runs stay
bit-identical, and VMT-WA detects a stuck wax sensor and degrades to
thermal-aware placement.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.config import (CoolingFaultSpec, FaultConfig, SchedulerConfig,
                          SensorFaultSpec, ServerFaultSpec,
                          SimulationConfig, TraceConfig)
from repro.core.policies import make_scheduler
from repro.errors import (CapacityError, ConfigurationError,
                          FaultInjectionError, SensorError,
                          SimulationError)
from repro.faults import (FaultInjector, FaultState, cooling_derate,
                          kill_hot_group_fraction, kill_servers,
                          merge_scenarios, stuck_wax_sensors,
                          temperature_hazard)
from repro.server.reliability import ReliabilityModel
from repro.server.sensors import SensorFaultBank
from repro.state.checkpoint import checkpoint_path
from repro.state.snapshot import load_snapshot
from repro.thermal.throttling import CPUThermalModel
from repro.workloads.trace import TraceMatrix
from repro.workloads.workload import WORKLOAD_LIST

POLICIES = ("round-robin", "coolest-first", "vmt-ta", "vmt-wa")


def _faulted(config: SimulationConfig,
             faults: FaultConfig) -> SimulationConfig:
    return dataclasses.replace(config, faults=faults)


class _ClockedReliability(ReliabilityModel):
    """The default hazard model, noting the engine clock and the number
    of active servers at each draw."""

    def __init__(self) -> None:
        super().__init__()
        self.sim = None
        self.draw_times = []
        self.active_at_draw = []

    def failure_rate_per_hour(self, temp_c):
        self.draw_times.append(self.sim.engine.now)
        self.active_at_draw.append(self.sim.fault_injector.state.num_active)
        return super().failure_rate_per_hour(temp_c)


def _clocked_hazard_run(config: SimulationConfig, *,
                        acceleration: float = 3000.0,
                        repair_time_s: float = 1800.0, **kwargs):
    """(simulation, hazard model, tick times) of a 2 h hazard run at a
    59.9 s step, the step not exact in binary."""
    faults = dataclasses.replace(temperature_hazard(acceleration),
                                 repair_time_s=repair_time_s)
    config = dataclasses.replace(
        _faulted(config, faults),
        trace=TraceConfig(duration_hours=2.0, step_seconds=59.9))
    reliability = _ClockedReliability()
    sim = ClusterSimulation(
        config, make_scheduler("vmt-ta", config), record_heatmaps=False,
        fault_injector=FaultInjector(config, reliability=reliability),
        **kwargs)
    reliability.sim = sim
    tick_times = []
    sim.add_observer(lambda *args: tick_times.append(sim.engine.now))
    return sim, reliability, tick_times


# -- SensorFaultBank --------------------------------------------------------


class TestSensorFaultBank:
    def test_healthy_bank_is_pass_through(self):
        bank = SensorFaultBank(4)
        readings = np.array([1.0, 2.0, 3.0, 4.0])
        assert bank.apply(readings) is readings

    def test_stuck_latches_first_post_fault_reading(self):
        bank = SensorFaultBank(3)
        bank.set_fault(1, "stuck", time_s=10.0)
        first = bank.apply(np.array([1.0, 20.0, 3.0]), time_s=10.0)
        later = bank.apply(np.array([5.0, 99.0, 7.0]), time_s=20.0)
        assert first[1] == 20.0
        assert later[1] == 20.0
        assert later[0] == 5.0 and later[2] == 7.0

    def test_stuck_at_explicit_value(self):
        bank = SensorFaultBank(2)
        bank.set_fault(0, "stuck", stuck_value=42.0)
        out = bank.apply(np.array([1.0, 2.0]))
        assert out[0] == 42.0 and out[1] == 2.0

    def test_dropout_reads_fallback(self):
        bank = SensorFaultBank(2, fallback_value=-7.0)
        bank.set_fault(1, "dropout")
        out = bank.apply(np.array([1.0, 2.0]))
        assert out[1] == -7.0

    def test_drift_grows_with_elapsed_time(self):
        bank = SensorFaultBank(1)
        bank.set_fault(0, "drift", time_s=0.0, drift_per_hour=2.0)
        mid = bank.apply(np.array([10.0]), time_s=1800.0)
        late = bank.apply(np.array([10.0]), time_s=3600.0)
        assert mid[0] == pytest.approx(11.0)
        assert late[0] == pytest.approx(12.0)

    def test_clear_restores_pass_through(self):
        bank = SensorFaultBank(2)
        bank.set_fault(0, "dropout")
        bank.clear_fault(0)
        readings = np.array([1.0, 2.0])
        assert bank.apply(readings) is readings
        assert not bank.any_faulty

    def test_faulty_mask(self):
        bank = SensorFaultBank(3)
        bank.set_fault(2, "stuck")
        assert bank.faulty.tolist() == [False, False, True]

    def test_unknown_mode_raises(self):
        bank = SensorFaultBank(2)
        with pytest.raises(SensorError):
            bank.set_fault(0, "melted")

    def test_bad_channel_raises(self):
        bank = SensorFaultBank(2)
        with pytest.raises(SensorError):
            bank.set_fault(5, "stuck")


# -- configuration ----------------------------------------------------------


class TestFaultConfigValidation:
    def test_default_is_disabled_and_valid(self):
        cfg = FaultConfig()
        cfg.validate()
        assert not cfg.enabled
        assert not cfg.any_scripted

    def test_rejects_bad_capacity_factor(self):
        cfg = FaultConfig(enabled=True, cooling_faults=(
            CoolingFaultSpec(time_s=0.0, capacity_factor=1.5),))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_rejects_bad_sensor_mode(self):
        cfg = FaultConfig(enabled=True, sensor_faults=(
            SensorFaultSpec(time_s=0.0, server_id=0, mode="exploded"),))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    def test_rejects_negative_fault_time(self):
        cfg = FaultConfig(enabled=True, server_faults=(
            ServerFaultSpec(time_s=-1.0, server_id=0),))
        with pytest.raises(ConfigurationError):
            cfg.validate()

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    @pytest.mark.parametrize("group, spec, field", [
        ("server_faults", lambda v: ServerFaultSpec(time_s=v, server_id=0),
         "ServerFaultSpec.time_s"),
        ("server_faults", lambda v: ServerFaultSpec(
            time_s=1.0, server_id=0, repair_after_s=v),
         "ServerFaultSpec.repair_after_s"),
        ("sensor_faults", lambda v: SensorFaultSpec(time_s=v, server_id=0),
         "SensorFaultSpec.time_s"),
        ("sensor_faults", lambda v: SensorFaultSpec(
            time_s=1.0, server_id=0, mode="drift", drift_c_per_hour=v),
         "SensorFaultSpec.drift_c_per_hour"),
        ("sensor_faults", lambda v: SensorFaultSpec(
            time_s=1.0, server_id=0, stuck_value_c=v),
         "SensorFaultSpec.stuck_value_c"),
        ("sensor_faults", lambda v: SensorFaultSpec(
            time_s=1.0, server_id=0, clear_after_s=v),
         "SensorFaultSpec.clear_after_s"),
        ("cooling_faults", lambda v: CoolingFaultSpec(
            time_s=v, capacity_factor=0.5), "CoolingFaultSpec.time_s"),
        ("cooling_faults", lambda v: CoolingFaultSpec(
            time_s=1.0, capacity_factor=v),
         "CoolingFaultSpec.capacity_factor"),
        ("cooling_faults", lambda v: CoolingFaultSpec(
            time_s=1.0, capacity_factor=0.5, restore_after_s=v),
         "CoolingFaultSpec.restore_after_s"),
    ])
    def test_rejects_non_finite_spec_values(self, group, spec, field,
                                            value):
        """NaN passes every ``<`` and ``<=`` check, so a NaN fault time
        used to take its server down from tick 0 (and a NaN repair
        cancelled its failure) with the engine clock left at NaN."""
        cfg = FaultConfig(enabled=True, **{group: (spec(value),)})
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("field", ("hazard_acceleration", "mtbf_hours",
                                       "repair_time_s",
                                       "derate_inlet_rise_c"))
    def test_rejects_non_finite_scalars(self, field):
        cfg = FaultConfig(enabled=True, hazard_failures=True,
                          **{field: float("nan")})
        with pytest.raises(ConfigurationError,
                           match=rf"FaultConfig\.{field} must be finite"):
            cfg.validate()

    def test_nan_fault_time_never_reaches_the_engine(self, small_config):
        config = _faulted(small_config, kill_servers([1], float("nan")))
        with pytest.raises(ConfigurationError, match="time_s"):
            ClusterSimulation(config, make_scheduler("vmt-ta", config))

    def test_simulation_config_rejects_out_of_range_server(
            self, small_config):
        bad = _faulted(small_config,
                       kill_servers([small_config.num_servers], 1.0))
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_round_trips_through_dict(self, small_config):
        faults = merge_scenarios(
            kill_servers([1, 2], 2.0, repair_after_hours=1.0),
            stuck_wax_sensors([3], 1.0, stuck_value_c=25.0),
            cooling_derate(0.8, 3.0, restore_after_hours=0.5),
            temperature_hazard(500.0),
        )
        config = _faulted(small_config, faults)
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt.faults == config.faults

    def test_kill_hot_group_fraction_never_kills_everything(
            self, small_config):
        scenario = kill_hot_group_fraction(small_config, 1.0, 1.0)
        assert len(scenario.server_faults) < small_config.num_servers
        assert len(scenario.server_faults) >= 1


# -- FaultState -------------------------------------------------------------


class TestFaultState:
    @pytest.fixture
    def state(self, small_config):
        return FaultState(small_config)

    def test_initially_all_active(self, state, small_config):
        assert state.num_active == small_config.num_servers
        assert state.availability == 1.0

    def test_fail_and_repair_cycle(self, state):
        state.fail_server(3, time_s=60.0)
        assert not state.active[3]
        assert state.availability < 1.0
        assert state.drain_newly_failed() == [3]
        assert state.drain_newly_failed() == []
        state.repair_server(3)
        assert state.active[3]
        assert state.failures == 1 and state.repairs == 1

    def test_double_fail_raises(self, state):
        state.fail_server(0, time_s=0.0)
        with pytest.raises(FaultInjectionError):
            state.fail_server(0, time_s=1.0)

    def test_repairing_live_server_is_noop(self, state):
        state.repair_server(0)
        assert state.repairs == 0

    def test_recovery_time_measured_from_failure(self, state):
        state.fail_server(1, time_s=100.0)
        state.note_recovered(160.0)
        assert state.recovery_times_s == [60.0]
        state.note_recovered(999.0)  # nothing pending: no-op
        assert state.recovery_times_s == [60.0]

    def test_cooling_factor_bounds(self, state):
        state.set_cooling_factor(0.5)
        assert state.inlet_offset_c == pytest.approx(
            0.5 * FaultConfig().derate_inlet_rise_c)
        with pytest.raises(FaultInjectionError):
            state.set_cooling_factor(1.2)

    def test_out_of_range_server_raises(self, state):
        with pytest.raises(FaultInjectionError):
            state.fail_server(999, time_s=0.0)


# -- scripted injection through a full run ----------------------------------


class TestScriptedInjection:
    def test_availability_series_tracks_outage(self, small_config):
        config = _faulted(small_config, kill_servers(
            [0, 1], 2.0, repair_after_hours=1.0))
        result = run_simulation(
            config, make_scheduler("round-robin", config),
            record_heatmaps=False)
        hours = result.times_s / 3600.0
        n = config.num_servers
        during = (hours > 2.01) & (hours < 2.99)
        after = hours > 3.01
        assert np.all(result.availability[during]
                      == pytest.approx((n - 2) / n))
        assert np.all(result.availability[after] == 1.0)
        assert result.min_availability == pytest.approx((n - 2) / n)

    def test_attach_twice_raises(self, small_config):
        config = _faulted(small_config, kill_servers([0], 1.0))
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config))
        injector = sim.fault_injector
        assert injector is not None
        injector.attach(sim.engine, sim.cluster, first_tick_s=0.0)
        with pytest.raises(FaultInjectionError):
            injector.attach(sim.engine, sim.cluster, first_tick_s=0.0)

    def test_dead_servers_draw_no_power(self, small_config):
        config = _faulted(small_config, kill_servers([0, 1, 2], 1.0))
        sim = ClusterSimulation(config,
                                make_scheduler("round-robin", config))
        result = sim.run()
        assert np.all(sim.cluster.power_w[:3] == 0.0)
        assert result.total_displaced_jobs >= 0

    def test_cooling_derate_raises_air_temperatures(self, small_config):
        derated = _faulted(small_config, cooling_derate(0.5, 1.0))
        hot = run_simulation(derated,
                             make_scheduler("round-robin", derated),
                             record_heatmaps=False)
        cool = run_simulation(small_config,
                              make_scheduler("round-robin",
                                             small_config),
                              record_heatmaps=False)
        late = hot.times_s / 3600.0 > 2.0
        assert (hot.mean_temp_c[late].mean()
                > cool.mean_temp_c[late].mean() + 1.0)
        assert hot.min_cooling_capacity_factor == pytest.approx(0.5)

    def test_cluster_rejects_allocation_on_failed_server(
            self, small_config):
        config = _faulted(small_config, kill_servers([0], 0.0))
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config))
        sim.fault_injector.state.fail_server(0, 0.0)
        allocation = np.zeros(
            (config.num_servers, len(WORKLOAD_LIST)), dtype=np.int64)
        allocation[0, 0] = 1
        with pytest.raises(SimulationError, match="failed server 0"):
            sim.cluster.step(allocation, 60.0)


class TestHazardFailures:
    def test_accelerated_hazard_produces_failures(self, small_config):
        config = _faulted(small_config,
                          temperature_hazard(5_000.0,
                                             repair_time_hours=1.0))
        sim = ClusterSimulation(config,
                                make_scheduler("round-robin", config))
        result = sim.run()
        state = sim.fault_injector.state
        assert state.failures > 0
        assert result.min_availability < 1.0
        # Auto-repair brought servers back during the run.
        assert state.repairs > 0

    def test_hazard_is_deterministic_given_seed(self, small_config):
        config = _faulted(small_config,
                          temperature_hazard(5_000.0,
                                             repair_time_hours=1.0))

        def failures():
            sim = ClusterSimulation(
                config, make_scheduler("round-robin", config))
            sim.run()
            return sim.fault_injector.state.failures

        assert failures() == failures()

    def test_scripted_fault_on_a_server_a_hazard_took_down(
            self, small_config):
        """Hazard failures are drawn at run time, so no config check can
        keep a scripted fault off a server a hazard already took down.
        That fault fails nothing more, and its scripted repair fires."""
        hazard = temperature_hazard(5_000.0, repair_time_hours=1.0)
        config = _faulted(small_config, hazard)
        sim = ClusterSimulation(config,
                                make_scheduler("round-robin", config))
        first_down = []

        def watch(time_s, demand, placement, cluster):
            down = np.flatnonzero(~sim.fault_injector.state.active)
            if down.size and not first_down:
                first_down.append((time_s, int(down[0])))

        sim.add_observer(watch)
        hazard_only = sim.run()
        failures = sim.fault_injector.state.failures
        # The first tick that saw the server down ends at end_s; its
        # hazard repair comes an hour after the failure.
        end_s, server = first_down[0]
        tick = int(end_s // config.trace.step_seconds) - 1

        def with_scripted_fault(repair_after_s):
            spec = ServerFaultSpec(time_s=end_s - 30.5, server_id=server,
                                   repair_after_s=repair_after_s)
            faulted = _faulted(small_config, dataclasses.replace(
                hazard, server_faults=(spec,)))
            sim = ClusterSimulation(faulted,
                                    make_scheduler("round-robin", faulted))
            return sim.run(), sim.fault_injector.state

        unrepaired, state = with_scripted_fault(None)
        assert unrepaired.fingerprint() == hazard_only.fingerprint()
        assert state.failures == failures
        repaired, _ = with_scripted_fault(60.0)
        assert hazard_only.availability[tick + 2] < 1.0
        assert repaired.availability[tick + 2] == 1.0

    def test_hazard_draws_fire_once_per_step(self, small_config):
        """One draw per tick, at the tick's own time: the draw queues its
        successor at ``event.time + step_seconds``, the float sum the
        tick times accumulate, which at a 59.9 s step is not ``k * dt``."""
        sim, reliability, tick_times = _clocked_hazard_run(small_config)
        sim.run()
        step = sim.trace.step_seconds
        assert len(tick_times) == sim.trace.num_steps
        assert reliability.draw_times == tick_times
        assert tick_times != [k * step for k in range(len(tick_times))]

    def test_restored_run_draws_from_its_next_tick(self, small_config,
                                                   tmp_path):
        straight, _, _ = _clocked_hazard_run(
            small_config, checkpoint_every=37, checkpoint_dir=str(tmp_path))
        expected = straight.run()
        sim, reliability, tick_times = _clocked_hazard_run(small_config)
        sim.restore(load_snapshot(checkpoint_path(str(tmp_path), 74)))
        assert sim.run().fingerprint() == expected.fingerprint()
        step = sim.trace.step_seconds
        assert reliability.draw_times[0] == 74 * step
        assert reliability.draw_times == tick_times

    def test_detach_cancels_the_queued_draw(self, small_config):
        sim, reliability, _ = _clocked_hazard_run(small_config)
        injector = sim.fault_injector

        def queued_draws():
            repairs = injector.state_dict()["pending_auto_repairs"]
            return sim.engine.pending_events - len(repairs)

        during = []
        sim.add_observer(lambda *args: during.append(queued_draws()))
        sim.run()
        # Every tick ran with the next draw queued; the run's end
        # cancels the one past the last tick, leaving only the repairs
        # due after the end.
        assert during == [1] * sim.trace.num_steps
        assert queued_draws() == 0
        assert len(reliability.draw_times) == sim.trace.num_steps

    def test_repair_due_at_the_next_draw_fires_before_it(self,
                                                          small_config):
        """A repair one step after its failure shares the next draw's
        timestamp.  The draw that failed the server queued the repair
        before the next draw, so the server is back when that draw
        runs."""
        sim, reliability, _ = _clocked_hazard_run(
            small_config, acceleration=50_000.0, repair_time_s=59.9)
        sim.run()
        assert sim.fault_injector.state.failures > 0
        assert reliability.active_at_draw == (
            [small_config.num_servers] * sim.trace.num_steps)

    def test_zero_acceleration_never_fails(self, small_config):
        config = _faulted(small_config, temperature_hazard(0.0))
        sim = ClusterSimulation(config,
                                make_scheduler("round-robin", config))
        result = sim.run()
        assert sim.fault_injector.state.failures == 0
        assert result.min_availability == 1.0


# -- bit-identity of the fault-free path ------------------------------------


SERIES_FIELDS = ("cooling_load_w", "it_power_w", "mean_temp_c",
                 "mean_melt_fraction", "hot_group_mean_temp_c",
                 "max_cpu_temp_c")


class TestFaultFreePathUnchanged:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_enabled_but_empty_scenario_is_bit_identical(
            self, small_config, policy):
        """The plumbing must be inert: an enabled FaultConfig with no
        events produces exactly the series of a fault-free run."""
        armed = _faulted(small_config, FaultConfig(enabled=True))
        plain = run_simulation(
            small_config, make_scheduler(policy, small_config),
            record_heatmaps=False)
        wired = run_simulation(armed, make_scheduler(policy, armed),
                               record_heatmaps=False)
        for field in SERIES_FIELDS:
            np.testing.assert_array_equal(
                getattr(plain, field), getattr(wired, field),
                err_msg=f"{policy}: {field} changed")
        assert wired.min_availability == 1.0
        assert wired.total_displaced_jobs == 0

    def test_disabled_faults_attach_no_injector(self, small_config):
        sim = ClusterSimulation(small_config,
                                make_scheduler("vmt-ta", small_config))
        assert sim.fault_injector is None
        assert sim.cluster.fault_state is None


# -- end-to-end resilience ---------------------------------------------------


class TestEndToEndResilience:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_hot_group_outage_survived(self, small_config, policy):
        """Kill hot-group servers mid-trace: the run completes, the jobs
        re-place within one tick, and the metrics record the outage."""
        faults = kill_hot_group_fraction(small_config, 0.25, 2.0,
                                         repair_after_hours=2.0)
        killed = len(faults.server_faults)
        assert killed >= 1
        config = _faulted(small_config, faults)
        result = run_simulation(config, make_scheduler(policy, config),
                                record_heatmaps=False)
        n = config.num_servers
        assert result.min_availability == pytest.approx((n - killed) / n)
        # Every failure was credited a recovery, within one tick.
        assert len(result.recovery_times_s) == killed
        assert np.all(result.recovery_times_s
                      <= config.trace.step_seconds)
        # Full demand kept landing on survivors every tick.
        assert np.array_equal(result.jobs,
                              run_simulation(
                                  small_config,
                                  make_scheduler(policy, small_config),
                                  record_heatmaps=False).jobs)

    def test_spread_policies_displace_jobs(self, small_config):
        """Policies that load the low server ids see their jobs
        displaced by a head-of-fleet kill."""
        faults = kill_servers([0, 1], 2.0)
        config = _faulted(small_config, faults)
        for policy in ("round-robin", "vmt-ta", "vmt-wa"):
            result = run_simulation(config,
                                    make_scheduler(policy, config),
                                    record_heatmaps=False)
            assert result.total_displaced_jobs > 0, policy

    def test_capacity_error_only_on_genuine_exhaustion(self,
                                                       small_config):
        """Killing all but one server exceeds surviving capacity at the
        first post-outage tick -- and names the survivors."""
        n = small_config.num_servers
        config = _faulted(small_config,
                          kill_servers(range(n - 1), 1.0))
        with pytest.raises(CapacityError, match="surviving capacity"):
            run_simulation(config, make_scheduler("vmt-ta", config),
                           record_heatmaps=False)

    def test_small_outage_is_not_a_capacity_error(self, small_config):
        """The same demand on a mildly degraded fleet must NOT raise:
        spillover absorbs it."""
        config = _faulted(small_config, kill_servers([0], 1.0))
        run_simulation(config, make_scheduler("vmt-ta", config),
                       record_heatmaps=False)  # must not raise


# -- VMT-WA estimator divergence --------------------------------------------


def _divergence_config() -> SimulationConfig:
    return SimulationConfig(
        num_servers=30, seed=7,
        trace=TraceConfig(duration_hours=24.0),
        scheduler=SchedulerConfig(grouping_value=22.0),
    )


class TestDivergenceDegradation:
    def test_stuck_wax_sensor_triggers_ta_fallback(self):
        base = _divergence_config()
        config = _faulted(base, stuck_wax_sensors(
            [0, 1, 2, 3], 4.0, stuck_value_c=20.0))
        scheduler = make_scheduler("vmt-wa", config)
        result = run_simulation(config, scheduler,
                                record_heatmaps=False)
        assert scheduler.degraded
        # Degraded means TA sizing: the hot group never extends.
        assert (scheduler.hot_group_size
                == scheduler.base_sizer.hot_size)
        # Graceful: no CPU ever crosses the throttle point.
        throttle_c = CPUThermalModel().throttle_temp_c
        assert float(result.max_cpu_temp_c.max()) < throttle_c

    def test_healthy_run_never_degrades(self):
        base = _divergence_config()
        scheduler = make_scheduler("vmt-wa", base)
        run_simulation(base, scheduler, record_heatmaps=False)
        assert not scheduler.degraded

    def test_detection_can_be_disabled(self):
        base = _divergence_config()
        config = _faulted(base, stuck_wax_sensors(
            [0, 1, 2, 3], 4.0, stuck_value_c=20.0))
        scheduler = make_scheduler("vmt-wa", config,
                                   detect_divergence=False)
        run_simulation(config, scheduler, record_heatmaps=False)
        assert not scheduler.degraded

    def test_reset_rearms_detection(self):
        base = _divergence_config()
        config = _faulted(base, stuck_wax_sensors(
            [0, 1, 2, 3], 4.0, stuck_value_c=20.0))
        scheduler = make_scheduler("vmt-wa", config)
        run_simulation(config, scheduler, record_heatmaps=False)
        assert scheduler.degraded
        scheduler.reset()
        assert not scheduler.degraded


# -- observer hardening (simulation loop) -----------------------------------


class TestObserverHardening:
    def test_raising_observer_surfaces_as_simulation_error(
            self, small_config):
        sim = ClusterSimulation(small_config,
                                make_scheduler("round-robin",
                                               small_config))

        def bad_observer(time_s, demand, placement, cluster):
            raise ValueError("boom")

        sim.add_observer(bad_observer)
        with pytest.raises(SimulationError, match="bad_observer"):
            sim.run()

    def test_observer_errors_chain_the_cause(self, small_config):
        sim = ClusterSimulation(small_config,
                                make_scheduler("round-robin",
                                               small_config))

        def fragile(time_s, demand, placement, cluster):
            raise KeyError("missing")

        sim.add_observer(fragile)
        with pytest.raises(SimulationError) as excinfo:
            sim.run()
        assert isinstance(excinfo.value.__cause__, KeyError)
