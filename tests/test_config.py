"""Unit tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (AmbientConfig, AmbientEventSpec, BatteryConfig,
                          DemandEventSpec, SchedulerConfig, ServerConfig,
                          SimulationConfig, ThermalConfig, TraceConfig,
                          WaxConfig, paper_cluster_config)
from repro.errors import ConfigurationError


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("build, field", [
    (lambda v: ServerConfig(idle_power_w=v), "ServerConfig.idle_power_w"),
    (lambda v: WaxConfig(volume_liters=v), "WaxConfig.volume_liters"),
    (lambda v: ThermalConfig(inlet_stdev_c=v),
     "ThermalConfig.inlet_stdev_c"),
    (lambda v: BatteryConfig(capacity_kwh=v), "BatteryConfig.capacity_kwh"),
    (lambda v: DemandEventSpec("surge", 1.0, 2.0, magnitude=v),
     "DemandEventSpec.magnitude"),
    (lambda v: TraceConfig(duration_hours=v), "TraceConfig.duration_hours"),
    (lambda v: SchedulerConfig(grouping_value=v),
     "SchedulerConfig.grouping_value"),
    (lambda v: AmbientEventSpec(1.0, 2.0, delta_c=v),
     "AmbientEventSpec.delta_c"),
    (lambda v: AmbientConfig(diurnal_amplitude_c=v),
     "AmbientConfig.diurnal_amplitude_c"),
])
def test_validate_rejects_non_finite_floats(build, field, value):
    """NaN passes every ``<``/``<=`` check; infinity passes ``> 0``."""
    with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
        build(value).validate()


class TestServerConfig:
    def test_defaults_match_paper(self):
        server = ServerConfig()
        assert server.sockets == 4
        assert server.cores_per_socket == 8
        assert server.cores == 32
        assert server.idle_power_w == 100.0
        assert server.peak_power_w == 500.0

    def test_validate_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(sockets=0).validate()

    def test_validate_rejects_peak_below_idle(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(idle_power_w=300, peak_power_w=200).validate()

    def test_validate_rejects_negative_idle(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(idle_power_w=-1).validate()


class TestWaxConfig:
    def test_defaults_match_paper(self):
        wax = WaxConfig()
        assert wax.volume_liters == 4.0
        assert wax.melt_temp_c == 35.7

    def test_mass_from_volume_and_density(self):
        wax = WaxConfig(volume_liters=4.0, density_kg_per_m3=880.0)
        assert wax.mass_kg == pytest.approx(3.52)

    def test_latent_capacity(self):
        wax = WaxConfig(volume_liters=1.0, density_kg_per_m3=1000.0,
                        latent_heat_j_per_kg=100e3)
        assert wax.latent_capacity_j == pytest.approx(100e3)

    def test_scaled_latent(self):
        wax = WaxConfig()
        half = wax.scaled_latent(0.5)
        assert half.latent_heat_j_per_kg == pytest.approx(
            wax.latent_heat_j_per_kg / 2)
        # Original unchanged (frozen dataclass semantics).
        assert wax.latent_heat_j_per_kg == WaxConfig().latent_heat_j_per_kg

    def test_scaled_latent_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            WaxConfig().scaled_latent(-0.1)

    def test_with_melt_temp(self):
        wax = WaxConfig().with_melt_temp(30.0)
        assert wax.melt_temp_c == 30.0

    def test_validate_rejects_bad_density(self):
        with pytest.raises(ConfigurationError):
            WaxConfig(density_kg_per_m3=0).validate()


class TestThermalConfig:
    def test_validate_rejects_nonpositive_resistance(self):
        with pytest.raises(ConfigurationError):
            ThermalConfig(r_air_c_per_w=0).validate()

    def test_validate_rejects_negative_stdev(self):
        with pytest.raises(ConfigurationError):
            ThermalConfig(inlet_stdev_c=-1).validate()

    def test_validate_accepts_defaults(self):
        ThermalConfig().validate()


class TestTraceConfig:
    def test_num_steps(self):
        trace = TraceConfig(duration_hours=48.0, step_seconds=60.0)
        assert trace.num_steps == 2880

    def test_validate_rejects_trough_above_peak(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(peak_utilization=0.5,
                        trough_utilization=0.6).validate()

    def test_validate_rejects_zero_duration(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(duration_hours=0).validate()


class TestSchedulerConfig:
    def test_defaults(self):
        sched = SchedulerConfig()
        assert sched.grouping_value == 22.0
        assert sched.wax_threshold == 0.98

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.5])
    def test_validate_rejects_bad_threshold(self, threshold):
        with pytest.raises(ConfigurationError):
            SchedulerConfig(wax_threshold=threshold).validate()


class TestSimulationConfig:
    def test_total_cores(self):
        config = SimulationConfig(num_servers=10)
        assert config.total_cores == 320

    def test_validate_tree(self):
        SimulationConfig().validate()

    def test_validate_rejects_empty_cluster(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_servers=0).validate()

    def test_round_trip_via_dict(self):
        config = paper_cluster_config(num_servers=250, grouping_value=24.0,
                                      seed=99, inlet_stdev_c=1.5)
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_replace_preserves_other_fields(self):
        config = SimulationConfig()
        changed = config.replace(num_servers=7)
        assert changed.num_servers == 7
        assert changed.wax == config.wax


class TestPaperClusterConfig:
    def test_builds_1000_server_cluster_by_default(self):
        config = paper_cluster_config()
        assert config.num_servers == 1000
        config.validate()

    def test_passes_through_parameters(self):
        config = paper_cluster_config(num_servers=100, grouping_value=24,
                                      inlet_stdev_c=2.0, wax_threshold=0.9)
        assert config.scheduler.grouping_value == 24
        assert config.thermal.inlet_stdev_c == 2.0
        assert config.scheduler.wax_threshold == 0.9
