"""Central configuration objects.

Every calibration constant in the reproduction lives here, in one of a
handful of frozen dataclasses, so experiments can be described as pure data
and the mapping back to the paper's Section IV (Methodology) stays
auditable.  The defaults reproduce the paper's test datacenter:

* 2U servers with 4x Xeon E7-4809 v4 (32 cores), 100 W idle / 500 W peak;
* 4.0 L of commercial paraffin wax at 35.7 deg C melting point per server;
* 20 deg C nominal inlet air, lumped air-path resistance calibrated so the
  round-robin cluster peaks *just below* the melt point (paper Fig. 9);
* a 1-minute wax model / scheduler update period (Section IV-A).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from .errors import ConfigurationError


@dataclass(frozen=True)
class ServerConfig:
    """Physical and electrical description of one server (Section IV-A)."""

    sockets: int = 4
    cores_per_socket: int = 8
    idle_power_w: float = 100.0
    peak_power_w: float = 500.0

    @property
    def cores(self) -> int:
        """Total physical cores in the server."""
        return self.sockets * self.cores_per_socket

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.sockets <= 0 or self.cores_per_socket <= 0:
            raise ConfigurationError("server must have at least one core")
        if self.idle_power_w < 0:
            raise ConfigurationError("idle power must be non-negative")
        if self.peak_power_w <= self.idle_power_w:
            raise ConfigurationError("peak power must exceed idle power")


@dataclass(frozen=True)
class WaxConfig:
    """Per-server PCM deployment (Section IV-A, 'Wax Placement').

    The paper deploys 4.0 liters of commercial paraffin (melting point
    35.7 deg C, the lowest commercially available) split across four
    aluminum containers behind the CPU heat sinks.
    """

    volume_liters: float = 4.0
    density_kg_per_m3: float = 880.0
    melt_temp_c: float = 35.7
    latent_heat_j_per_kg: float = 230e3
    specific_heat_solid_j_per_kg_k: float = 2100.0
    specific_heat_liquid_j_per_kg_k: float = 2400.0

    @property
    def mass_kg(self) -> float:
        """Wax mass per server."""
        return self.volume_liters / 1000.0 * self.density_kg_per_m3

    @property
    def latent_capacity_j(self) -> float:
        """Total latent heat storage per server (J)."""
        return self.mass_kg * self.latent_heat_j_per_kg

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.volume_liters < 0:
            raise ConfigurationError("wax volume must be non-negative")
        if self.density_kg_per_m3 <= 0:
            raise ConfigurationError("wax density must be positive")
        if self.latent_heat_j_per_kg < 0:
            raise ConfigurationError("latent heat must be non-negative")
        if (self.specific_heat_solid_j_per_kg_k <= 0
                or self.specific_heat_liquid_j_per_kg_k <= 0):
            raise ConfigurationError("specific heats must be positive")

    def scaled_latent(self, factor: float) -> "WaxConfig":
        """Return a copy with the heat of fusion scaled by ``factor``.

        Used by the GV -> VMT mapping derivation (Table II), which matches
        the hot group's available storage by modifying the heat of fusion.
        """
        if factor < 0:
            raise ConfigurationError("latent scale factor must be >= 0")
        return dataclasses.replace(
            self, latent_heat_j_per_kg=self.latent_heat_j_per_kg * factor)

    def with_melt_temp(self, melt_temp_c: float) -> "WaxConfig":
        """Return a copy with a different physical melting temperature."""
        return dataclasses.replace(self, melt_temp_c=melt_temp_c)


@dataclass(frozen=True)
class ThermalConfig:
    """Lumped thermal parameters of the server air path and wax coupling.

    ``r_air_c_per_w`` is the steady-state temperature rise of the air at
    the wax per watt of IT power; ``tau_air_s`` is the first-order time
    constant of that air node; ``ha_w_per_k`` is the convective
    conductance between the air and the wax containers.  Defaults are
    calibrated per DESIGN.md Section 4.
    """

    inlet_temp_c: float = 20.0
    inlet_stdev_c: float = 0.0
    r_air_c_per_w: float = 0.068
    tau_air_s: float = 300.0
    ha_w_per_k: float = 14.0
    air_sensor_noise_c: float = 0.5
    wax_sensor_noise_c: float = 0.2

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.r_air_c_per_w <= 0:
            raise ConfigurationError("air thermal resistance must be positive")
        if self.tau_air_s <= 0:
            raise ConfigurationError("air time constant must be positive")
        if self.ha_w_per_k < 0:
            raise ConfigurationError("air-wax conductance must be >= 0")
        if self.inlet_stdev_c < 0:
            raise ConfigurationError("inlet stdev must be >= 0")
        if self.air_sensor_noise_c < 0 or self.wax_sensor_noise_c < 0:
            raise ConfigurationError("sensor noise must be >= 0")


@dataclass(frozen=True)
class HardwareClass:
    """One server hardware class a fleet site can deploy.

    The paper's cluster is 1,000 *identical* CPU servers; real fleets
    mix generations and accelerators.  A hardware class bundles the two
    per-server knobs the physics consumes -- the power curve
    (:class:`ServerConfig`, feeding ``LinearPowerModel``) and the PCM
    loadout (:class:`WaxConfig`, feeding ``PCMBank``) -- under a stable
    name, so heterogeneous sites stay declarative data.
    """

    name: str
    server: ServerConfig = field(default_factory=ServerConfig)
    wax: WaxConfig = field(default_factory=WaxConfig)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if not self.name:
            raise ConfigurationError("hardware class needs a name")
        self.server.validate()
        self.wax.validate()

    def apply_to(self, config: "SimulationConfig") -> "SimulationConfig":
        """A copy of ``config`` running on this hardware class."""
        return config.replace(server=self.server, wax=self.wax)


#: Built-in hardware classes.  ``cpu`` is exactly the paper's 2U Xeon
#: box (identical to a default :class:`ServerConfig`/:class:`WaxConfig`,
#: so selecting it never changes a result); ``gpu`` is an
#: accelerator-dense chassis: fewer, hotter sockets, a wider
#: idle-to-peak dynamic range, and a proportionally larger wax loadout
#: behind the heat sinks.
HARDWARE_CLASSES: Dict[str, HardwareClass] = {
    "cpu": HardwareClass(name="cpu"),
    "gpu": HardwareClass(
        name="gpu",
        server=ServerConfig(sockets=2, cores_per_socket=8,
                            idle_power_w=250.0, peak_power_w=1100.0),
        wax=WaxConfig(volume_liters=6.0)),
}


def hardware_class(name: str) -> HardwareClass:
    """Look up a built-in hardware class by name."""
    try:
        return HARDWARE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(HARDWARE_CLASSES))
        raise ConfigurationError(
            f"unknown hardware class {name!r}; known: {known}") from None


@dataclass(frozen=True)
class BatteryConfig:
    """Site battery storage: a second time-shifting medium beside wax.

    The wax shifts *thermal* load inside the server; a battery shifts
    the cooling plant's *electrical* draw on the grid side.  The model
    is a rate- and capacity-limited energy store with a round-trip
    efficiency split evenly between charge and discharge legs; dispatch
    policy lives in :mod:`repro.fleet.battery`.
    """

    capacity_kwh: float = 0.0
    max_charge_kw: float = 0.0
    max_discharge_kw: float = 0.0
    round_trip_efficiency: float = 0.90
    initial_soc: float = 0.5

    @property
    def enabled(self) -> bool:
        """Whether this battery can ever move any energy."""
        return (self.capacity_kwh > 0 and self.max_charge_kw > 0
                and self.max_discharge_kw > 0)

    @property
    def one_way_efficiency(self) -> float:
        """Per-leg efficiency (round trip split evenly)."""
        return math.sqrt(self.round_trip_efficiency)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.capacity_kwh < 0:
            raise ConfigurationError("battery capacity must be >= 0")
        if self.max_charge_kw < 0 or self.max_discharge_kw < 0:
            raise ConfigurationError("battery rates must be >= 0")
        if not 0.0 < self.round_trip_efficiency <= 1.0:
            raise ConfigurationError(
                "round-trip efficiency must be in (0, 1]")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ConfigurationError("initial SOC must be in [0, 1]")


#: Demand-event kinds a trace overlay supports.
DEMAND_EVENT_KINDS = ("surge", "curtail")


@dataclass(frozen=True)
class DemandEventSpec:
    """One scripted demand event layered onto the diurnal trace.

    ``surge`` multiplies utilization by ``magnitude`` (> 1 for a flash
    crowd / Black-Friday spike); ``curtail`` caps utilization at
    ``magnitude`` (a demand-response curtailment).  Both ramp linearly
    over ``ramp_hours`` at each edge of the ``[start_hour, end_hour]``
    window so the overlay never introduces a step discontinuity the
    schedulers could exploit.
    """

    kind: str
    start_hour: float
    end_hour: float
    magnitude: float
    ramp_hours: float = 0.5

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.kind not in DEMAND_EVENT_KINDS:
            raise ConfigurationError(
                f"demand event kind must be one of {DEMAND_EVENT_KINDS}")
        if self.start_hour < 0 or self.end_hour <= self.start_hour:
            raise ConfigurationError(
                "demand event needs 0 <= start_hour < end_hour")
        if self.ramp_hours < 0:
            raise ConfigurationError("demand event ramp must be >= 0")
        if self.kind == "surge" and self.magnitude <= 0:
            raise ConfigurationError("surge magnitude must be positive")
        if self.kind == "curtail" and not 0.0 <= self.magnitude <= 1.0:
            raise ConfigurationError(
                "curtail magnitude (a utilization cap) must be in [0, 1]")


@dataclass(frozen=True)
class TraceConfig:
    """Shape of the synthetic two-day diurnal load trace (Fig. 8).

    The paper uses a Google trace normalized per Kontorinis et al. with
    utilization peaking at 95% around hour 20 (and again around hour 46)
    and troughs near hours 5 and 29.  ``overlay`` layers scripted demand
    events (surges, curtailments) onto that skeleton; an empty overlay
    leaves the generated trace bit-identical to earlier releases.
    """

    duration_hours: float = 48.0
    step_seconds: float = 60.0
    peak_utilization: float = 0.95
    trough_utilization: float = 0.35
    peak_hour: float = 20.0
    noise_stdev: float = 0.01
    seed: int = 2018
    overlay: Tuple[DemandEventSpec, ...] = ()

    @property
    def num_steps(self) -> int:
        """Number of simulation steps covered by the trace."""
        return int(round(self.duration_hours * 3600.0 / self.step_seconds))

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.duration_hours <= 0:
            raise ConfigurationError("trace duration must be positive")
        if self.step_seconds <= 0:
            raise ConfigurationError("trace step must be positive")
        if not 0.0 < self.peak_utilization <= 1.0:
            raise ConfigurationError("peak utilization must be in (0, 1]")
        if not 0.0 <= self.trough_utilization < self.peak_utilization:
            raise ConfigurationError(
                "trough utilization must be in [0, peak_utilization)")
        if self.noise_stdev < 0:
            raise ConfigurationError("noise stdev must be >= 0")
        for event in self.overlay:
            event.validate()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceConfig":
        """Rebuild a trace config from :meth:`to_dict`-style output."""
        fields = dict(data)
        fields["overlay"] = tuple(
            DemandEventSpec(**e) if isinstance(e, dict) else e
            for e in fields.get("overlay", ()))
        return cls(**fields)


@dataclass(frozen=True)
class SchedulerConfig:
    """Parameters shared by the VMT schedulers (Section III).

    ``grouping_value`` (GV) sizes the hot group via Eq. 1,
    ``hot_group_size = GV / PMT * num_servers``.  ``wax_threshold`` is the
    melted fraction above which VMT-WA considers a server fully melted
    (fixed at 0.98 in the paper's experiments, swept in Fig. 17).
    """

    grouping_value: float = 22.0
    wax_threshold: float = 0.98
    update_period_s: float = 60.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.grouping_value <= 0:
            raise ConfigurationError("grouping value must be positive")
        if not 0.0 < self.wax_threshold <= 1.0:
            raise ConfigurationError("wax threshold must be in (0, 1]")
        if self.update_period_s <= 0:
            raise ConfigurationError("update period must be positive")


@dataclass(frozen=True)
class AmbientEventSpec:
    """One scripted ambient (outside-weather) excursion.

    Supply-air temperature rises by ``delta_c`` across
    ``[start_hour, end_hour]``, ramping linearly over ``ramp_hours`` at
    each edge -- the building block for heat waves and cold snaps
    (negative ``delta_c``).
    """

    start_hour: float
    end_hour: float
    delta_c: float
    ramp_hours: float = 1.0

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.start_hour < 0 or self.end_hour <= self.start_hour:
            raise ConfigurationError(
                "ambient event needs 0 <= start_hour < end_hour")
        if self.ramp_hours < 0:
            raise ConfigurationError("ambient event ramp must be >= 0")
        if not -50.0 <= self.delta_c <= 50.0:
            raise ConfigurationError(
                "ambient delta must be within +-50 deg C")


@dataclass(frozen=True)
class AmbientConfig:
    """Time-varying ambient profile shifting every server inlet.

    The paper holds supply air at a fixed nominal inlet; real plants see
    weather.  The profile is a uniform, deterministic inlet offset:
    an optional sinusoidal diurnal swing (hottest at
    ``diurnal_peak_hour``) plus scripted :class:`AmbientEventSpec`
    excursions.  The default profile is identically zero and leaves the
    simulation bit-identical to a fixed-inlet build.
    """

    diurnal_amplitude_c: float = 0.0
    diurnal_peak_hour: float = 15.0
    events: Tuple[AmbientEventSpec, ...] = ()

    @property
    def is_active(self) -> bool:
        """Whether this profile can ever produce a nonzero offset."""
        return self.diurnal_amplitude_c != 0.0 or bool(self.events)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        if self.diurnal_amplitude_c < 0:
            raise ConfigurationError(
                "diurnal amplitude must be >= 0 (use events for cold "
                "snaps)")
        if not 0.0 <= self.diurnal_peak_hour < 24.0:
            raise ConfigurationError(
                "diurnal peak hour must be in [0, 24)")
        for event in self.events:
            event.validate()

    def offset_c_at(self, time_s: float) -> float:
        """The inlet offset (deg C) at a simulation time.

        Pure function of the configuration and the clock, so checkpoint
        resume needs no extra state and two runs can never disagree.
        """
        hours = time_s / 3600.0
        offset = 0.0
        if self.diurnal_amplitude_c:
            angle = 2.0 * math.pi * (hours - self.diurnal_peak_hour) / 24.0
            offset += self.diurnal_amplitude_c * math.cos(angle)
        for event in self.events:
            offset += event.delta_c * _ramp_weight(
                hours, event.start_hour, event.end_hour, event.ramp_hours)
        return offset

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AmbientConfig":
        """Rebuild an ambient profile from :meth:`to_dict`-style output."""
        fields = dict(data)
        fields["events"] = tuple(
            AmbientEventSpec(**e) if isinstance(e, dict) else e
            for e in fields.get("events", ()))
        return cls(**fields)


def _ramp_weight(hour: float, start: float, end: float,
                 ramp: float) -> float:
    """Trapezoidal window weight in [0, 1] with linear edge ramps.

    Full strength inside ``[start, end]``; ramps from 0 over ``ramp``
    hours before ``start`` and back to 0 over ``ramp`` hours after
    ``end``.
    """
    if hour <= start - ramp or hour >= end + ramp:
        return 0.0
    if hour < start:
        return (hour - (start - ramp)) / ramp
    if hour <= end:
        return 1.0
    return ((end + ramp) - hour) / ramp


#: Sensor channels a fault can target.
SENSOR_TARGETS = ("air", "wax")

#: Supported sensor fault modes (see ``repro.server.sensors``).
SENSOR_FAULT_MODES = ("stuck", "dropout", "drift")


def _require_finite(spec) -> None:
    """Raise :class:`ConfigurationError` naming ``spec``'s first numeric
    field that is NaN or infinite (NaN passes every ``<``/``<=`` check)."""
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ConfigurationError(
                f"{type(spec).__name__}.{f.name} must be finite, "
                f"got {value}")


@dataclass(frozen=True)
class ServerFaultSpec:
    """One scripted server failure.

    The server goes dark at ``time_s`` (zero power, zero capacity, jobs
    displaced); when ``repair_after_s`` is set it rejoins the cluster
    that many seconds later, otherwise it stays down for the run.
    """

    time_s: float
    server_id: int
    repair_after_s: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        _require_finite(self)
        if self.time_s < 0:
            raise ConfigurationError("fault time must be >= 0")
        if self.server_id < 0:
            raise ConfigurationError("server id must be >= 0")
        if self.repair_after_s is not None and self.repair_after_s <= 0:
            raise ConfigurationError("repair delay must be positive")


@dataclass(frozen=True)
class SensorFaultSpec:
    """One scripted sensor fault on a server's air or wax sensor.

    Modes: ``stuck`` freezes the reading at its value when the fault
    fires, ``dropout`` replaces it with the sensor's fallback value, and
    ``drift`` adds ``drift_c_per_hour`` times the elapsed hours.
    """

    time_s: float
    server_id: int
    sensor: str = "wax"          # one of SENSOR_TARGETS
    mode: str = "stuck"          # one of SENSOR_FAULT_MODES
    drift_c_per_hour: float = 0.0
    stuck_value_c: Optional[float] = None
    clear_after_s: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        _require_finite(self)
        if self.time_s < 0:
            raise ConfigurationError("fault time must be >= 0")
        if self.server_id < 0:
            raise ConfigurationError("server id must be >= 0")
        if self.sensor not in SENSOR_TARGETS:
            raise ConfigurationError(
                f"sensor must be one of {SENSOR_TARGETS}")
        if self.mode not in SENSOR_FAULT_MODES:
            raise ConfigurationError(
                f"mode must be one of {SENSOR_FAULT_MODES}")
        if self.clear_after_s is not None and self.clear_after_s <= 0:
            raise ConfigurationError("clear delay must be positive")


@dataclass(frozen=True)
class CoolingFaultSpec:
    """One scripted cooling-plant derating.

    At ``time_s`` the plant's deliverable capacity drops to
    ``capacity_factor`` of nominal; supply air warms accordingly (see
    ``FaultConfig.derate_inlet_rise_c``).  ``restore_after_s`` brings the
    plant back to full capacity.
    """

    time_s: float
    capacity_factor: float
    restore_after_s: Optional[float] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        _require_finite(self)
        if self.time_s < 0:
            raise ConfigurationError("fault time must be >= 0")
        if not 0.0 <= self.capacity_factor <= 1.0:
            raise ConfigurationError("capacity factor must be in [0, 1]")
        if self.restore_after_s is not None and self.restore_after_s <= 0:
            raise ConfigurationError("restore delay must be positive")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection scenario for one run (Section IV-D made live).

    Disabled by default: a default-constructed config injects nothing
    and leaves every simulation bit-identical to a fault-free build.
    ``hazard_failures`` samples random failures each tick from the
    reliability hazard at each server's current temperature (hot-group
    servers genuinely fail more often); ``hazard_acceleration`` scales
    that rate so multi-year MTBFs produce visible failures inside a
    two-day trace.  Scripted specs fire deterministically.
    """

    enabled: bool = False
    hazard_failures: bool = False
    hazard_acceleration: float = 1.0
    mtbf_hours: float = 70_000.0
    repair_time_s: float = 4 * 3600.0
    auto_repair: bool = True
    derate_inlet_rise_c: float = 8.0
    server_faults: Tuple[ServerFaultSpec, ...] = ()
    sensor_faults: Tuple[SensorFaultSpec, ...] = ()
    cooling_faults: Tuple[CoolingFaultSpec, ...] = ()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical values."""
        _require_finite(self)
        if self.hazard_acceleration < 0:
            raise ConfigurationError(
                "hazard acceleration must be >= 0")
        if self.mtbf_hours <= 0:
            raise ConfigurationError("MTBF must be positive")
        if self.repair_time_s <= 0:
            raise ConfigurationError("repair time must be positive")
        if self.derate_inlet_rise_c < 0:
            raise ConfigurationError("derate inlet rise must be >= 0")
        for spec in (self.server_faults + self.sensor_faults
                     + self.cooling_faults):
            spec.validate()

    @property
    def any_scripted(self) -> bool:
        """Whether the scenario contains any deterministic events."""
        return bool(self.server_faults or self.sensor_faults
                    or self.cooling_faults)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultConfig":
        """Rebuild a fault scenario from :meth:`to_dict`-style output."""
        def build(spec_cls, entries):
            return tuple(spec_cls(**e) if isinstance(e, dict) else e
                         for e in entries)
        fields = dict(data)
        fields["server_faults"] = build(
            ServerFaultSpec, fields.get("server_faults", ()))
        fields["sensor_faults"] = build(
            SensorFaultSpec, fields.get("sensor_faults", ()))
        fields["cooling_faults"] = build(
            CoolingFaultSpec, fields.get("cooling_faults", ()))
        return cls(**fields)


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one cluster simulation run."""

    num_servers: int = 100
    server: ServerConfig = field(default_factory=ServerConfig)
    wax: WaxConfig = field(default_factory=WaxConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    ambient: AmbientConfig = field(default_factory=AmbientConfig)
    seed: int = 7

    def validate(self) -> None:
        """Validate the config tree; raise :class:`ConfigurationError`."""
        if self.num_servers <= 0:
            raise ConfigurationError("cluster must contain servers")
        self.server.validate()
        self.wax.validate()
        self.thermal.validate()
        self.trace.validate()
        self.scheduler.validate()
        self.faults.validate()
        self.ambient.validate()
        for spec in (self.faults.server_faults + self.faults.sensor_faults):
            if spec.server_id >= self.num_servers:
                raise ConfigurationError(
                    f"fault targets server {spec.server_id} but the "
                    f"cluster has {self.num_servers} servers")

    @property
    def total_cores(self) -> int:
        """Total cores across the cluster."""
        return self.num_servers * self.server.cores

    def replace(self, **changes: Any) -> "SimulationConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the full configuration tree to plain dictionaries."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            num_servers=data.get("num_servers", 100),
            server=ServerConfig(**data.get("server", {})),
            wax=WaxConfig(**data.get("wax", {})),
            thermal=ThermalConfig(**data.get("thermal", {})),
            trace=TraceConfig.from_dict(data.get("trace", {})),
            scheduler=SchedulerConfig(**data.get("scheduler", {})),
            faults=FaultConfig.from_dict(data.get("faults", {})),
            ambient=AmbientConfig.from_dict(data.get("ambient", {})),
            seed=data.get("seed", 7),
        )


def paper_cluster_config(num_servers: int = 1000,
                         grouping_value: float = 22.0,
                         seed: int = 7,
                         inlet_stdev_c: float = 0.0,
                         wax_threshold: float = 0.98) -> SimulationConfig:
    """Convenience constructor for the paper's evaluation cluster.

    The paper runs most headline experiments on 1,000 servers and the
    parameter sweeps on 100 servers "to reduce total compute time"
    (Section IV-A); pass ``num_servers=100`` for the latter.
    """
    return SimulationConfig(
        num_servers=num_servers,
        scheduler=SchedulerConfig(grouping_value=grouping_value,
                                  wax_threshold=wax_threshold),
        thermal=ThermalConfig(inlet_stdev_c=inlet_stdev_c),
        seed=seed,
    )
