"""Metrics collection and simulation results.

The evaluation's figures all derive from a handful of series recorded per
scheduling tick: the cluster cooling load (Figs. 13/16), per-server air
temperature and wax-melt heatmaps (Figs. 9-11, 14), and group-mean
temperatures (Figs. 12/15).  :class:`MetricsCollector` accumulates them;
:class:`SimulationResult` is the immutable analysis-friendly product.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional

import numpy as np

from ..config import SimulationConfig
from ..errors import SimulationError

#: Scalar series buffers, in (attribute, dtype) order.  Kept in one table
#: so the preallocation, growth, and finish paths cannot drift apart.
_SCALAR_SERIES = (
    ("times_s", np.float64),
    ("cooling_load_w", np.float64),
    ("it_power_w", np.float64),
    ("wax_absorption_w", np.float64),
    ("mean_temp_c", np.float64),
    ("hot_group_mean_temp_c", np.float64),
    ("cold_group_mean_temp_c", np.float64),
    ("mean_melt_fraction", np.float64),
    ("hot_group_size", np.int64),
    ("jobs", np.int64),
    ("max_cpu_temp_c", np.float64),
    ("availability", np.float64),
    ("displaced_jobs", np.int64),
    ("cooling_capacity_factor", np.float64),
)

#: Default buffer size when the caller cannot predict the tick count.
_DEFAULT_CAPACITY = 1024

#: A profiled run's timings, ``{section: {"calls", "total_s"}}``: the
#: per-tick driver's ``placement``, ``air_model``, ``pcm``, ``estimator``
#: and ``metrics`` (plus ``checks`` under a sanitizer), or the planned
#: kernel's ``kernel_plan``, ``kernel_fused_step``,
#: ``kernel_metrics_write`` and ``dispatch``.
Profile = Dict[str, Dict[str, float]]


class TickBlock(NamedTuple):
    """The physics of a block of ticks, row ``t`` for tick ``t``: what
    :meth:`~repro.cluster.cluster.Cluster.advance` leaves for
    :meth:`MetricsCollector.fill_block`."""

    times_s: np.ndarray           #: (T,) cluster clock after each tick
    power_w: np.ndarray           #: (T, n) IT power
    wax_absorption_w: np.ndarray  #: (T, n) heat into the wax
    air_temp_c: np.ndarray        #: (T, n) true air temperature at the wax
    melt_fraction: np.ndarray     #: (T, n) true melt fraction
    max_cpu_temp_c: np.ndarray    #: (T,) hottest CPU junction


def add_timing(profile: Profile, section: str, elapsed_s: float) -> None:
    """Count one call of ``section`` that took ``elapsed_s`` seconds."""
    timing = profile.get(section)
    if timing is None:
        profile[section] = {"calls": 1, "total_s": elapsed_s}
    else:
        timing["calls"] += 1
        timing["total_s"] += elapsed_s


class MetricsCollector:
    """Accumulates per-tick series during a simulation run.

    Buffers are preallocated numpy arrays, not growing Python lists:
    pass ``capacity`` (normally ``trace.num_steps``) and every block of
    ticks (:meth:`fill_block`) is one slice store per series into fixed
    storage.  When the capacity is unknown (or underestimated) the
    buffers double transparently.

    ``record_heatmaps=False`` skips the (steps x servers) arrays to keep
    1,000-server parameter sweeps light.
    """

    def __init__(self, record_heatmaps: bool = True,
                 capacity: Optional[int] = None) -> None:
        self._record_heatmaps = record_heatmaps
        self._capacity = (int(capacity) if capacity and capacity > 0
                          else _DEFAULT_CAPACITY)
        self._size = 0
        self._series: Dict[str, np.ndarray] = {
            name: np.empty(self._capacity, dtype=dtype)
            for name, dtype in _SCALAR_SERIES}
        # Heatmap buffers need the server count; allocated lazily on the
        # first block.
        self._temp_map: Optional[np.ndarray] = None
        self._melt_map: Optional[np.ndarray] = None

    def _grow(self) -> None:
        self._capacity *= 2
        for name, buffer in self._series.items():
            grown = np.empty(self._capacity, dtype=buffer.dtype)
            grown[:self._size] = buffer[:self._size]
            self._series[name] = grown
        for attr in ("_temp_map", "_melt_map"):
            buffer = getattr(self, attr)
            if buffer is not None:
                grown = np.empty((self._capacity, buffer.shape[1]),
                                 dtype=buffer.dtype)
                grown[:self._size] = buffer[:self._size]
                setattr(self, attr, grown)

    def fill_block(self, block: TickBlock, *, jobs,
                   hot_mask: Optional[np.ndarray] = None,
                   availability=1.0, displaced_jobs=0,
                   cooling_capacity_factor=1.0) -> None:
        """Append the rows of one block of ticks.

        ``block`` is what :meth:`~repro.cluster.cluster.Cluster.advance`
        returned for the ticks.  ``jobs`` and the three fault columns
        are each tick's value, or one value for every tick; ``hot_mask``
        is the hot group over the block.  A group that is empty (or no
        mask) records NaN for its mean.  The rows land after the ones
        already recorded: none on a fresh collector, the restored
        prefix on a resumed one.  Every series is a row reduction, so a
        ``T``-row block stores the bits ``T`` one-row blocks store.
        """
        temp = block.air_temp_c
        start = self._size
        stop = start + len(temp)
        while self._capacity < stop:
            self._grow()
        rows = slice(start, stop)
        series = self._series
        it_power = block.power_w.sum(axis=1)
        absorbed = block.wax_absorption_w.sum(axis=1)
        series["times_s"][rows] = block.times_s
        series["it_power_w"][rows] = it_power
        series["wax_absorption_w"][rows] = absorbed
        series["cooling_load_w"][rows] = it_power - absorbed
        series["mean_temp_c"][rows] = temp.mean(axis=1)
        series["mean_melt_fraction"][rows] = block.melt_fraction.mean(axis=1)
        series["max_cpu_temp_c"][rows] = block.max_cpu_temp_c
        series["jobs"][rows] = jobs
        series["availability"][rows] = availability
        series["displaced_jobs"][rows] = displaced_jobs
        series["cooling_capacity_factor"][rows] = cooling_capacity_factor
        hot_size = 0 if hot_mask is None else int(np.count_nonzero(hot_mask))
        series["hot_group_size"][rows] = hot_size
        # compress keeps each group row contiguous (a boolean index on
        # axis 1 would not), so its mean is the 1-D mean of that row.
        series["hot_group_mean_temp_c"][rows] = (
            temp.compress(hot_mask, axis=1).mean(axis=1) if hot_size
            else np.nan)
        series["cold_group_mean_temp_c"][rows] = (
            temp.compress(~hot_mask, axis=1).mean(axis=1)
            if 0 < hot_size < temp.shape[1] else np.nan)
        if self._record_heatmaps:
            if self._temp_map is None:
                width = temp.shape[1]
                self._temp_map = np.empty((self._capacity, width),
                                          dtype=np.float32)
                self._melt_map = np.empty((self._capacity, width),
                                          dtype=np.float32)
            self._temp_map[rows] = temp
            self._melt_map[rows] = block.melt_fraction
        self._size = stop

    @property
    def size(self) -> int:
        """Ticks recorded so far."""
        return self._size

    @property
    def record_heatmaps(self) -> bool:
        """Whether per-server heatmaps are being collected."""
        return self._record_heatmaps

    def last_value(self, name: str) -> float:
        """The most recently recorded sample of a scalar series.

        Lets the :mod:`repro.checks` sanitizer audit what the collector
        actually stored (e.g. the cooling-load identity) without copying
        whole series mid-run.
        """
        if self._size == 0:
            raise SimulationError("no ticks were recorded")
        if name not in self._series:
            raise SimulationError(f"unknown metrics series {name!r}")
        return float(self._series[name][self._size - 1])

    def state_dict(self) -> Dict[str, Any]:
        """Rows recorded so far, trimmed to the live size."""
        return {
            "size": self._size,
            "record_heatmaps": self._record_heatmaps,
            "series": {name: self._series[name][:self._size].copy()
                       for name, _ in _SCALAR_SERIES},
            "temp_map": (None if self._temp_map is None
                         else self._temp_map[:self._size].copy()),
            "melt_map": (None if self._melt_map is None
                         else self._melt_map[:self._size].copy()),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore rows captured by :meth:`state_dict`."""
        if bool(state["record_heatmaps"]) != self._record_heatmaps:
            raise SimulationError(
                "snapshot was taken with record_heatmaps="
                f"{bool(state['record_heatmaps'])}, this collector uses "
                f"{self._record_heatmaps}")
        size = int(state["size"])
        self._capacity = max(self._capacity, size, 1)
        for name, dtype in _SCALAR_SERIES:
            buffer = np.empty(self._capacity, dtype=dtype)
            buffer[:size] = np.asarray(state["series"][name], dtype=dtype)
            self._series[name] = buffer
        for attr, stored in (("_temp_map", state["temp_map"]),
                             ("_melt_map", state["melt_map"])):
            if stored is None:
                setattr(self, attr, None)
                continue
            stored = np.asarray(stored, dtype=np.float32)
            buffer = np.empty((self._capacity, stored.shape[1]),
                              dtype=np.float32)
            buffer[:size] = stored
            setattr(self, attr, buffer)
        self._size = size

    def _trimmed(self, buffer: np.ndarray) -> np.ndarray:
        if self._size == len(buffer):
            return buffer
        return buffer[:self._size].copy()

    def finish(self, config: SimulationConfig, scheduler_name: str,
               recovery_times_s: Optional[List[float]] = None,
               profile: Optional[Profile] = None
               ) -> "SimulationResult":
        """Freeze the collected series into a result object."""
        if self._size == 0:
            raise SimulationError("no ticks were recorded")
        heat = (self._trimmed(self._temp_map)
                if self._temp_map is not None else None)
        melt = (self._trimmed(self._melt_map)
                if self._melt_map is not None else None)
        recovery = (np.asarray(recovery_times_s, dtype=np.float64)
                    if recovery_times_s is not None
                    else np.zeros(0))
        trimmed = {name: self._trimmed(buffer)
                   for name, buffer in self._series.items()}
        return SimulationResult(
            config=config,
            scheduler_name=scheduler_name,
            recovery_times_s=recovery,
            temp_heatmap=heat,
            melt_heatmap=melt,
            profile=profile,
            **trimmed,
        )


@dataclass(frozen=True)
class SimulationResult:
    """Everything a run produced, ready for analysis and plotting."""

    config: SimulationConfig
    scheduler_name: str
    times_s: np.ndarray
    cooling_load_w: np.ndarray
    it_power_w: np.ndarray
    wax_absorption_w: np.ndarray
    mean_temp_c: np.ndarray
    hot_group_mean_temp_c: np.ndarray
    cold_group_mean_temp_c: np.ndarray
    mean_melt_fraction: np.ndarray
    hot_group_size: np.ndarray
    jobs: np.ndarray
    max_cpu_temp_c: Optional[np.ndarray] = None
    availability: Optional[np.ndarray] = None
    displaced_jobs: Optional[np.ndarray] = None
    cooling_capacity_factor: Optional[np.ndarray] = None
    recovery_times_s: Optional[np.ndarray] = None
    temp_heatmap: Optional[np.ndarray] = None
    melt_heatmap: Optional[np.ndarray] = None
    #: Per-section tick timings (``{section: {"calls", "total_s"}}``,
    #: see :func:`add_timing`) when the run was profiled; ``None``
    #: otherwise.  Wall-clock only -- never part of the simulated state
    #: or the fingerprint.
    profile: Optional[Profile] = None

    #: Every array field of a result, in one order: the one
    #: :meth:`fingerprint` hashes, :meth:`to_json` serializes and
    #: :mod:`repro.io` stores.  The first ten are always present; the
    #: rest may be ``None``.
    FINGERPRINT_FIELDS = (
        "times_s", "cooling_load_w", "it_power_w", "wax_absorption_w",
        "mean_temp_c", "hot_group_mean_temp_c", "cold_group_mean_temp_c",
        "mean_melt_fraction", "hot_group_size", "jobs", "max_cpu_temp_c",
        "availability", "displaced_jobs", "cooling_capacity_factor",
        "recovery_times_s", "temp_heatmap", "melt_heatmap")

    def fingerprint(self) -> str:
        """A short, stable hash of every simulated series.

        Two runs with identical physics produce identical fingerprints
        regardless of *how* they executed (serial, pooled, profiled,
        trace-cached), which is the contract the performance layer is
        tested against.
        """
        digest = hashlib.sha256()
        for name in self.FINGERPRINT_FIELDS:
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.ascontiguousarray(arr)
            digest.update(name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()[:16]

    @property
    def times_hours(self) -> np.ndarray:
        """Tick times in hours."""
        return self.times_s / 3600.0

    @property
    def peak_cooling_load_w(self) -> float:
        """Peak cluster cooling load over the run (W)."""
        return float(self.cooling_load_w.max())

    @property
    def peak_it_power_w(self) -> float:
        """Peak cluster IT power over the run (W)."""
        return float(self.it_power_w.max())

    @property
    def total_energy_stored_j(self) -> float:
        """Gross latent+sensible energy absorbed by wax while melting (J)."""
        dt = float(np.median(np.diff(self.times_s))) if len(self.times_s) > 1 \
            else 0.0
        positive = np.clip(self.wax_absorption_w, 0.0, None)
        return float(positive.sum() * dt)

    @property
    def total_it_energy_j(self) -> float:
        """Total IT (server) energy drawn over the run (J)."""
        dt = float(np.median(np.diff(self.times_s))) if len(self.times_s) > 1 \
            else 0.0
        return float(self.it_power_w.sum() * dt)

    @property
    def total_job_seconds(self) -> float:
        """Aggregate job-seconds of demand actually served."""
        dt = float(np.median(np.diff(self.times_s))) if len(self.times_s) > 1 \
            else 0.0
        return float(self.jobs.sum() * dt)

    @property
    def max_melt_fraction(self) -> float:
        """Highest cluster-mean melt fraction reached."""
        return float(self.mean_melt_fraction.max())

    @property
    def min_availability(self) -> float:
        """Lowest fraction of the fleet alive at any tick (1.0 = no
        failures, or a run that predates availability tracking)."""
        if self.availability is None or len(self.availability) == 0:
            return 1.0
        return float(self.availability.min())

    @property
    def total_displaced_jobs(self) -> int:
        """Job-cores displaced by server failures over the run."""
        if self.displaced_jobs is None or len(self.displaced_jobs) == 0:
            return 0
        return int(self.displaced_jobs.sum())

    @property
    def mean_recovery_time_s(self) -> float:
        """Mean failure-to-replacement delay (NaN when nothing failed)."""
        if self.recovery_times_s is None or len(self.recovery_times_s) == 0:
            return float("nan")
        return float(self.recovery_times_s.mean())

    @property
    def min_cooling_capacity_factor(self) -> float:
        """Deepest cooling derate seen during the run (1.0 = none)."""
        if (self.cooling_capacity_factor is None
                or len(self.cooling_capacity_factor) == 0):
            return 1.0
        return float(self.cooling_capacity_factor.min())

    def peak_cpu_temp_c(self) -> float:
        """Hottest CPU junction seen anywhere during the run.

        NaN when the run predates CPU-temperature tracking.
        """
        if self.max_cpu_temp_c is None or len(self.max_cpu_temp_c) == 0:
            return float("nan")
        return float(np.nanmax(self.max_cpu_temp_c))

    def throttling_occurred(self, throttle_temp_c: float = 85.0) -> bool:
        """Whether any CPU crossed the throttle point during the run."""
        peak = self.peak_cpu_temp_c()
        return bool(np.isfinite(peak) and peak > throttle_temp_c)

    def peak_reduction_vs(self, baseline: "SimulationResult") -> float:
        """Fractional peak cooling load reduction against a baseline run."""
        base = baseline.peak_cooling_load_w
        if base <= 0:
            raise SimulationError("baseline peak must be positive")
        return 1.0 - self.peak_cooling_load_w / base

    def cooling_load_kw(self) -> np.ndarray:
        """Cooling load series in kW (Figs. 13/16 plot kW)."""
        return self.cooling_load_w / 1e3

    def summary(self) -> Dict[str, float]:
        """Headline scalars for quick inspection."""
        return {
            "scheduler": self.scheduler_name,
            "num_servers": self.config.num_servers,
            "peak_cooling_kw": self.peak_cooling_load_w / 1e3,
            "mean_cooling_kw": float(self.cooling_load_w.mean()) / 1e3,
            "peak_it_kw": self.peak_it_power_w / 1e3,
            "max_mean_melt": self.max_melt_fraction,
            "peak_mean_temp_c": float(self.mean_temp_c.max()),
            "min_availability": self.min_availability,
            "displaced_jobs": self.total_displaced_jobs,
        }

    #: The array fields :meth:`to_json` serializes: the same tuple as
    #: :attr:`FINGERPRINT_FIELDS`, kept under this name for v1 callers.
    JSON_ARRAY_FIELDS = FINGERPRINT_FIELDS

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dict that round-trips bit-identically.

        ``from_json(result.to_json())`` reproduces every series (and
        therefore :meth:`fingerprint`) exactly: dtypes are recorded next
        to the values, and Python's float repr round-trips IEEE doubles.
        This is the wire schema the serving layer returns for full
        results; :mod:`repro.io` remains the compact binary format.
        """
        series: Dict[str, Any] = {}
        for name in self.FINGERPRINT_FIELDS:
            arr = getattr(self, name)
            if arr is None:
                continue
            series[name] = {"dtype": str(arr.dtype),
                            "values": np.asarray(arr).tolist()}
        return {
            "schema": "repro.result/1",
            "scheduler_name": self.scheduler_name,
            "config": self.config.to_dict(),
            "fingerprint": self.fingerprint(),
            "summary": self.summary(),
            "series": series,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_json` output."""
        if payload.get("schema") != "repro.result/1":
            raise SimulationError(
                f"not a repro.result/1 payload "
                f"(schema={payload.get('schema')!r})")
        series = payload["series"]
        kwargs: Dict[str, Any] = {}
        for name in cls.FINGERPRINT_FIELDS:
            entry = series.get(name)
            kwargs[name] = (None if entry is None else
                            np.asarray(entry["values"],
                                       dtype=np.dtype(entry["dtype"])))
        result = cls(config=SimulationConfig.from_dict(payload["config"]),
                     scheduler_name=payload["scheduler_name"], **kwargs)
        recorded = payload.get("fingerprint")
        if recorded is not None and recorded != result.fingerprint():
            raise SimulationError(
                f"result payload fingerprint mismatch: recorded "
                f"{recorded}, rebuilt {result.fingerprint()}")
        return result
