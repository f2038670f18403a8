"""Noisy on-server sensors and their failure modes.

VMT classifies jobs "using on-package thermal sensors and/or power sensors
or models (e.g. Intel RAPL)" (Section III-A), and VMT-WA's wax estimator
reads a container-exterior temperature sensor.  These classes model such
sensors: a true value passes through additive Gaussian noise and optional
quantization, vectorized over a cluster.

Real sensors also *fail*: they stick at the last value, drop out
entirely, or drift with age.  :class:`SensorFaultBank` layers those modes
onto any sensor bank so the fault injector can corrupt exactly the
readings a deployed controller would see, while healthy channels pass
through bit-identical.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ConfigurationError, SensorError

ArrayLike = Union[float, np.ndarray]

#: Fault-mode codes used by :class:`SensorFaultBank`.
MODE_HEALTHY = 0
MODE_STUCK = 1
MODE_DROPOUT = 2
MODE_DRIFT = 3

_MODE_CODES = {"stuck": MODE_STUCK, "dropout": MODE_DROPOUT,
               "drift": MODE_DRIFT}


class _NoisySensor:
    """Shared implementation: Gaussian noise plus quantization."""

    def __init__(self, noise_stdev: float, quantization: float,
                 rng: Optional[np.random.Generator]) -> None:
        if noise_stdev < 0:
            raise ConfigurationError("sensor noise must be non-negative")
        if quantization < 0:
            raise ConfigurationError("quantization step must be >= 0")
        self._noise = float(noise_stdev)
        self._quant = float(quantization)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def read(self, true_value: ArrayLike) -> np.ndarray:
        """Return a noisy, quantized reading of ``true_value``."""
        value = np.asarray(true_value, dtype=np.float64)
        if self._noise > 0:
            value = value + self._rng.normal(0.0, self._noise,
                                             size=value.shape)
        if self._quant > 0:
            value = np.round(value / self._quant) * self._quant
        return value

    def skip(self, shape) -> None:
        """Draw the noise of one :meth:`read` of ``shape`` values unread."""
        if self._noise > 0:
            self._rng.normal(0.0, self._noise, size=shape)


class TemperatureSensor(_NoisySensor):
    """A thermal sensor: ~0.5 deg C accuracy, 0.25 deg C steps by default."""

    def __init__(self, noise_stdev_c: float = 0.5,
                 quantization_c: float = 0.25,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(noise_stdev_c, quantization_c, rng)


class PowerSensor(_NoisySensor):
    """A RAPL-style power meter: ~1 W noise, 0.1 W steps by default.

    Power cannot be negative, so readings are clamped at zero.
    """

    def __init__(self, noise_stdev_w: float = 1.0,
                 quantization_w: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(noise_stdev_w, quantization_w, rng)

    def read(self, true_value: ArrayLike) -> np.ndarray:
        return np.maximum(super().read(true_value), 0.0)


class SensorFaultBank:
    """Per-channel stuck-at / dropout / drift faults for a sensor bank.

    Sits between a sensor's raw readings and their consumer.  Healthy
    channels pass through untouched; faulted ones are corrupted:

    * ``stuck``   -- the channel repeats the first reading taken after
      the fault engaged (a latched ADC or a wedged polling loop);
    * ``dropout`` -- the channel reports ``fallback_value`` (a dead
      sensor typically reads the controller's substitute constant, e.g.
      the nominal inlet temperature);
    * ``drift``   -- the reading gains ``drift_per_hour`` per elapsed
      hour since the fault engaged (aging or a detached probe).
    """

    def __init__(self, n: int, fallback_value: float = 0.0) -> None:
        if n <= 0:
            raise ConfigurationError("fault bank needs at least one channel")
        self._n = int(n)
        self._fallback = float(fallback_value)
        self._mode = np.zeros(self._n, dtype=np.int8)
        self._stuck_value = np.full(self._n, np.nan)
        self._start_s = np.zeros(self._n)
        self._drift_per_s = np.zeros(self._n)

    @property
    def n(self) -> int:
        """Number of channels."""
        return self._n

    @property
    def faulty(self) -> np.ndarray:
        """Mask of channels currently carrying a fault."""
        return self._mode != MODE_HEALTHY

    @property
    def any_faulty(self) -> bool:
        """Whether any channel carries a fault."""
        return bool(np.any(self._mode != MODE_HEALTHY))

    def _check_channel(self, channel: int) -> int:
        channel = int(channel)
        if not 0 <= channel < self._n:
            raise SensorError(
                f"channel {channel} outside bank of {self._n}")
        return channel

    def set_fault(self, channel: int, mode: str, *, time_s: float = 0.0,
                  drift_per_hour: float = 0.0,
                  stuck_value: Optional[float] = None) -> None:
        """Engage a fault mode on one channel (replacing any existing).

        ``stuck_value`` pins a stuck channel at an explicit reading;
        without it the channel latches the first reading taken after the
        fault engages.
        """
        channel = self._check_channel(channel)
        try:
            code = _MODE_CODES[mode]
        except KeyError:
            known = ", ".join(sorted(_MODE_CODES))
            raise SensorError(
                f"unknown sensor fault mode {mode!r}; known: {known}"
            ) from None
        self._mode[channel] = code
        self._stuck_value[channel] = (np.nan if stuck_value is None
                                      else float(stuck_value))
        self._start_s[channel] = float(time_s)
        self._drift_per_s[channel] = drift_per_hour / 3600.0

    def clear_fault(self, channel: int) -> None:
        """Return a channel to healthy pass-through."""
        channel = self._check_channel(channel)
        self._mode[channel] = MODE_HEALTHY
        self._stuck_value[channel] = np.nan
        self._drift_per_s[channel] = 0.0

    def state_dict(self) -> dict:
        """Per-channel fault modes and latches, for snapshots.

        The stuck-value latch matters: a stuck channel latches its first
        post-fault reading, and a restore that forgot it would re-latch
        a *different* value on the next :meth:`apply`.
        """
        return {
            "mode": self._mode.copy(),
            "stuck_value": self._stuck_value.copy(),
            "start_s": self._start_s.copy(),
            "drift_per_s": self._drift_per_s.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._mode = np.asarray(state["mode"], dtype=np.int8).copy()
        self._stuck_value = np.asarray(
            state["stuck_value"], dtype=np.float64).copy()
        self._start_s = np.asarray(
            state["start_s"], dtype=np.float64).copy()
        self._drift_per_s = np.asarray(
            state["drift_per_s"], dtype=np.float64).copy()

    def apply(self, readings: np.ndarray, time_s: float = 0.0) -> np.ndarray:
        """Corrupt a reading vector according to the per-channel faults.

        Returns the input object itself when no channel is faulted, so
        the fault-free path stays bit-identical and allocation-free.
        """
        if not self.any_faulty:
            return readings
        readings = np.asarray(readings, dtype=np.float64)
        if readings.shape != (self._n,):
            raise SensorError(
                f"expected {self._n} readings, got {readings.shape}")
        out = readings.copy()

        stuck = self._mode == MODE_STUCK
        if np.any(stuck):
            # Latch the first post-fault reading, then repeat it forever.
            fresh = stuck & np.isnan(self._stuck_value)
            self._stuck_value[fresh] = readings[fresh]
            out[stuck] = self._stuck_value[stuck]

        dropped = self._mode == MODE_DROPOUT
        out[dropped] = self._fallback

        drifting = self._mode == MODE_DRIFT
        if np.any(drifting):
            elapsed = np.maximum(0.0, time_s - self._start_s[drifting])
            out[drifting] += self._drift_per_s[drifting] * elapsed
        return out
