"""Sensor-driven lookup-table estimator of the wax melt state.

VMT-WA needs to know how melted each server's wax is, but production
servers cannot see inside the wax containers.  The paper (Section III-B,
'Tracking Wax State', and ref. [24]) runs a lightweight per-server model:
a container-exterior temperature sensor detects when the wax is in
transition, and a lookup table maps the sensed air temperature (and CPU
power) to a melt/freeze rate that is integrated once per minute.

This module reproduces that estimator.  The lookup table is precomputed
from the same physics as the ground-truth model (``hA * dT / E_latent``)
but quantized into coarse temperature bins and fed *noisy* sensor
readings, so the estimate genuinely diverges from the truth the way a
deployed estimator would; tests bound that divergence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import ThermalConfig, WaxConfig
from ..errors import ThermalModelError

try:
    # The ufunc np.clip dispatches to: same kernel, same bits, without
    # the per-call dispatch overhead (it runs once per tick in
    # :meth:`WaxStateEstimator.advance`).
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover - numpy internals moved
    def _clip_ufunc(a, lo, hi, out):
        return np.clip(a, lo, hi, out=out)


class WaxStateEstimator:
    """Integrates a quantized melt-rate lookup table from sensor readings."""

    def __init__(self, wax: WaxConfig, thermal: ThermalConfig, n: int, *,
                 bin_width_c: float = 0.5, table_span_c: float = 25.0,
                 sensor_noise_c: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n <= 0:
            raise ThermalModelError("estimator needs at least one server")
        if bin_width_c <= 0 or table_span_c <= 0:
            raise ThermalModelError("lookup table bins must be positive")
        wax.validate()
        self._n = int(n)
        self._t_melt = wax.melt_temp_c
        self._sensor_noise = float(sensor_noise_c)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._estimate = np.zeros(self._n)

        latent_j = wax.latent_capacity_j
        if latent_j <= 0:
            # No latent storage to track; the estimate stays at zero.
            self._rate_table = np.zeros(1)
            self._bin_edges = np.array([-table_span_c, table_span_c])
            return

        # Lookup table: melt-rate (fraction per second) per temperature
        # delta bin, Delta T = T_air - T_melt, spanning +-table_span_c.
        edges = np.arange(-table_span_c, table_span_c + bin_width_c,
                          bin_width_c)
        centers = (edges[:-1] + edges[1:]) / 2.0
        self._bin_edges = edges
        self._rate_table = thermal.ha_w_per_k * centers / latent_j

    @property
    def n(self) -> int:
        """Number of servers being tracked."""
        return self._n

    @property
    def estimate(self) -> np.ndarray:
        """Current estimated melt fractions in [0, 1]."""
        return self._estimate

    @property
    def table_size(self) -> int:
        """Number of lookup-table entries."""
        return len(self._rate_table)

    def register_metrics(self, registry) -> None:
        """Publish estimator gauges on a :class:`~repro.obs.registry.MetricRegistry`."""
        registry.gauge("estimator.mean_estimate",
                       lambda: float(self._estimate.mean()))
        registry.gauge("estimator.max_estimate",
                       lambda: float(self._estimate.max()))

    def _sense(self, t_air_c: np.ndarray) -> np.ndarray:
        """Apply container-exterior sensor noise to the air temperature."""
        if self._sensor_noise == 0.0:
            return t_air_c
        return t_air_c + self._rng.normal(0.0, self._sensor_noise,
                                          size=self._n)

    def update(self, t_air_c: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance the estimate by ``dt_s`` using a sensed air temperature.

        Returns the updated per-server melt fraction estimates.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        t_air = np.broadcast_to(np.asarray(t_air_c, dtype=np.float64),
                                (self._n,))
        sensed = self._sense(t_air)
        delta = sensed - self._t_melt
        bins = np.clip(
            np.digitize(delta, self._bin_edges) - 1,
            0, len(self._rate_table) - 1)
        rates = self._rate_table[bins]
        self._estimate = np.clip(self._estimate + rates * dt_s, 0.0, 1.0)
        return self._estimate

    def correct(self, true_fraction: np.ndarray,
                mask: Optional[np.ndarray] = None) -> None:
        """Re-anchor the estimate to ground truth.

        The container-exterior sensor unambiguously signals the *end* of a
        transition (temperature leaves the melt plateau), which deployed
        estimators use to resynchronize at 0% and 100%.  Tests and the
        simulator call this at phase boundaries.
        """
        truth = np.broadcast_to(
            np.asarray(true_fraction, dtype=np.float64), (self._n,))
        if mask is None:
            self._estimate = np.clip(truth, 0.0, 1.0).copy()
        else:
            self._estimate = np.where(mask, np.clip(truth, 0.0, 1.0),
                                      self._estimate)

    def advance(self, t_air_block: np.ndarray, truth_block: np.ndarray,
                dt_s: float,
                anchorable: Optional[np.ndarray] = None) -> np.ndarray:
        """Advance the estimate over a block of ticks.

        Tick ``t`` integrates the table from row ``t`` of ``t_air_block``
        (``(T, n)``, the air the sensor reads before its noise), then
        re-anchors each server whose true melt fraction (row ``t`` of
        ``truth_block``, in ``[0, 1]``) is 0 or 1 and that
        ``anchorable`` allows (every server when ``None``).  Leaves the
        bits ``T`` calls of :meth:`update` then :meth:`correct` leave,
        and returns the estimate.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        sensed = np.asarray(t_air_block, dtype=np.float64)
        if self._sensor_noise != 0.0:
            # One (T, n) draw: the values and stream state of T (n,) ones.
            noise = self._rng.normal(0.0, self._sensor_noise,
                                     size=sensed.shape)
            noise += sensed
            sensed = noise
        bins = np.digitize(sensed - self._t_melt, self._bin_edges)
        bins -= 1
        np.clip(bins, 0, len(self._rate_table) - 1, out=bins)
        rates = self._rate_table[bins]
        rates *= dt_s
        anchored = (truth_block <= 0.0) | (truth_block >= 1.0)
        if anchorable is not None:
            anchored &= anchorable
        est = self._estimate.copy()
        for rate, truth, anchor, anchor_any in zip(
                rates, truth_block, anchored,
                anchored.any(axis=1).tolist()):
            np.add(est, rate, out=est)
            _clip_ufunc(est, 0.0, 1.0, est)
            if anchor_any:
                # where(anchor, truth, est): the truth is already in
                # [0, 1], where correct()'s clip leaves every bit.
                np.copyto(est, truth, where=anchor)
        self._estimate = est
        return est

    def error_vs(self, true_fraction: np.ndarray) -> float:
        """Mean absolute estimation error against ground truth."""
        truth = np.broadcast_to(
            np.asarray(true_fraction, dtype=np.float64), (self._n,))
        return float(np.mean(np.abs(self._estimate - truth)))

    def reset(self) -> None:
        """Zero the estimate (fresh, fully frozen wax)."""
        self._estimate = np.zeros(self._n)

    def state_dict(self) -> dict:
        """The integrated estimate (the RNG belongs to its stream owner)."""
        return {"estimate": self._estimate.copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._estimate = np.asarray(state["estimate"],
                                    dtype=np.float64).copy()
