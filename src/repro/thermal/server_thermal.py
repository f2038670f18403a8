"""First-order RC model of the air temperature at the wax containers.

The paper's CFD study reduces, inside DCsim, to a lumped model of the air
arriving at the wax: a steady-state rise proportional to IT power on top
of the server's inlet temperature, with a first-order lag from the thermal
mass of heat sinks and chassis air::

    T_ss(t)  = T_inlet + R_air * P_it(t)
    dT/dt    = (T_ss - T) / tau_air

The exact discrete update ``T += (T_ss - T) * (1 - exp(-dt/tau))`` is used
so the model is unconditionally stable for any timestep.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from ..config import ThermalConfig
from ..errors import ThermalModelError

ArrayLike = Union[float, np.ndarray]


class ServerAirModel:
    """Air temperature at the wax for a bank of ``n`` servers."""

    def __init__(self, thermal: ThermalConfig, n: int,
                 inlet_temp_c: ArrayLike = None) -> None:
        if n <= 0:
            raise ThermalModelError("air model needs at least one server")
        thermal.validate()
        self._cfg = thermal
        self._n = int(n)
        if inlet_temp_c is None:
            inlet = np.full(self._n, thermal.inlet_temp_c)
        else:
            inlet = np.broadcast_to(
                np.asarray(inlet_temp_c, dtype=np.float64),
                (self._n,)).copy()
        self._base_inlet = inlet
        self._inlet = inlet
        self._inlet_offset = 0.0
        # Servers start idle and thermally relaxed at the idle steady state.
        self._temp = self._inlet.copy()

    @property
    def n(self) -> int:
        """Number of servers."""
        return self._n

    @property
    def inlet_temp_c(self) -> np.ndarray:
        """Per-server inlet temperatures (deg C), including any offset."""
        return self._inlet

    @property
    def inlet_offset_c(self) -> float:
        """Current uniform inlet offset (cooling derate)."""
        return self._inlet_offset

    def set_inlet_offset(self, offset_c: float) -> None:
        """Shift every inlet by ``offset_c``.

        A derated cooling plant delivers warmer supply air; the offset
        applies from the next :meth:`step` on.  Setting the same offset
        twice is free, so callers may set it every tick.
        """
        if offset_c == self._inlet_offset:
            return
        if not np.isfinite(offset_c):
            raise ThermalModelError("inlet offset must be finite")
        self._inlet_offset = float(offset_c)
        self._inlet = self._base_inlet + self._inlet_offset

    @property
    def temperature_c(self) -> np.ndarray:
        """Current air temperatures at the wax (deg C)."""
        return self._temp

    def steady_state(self, power_w: ArrayLike) -> np.ndarray:
        """Steady-state air temperature for a given IT power draw."""
        power = np.broadcast_to(np.asarray(power_w, dtype=np.float64),
                                (self._n,))
        return self._inlet + self._cfg.r_air_c_per_w * power

    def step(self, power_w: ArrayLike, dt_s: float) -> np.ndarray:
        """Advance the air node by ``dt_s`` seconds and return temperatures."""
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        target = self.steady_state(power_w)
        alpha = 1.0 - math.exp(-dt_s / self._cfg.tau_air_s)
        self._temp = self._temp + (target - self._temp) * alpha
        return self._temp

    def inlet_block(self, inlet_offsets=None) -> np.ndarray:
        """Inlet temperatures under per-tick offsets.

        ``None`` gives the current inlets, ``(n,)``; a ``(T,)`` array of
        offsets gives a ``(T, n)`` block whose row ``t`` is what
        :meth:`set_inlet_offset` with ``inlet_offsets[t]`` leaves.
        """
        if inlet_offsets is None:
            return self._inlet
        offsets = np.asarray(inlet_offsets, dtype=np.float64)
        if not np.isfinite(offsets).all():
            raise ThermalModelError("inlet offset must be finite")
        return self._base_inlet + offsets[:, None]

    def advance(self, power_block: np.ndarray, dt_s: float,
                inlet_offsets=None) -> np.ndarray:
        """Advance the air node over a block of ticks.

        Row ``t`` of ``power_block`` (``(T, n)`` watts) drives tick ``t``
        at inlet offset ``inlet_offsets[t]`` (``None``: the current
        inlets throughout).  Returns the ``(T, n)`` temperatures after
        each tick, the bits ``T`` calls of :meth:`step` return (each
        after :meth:`set_inlet_offset` when offsets are given), and
        leaves the model where those calls leave it.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        # Each row starts as its tick's target, inlet + R_air * P, and
        # becomes that tick's temperature in place.
        block = np.multiply(power_block, self._cfg.r_air_c_per_w)
        block += self.inlet_block(inlet_offsets)
        alpha = 1.0 - math.exp(-dt_s / self._cfg.tau_air_s)
        temp = self._temp
        for row in block:
            np.subtract(row, temp, out=row)
            np.multiply(row, alpha, out=row)
            np.add(temp, row, out=row)
            temp = row
        self._temp = temp.copy()
        if inlet_offsets is not None:
            self.set_inlet_offset(float(inlet_offsets[-1]))
        return block

    def reset(self, power_w: ArrayLike = 0.0) -> None:
        """Snap the air node to the steady state for ``power_w``."""
        self._temp = self.steady_state(power_w).copy()

    def state_dict(self) -> dict:
        """Base inlets, offset, and node temperatures, for snapshots."""
        return {
            "base_inlet_c": self._base_inlet.copy(),
            "inlet_offset_c": self._inlet_offset,
            "temp_c": self._temp.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._base_inlet = np.asarray(
            state["base_inlet_c"], dtype=np.float64).copy()
        self._inlet_offset = float(state["inlet_offset_c"])
        self._inlet = self._base_inlet + self._inlet_offset
        self._temp = np.asarray(state["temp_c"], dtype=np.float64).copy()
