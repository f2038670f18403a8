"""Enthalpy-method phase change model, vectorized over a bank of servers.

Each server carries ``mass_kg`` of wax.  The model tracks specific
enthalpy ``h`` (J/kg, referenced to solid wax at 0 deg C) and derives
temperature and melt fraction from the piecewise enthalpy curve::

    h < h_sol            solid,   T = h / cp_s
    h_sol <= h <= h_liq  melting, T = T_melt (temperature pinned)
    h > h_liq            liquid,  T = T_melt + (h - h_liq) / cp_l

with ``h_sol = cp_s * T_melt`` and ``h_liq = h_sol + L``.  The enthalpy
method makes the melt-front bookkeeping trivial and conserves energy by
construction: whatever heat flows in across a step is exactly the enthalpy
gained.

Heat exchange with the server's air stream is convective,
``q = hA * (T_air - T_wax)``, the same lumped coupling the paper derives
from its CFD study for use inside DCsim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ..config import WaxConfig
from ..errors import ThermalModelError

ArrayLike = Union[float, np.ndarray]

#: Tolerance on melt fraction when deciding a server is "fully melted".
#: The enthalpy integration accumulates float rounding of order 1e-16
#: per step, so an exact ``>= 1.0`` comparison flickers at the boundary;
#: anything within this distance of 1.0 counts as melted.
FULL_MELT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PCMState:
    """Immutable snapshot of a PCM bank (copies of the state arrays)."""

    temperature_c: np.ndarray
    melt_fraction: np.ndarray
    stored_latent_j: np.ndarray


class PCMBank:
    """Wax state for ``n`` servers, advanced with a shared timestep.

    Parameters
    ----------
    wax:
        Material and quantity per server.
    n:
        Number of servers in the bank.
    initial_temp_c:
        Starting wax temperature; must be at or below the melt point for
        the usual "starts solid" initial condition, but any value works.
    """

    def __init__(self, wax: WaxConfig, n: int,
                 initial_temp_c: float = 20.0) -> None:
        if n <= 0:
            raise ThermalModelError("PCM bank needs at least one server")
        wax.validate()
        self._wax = wax
        self._n = int(n)
        self._mass = wax.mass_kg
        self._cp_s = wax.specific_heat_solid_j_per_kg_k
        self._cp_l = wax.specific_heat_liquid_j_per_kg_k
        self._latent = wax.latent_heat_j_per_kg
        self._t_melt = wax.melt_temp_c
        self._h_sol = self._cp_s * self._t_melt
        self._h_liq = self._h_sol + self._latent
        self._h = np.full(self._n, self._enthalpy_at(initial_temp_c),
                          dtype=np.float64)

    # -- enthalpy curve -------------------------------------------------

    def _enthalpy_at(self, temp_c: float) -> float:
        """Specific enthalpy of fully relaxed wax at ``temp_c``.

        Inside the melt band the temperature curve is not invertible: any
        enthalpy in ``[h_sol, h_liq]`` reads as ``T_melt``.  This mapping
        therefore pins a convention for the ambiguous input
        ``temp_c == melt_temp_c``: it returns the **solidus** (all-solid,
        melt fraction 0.0) enthalpy, matching the "starts solid" initial
        condition every experiment in the paper assumes.  A bank
        initialized exactly at the melt point thus reports
        ``melt_fraction == 0.0``, not 1.0 or anything in between.
        """
        if temp_c <= self._t_melt:
            return self._cp_s * temp_c
        return self._h_liq + self._cp_l * (temp_c - self._t_melt)

    def temperature_of_enthalpy(self, h: ArrayLike) -> np.ndarray:
        """Map specific enthalpy (J/kg) to temperature (deg C)."""
        h = np.asarray(h, dtype=np.float64)
        solid = h / self._cp_s
        liquid = self._t_melt + (h - self._h_liq) / self._cp_l
        temp = np.where(h < self._h_sol, solid,
                        np.where(h > self._h_liq, liquid, self._t_melt))
        return temp

    def melt_fraction_of_enthalpy(self, h: ArrayLike) -> np.ndarray:
        """Map specific enthalpy (J/kg) to melt fraction in [0, 1]."""
        h = np.asarray(h, dtype=np.float64)
        if self._latent <= 0:
            # Degenerate material: no latent band; treat anything past the
            # melt point as fully melted.
            return np.where(h >= self._h_sol, 1.0, 0.0)
        return np.clip((h - self._h_sol) / self._latent, 0.0, 1.0)

    # -- read-only state ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of servers in the bank."""
        return self._n

    @property
    def wax(self) -> WaxConfig:
        """Wax configuration this bank was built from."""
        return self._wax

    @property
    def melt_temp_c(self) -> float:
        """Physical melting temperature (PMT)."""
        return self._t_melt

    @property
    def latent_capacity_j(self) -> float:
        """Total latent storage per server (J)."""
        return self._mass * self._latent

    @property
    def temperature_c(self) -> np.ndarray:
        """Current wax temperatures (deg C), one per server."""
        return self.temperature_of_enthalpy(self._h)

    @property
    def melt_fraction(self) -> np.ndarray:
        """Current melt fractions in [0, 1], one per server."""
        return self.melt_fraction_of_enthalpy(self._h)

    @property
    def stored_latent_j(self) -> np.ndarray:
        """Latent energy currently stored per server (J)."""
        return self.melt_fraction * self.latent_capacity_j

    @property
    def enthalpy_j(self) -> np.ndarray:
        """Total enthalpy per server (J, referenced to solid wax at 0 C).

        The quantity the energy-balance invariant audits: across any
        :meth:`step`, the change in this array must equal the returned
        heat flow times the timestep, exactly what the enthalpy method
        guarantees by construction.
        """
        return self._h * self._mass

    def snapshot(self) -> PCMState:
        """Return an immutable copy of the current state."""
        return PCMState(
            temperature_c=self.temperature_c.copy(),
            melt_fraction=self.melt_fraction.copy(),
            stored_latent_j=self.stored_latent_j.copy(),
        )

    def register_metrics(self, registry) -> None:
        """Publish wax-state gauges on a :class:`~repro.obs.registry.MetricRegistry`.

        Callback-backed reads of live state; registering never perturbs
        the enthalpy integration.
        """
        registry.gauge("pcm.mean_melt_fraction",
                       lambda: float(self.melt_fraction.mean()))
        registry.gauge("pcm.fully_melted_servers",
                       lambda: float(np.count_nonzero(
                           self.melt_fraction
                           >= 1.0 - FULL_MELT_TOLERANCE)))
        registry.gauge("pcm.mean_temp_c",
                       lambda: float(self.temperature_c.mean()))
        registry.gauge("pcm.stored_latent_j",
                       lambda: float(self.stored_latent_j.sum()))

    # -- dynamics --------------------------------------------------------

    def step(self, t_air_c: ArrayLike, ha_w_per_k: float,
             dt_s: float) -> np.ndarray:
        """Advance the wax by ``dt_s`` seconds against air at ``t_air_c``.

        Returns the per-server heat absorbed by the wax over the step in
        watts (negative while the wax releases heat back to the air).
        The integrator subdivides the step when the sensible time constant
        ``m*cp / hA`` is short relative to ``dt_s`` so explicit updates
        stay stable for any configuration.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        if ha_w_per_k < 0:
            raise ThermalModelError("hA must be non-negative")
        t_air = np.broadcast_to(
            np.asarray(t_air_c, dtype=np.float64), (self._n,))
        if self._mass <= 0 or ha_w_per_k == 0:
            return np.zeros(self._n)

        cp_min = min(self._cp_s, self._cp_l)
        tau = self._mass * cp_min / ha_w_per_k
        n_sub = max(1, int(math.ceil(dt_s / (0.25 * tau))))
        sub_dt = dt_s / n_sub

        h_before = self._h.copy()
        for __ in range(n_sub):
            t_wax = self.temperature_of_enthalpy(self._h)
            q = ha_w_per_k * (t_air - t_wax)  # W into the wax
            self._h += q * sub_dt / self._mass
        return (self._h - h_before) * self._mass / dt_s

    def advance(self, t_air_block: np.ndarray, ha_w_per_k: float,
                dt_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Advance the wax over a block of ticks.

        Row ``t`` of ``t_air_block`` (``(T, n)``) is the air over tick
        ``t``.  Returns ``(heat, melt)``: the ``(T, n)`` heat flows into
        the wax (W) and melt fractions after each tick, the bits ``T``
        calls of :meth:`step` and :attr:`melt_fraction` give, and leaves
        the bank where those calls leave it.
        """
        if dt_s <= 0:
            raise ThermalModelError("dt must be positive")
        if ha_w_per_k < 0:
            raise ThermalModelError("hA must be non-negative")
        ticks = len(t_air_block)
        if self._mass <= 0 or ha_w_per_k == 0:
            return (np.zeros((ticks, self._n)),
                    np.repeat(self.melt_fraction[None], ticks, axis=0))

        mass = self._mass
        cp_s = self._cp_s
        h_sol = self._h_sol
        h_liq = self._h_liq
        tau = mass * min(cp_s, self._cp_l) / ha_w_per_k
        n_sub = max(1, int(math.ceil(dt_s / (0.25 * tau))))
        sub_dt = dt_s / n_sub

        h_store = np.empty((ticks + 1, self._n))
        h_store[0] = self._h
        melting = np.full(self._n, self._t_melt)
        solid = np.empty(self._n)
        below = np.empty(self._n, dtype=bool)
        t_wax = np.empty(self._n)
        q = np.empty(self._n)
        h = h_store[0]
        for t_air, h_next in zip(t_air_block, h_store[1:]):
            for __ in range(n_sub):
                np.divide(h, cp_s, out=solid)
                if h.max() > h_liq:
                    # Something fully molten: the full three-branch
                    # curve of temperature_of_enthalpy.
                    liquid = self._t_melt + (h - h_liq) / self._cp_l
                    wax = np.where(h < h_sol, solid,
                                   np.where(h > h_liq, liquid, self._t_melt))
                else:
                    # Nothing above liquidus: melting or solid, the same
                    # bits the curve picks.
                    np.less(h, h_sol, out=below)
                    np.copyto(t_wax, melting)
                    np.copyto(t_wax, solid, where=below)
                    wax = t_wax
                np.subtract(t_air, wax, out=q)
                np.multiply(q, ha_w_per_k, out=q)
                np.multiply(q, sub_dt, out=q)
                np.divide(q, mass, out=q)
                np.add(h, q, out=h_next)
                h = h_next
        heat = np.subtract(h_store[1:], h_store[:-1])
        heat *= mass
        heat /= dt_s
        self._h = h_store[-1].copy()
        return heat, self.melt_fraction_of_enthalpy(h_store[1:])

    def set_melt_fraction(self, fraction: ArrayLike) -> None:
        """Force the melt fraction (temperature pinned at the melt point).

        Useful for constructing test scenarios and for the estimator's
        lookup-table calibration runs.
        """
        fraction = np.clip(
            np.broadcast_to(np.asarray(fraction, dtype=np.float64),
                            (self._n,)), 0.0, 1.0)
        self._h = self._h_sol + fraction * self._latent

    def reset(self, temp_c: float) -> None:
        """Re-initialize every server's wax to relaxed state at ``temp_c``."""
        self._h[:] = self._enthalpy_at(temp_c)

    def state_dict(self) -> dict:
        """The specific enthalpies -- the bank's only mutable state."""
        return {"specific_enthalpy_j_per_kg": self._h.copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._h = np.asarray(state["specific_enthalpy_j_per_kg"],
                             dtype=np.float64).copy()
