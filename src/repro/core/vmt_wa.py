"""VMT with Wax Aware job placement (Section III-B).

VMT-WA starts exactly like VMT-TA (Eq. 1 group sizing) but monitors the
per-server wax state and reacts when hot-group servers become fully
melted:

* the hot group is re-derived every update: "the scheduler restarts from
  the minimum hot group size and adds servers in order" -- one extra
  server per fully melted server (estimate >= the wax threshold);
* melted servers receive *just enough* hot load to stay above the melting
  temperature (releasing stored heat mid-peak would raise the cooling
  load), while the displaced load moves to the newly added servers to
  melt fresh wax;
* hot jobs that do not fit go to cold-group servers sequentially; cold
  jobs that do not fit prefer already-melted hot servers (minimal thermal
  impact), then anything else.

The "current load trends" that gate the keep-warm behaviour are modeled
with a utilization threshold: during the load peak melted servers are
held warm; once the cluster drops toward the trough, keep-warm disengages
so the wax can refreeze and release its energy overnight, as TTS
requires.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..cluster.state import ClusterView
from ..config import SimulationConfig
from ..errors import SchedulingError
from ..workloads.workload import HOT_INDICES, WORKLOAD_LIST
from .grouping import GroupSizer
from .scheduler import (NUM_WORKLOADS, Placement, VMTScheduler, deal_types,
                        take_share)
from .vmt_ta import split_demand


def keep_warm_power_w(config: SimulationConfig,
                      margin_c: float = 1.0) -> float:
    """Dynamic power needed to hold a server just above the melt point.

    Solves the steady-state air model ``T = inlet + R_air * P`` for
    ``T = melt + margin`` and subtracts the idle floor.
    """
    thermal = config.thermal
    target = config.wax.melt_temp_c + margin_c
    power_needed = (target - thermal.inlet_temp_c) / thermal.r_air_c_per_w
    return max(0.0, power_needed - config.server.idle_power_w)


def mean_hot_core_power_w(config: SimulationConfig,
                          hot_demand: Optional[np.ndarray] = None) -> float:
    """Mean per-core power of the hot workloads.

    When the current hot demand vector is supplied the mean is weighted
    by the observed mix (what a deployed scheduler would compute from its
    power sensors); otherwise the unweighted mean is used.
    """
    per_core = [WORKLOAD_LIST[i].per_core_power_w(
        config.server.cores_per_socket) for i in HOT_INDICES]
    if hot_demand is not None:
        weights = [float(hot_demand[i]) for i in HOT_INDICES]
        total = sum(weights)
        if total > 0:
            return sum(w * p for w, p in zip(weights, per_core)) / total
    return sum(per_core) / len(per_core)


def keep_warm_cores(config: SimulationConfig, margin_c: float = 1.0,
                    hot_demand: Optional[np.ndarray] = None) -> int:
    """Hot job-cores needed to hold an otherwise idle server melted."""
    mean_hot = mean_hot_core_power_w(config, hot_demand)
    dynamic = keep_warm_power_w(config, margin_c)
    cores = math.ceil(dynamic / mean_hot) if mean_hot > 0 else 0
    return min(cores, config.server.cores)


class VMTWaxAwareScheduler(VMTScheduler):
    """Dynamic hot-group extension driven by the wax state estimate."""

    def __init__(self, config: SimulationConfig, *,
                 keep_warm_margin_c: float = 0.4,
                 keep_warm_min_utilization: float = 0.6,
                 keep_warm_release_utilization: float = 0.35,
                 melted_hysteresis: float = 0.05,
                 detect_divergence: bool = True,
                 divergence_margin_c: float = 2.0,
                 divergence_ticks: int = 12,
                 **kwargs) -> None:
        super().__init__(config, **kwargs)
        self._wax_threshold = config.scheduler.wax_threshold
        if not 0.0 <= melted_hysteresis <= self._wax_threshold:
            raise SchedulingError(
                "melted_hysteresis must be in [0, wax_threshold]")
        self._release_threshold = self._wax_threshold - melted_hysteresis
        self._kept_warm = np.zeros(config.num_servers, dtype=bool)
        # Closed-loop keep-warm: per-server inlet estimate learned from
        # the air sensors and the scheduler's own past allocations.
        self._prev_power_w: Optional[np.ndarray] = None
        self._inlet_est: Optional[np.ndarray] = None
        self._inlet_ema_alpha = 0.1
        self._keep_warm_margin_c = keep_warm_margin_c
        self._keep_warm_min_util = keep_warm_min_utilization
        self._keep_warm_release_util = keep_warm_release_utilization
        # Re-derived from the sizer every tick (_update_group_size), so
        # a retargeted GV needs no other bookkeeping.
        self._hot_size = self._sizer.hot_size
        self._per_core_power = np.array(
            [w.per_core_power_w(config.server.cores_per_socket)
             for w in WORKLOAD_LIST])
        if divergence_ticks < 1:
            raise SchedulingError("divergence_ticks must be >= 1")
        self._detect_divergence = detect_divergence
        self._divergence_margin_c = divergence_margin_c
        self._divergence_ticks = divergence_ticks
        self._degraded = False
        self._prev_estimate: Optional[np.ndarray] = None
        self._suspect_ticks: Optional[np.ndarray] = None
        self._divergence_checked_tick = -1

    @property
    def name(self) -> str:
        return f"vmt-wa(gv={self._config.scheduler.grouping_value:g})"

    @property
    def base_sizer(self) -> GroupSizer:
        """The Eq. 1/2 minimum group sizing the hot group extends from."""
        return self._sizer

    @property
    def hot_group_size(self) -> int:
        """Current (possibly extended) hot group size."""
        return self._hot_size

    @property
    def degraded(self) -> bool:
        """True once estimator divergence has forced the TA fallback."""
        return self._degraded

    @property
    def wax_threshold(self) -> float:
        """Melt-estimate level at which a server counts as melted."""
        return self._wax_threshold

    @property
    def wax_release_threshold(self) -> float:
        """Estimate level below which a kept-warm server stops counting.

        Keep-warm holds melted servers *at* the melt point, which parks
        their estimate right at the threshold where sensor noise makes
        it flicker.  A server the scheduler is actively keeping warm
        therefore stays classified as melted until its estimate falls
        through this lower bound -- classic hysteresis, preventing the
        hot group from churning mid-peak on estimator noise.
        """
        return self._release_threshold

    @property
    def keep_warm_min_utilization(self) -> float:
        """Utilization at/above which keep-warm is fully engaged."""
        return self._keep_warm_min_util

    @property
    def keep_warm_release_utilization(self) -> float:
        """Utilization at/below which keep-warm fully disengages."""
        return self._keep_warm_release_util

    def reset(self) -> None:
        super().reset()
        self._hot_size = self._sizer.hot_size
        self._degraded = False
        self._prev_estimate = None
        self._suspect_ticks = None
        self._divergence_checked_tick = -1
        self._kept_warm = np.zeros(self._config.num_servers, dtype=bool)
        self._prev_power_w = None
        self._inlet_est = None

    def state_dict(self) -> dict:
        def opt(arr):
            return None if arr is None else arr.copy()
        state = super().state_dict()
        state.update(
            kept_warm=self._kept_warm.copy(),
            prev_power_w=opt(self._prev_power_w),
            inlet_est=opt(self._inlet_est),
            hot_size=self._hot_size,
            degraded=self._degraded,
            prev_estimate=opt(self._prev_estimate),
            suspect_ticks=opt(self._suspect_ticks),
            divergence_checked_tick=self._divergence_checked_tick,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        def opt(value, dtype):
            return (None if value is None
                    else np.asarray(value, dtype=dtype).copy())
        super().load_state_dict(state)
        self._kept_warm = np.asarray(state["kept_warm"], dtype=bool).copy()
        self._prev_power_w = opt(state["prev_power_w"], np.float64)
        self._inlet_est = opt(state["inlet_est"], np.float64)
        self._hot_size = int(state["hot_size"])
        self._degraded = bool(state["degraded"])
        self._prev_estimate = opt(state["prev_estimate"], np.float64)
        self._suspect_ticks = opt(state["suspect_ticks"], np.int64)
        self._divergence_checked_tick = int(
            state["divergence_checked_tick"])

    def register_metrics(self, registry) -> None:
        """Add the estimator-health gauges on top of the base set."""
        super().register_metrics(registry)
        registry.gauge("scheduler.degraded",
                       lambda: 1.0 if self._degraded else 0.0)
        registry.gauge("scheduler.base_hot_group_size",
                       lambda: float(self._sizer.hot_size))

    # -- estimator health ---------------------------------------------------

    def _check_divergence(self, view: ClusterView) -> None:
        """Watch for a wax estimate that contradicts the air sensors.

        A healthy estimate moves toward melted whenever the air is
        clearly above the melting point and toward frozen whenever it is
        clearly below.  A stuck or drifting container-exterior sensor
        breaks that coupling: the estimate freezes (or runs the wrong
        way) while the air says otherwise.  After ``divergence_ticks``
        consecutive contradictions on any server the estimate can no
        longer be trusted, and the policy degrades to VMT-TA behaviour
        (static minimum hot group, no melt tracking) for the rest of the
        run -- hotter cooling peaks, but no thermal violations.

        Idempotent per scheduling tick so the preserve subclass may call
        it from either placement path.
        """
        if not self._detect_divergence or self._degraded:
            return
        if self._divergence_checked_tick == self._tick:
            return
        self._divergence_checked_tick = self._tick
        est = view.wax_melt_estimate
        if (self._prev_estimate is None
                or len(self._prev_estimate) != len(est)):
            self._prev_estimate = est.copy()
            self._suspect_ticks = np.zeros(len(est), dtype=np.int64)
            return
        delta = est - self._prev_estimate
        air = view.air_temp_c
        melt = view.melt_temp_c
        margin = self._divergence_margin_c
        # Air well above the melt point but the estimate refuses to rise
        # toward melted -- or well below it while the estimate refuses to
        # fall toward frozen.  The margin keeps sensor noise out; the
        # consecutive-tick count keeps transients out.
        stuck_low = ((air > melt + margin)
                     & (est < self._wax_threshold) & (delta <= 1e-9))
        stuck_high = ((air < melt - margin)
                      & (est > 0.0) & (delta >= -1e-9))
        suspect = stuck_low | stuck_high
        self._suspect_ticks = np.where(
            suspect, self._suspect_ticks + 1, 0)
        self._prev_estimate = est.copy()
        if np.any(self._suspect_ticks >= self._divergence_ticks):
            self._degraded = True

    # -- inlet estimation ---------------------------------------------------

    def _observe_inlets(self, view: ClusterView) -> None:
        """Update the per-server inlet estimate from this tick's sensors.

        In steady state the air model gives ``T = inlet + R_air * P``,
        so a scheduler that remembers the power implied by its own last
        allocation can invert the relation per server:
        ``inlet_i = T_sensed_i - R_air * P_i``.  An exponential moving
        average smooths sensor noise and the lag transient.  Keep-warm
        needs this: inlets vary across the room, and sizing every
        server's hold power from the *nominal* inlet leaves
        colder-than-nominal servers below the melting point, silently
        refreezing mid-peak (the group-partition invariant catches the
        resulting hot-group shrink).
        """
        if self._prev_power_w is None:
            return
        sample = (view.air_temp_c
                  - self._config.thermal.r_air_c_per_w
                  * self._prev_power_w)
        if self._inlet_est is None or len(self._inlet_est) != len(sample):
            self._inlet_est = sample.copy()
        else:
            self._inlet_est += self._inlet_ema_alpha * (
                sample - self._inlet_est)

    def _record_allocation(self, allocation: np.ndarray) -> None:
        """Remember the power the last allocation implies per server."""
        self._prev_power_w = (self._config.server.idle_power_w
                              + allocation.astype(np.float64)
                              @ self._per_core_power)

    def _keep_warm_targets_w(self, melted_hot: np.ndarray) -> np.ndarray:
        """Per-server dynamic power needed to hold each server melted.

        Uses the learned per-server inlet estimate when available and
        falls back to the nominal-inlet figure for the first ticks of a
        run (before any allocation has been observed).
        """
        target_temp = (self._config.wax.melt_temp_c
                       + self._keep_warm_margin_c)
        if self._inlet_est is None:
            return np.full(len(melted_hot),
                           keep_warm_power_w(self._config,
                                             self._keep_warm_margin_c))
        needed = ((target_temp - self._inlet_est[melted_hot])
                  / self._config.thermal.r_air_c_per_w)
        return np.maximum(0.0, needed - self._config.server.idle_power_w)

    # -- group management ---------------------------------------------------

    def _melted_mask(self, view: ClusterView) -> np.ndarray:
        """Servers that count as melted this tick.

        The raw estimate threshold, plus hysteresis for servers the
        scheduler kept warm last tick: keep-warm parks a server's wax at
        the melt point, so its estimate hovers exactly at the threshold
        and sensor noise would otherwise flick it in and out of the
        melted set (shrinking the hot group mid-peak -- the churn the
        sanitizer's group-partition monotonicity invariant flags).  A
        kept-warm server stays melted until its estimate drops through
        :attr:`wax_release_threshold`.
        """
        est = view.wax_melt_estimate
        melted = est >= self._wax_threshold
        if np.any(self._kept_warm):
            melted = melted | (self._kept_warm
                               & (est >= self._release_threshold))
        return melted

    def _update_group_size(self, view: ClusterView) -> None:
        """Restart from the minimum size and add one per melted server."""
        if self._degraded:
            # The estimate is untrustworthy: hold the static TA sizing.
            self._hot_size = min(self._sizer.hot_size,
                                 view.num_servers)
            return
        melted = int(np.count_nonzero(self._melted_mask(view)))
        self._hot_size = min(view.num_servers,
                             self._sizer.hot_size + melted)

    # -- placement helpers ---------------------------------------------------

    def _fill_targets(self, demand_part: np.ndarray, ids: np.ndarray,
                      targets: np.ndarray, free: np.ndarray,
                      allocation: np.ndarray) -> None:
        """Give each server in ``ids`` its per-server core target.

        When demand is insufficient the targets are scaled down
        proportionally.  Mutates ``demand_part``, ``free``, ``allocation``.
        """
        if len(ids) == 0:
            return
        targets = np.minimum(np.asarray(targets, dtype=np.int64),
                             free[ids])
        total_target = int(targets.sum())
        available = int(demand_part.sum())
        if total_target == 0 or available == 0:
            return
        if available < total_target:
            scaled = (targets * available) // total_target
            shortfall = available - int(scaled.sum())
            remainders = targets * available - scaled * total_target
            # Default kind on purpose: a stable sort here moves the
            # VMT-WA and VMT-Preserve goldens (reproduction notes, §11).
            order = np.argsort(-remainders)
            scaled[order[:shortfall]] += 1
            targets = scaled
        taken = take_share(demand_part, int(targets.sum()))
        allocation[ids] += deal_types(taken, targets, rng=self._rng)
        free[ids] -= targets

    def _cold_cap_on_melted(self, hot_demand: np.ndarray,
                            cold_demand: np.ndarray,
                            target_w: Optional[float] = None) -> int:
        """Max cold cores per melted server that leaves room for keep-warm.

        Cold jobs draw far less power than hot ones, so a melted server
        stuffed with cold jobs could not reach the keep-warm power target
        with its remaining cores.  This bounds the cold overflow so the
        hot top-up always fits.
        """
        p_hot = mean_hot_core_power_w(self._config, hot_demand)
        cold_weights = [float(cold_demand[i])
                        for i in range(NUM_WORKLOADS)
                        if i not in HOT_INDICES]
        cold_powers = [self._per_core_power[i]
                       for i in range(NUM_WORKLOADS)
                       if i not in HOT_INDICES]
        total = sum(cold_weights)
        p_cold = (sum(w * p for w, p in zip(cold_weights, cold_powers))
                  / total) if total > 0 else 0.0
        if p_hot <= 0:
            return 0
        capacity = self._config.server.cores
        if target_w is None:
            target_w = keep_warm_power_w(self._config,
                                         self._keep_warm_margin_c)
        denom = 1.0 - p_cold / p_hot
        if denom <= 0:
            return capacity
        cap = int((capacity - target_w / p_hot) / denom)
        return max(0, min(capacity, cap))

    # -- the policy -----------------------------------------------------------

    def _place(self, demand: np.ndarray, view: ClusterView) -> Placement:
        if view.num_servers != self._config.num_servers:
            raise SchedulingError("view does not match configured cluster")
        self._check_divergence(view)
        self._observe_inlets(view)
        self._update_group_size(view)

        hot_demand, cold_demand = split_demand(demand)
        base_size = min(self._sizer.hot_size, view.num_servers)
        hot_ids = np.arange(self._hot_size)
        cold_ids = np.arange(self._hot_size, view.num_servers)
        if self._degraded:
            # TA fallback: without a trusted estimate no server counts as
            # melted, so keep-warm disengages and the base group carries
            # the hot load evenly -- exactly VMT-TA's behaviour.
            melted = np.zeros(view.num_servers, dtype=bool)
        else:
            melted = self._melted_mask(view)
        in_base = hot_ids < base_size
        hot_melted = melted[hot_ids] if len(hot_ids) else \
            np.zeros(0, dtype=bool)
        melted_hot = hot_ids[hot_melted]
        unmelted_base = hot_ids[in_base & ~hot_melted]
        # Extension servers (added because others melted): concentrate
        # load on as few of them as possible so each one actually exceeds
        # the melting temperature -- the paper adds servers "sequentially".
        extension = hot_ids[~in_base & ~hot_melted]

        # Failed servers expose zero capacity; every dealing pass below
        # routes around them.
        free = view.capacity_vector()
        allocation = np.zeros((view.num_servers, NUM_WORKLOADS),
                              dtype=np.int64)

        utilization = demand.sum() / view.total_cores
        # Keep-warm follows the load trend: fully engaged during the peak,
        # then tapered as utilization falls so melted servers refreeze a
        # few at a time.  An abrupt cutoff would release every server's
        # stored heat simultaneously and spike the cooling load above the
        # peak VMT just shaved off.
        span = self._keep_warm_min_util - self._keep_warm_release_util
        if span > 0:
            warm_fraction = min(
                1.0, max(0.0, (utilization - self._keep_warm_release_util)
                         / span))
        else:
            warm_fraction = 1.0 if utilization >= self._keep_warm_min_util \
                else 0.0
        warm_count = int(round(warm_fraction * len(melted_hot)))
        released = melted_hot[warm_count:]
        melted_hot = melted_hot[:warm_count]
        keep_warm_active = warm_count > 0
        # Remember who is being held warm: those servers keep their
        # melted classification next tick (hysteresis, see
        # :meth:`_melted_mask`) even if their estimate dips a hair below
        # the threshold while parked at the melt point.
        self._kept_warm = np.zeros(view.num_servers, dtype=bool)
        if keep_warm_active:
            self._kept_warm[melted_hot] = True
        # Servers released from keep-warm rejoin the general pool: they
        # keep carrying an even share of load, so their wax refreezes at
        # the pace the falling load dictates instead of all at once.
        if len(released):
            unmelted_base = np.sort(np.concatenate(
                [unmelted_base, released]))

        # Cold jobs prefer the cold group (Section III-B ordering).
        self._spread(cold_demand, cold_ids, free, allocation)

        if keep_warm_active and len(melted_hot):
            # Per-server hold power from the learned inlet estimates: a
            # colder-than-nominal server needs more power to stay at the
            # melt point than the nominal figure suggests.
            target_w = self._keep_warm_targets_w(melted_hot)
            # Cold overflow lands on melted servers first ("minimal
            # thermal impact") -- and usefully contributes keep-warm power
            # -- but bounded so the hot top-up below still fits.
            cold_cap = self._cold_cap_on_melted(
                hot_demand, cold_demand, float(target_w.max()))
            self._spread(cold_demand, melted_hot, free, allocation,
                         per_server_cap=cold_cap)
            # Top melted servers up with hot jobs to the keep-warm power
            # target: just enough to hold the wax melted, no more.
            p_hot = mean_hot_core_power_w(self._config, hot_demand)
            existing_w = (allocation[melted_hot].astype(np.float64)
                          @ self._per_core_power)
            need_w = np.maximum(0.0, target_w - existing_w)
            if p_hot > 0:
                top_up = np.ceil(need_w / p_hot).astype(np.int64)
                self._fill_targets(hot_demand, melted_hot, top_up, free,
                                   allocation)
            # Remaining capacity on melted servers is reserved: extra
            # load must go to servers that can still store heat.
            reserved = free[melted_hot].copy()
            free[melted_hot] = 0
        else:
            reserved = None

        # Hot jobs: the unmelted part of the base group, evenly.
        self._spread(hot_demand, unmelted_base, free, allocation)
        # Displaced load: pack extension servers to full, sequentially, so
        # each one actually exceeds the melting temperature.
        self._spread(hot_demand, extension, free, allocation, pack=True)
        # Overflow: cold-group servers, sequentially (de-facto extension).
        self._spread(hot_demand, cold_ids, free, allocation, pack=True)

        if reserved is not None:
            free[melted_hot] = reserved

        # Corner case: everything else is full -- melted servers take the
        # remainder (any server below the threshold no longer exists).
        self._spread(hot_demand, melted_hot, free, allocation)

        # Cold leftovers: melted hot servers, then the rest of the fleet.
        self._spread(cold_demand, melted_hot, free, allocation, pack=True)
        self._spread(cold_demand, extension, free, allocation, pack=True)
        self._spread(cold_demand, unmelted_base, free, allocation)

        if hot_demand.sum() or cold_demand.sum():
            raise SchedulingError("VMT-WA failed to place all jobs")

        self._record_allocation(allocation)
        hot_mask = np.zeros(view.num_servers, dtype=bool)
        hot_mask[:self._hot_size] = True
        return Placement(allocation=allocation, hot_group_mask=hot_mask)
