"""VMT with Thermal Aware job placement (Section III-A).

The cluster is split once into a hot group (Eq. 1) and a cold group
(Eq. 2).  Hot jobs are distributed evenly among the hot group, cold jobs
among the cold group.  Group membership is static for the run -- the lack
of any reaction to the wax state is VMT-TA's defining weakness, exposed
when a low GV melts all the wax before the load peak (Fig. 13, GV=20).

Spillover: "care must be taken to ensure each group is large enough to
support the peak load for its respective subset of workloads ... This can
be handled ... by allowing jobs to be scheduled to the other group if one
group fills up."  We implement that overflow rule: jobs that do not fit
in their preferred group spill, evenly, into the other group's free
cores.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..cluster.state import ClusterView
from ..config import SimulationConfig
from ..errors import SchedulingError
from ..workloads.workload import COLD_INDICES, HOT_INDICES
from .grouping import GroupSizer
from .scheduler import (NUM_WORKLOADS, Placement, Scheduler, deal_types,
                        waterfill_quotas)


def split_demand(demand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a demand vector into its hot-only and cold-only parts."""
    hot = np.zeros(NUM_WORKLOADS, dtype=np.int64)
    cold = np.zeros(NUM_WORKLOADS, dtype=np.int64)
    hot[list(HOT_INDICES)] = demand[list(HOT_INDICES)]
    cold[list(COLD_INDICES)] = demand[list(COLD_INDICES)]
    return hot, cold


class VMTThermalAwareScheduler(Scheduler):
    """Static hot/cold grouping by workload thermal class."""

    def __init__(self, config: SimulationConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        self._sizer = GroupSizer(
            grouping_value=config.scheduler.grouping_value,
            melt_temp_c=config.wax.melt_temp_c,
            num_servers=config.num_servers,
        )
        self._gv_override: float = config.scheduler.grouping_value

    @property
    def name(self) -> str:
        return f"vmt-ta(gv={self._config.scheduler.grouping_value:g})"

    @property
    def sizer(self) -> GroupSizer:
        """The Eq. 1/2 group sizing in force."""
        return self._sizer

    def retarget_grouping(self, grouping_value: float) -> None:
        grouping_value = float(grouping_value)
        if grouping_value == self._gv_override:
            return
        self._gv_override = grouping_value
        self._sizer = GroupSizer(
            grouping_value=grouping_value,
            melt_temp_c=self._config.wax.melt_temp_c,
            num_servers=self._config.num_servers,
        )

    def reset(self) -> None:
        super().reset()
        self.retarget_grouping(self._config.scheduler.grouping_value)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["gv_override"] = self._gv_override
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        # .get(): snapshots written before live retargeting existed
        # carry no override and restore to the configured GV.
        self.retarget_grouping(
            state.get("gv_override",
                      self._config.scheduler.grouping_value))

    def _place_group(self, demand_part: np.ndarray,
                     member_ids: np.ndarray, free: np.ndarray,
                     allocation: np.ndarray) -> int:
        """Place as much of ``demand_part`` as fits evenly in a group.

        Mutates ``free`` and ``allocation``; returns the spillover count.
        ``demand_part`` is reduced in place proportionally when it cannot
        all fit (excess types are preserved for the spill pass).
        """
        total = int(demand_part.sum())
        if total == 0 or len(member_ids) == 0:
            return total
        capacity = int(free[member_ids].sum())
        fit = min(total, capacity)
        if fit == 0:
            return total
        # Take a proportional slice of each workload for this group; the
        # remainder spills with its type mix intact.
        taken = np.minimum(demand_part,
                           (demand_part * fit) // max(total, 1))
        shortfall = fit - int(taken.sum())
        if shortfall > 0:
            leftovers = demand_part - taken
            order = np.argsort(-leftovers, kind="stable")
            for idx in order:
                grab = min(shortfall, int(leftovers[idx]))
                taken[idx] += grab
                shortfall -= grab
                if shortfall == 0:
                    break
        quotas = waterfill_quotas(int(taken.sum()), free[member_ids],
                                  tie_offset=self._tick)
        allocation[member_ids] += deal_types(taken, quotas, rng=self._rng)
        free[member_ids] -= quotas
        demand_part -= taken
        return int(demand_part.sum())

    def _place(self, demand: np.ndarray, view: ClusterView) -> Placement:
        if view.num_servers != self._config.num_servers:
            raise SchedulingError("view does not match configured cluster")
        hot_demand, cold_demand = split_demand(demand)
        hot_mask = self._sizer.hot_mask()
        hot_ids = np.flatnonzero(hot_mask)
        cold_ids = np.flatnonzero(~hot_mask)

        # Failed servers contribute zero capacity, so the dealing passes
        # below route around them and displaced demand spills naturally.
        free = view.capacity_vector()
        allocation = np.zeros((view.num_servers, NUM_WORKLOADS),
                              dtype=np.int64)

        # Preferred groups first; whatever does not fit spills across.
        self._place_group(hot_demand, hot_ids, free, allocation)
        self._place_group(cold_demand, cold_ids, free, allocation)
        self._place_group(hot_demand, cold_ids, free, allocation)
        self._place_group(cold_demand, hot_ids, free, allocation)
        if hot_demand.sum() or cold_demand.sum():
            raise SchedulingError("VMT-TA failed to place all jobs")
        return Placement(allocation=allocation, hot_group_mask=hot_mask)
