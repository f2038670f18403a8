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
from ..errors import SchedulingError
from ..workloads.workload import COLD_INDICES, HOT_INDICES
from .scheduler import NUM_WORKLOADS, Placement, VMTScheduler


def split_demand(demand: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split a demand vector into its hot-only and cold-only parts."""
    hot = np.zeros(NUM_WORKLOADS, dtype=np.int64)
    cold = np.zeros(NUM_WORKLOADS, dtype=np.int64)
    hot[list(HOT_INDICES)] = demand[list(HOT_INDICES)]
    cold[list(COLD_INDICES)] = demand[list(COLD_INDICES)]
    return hot, cold


class VMTThermalAwareScheduler(VMTScheduler):
    """Static hot/cold grouping by workload thermal class."""

    @property
    def name(self) -> str:
        return f"vmt-ta(gv={self._config.scheduler.grouping_value:g})"

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
        self._spread(hot_demand, hot_ids, free, allocation)
        self._spread(cold_demand, cold_ids, free, allocation)
        self._spread(hot_demand, cold_ids, free, allocation)
        self._spread(cold_demand, hot_ids, free, allocation)
        if hot_demand.sum() or cold_demand.sum():
            raise SchedulingError("VMT-TA failed to place all jobs")
        return Placement(allocation=allocation, hot_group_mask=hot_mask)
