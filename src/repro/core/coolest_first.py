"""Coolest-first baseline.

"The second is a more advanced coolest-first scheduler that presumes the
coolest servers have the greatest thermal headroom available and
schedules on them first." (Section V.)

Like the round-robin baseline this scheduler is job persistent with
churn (:class:`~repro.core.scheduler.JobPersistentScheduler`), but its
deltas are thermal aware: new arrivals pack onto the coolest servers
(by sensed air temperature) and departures drain from the hottest.
That closed loop drives every server toward the fleet-mean temperature
-- the tight temperature band of Fig. 10 -- and still melts no wax,
because the fleet mean sits below the melting point.
"""

from __future__ import annotations

import numpy as np

from ..cluster.state import ClusterView
from .scheduler import JobPersistentScheduler, pack_quotas


class CoolestFirstScheduler(JobPersistentScheduler):
    """Pack new jobs onto the coolest servers; drain the hottest first."""

    @property
    def name(self) -> str:
        return "coolest-first"

    def _quotas(self, total: int, capacities: np.ndarray,
                view: ClusterView, *, drain: bool) -> np.ndarray:
        # Stable sort on sensed temperature; ties break by server id.
        coolest_first = np.argsort(view.air_temp_c, kind="stable")
        return pack_quotas(total, capacities,
                           coolest_first[::-1] if drain else coolest_first)
