"""Round-robin baseline.

"In our experiments, we consider two baselines.  The first is a round
robin scheduler, the same used in prior work on TTS." (Section V.)

The scheduler is *job persistent with churn*
(:class:`~repro.core.scheduler.JobPersistentScheduler`): jobs placed in
earlier intervals stay where they are until they complete (an
exponential lifetime, ``churn_per_tick`` of running jobs finishing each
minute); each tick the completions plus the demand delta are re-dealt
one per server in rotation (classic round robin), and net departures
drain evenly from the servers running that workload.  Because arrivals
mix workload types randomly and linger for many minutes, individual
servers carry different hot/cold blends at any instant, which is exactly
why the round-robin heatmap (Fig. 9) shows a visible temperature spread
even though every server carries the same job *count*.
"""

from __future__ import annotations

import numpy as np

from ..cluster.state import ClusterView
from .scheduler import (DEFAULT_CHURN_PER_TICK, JobPersistentScheduler,
                        waterfill_quotas)

__all__ = ["DEFAULT_CHURN_PER_TICK", "RoundRobinScheduler"]


class RoundRobinScheduler(JobPersistentScheduler):
    """Deal new jobs evenly across all servers; drain departures evenly."""

    @property
    def name(self) -> str:
        return "round-robin"

    def _quotas(self, total: int, capacities: np.ndarray,
                view: ClusterView, *, drain: bool) -> np.ndarray:
        return waterfill_quotas(total, capacities, tie_offset=self._tick)
