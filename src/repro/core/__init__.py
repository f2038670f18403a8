"""The paper's contribution: VMT job placement (plus baselines).

* :mod:`~repro.core.scheduler` -- the scheduler interface, placement
  results, the shared job-dealing machinery, and the base classes of
  the VMT policies and of the job-persistent baselines;
* :mod:`~repro.core.round_robin` -- the round-robin baseline (prior TTS
  work's scheduler);
* :mod:`~repro.core.coolest_first` -- the coolest-first thermal-aware
  baseline;
* :mod:`~repro.core.grouping` -- hot-group sizing (Eq. 1/2) and the
  empirical GV -> VMT mapping (Table II);
* :mod:`~repro.core.vmt_ta` -- VMT with Thermal Aware placement
  (Section III-A);
* :mod:`~repro.core.vmt_wa` -- VMT with Wax Aware placement
  (Section III-B);
* :mod:`~repro.core.policies` -- name-based factory.
"""

from .scheduler import Placement, Scheduler
from .round_robin import RoundRobinScheduler
from .coolest_first import CoolestFirstScheduler
from .grouping import (GroupSizer, derive_gv_vmt_mapping, hot_group_size)
from .planner import GVPlan, GVPlanner, LoadForecast
from .vmt_preserve import VMTPreserveScheduler
from .vmt_ta import VMTThermalAwareScheduler
from .vmt_wa import VMTWaxAwareScheduler
from .policies import make_scheduler, SCHEDULER_NAMES

__all__ = [
    "Placement", "Scheduler", "RoundRobinScheduler",
    "CoolestFirstScheduler", "GroupSizer", "GVPlan", "GVPlanner",
    "LoadForecast", "derive_gv_vmt_mapping", "hot_group_size",
    "VMTPreserveScheduler", "VMTThermalAwareScheduler",
    "VMTWaxAwareScheduler", "make_scheduler", "SCHEDULER_NAMES",
]
