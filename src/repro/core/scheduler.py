"""Scheduler interface and shared job-dealing machinery.

A scheduler receives, once per tick, the demand vector (job-cores per
workload) and the scheduler-visible :class:`~repro.cluster.state.ClusterView`,
and returns a :class:`Placement`: a ``(servers x workloads)`` core
allocation plus (for VMT policies) the current hot-group mask.

The dealing helpers implement the placement primitives every policy
shares:

* :func:`waterfill_quotas` -- spread a job count over a server set as
  evenly as capacities allow (the "distributed evenly among the servers"
  of Section III-A);
* :func:`pack_quotas` -- fill servers to capacity in a given order (the
  coolest-first baseline);
* :func:`take_share` -- the proportional slice of a demand vector that
  fits a capacity, so a spilled remainder keeps its type mix;
* :func:`deal_types` -- turn per-workload counts plus per-server quotas
  into an allocation matrix, interleaving job types across servers the
  way an arrival-order dealer would.

Two base classes hold what the policies share beyond the primitives:
:class:`VMTScheduler` (the Eq. 1 grouping and the one dealing pass of
VMT-TA, VMT-WA and VMT-Preserve) and :class:`JobPersistentScheduler`
(the churning job map of the round-robin and coolest-first baselines).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.state import ClusterView
from ..config import SimulationConfig
from ..errors import CapacityError, ConfigurationError, SchedulingError
from ..sim.rng import RngStreams
from ..workloads.workload import WORKLOAD_LIST
from .grouping import GroupSizer

NUM_WORKLOADS = len(WORKLOAD_LIST)

#: Default fraction of running jobs completing per one-minute tick
#: (mean job lifetime ~10 minutes).
DEFAULT_CHURN_PER_TICK = 0.10


@dataclass(frozen=True)
class Placement:
    """One tick's scheduling decision."""

    allocation: np.ndarray                 # (num_servers, NUM_WORKLOADS)
    hot_group_mask: Optional[np.ndarray] = None  # bool (num_servers,)

    @property
    def jobs_placed(self) -> int:
        """Total job-cores placed."""
        return int(self.allocation.sum())


class Scheduler(abc.ABC):
    """Base class for all placement policies."""

    def __init__(self, config: SimulationConfig,
                 rng_streams: Optional[RngStreams] = None) -> None:
        config.validate()
        self._config = config
        streams = rng_streams if rng_streams is not None \
            else RngStreams(config.seed)
        self._rng = streams.stream(f"scheduler-{self.name}")
        self._tick = 0

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short policy name used in results and reports."""

    @property
    def config(self) -> SimulationConfig:
        """Simulation configuration the policy was built for."""
        return self._config

    @abc.abstractmethod
    def _place(self, demand: np.ndarray, view: ClusterView) -> Placement:
        """Policy-specific placement; demand has NUM_WORKLOADS entries."""

    def place(self, demand: np.ndarray, view: ClusterView) -> Placement:
        """Validate, delegate to the policy, and verify conservation."""
        demand = np.asarray(demand, dtype=np.int64)
        if demand.shape != (NUM_WORKLOADS,):
            raise SchedulingError(
                f"demand must have {NUM_WORKLOADS} entries")
        if np.any(demand < 0):
            raise SchedulingError("demand must be non-negative")
        total = int(demand.sum())
        available = view.available_cores
        if total > available:
            if available < view.total_cores:
                failed = view.num_servers - view.num_active
                raise CapacityError(
                    f"demand {total} exceeds surviving capacity "
                    f"{available} ({failed} servers failed)")
            raise CapacityError(
                f"demand {total} exceeds cluster capacity "
                f"{view.total_cores}")
        placement = self._place(demand, view)
        placed = placement.allocation.sum(axis=0)
        if not np.array_equal(placed, demand):
            raise SchedulingError(
                f"{self.name}: placed {placed.tolist()} != demanded "
                f"{demand.tolist()}")
        self._tick += 1
        return placement

    def reset(self) -> None:
        """Clear per-run policy state (group extensions, tick counters)."""
        self._tick = 0

    def retarget_grouping(self, grouping_value: float) -> None:
        """Adopt a new grouping-value estimate mid-run (live control).

        The live engine's forecaster (or MPC controller) calls this at
        decision boundaries with its current GV estimate.  Policies
        without Eq. 1/2 grouping ignore it; VMT policies rebuild their
        group sizing.  The override never touches the configuration or
        the policy :attr:`name` (both encode the *configured* GV, which
        seeds the policy's RNG stream and keys snapshots), and calling
        with the configured GV is an exact no-op -- that is what makes a
        perfect forecaster bit-identical to the offline batch run.
        """

    def state_dict(self) -> dict:
        """Serializable mid-run state; subclasses extend via ``super()``.

        Includes the policy's own RNG state: schedulers built without a
        shared :class:`RngStreams` (the normal api/CLI path) own a
        private generator whose position is invisible to the
        simulation's stream registry, so it must travel with the policy.
        """
        return {"tick": self._tick,
                "rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._tick = int(state["tick"])
        self._rng.bit_generator.state = state["rng"]

    def register_metrics(self, registry) -> None:
        """Publish policy gauges on a :class:`~repro.obs.registry.MetricRegistry`.

        The base registers the tick counter and, for policies that
        expose one, the live hot-group size; subclasses extend via
        ``super().register_metrics(registry)``.  Gauges are
        callback-backed reads of existing state -- registration must
        never change placement behavior.
        """
        registry.gauge("scheduler.ticks", lambda: float(self._tick))
        if hasattr(type(self), "hot_group_size"):
            registry.gauge("scheduler.hot_group_size",
                           lambda: float(self.hot_group_size))


# -- dealing primitives ----------------------------------------------------


def waterfill_quotas(total: int, capacities: np.ndarray,
                     tie_offset: int = 0) -> np.ndarray:
    """Spread ``total`` jobs over servers as evenly as capacities allow.

    Every server receives the same count until its capacity binds; any
    sub-unit remainder goes to servers rotated by ``tie_offset`` so the
    leftover job does not always land on server 0.

    Raises :class:`CapacityError` when total capacity is insufficient.

    The even spread is the water level ``L``: every server gets
    ``min(cap, L)`` for the largest ``L`` that fits under ``total``, and
    the sub-unit remainder (one job each to the first few unsaturated
    servers, rotated) tops it up.  ``L`` is found in closed form from
    the sorted capacities -- with ``k`` servers saturated (the ``k``
    smallest), the level is ``(total - sum_of_k_smallest) // (n - k)``,
    and the right ``k`` is the first whose candidate level sits below
    the ``k``-th smallest capacity.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    if np.any(caps < 0):
        raise SchedulingError("capacities must be >= 0")
    if total < 0:
        raise SchedulingError("total must be >= 0")
    if total > caps.sum():
        raise CapacityError(
            f"cannot place {total} jobs into capacity {int(caps.sum())}")
    if total == int(caps.sum()):
        return caps.copy()
    sorted_caps = np.sort(caps)
    saturated_sum = np.concatenate(([0], np.cumsum(sorted_caps)[:-1]))
    unsaturated = len(caps) - np.arange(len(caps))
    candidates = (total - saturated_sum) // unsaturated
    level = candidates[int(np.argmax(candidates < sorted_caps))]
    quotas = np.minimum(caps, level)
    remaining = total - int(quotas.sum())
    if remaining:
        active = np.flatnonzero(caps > level)
        rotated = np.roll(active, -(tie_offset % len(active)))
        quotas[rotated[:remaining]] += 1
    return quotas


def pack_quotas(total: int, capacities: np.ndarray,
                order: np.ndarray) -> np.ndarray:
    """Fill servers to capacity following ``order`` (e.g. coolest first)."""
    caps = np.asarray(capacities, dtype=np.int64)
    if total > caps.sum():
        raise CapacityError(
            f"cannot pack {total} jobs into capacity {int(caps.sum())}")
    quotas = np.zeros_like(caps)
    ordered_caps = caps[order]
    fill = np.minimum(ordered_caps,
                      np.maximum(0, total - np.concatenate(
                          ([0], np.cumsum(ordered_caps)[:-1]))))
    quotas[order] = fill
    return quotas


def take_share(demand_part: np.ndarray, amount: int) -> np.ndarray:
    """Remove up to ``amount`` jobs from ``demand_part`` (in place).

    Each workload gives its proportional share rounded down, so a
    spilled remainder keeps its type mix; the shortfall goes to the
    larger leftovers first, the lower workload index on ties (a stable
    sort, so the order does not depend on the host's numpy build).
    Returns the jobs taken.
    """
    total = int(demand_part.sum())
    amount = min(amount, total)
    if amount == 0:
        return np.zeros(NUM_WORKLOADS, dtype=np.int64)
    taken = np.minimum(demand_part, (demand_part * amount) // total)
    shortfall = amount - int(taken.sum())
    if shortfall > 0:
        leftovers = demand_part - taken
        for idx in np.argsort(-leftovers, kind="stable"):
            grab = min(shortfall, int(leftovers[idx]))
            taken[idx] += grab
            shortfall -= grab
            if shortfall == 0:
                break
    demand_part -= taken
    return taken


def deal_types(demand: np.ndarray, quotas: np.ndarray,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Turn per-workload demand and per-server quotas into an allocation.

    ``sum(demand) == sum(quotas)`` must hold.  Job types are shuffled (or
    left in workload order when ``rng is None``) and dealt across servers
    in round-robin slot order, reproducing the per-server workload-mix
    variance a real arrival-order dealer produces -- the reason round
    robin shows a wider temperature spread than coolest-first (Fig. 9 vs
    Fig. 10).
    """
    demand = np.asarray(demand, dtype=np.int64)
    quotas = np.asarray(quotas, dtype=np.int64)
    total = int(demand.sum())
    if total != int(quotas.sum()):
        raise SchedulingError(
            f"demand total {total} != quota total {int(quotas.sum())}")
    allocation = np.zeros((len(quotas), NUM_WORKLOADS), dtype=np.int64)
    if total == 0:
        return allocation

    types = np.repeat(np.arange(NUM_WORKLOADS), demand)
    if rng is not None:
        types = rng.permutation(types)

    # Slot order: slot j of server s ranks before slot j of server s+1 and
    # before slot j+1 of anyone, i.e. deal one job per server per round.
    ends = np.cumsum(quotas)
    starts = ends - quotas
    servers_for_slots = np.repeat(np.arange(len(quotas)), quotas)
    intra = np.arange(total) - np.repeat(starts, quotas)
    round_robin_order = np.argsort(intra, kind="stable")
    server_of_job = servers_for_slots[round_robin_order]

    flat = np.bincount(server_of_job * NUM_WORKLOADS + types,
                       minlength=len(quotas) * NUM_WORKLOADS)
    return flat.reshape(len(quotas), NUM_WORKLOADS)


# -- shared policy bases ---------------------------------------------------


class VMTScheduler(Scheduler):
    """Eq. 1 grouping and the dealing pass every VMT policy places with.

    Owns the grouping value in force -- the configured one, or the live
    override :meth:`retarget_grouping` installed, snapshotted as
    ``gv_override`` -- and the Eq. 1/2 :class:`GroupSizer` built from
    it.  :meth:`reset` returns to the configured value.
    """

    def __init__(self, config: SimulationConfig, **kwargs) -> None:
        super().__init__(config, **kwargs)
        self._gv_override: float = config.scheduler.grouping_value
        self._sizer = self._group_sizer()

    def _group_sizer(self) -> GroupSizer:
        return GroupSizer(grouping_value=self._gv_override,
                          melt_temp_c=self._config.wax.melt_temp_c,
                          num_servers=self._config.num_servers)

    @property
    def sizer(self) -> GroupSizer:
        """The Eq. 1/2 group sizing in force."""
        return self._sizer

    def retarget_grouping(self, grouping_value: float) -> None:
        grouping_value = float(grouping_value)
        if grouping_value == self._gv_override:
            return
        self._gv_override = grouping_value
        self._sizer = self._group_sizer()

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

    def _spread(self, demand_part: np.ndarray, ids: np.ndarray,
                free: np.ndarray, allocation: np.ndarray, *,
                pack: bool = False,
                per_server_cap: Optional[int] = None) -> None:
        """Place as much of ``demand_part`` as fits on ``ids``.

        Takes :func:`take_share` of what fits, then ``pack=False``
        spreads it evenly (waterfill, remainder rotated by the tick);
        ``pack=True`` fills servers in id order ("added sequentially").
        ``per_server_cap`` limits how much any one server may receive in
        this pass (the keep-warm cap).  Mutates ``demand_part``,
        ``free`` and ``allocation``.
        """
        if len(ids) == 0 or demand_part.sum() == 0:
            return
        caps = free[ids]
        if per_server_cap is not None:
            caps = np.minimum(caps, per_server_cap)
        taken = take_share(demand_part, int(caps.sum()))
        amount = int(taken.sum())
        if amount == 0:
            return
        if pack:
            quotas = pack_quotas(amount, caps, np.arange(len(ids)))
        else:
            quotas = waterfill_quotas(amount, caps, tie_offset=self._tick)
        allocation[ids] += deal_types(taken, quotas, rng=self._rng)
        free[ids] -= quotas


class JobPersistentScheduler(Scheduler):
    """The baselines' job map: jobs stay where they land, with churn.

    Jobs placed in earlier ticks stay until they complete (an
    exponential lifetime: ``churn_per_tick`` of the running jobs finish
    each minute).  Every tick clears the rows of failed servers, draws
    the completions, drains each shrinking workload's excess and deals
    the arrivals -- completions, displaced jobs and demand growth.  A
    subclass supplies only its quota rule, :meth:`_quotas`.
    """

    def __init__(self, *args, churn_per_tick: float = DEFAULT_CHURN_PER_TICK,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= churn_per_tick <= 1.0:
            raise ConfigurationError("churn must be in [0, 1]")
        self._churn = churn_per_tick
        self._alloc: Optional[np.ndarray] = None

    @abc.abstractmethod
    def _quotas(self, total: int, capacities: np.ndarray,
                view: ClusterView, *, drain: bool) -> np.ndarray:
        """Per-server counts of ``total`` jobs within ``capacities``.

        ``drain`` is true for departures (``capacities`` is then one
        workload's column of the job map) and false for arrivals (the
        free cores).
        """

    def reset(self) -> None:
        super().reset()
        self._alloc = None

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["alloc"] = None if self._alloc is None else self._alloc.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        alloc = state["alloc"]
        self._alloc = (None if alloc is None
                       else np.asarray(alloc, dtype=np.int64).copy())

    def _place(self, demand: np.ndarray, view: ClusterView) -> Placement:
        if self._alloc is None or len(self._alloc) != view.num_servers:
            self._alloc = np.zeros((view.num_servers, NUM_WORKLOADS),
                                   dtype=np.int64)
        alloc = self._alloc

        # Failures: jobs on dead servers are lost; clearing their rows
        # drops the placed count, so the displaced jobs re-enter the
        # arrival stream below and land on survivors.
        if view.active_mask is not None:
            alloc[~view.active_mask] = 0

        # Churn: a fraction of running jobs completes this minute; the
        # replacements re-enter the arrival stream below.
        if self._churn > 0 and alloc.sum():
            alloc -= self._rng.binomial(alloc, self._churn)

        # Departures: each shrinking workload's excess finishes.
        placed = alloc.sum(axis=0)
        for w in range(NUM_WORKLOADS):
            excess = int(placed[w] - demand[w])
            if excess > 0:
                alloc[:, w] -= self._quotas(excess, alloc[:, w], view,
                                            drain=True)

        # Arrivals: deal the new jobs by the policy's quota rule.
        new = np.maximum(demand - alloc.sum(axis=0), 0)
        total_new = int(new.sum())
        if total_new:
            free = view.capacity_vector() - alloc.sum(axis=1)
            quotas = self._quotas(total_new, free, view, drain=False)
            alloc += deal_types(new, quotas, rng=self._rng)

        return Placement(allocation=alloc.copy())
