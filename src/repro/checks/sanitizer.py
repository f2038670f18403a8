"""Runtime invariant checking for the simulation loop.

The simulator's physics and policies obey a set of conservation laws and
validity bounds that hold *by construction* -- until a refactor breaks
one silently.  :class:`SimulationSanitizer` audits them while a run
executes, at one of three levels:

``off``
    No sanitizer is attached; the tick loop is unchanged.
``cheap``
    O(1) scalar checks per tick: time monotonicity, total job
    conservation, melt-fraction bounds, finite cluster totals, and the
    cooling-load identity against what the metrics collector stored.
``full``
    Everything in ``cheap`` plus elementwise audits: per-workload job
    conservation, per-server capacity and failed-server placement, the
    Eq. 1/2 hot/cold partition (and the VMT-WA extension formula and its
    peak monotonicity), the per-server PCM energy balance across the
    step, stored-latent bounds, estimator range, and non-finite
    rejection on every state array.

A violation is reported through the attached tracer as a structured
``invariant-violation`` event (the trace is flushed so the event
survives the aborted run) and then raised as
:class:`~repro.errors.InvariantViolation` carrying the tick index and,
where it applies, the offending server id.

The checkers read only ground-truth views and already-computed
placement state -- never the sensed path -- so an attached sanitizer can
never perturb the physics or consume RNG: fingerprints are bit-identical
across ``off``/``cheap``/``full``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.scheduler import Placement
from ..core.vmt_ta import VMTThermalAwareScheduler
from ..core.vmt_wa import VMTWaxAwareScheduler
from ..errors import ConfigurationError, InvariantViolation
from ..thermal.pcm import FULL_MELT_TOLERANCE

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.cluster import Cluster
    from ..cluster.metrics import MetricsCollector
    from ..cluster.state import ClusterView
    from ..config import SimulationConfig
    from ..core.scheduler import Scheduler
    from ..obs.tracer import Tracer

#: Valid values for the ``checks=`` knob, in increasing cost order.
CHECK_LEVELS = ("off", "cheap", "full")

#: Environment variable supplying a default check level when the caller
#: passes ``checks=None`` (the library default).
CHECKS_ENV = "REPRO_CHECKS"

#: Optional companion variable restricting the env-var default to
#: policies whose name contains this substring (e.g. ``vmt-wa``), so CI
#: can run an existing suite with full checks on one policy without
#: paying the cost everywhere.
CHECKS_POLICY_ENV = "REPRO_CHECKS_POLICY"

#: Slack on the melt-fraction validity bounds.  The mapping clips to
#: [0, 1] so anything outside is a code bug, but the bound is checked
#: with the same tolerance the fully-melted gauge uses for symmetry.
_MELT_BOUND_TOL = FULL_MELT_TOLERANCE

#: Relative tolerance for float-identity checks (cooling-load identity,
#: PCM energy balance).  These identities hold to rounding error of the
#: few multiplies that separate the two sides, so 1e-9 relative is
#: orders of magnitude looser than the error and orders tighter than
#: any real bug.
_REL_TOL = 1e-9


def resolve_check_level(checks: Optional[str],
                        policy_name: Optional[str] = None) -> str:
    """Resolve the effective check level for one run.

    ``checks`` wins when given explicitly.  ``None`` consults the
    ``REPRO_CHECKS`` environment variable (so a whole test suite can be
    re-run under the sanitizer without touching call sites); when
    ``REPRO_CHECKS_POLICY`` is also set, the env default only applies to
    runs whose scheduler name contains that substring.  Anything else
    resolves to ``"off"``.
    """
    if checks is None:
        checks = os.environ.get(CHECKS_ENV)
        if checks is None:
            return "off"
        scope = os.environ.get(CHECKS_POLICY_ENV)
        if scope and (policy_name is None or scope not in policy_name):
            return "off"
    if checks not in CHECK_LEVELS:
        raise ConfigurationError(
            f"checks must be one of {', '.join(CHECK_LEVELS)}; "
            f"got {checks!r}")
    return checks


class SimulationSanitizer:
    """Per-tick invariant auditor wired into a ``ClusterSimulation``.

    The simulation calls :meth:`check_placement` after the scheduler
    places but before the physics advance, and :meth:`check_state` after
    the tick's metrics are recorded.  Both raise
    :class:`~repro.errors.InvariantViolation` on the first broken
    invariant.
    """

    def __init__(self, *, config: "SimulationConfig", cluster: "Cluster",
                 scheduler: "Scheduler", metrics: "MetricsCollector",
                 level: str, tracer: Optional["Tracer"] = None) -> None:
        if level not in CHECK_LEVELS or level == "off":
            raise ConfigurationError(
                f"sanitizer level must be 'cheap' or 'full', got {level!r}")
        self._config = config
        self._cluster = cluster
        self._scheduler = scheduler
        self._metrics = metrics
        self._level = level
        self._full = level == "full"
        self._tracer = tracer
        self._cores = config.server.cores
        self._ticks_checked = 0
        self._prev_time_s: Optional[float] = None
        self._pre_enthalpy: Optional[np.ndarray] = None
        # VMT-WA extension monotonicity tracking: (previous hot size,
        # whether the previous tick was inside a gated peak window).
        self._prev_hot_size: Optional[int] = None
        self._prev_peak_gated = False

    @property
    def level(self) -> str:
        """The active check level ('cheap' or 'full')."""
        return self._level

    @property
    def ticks_checked(self) -> int:
        """Ticks audited so far."""
        return self._ticks_checked

    def register_metrics(self, registry) -> None:
        """Publish sanitizer gauges (level ordinal and audited ticks)."""
        registry.gauge("checks.level",
                       lambda: float(CHECK_LEVELS.index(self._level)))
        registry.gauge("checks.ticks_checked",
                       lambda: float(self._ticks_checked))

    # -- violation reporting ------------------------------------------------

    def _violate(self, step: int, now_s: float, invariant: str,
                 message: str, *, server: Optional[int] = None,
                 **context) -> None:
        """Emit the structured trace event, flush, and raise."""
        if self._tracer is not None and self._tracer.enabled:
            payload = {k: v for k, v in context.items()}
            if server is not None:
                payload["server"] = int(server)
            self._tracer.event("invariant-violation", now_s,
                               step=step, invariant=invariant,
                               message=message, **payload)
            # Flush now: the raise below aborts the run before the
            # tracer's normal buffered flush would fire.
            self._tracer.flush()
        where = f"tick {step}"
        if server is not None:
            where += f", server {server}"
        raise InvariantViolation(f"[{invariant}] at {where}: {message}")

    # -- pre-step checks ----------------------------------------------------

    def check_placement(self, step: int, now_s: float, demand: np.ndarray,
                        view: "ClusterView",
                        placement: Placement) -> None:
        """Audit the tick's inputs and the scheduler's placement.

        Runs after ``scheduler.place`` and before ``cluster.advance``; in
        full mode it also snapshots the pre-step wax enthalpy for the
        energy-balance audit in :meth:`check_state`.
        """
        # Event/tick time monotonicity: the engine dispatches in
        # (time, priority, sequence) order, so tick times must be finite
        # and strictly increasing.
        if not np.isfinite(now_s):
            self._violate(step, now_s, "time-monotonic",
                          f"tick time is not finite: {now_s!r}")
        if self._prev_time_s is not None and now_s <= self._prev_time_s:
            self._violate(step, now_s, "time-monotonic",
                          f"tick time {now_s!r} did not advance past "
                          f"previous tick at {self._prev_time_s!r}")
        self._prev_time_s = now_s

        # Demand validity at the scheduler boundary.
        total_demand = float(demand.sum())
        if not np.isfinite(total_demand) or total_demand < 0:
            self._violate(step, now_s, "finite-state",
                          f"demand total is invalid: {total_demand!r}")

        allocation = placement.allocation
        # Job conservation: every demanded job-core lands on exactly one
        # server -- including jobs displaced by failures (the injector
        # folds them back into the demand) and spillover across groups.
        placed_total = int(allocation.sum())
        if placed_total != int(total_demand):
            self._violate(
                step, now_s, "job-conservation",
                f"{placed_total} job-cores placed for a demand of "
                f"{int(total_demand)}")

        if self._full:
            self._check_placement_full(step, now_s, demand, view,
                                       placement)
            # Snapshot for the post-step energy balance.  ``enthalpy_j``
            # returns a fresh array; no copy needed.
            self._pre_enthalpy = self._cluster.wax_enthalpy_j

    def _check_placement_full(self, step: int, now_s: float,
                              demand: np.ndarray, view: "ClusterView",
                              placement: Placement) -> None:
        allocation = placement.allocation
        if np.any(~np.isfinite(demand.astype(np.float64))):
            bad = int(np.argmax(~np.isfinite(demand.astype(np.float64))))
            self._violate(step, now_s, "finite-state",
                          f"demand[{bad}] is not finite")
        # Per-workload conservation: the type mix must survive splitting,
        # spillover, and keep-warm top-ups, not just the total.
        placed_by_type = allocation.sum(axis=0)
        if not np.array_equal(placed_by_type, demand):
            bad = int(np.argmax(placed_by_type != demand))
            self._violate(
                step, now_s, "job-conservation",
                f"workload {bad}: placed {int(placed_by_type[bad])} "
                f"of {int(demand[bad])} demanded job-cores")
        if np.any(allocation < 0):
            server = int(np.argwhere(allocation < 0)[0][0])
            self._violate(step, now_s, "job-conservation",
                          "allocation contains negative counts",
                          server=server)
        per_server = allocation.sum(axis=1)
        over = per_server > self._cores
        if np.any(over):
            server = int(np.argmax(over))
            self._violate(
                step, now_s, "capacity",
                f"allocated {int(per_server[server])} cores "
                f"(capacity {self._cores})", server=server)
        if view.active_mask is not None:
            on_dead = ~view.active_mask & (per_server > 0)
            if np.any(on_dead):
                server = int(np.argmax(on_dead))
                self._violate(step, now_s, "capacity",
                              "jobs placed on a failed server",
                              server=server)
        est = view.wax_melt_estimate
        if np.any(~np.isfinite(est)) or np.any(est < 0.0) \
                or np.any(est > 1.0):
            server = int(np.argmax(~np.isfinite(est) | (est < 0.0)
                                   | (est > 1.0)))
            self._violate(step, now_s, "estimator-range",
                          f"melt estimate {est[server]!r} outside [0, 1]",
                          server=server)
        self._check_partition(step, now_s, demand, view, placement)

    def _check_partition(self, step: int, now_s: float,
                         demand: np.ndarray, view: "ClusterView",
                         placement: Placement) -> None:
        """Hot/cold partition invariants (Eq. 1/2 and VMT-WA extension)."""
        hot = placement.hot_group_mask
        if hot is None:
            # Baseline policies publish no partition; nothing to audit.
            self._prev_hot_size = None
            self._prev_peak_gated = False
            return
        hot_size = int(np.count_nonzero(hot))
        # The partition is always a low-id prefix (Eq. 2 gives the cold
        # group the remainder; the labeling is deterministic).
        if hot_size and not bool(hot[:hot_size].all()):
            self._violate(step, now_s, "group-partition",
                          "hot group mask is not a low-id prefix")
        scheduler = self._scheduler
        peak_gated = False
        if isinstance(scheduler, VMTWaxAwareScheduler):
            base = min(scheduler.base_sizer.hot_size, view.num_servers)
            if scheduler.degraded:
                if hot_size != base:
                    self._violate(
                        step, now_s, "group-partition",
                        f"degraded VMT-WA hot group is {hot_size}, "
                        f"expected the static Eq. 1 size {base}")
            else:
                # The melted set is the raw-threshold servers plus, via
                # keep-warm hysteresis, servers still above the release
                # threshold -- so the extension is bounded by both
                # counts rather than pinned to one formula.
                est = view.wax_melt_estimate
                raw = int(np.count_nonzero(
                    est >= scheduler.wax_threshold))
                relaxed = int(np.count_nonzero(
                    est >= scheduler.wax_release_threshold))
                lo = min(view.num_servers, base + raw)
                hi = min(view.num_servers, base + relaxed)
                if not lo <= hot_size <= hi:
                    self._violate(
                        step, now_s, "group-partition",
                        f"VMT-WA hot group is {hot_size}, outside "
                        f"[base {base} + {raw} melted, base + {relaxed} "
                        f"releasable] = [{lo}, {hi}]")
                # Extension monotonicity during a peak: while keep-warm
                # is fully engaged (utilization at or above the engage
                # threshold), melted servers are held melted, so the
                # extension can only grow.  Faults break the premise
                # (failed servers stop heating their wax), so the gate
                # requires a fault-free tick.
                utilization = float(demand.sum()) / view.total_cores
                peak_gated = (
                    utilization >= scheduler.keep_warm_min_utilization
                    and view.active_mask is None)
                if (peak_gated and self._prev_peak_gated
                        and self._prev_hot_size is not None
                        and hot_size < self._prev_hot_size):
                    self._violate(
                        step, now_s, "group-partition",
                        f"VMT-WA hot group shrank {self._prev_hot_size} "
                        f"-> {hot_size} mid-peak (utilization "
                        f"{utilization:.2f})")
        elif isinstance(scheduler, VMTThermalAwareScheduler):
            expected = scheduler.sizer.hot_size
            if hot_size != expected:
                self._violate(
                    step, now_s, "group-partition",
                    f"VMT-TA hot group is {hot_size}, Eq. 1 gives "
                    f"{expected}")
        self._prev_hot_size = hot_size
        self._prev_peak_gated = peak_gated

    # -- post-step checks ---------------------------------------------------

    def check_state(self, step: int, now_s: float, dt_s: float) -> None:
        """Audit the physical state after the tick's physics and metrics."""
        cluster = self._cluster
        melt = cluster.wax_melt_fraction_view
        lo = float(melt.min())
        hi = float(melt.max())
        if not (np.isfinite(lo) and np.isfinite(hi)) \
                or lo < -_MELT_BOUND_TOL or hi > 1.0 + _MELT_BOUND_TOL:
            server = int(np.argmax(~np.isfinite(melt) | (melt < -_MELT_BOUND_TOL)
                                   | (melt > 1.0 + _MELT_BOUND_TOL)))
            self._violate(step, now_s, "melt-bounds",
                          f"melt fraction {melt[server]!r} outside [0, 1]",
                          server=server)

        metrics = self._metrics
        it_power = metrics.last_value("it_power_w")
        absorbed = metrics.last_value("wax_absorption_w")
        cooling = metrics.last_value("cooling_load_w")
        for name, value in (("it_power_w", it_power),
                            ("wax_absorption_w", absorbed),
                            ("cooling_load_w", cooling)):
            if not np.isfinite(value):
                self._violate(step, now_s, "finite-state",
                              f"recorded {name} is not finite: {value!r}")
        # Cooling-load identity (Section IV): what the metrics stored
        # must equal the summed server power minus the summed wax
        # absorption -- both as recorded and against the cluster's own
        # ground-truth arrays.
        scale = abs(it_power) + abs(absorbed) + 1.0
        if abs(cooling - (it_power - absorbed)) > _REL_TOL * scale:
            self._violate(
                step, now_s, "cooling-identity",
                f"recorded cooling load {cooling!r} != recorded IT power "
                f"{it_power!r} - wax absorption {absorbed!r}")
        true_power = float(cluster.power_w_view.sum())
        true_absorbed = float(cluster.wax_absorption_w_view.sum())
        if abs(it_power - true_power) > _REL_TOL * scale \
                or abs(absorbed - true_absorbed) > _REL_TOL * scale:
            self._violate(
                step, now_s, "cooling-identity",
                f"recorded totals (P={it_power!r}, q={absorbed!r}) do "
                f"not match cluster state (P={true_power!r}, "
                f"q={true_absorbed!r})")

        if self._full:
            self._check_state_full(step, now_s, dt_s)
        self._ticks_checked += 1

    def _check_state_full(self, step: int, now_s: float,
                          dt_s: float) -> None:
        cluster = self._cluster
        for name, arr in (("air_temp_c", cluster.air_temp_c_view),
                          ("power_w", cluster.power_w_view),
                          ("wax_absorption_w",
                           cluster.wax_absorption_w_view)):
            finite = np.isfinite(arr)
            if not finite.all():
                server = int(np.argmax(~finite))
                self._violate(step, now_s, "finite-state",
                              f"{name}[{server}] is not finite "
                              f"({arr[server]!r})", server=server)
        # Stored latent heat in [0, capacity] per server.
        capacity = cluster.wax_latent_capacity_j
        stored = cluster.wax_melt_fraction_view * capacity
        tol = _MELT_BOUND_TOL * max(capacity, 1.0)
        if np.any(stored < -tol) or np.any(stored > capacity + tol):
            server = int(np.argmax((stored < -tol)
                                   | (stored > capacity + tol)))
            self._violate(
                step, now_s, "melt-bounds",
                f"stored latent heat {stored[server]!r} J outside "
                f"[0, {capacity!r}]", server=server)
        # PCM energy balance: across the step, each server's enthalpy
        # change must equal the reported heat flow times the timestep.
        # The enthalpy method guarantees this by construction, so any
        # discrepancy beyond float rounding is a model bug.
        if self._pre_enthalpy is not None:
            after = cluster.wax_enthalpy_j
            delta = after - self._pre_enthalpy
            expected = cluster.wax_absorption_w_view * dt_s
            scale = (np.abs(after) + np.abs(self._pre_enthalpy)
                     + np.abs(expected))
            bad = np.abs(delta - expected) > _REL_TOL * scale + 1e-6
            if np.any(bad):
                server = int(np.argmax(bad))
                self._violate(
                    step, now_s, "energy-balance",
                    f"wax enthalpy changed by {delta[server]!r} J but "
                    f"the reported absorption accounts for "
                    f"{expected[server]!r} J", server=server)
        self._pre_enthalpy = None
