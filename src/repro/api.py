"""The stable, keyword-only facade over the simulation stack.

Everything a typical study needs is reachable through four calls:

* :func:`run` -- one policy, one cluster, one result;
* :func:`compare` -- several policies on the *same* cluster, with the
  peak-cooling-reduction arithmetic done for you;
* :func:`sweep` -- the grouping-value sweep (Fig. 18 and friends);
* :func:`stress` -- the scenario suite: named stress scenarios x
  policies, metamorphically verified, with a ranked report;
* :func:`datacenter` -- K clusters sharing one cooling plant.

All arguments are keyword-only, and config overrides are accepted
directly -- no need to build a :class:`~repro.config.SimulationConfig`
first::

    from repro import api

    result = api.run(policy="vmt-wa", num_servers=100, gv=22.0,
                     telemetry="runs/")
    duel = api.compare(policies=("vmt-ta", "round-robin"),
                       num_servers=100)
    print(f"{duel.peak_reduction('vmt-ta') * 100:.1f}% peak reduction")

Passing a prebuilt ``config=`` is the escape hatch for everything the
shortcuts do not cover (fault scenarios, custom wax, trace shape); the
shortcut keywords and ``config=`` are mutually exclusive so a call site
can never silently half-override a config.

Every function accepts ``telemetry=`` (a directory or
:class:`~repro.obs.telemetry.Telemetry`): runs then write JSONL traces,
per-tick metric columns, and ledger manifests there without changing a
single simulated bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .analysis.sweep import SweepResult, gv_sweep
from .cluster.metrics import SimulationResult
from .cluster.multi import DatacenterResult, run_datacenter
from .cluster.simulation import run_simulation
from .config import SimulationConfig, paper_cluster_config
from .core.policies import SCHEDULER_NAMES, make_scheduler
from .errors import ConfigurationError
from .kernel import check_backend
from .obs.telemetry import TelemetryLike, telemetry_directory
from .perf.runner import ExperimentRunner, RunSpec
from .workloads.trace import TraceMatrix

__all__ = ["API_VERSION", "Comparison", "run", "compare", "sweep",
           "stress", "datacenter", "live_run", "fleet_run"]

#: The frozen public-API version.  Everything exported here (and the
#: ``to_json`` schemas of :class:`Comparison`,
#: :class:`~repro.analysis.sweep.SweepResult`, and
#: :class:`~repro.scenarios.suite.SuiteReport`) is stable within a
#: major version: fields may be added, never renamed or removed.  The
#: HTTP layer (:mod:`repro.serve`) serves this surface under ``/v1/``.
API_VERSION = "1.0"


def _build_config(config: Optional[SimulationConfig], *,
                  num_servers: Optional[int], gv: Optional[float],
                  seed: Optional[int], inlet_stdev_c: Optional[float],
                  wax_threshold: Optional[float]) -> SimulationConfig:
    """Resolve ``config=`` vs the shortcut keywords (mutually exclusive)."""
    shortcuts = {"num_servers": num_servers, "gv": gv, "seed": seed,
                 "inlet_stdev_c": inlet_stdev_c,
                 "wax_threshold": wax_threshold}
    given = [name for name, value in shortcuts.items() if value is not None]
    if config is not None:
        if given:
            raise ConfigurationError(
                f"pass either config= or the shortcut keywords "
                f"({', '.join(given)}), not both")
        return config
    return paper_cluster_config(
        num_servers=num_servers if num_servers is not None else 100,
        grouping_value=gv if gv is not None else 22.0,
        seed=seed if seed is not None else 7,
        inlet_stdev_c=inlet_stdev_c if inlet_stdev_c is not None else 0.0,
        wax_threshold=wax_threshold if wax_threshold is not None else 0.98)


def _check_policy(policy: str) -> str:
    if policy not in SCHEDULER_NAMES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; choose from "
            f"{', '.join(SCHEDULER_NAMES)}")
    return policy


def run(*, policy: Optional[str] = None,
        config: Optional[SimulationConfig] = None,
        num_servers: Optional[int] = None, gv: Optional[float] = None,
        seed: Optional[int] = None, inlet_stdev_c: Optional[float] = None,
        wax_threshold: Optional[float] = None,
        trace: Optional[TraceMatrix] = None, record_heatmaps: bool = True,
        telemetry: TelemetryLike = None,
        checks: Optional[str] = None,
        backend: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        resume_from: Optional[str] = None) -> SimulationResult:
    """Run one policy on one cluster and return its result.

    Shortcut defaults reproduce the README quickstart: 100 servers,
    GV=22, seed 7, noise-free inlets, wax threshold 0.98.
    ``checks`` attaches the invariant sanitizer ("off" | "cheap" |
    "full"); ``None`` defers to the ``REPRO_CHECKS`` environment
    variable.  The sanitizer only reads state, so results are
    bit-identical at every level.  ``backend`` is retired: validated
    ("reference" | "fast"), and it selects nothing -- a clean open-loop
    run is planned and every other run takes the per-tick driver.

    ``checkpoint_every=N`` with ``checkpoint_dir=`` writes a snapshot
    every N completed ticks; ``resume_from=`` continues a run from such
    a snapshot (its config, policy, and trace come from the snapshot, so
    those keywords must then be omitted -- except ``policy``, which, if
    given, must match the snapshot's).  A resumed run is bit-identical
    to the straight-through run: same ``fingerprint()``.
    """
    check_backend(backend)
    if resume_from is not None:
        if config is not None or trace is not None:
            raise ConfigurationError(
                "resume_from= carries its own config and trace; do not "
                "pass config= or trace= alongside it")
        shortcuts = {"num_servers": num_servers, "gv": gv, "seed": seed,
                     "inlet_stdev_c": inlet_stdev_c,
                     "wax_threshold": wax_threshold}
        given = [k for k, v in shortcuts.items() if v is not None]
        if given:
            raise ConfigurationError(
                f"resume_from= carries its own config; do not pass "
                f"shortcut keywords ({', '.join(given)}) alongside it")
        from .state import load_snapshot, restore_simulation
        snapshot = load_snapshot(resume_from)
        if policy is not None and policy != snapshot.policy:
            raise ConfigurationError(
                f"snapshot {resume_from} was taken under policy "
                f"{snapshot.policy!r}, not {policy!r}")
        sim = restore_simulation(snapshot, telemetry=telemetry,
                                 checks=checks,
                                 checkpoint_every=checkpoint_every,
                                 checkpoint_dir=checkpoint_dir)
        return sim.run()
    if policy is None:
        raise ConfigurationError(
            "policy= is required (it is optional only with resume_from=)")
    _check_policy(policy)
    resolved = _build_config(config, num_servers=num_servers, gv=gv,
                             seed=seed, inlet_stdev_c=inlet_stdev_c,
                             wax_threshold=wax_threshold)
    return run_simulation(resolved, make_scheduler(policy, resolved),
                          trace=trace, record_heatmaps=record_heatmaps,
                          telemetry=telemetry, checks=checks,
                          checkpoint_every=checkpoint_every,
                          checkpoint_dir=checkpoint_dir)


@dataclass(frozen=True)
class Comparison:
    """Results of several policies on the same cluster configuration."""

    config: SimulationConfig
    results: Dict[str, SimulationResult]

    def __getitem__(self, policy: str) -> SimulationResult:
        return self.results[policy]

    @property
    def policies(self) -> Tuple[str, ...]:
        """The compared policies, in the order they were requested."""
        return tuple(self.results)

    def peak_reduction(self, policy: str,
                       baseline: str = "round-robin") -> float:
        """Fractional peak-cooling-load reduction of one policy vs another."""
        for name in (policy, baseline):
            if name not in self.results:
                raise ConfigurationError(
                    f"{name!r} was not part of this comparison "
                    f"(ran: {', '.join(self.results)})")
        return self.results[policy].peak_reduction_vs(
            self.results[baseline])

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dict that round-trips losslessly.

        Policy order is preserved; each embedded result carries its full
        series (see :meth:`SimulationResult.to_json`), so fingerprints
        survive the round trip bit-identically.
        """
        return {
            "schema": "repro.comparison/1",
            "config": self.config.to_dict(),
            "policies": list(self.results),
            "results": {policy: result.to_json()
                        for policy, result in self.results.items()},
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Comparison":
        """Rebuild a comparison from :meth:`to_json` output."""
        from .errors import SimulationError
        if payload.get("schema") != "repro.comparison/1":
            raise SimulationError(
                f"not a repro.comparison/1 payload "
                f"(schema={payload.get('schema')!r})")
        results = {policy: SimulationResult.from_json(
                       payload["results"][policy])
                   for policy in payload["policies"]}
        return cls(config=SimulationConfig.from_dict(payload["config"]),
                   results=results)


def compare(*, policies: Sequence[str] = ("vmt-ta", "round-robin"),
            config: Optional[SimulationConfig] = None,
            num_servers: Optional[int] = None, gv: Optional[float] = None,
            seed: Optional[int] = None,
            inlet_stdev_c: Optional[float] = None,
            wax_threshold: Optional[float] = None,
            record_heatmaps: bool = False,
            max_workers: Optional[int] = 1,
            workers_mode: str = "process",
            telemetry: TelemetryLike = None,
            checks: Optional[str] = None,
            backend: Optional[str] = None) -> Comparison:
    """Run several policies against the identical cluster and trace.

    Every policy sees the same config and the same generated trace, so
    :meth:`Comparison.peak_reduction` is an apples-to-apples number.
    ``workers_mode`` and ``backend`` are retired: validated, and they
    select nothing (parallel runs take the process pool).
    """
    check_backend(backend)
    policies = tuple(dict.fromkeys(policies))  # dedupe, keep order
    if not policies:
        raise ConfigurationError("compare needs at least one policy")
    for policy in policies:
        _check_policy(policy)
    resolved = _build_config(config, num_servers=num_servers, gv=gv,
                             seed=seed, inlet_stdev_c=inlet_stdev_c,
                             wax_threshold=wax_threshold)
    telemetry_dir = telemetry_directory(telemetry)
    specs = [RunSpec(resolved, policy, record_heatmaps=record_heatmaps,
                     telemetry_dir=telemetry_dir, checks=checks)
             for policy in policies]
    results = ExperimentRunner(max_workers, workers_mode).run(specs)
    return Comparison(config=resolved,
                      results=dict(zip(policies, results)))


def sweep(*, grouping_values: Sequence[float],
          policies: Sequence[str] = ("vmt-ta", "vmt-wa"),
          num_servers: int = 100, seed: int = 7,
          inlet_stdev_c: float = 0.0, wax_threshold: float = 0.98,
          max_workers: Optional[int] = 1,
          workers_mode: str = "process",
          telemetry: TelemetryLike = None,
          checks: Optional[str] = None,
          backend: Optional[str] = None) -> SweepResult:
    """Sweep the grouping value against a round-robin baseline.

    ``backend`` is retired: validated, and it selects nothing.
    """
    check_backend(backend)
    for policy in policies:
        _check_policy(policy)
    return gv_sweep(grouping_values, policies=tuple(policies),
                    num_servers=num_servers, seed=seed,
                    inlet_stdev_c=inlet_stdev_c,
                    wax_threshold=wax_threshold, max_workers=max_workers,
                    workers_mode=workers_mode,
                    telemetry=telemetry, checks=checks)


def stress(*, scenarios: Optional[Sequence] = None,
           policies: Optional[Sequence[str]] = None,
           num_servers: Optional[int] = None,
           duration_hours: Optional[float] = None,
           seed: Optional[int] = None,
           max_workers: Optional[int] = 1,
           timeout_s: Optional[float] = None,
           telemetry: TelemetryLike = None,
           checks: Optional[str] = None):
    """Run the stress-scenario suite and return its ranked report.

    ``scenarios`` accepts library names and/or ad-hoc
    :class:`~repro.scenarios.ScenarioSpec` objects (``None`` = the
    whole library); ``policies`` defaults to all five schedulers.  Each
    scenario runs next to a matched unstressed baseline and the
    verifier's metamorphic properties are checked; failed runs come
    back as structured rows, never an aborted suite.  See
    :func:`repro.scenarios.run_suite` for the full knob set.
    """
    from .scenarios import run_suite
    if policies is not None:
        for policy in policies:
            _check_policy(policy)
    return run_suite(scenarios=scenarios, policies=policies,
                     num_servers=num_servers,
                     duration_hours=duration_hours, seed=seed,
                     max_workers=max_workers, timeout_s=timeout_s,
                     telemetry_dir=telemetry_directory(telemetry),
                     checks=checks)


def live_run(*, policy: Optional[str] = None,
             config: Optional[SimulationConfig] = None,
             num_servers: Optional[int] = None,
             gv: Optional[float] = None, seed: Optional[int] = None,
             inlet_stdev_c: Optional[float] = None,
             wax_threshold: Optional[float] = None,
             feed="replay", feed_seed: Optional[int] = None,
             forecaster: str = "oracle",
             decision_every: Optional[int] = None,
             mpc: bool = False, mpc_horizon_steps: int = 60,
             mpc_workers: int = 4,
             speedup: Optional[float] = None,
             record_heatmaps: bool = True,
             telemetry: TelemetryLike = None,
             checks: Optional[str] = None,
             timeout_s: Optional[float] = None,
             checkpoint_every: Optional[int] = None,
             checkpoint_dir: Optional[str] = None,
             resume_from: Optional[str] = None):
    """Drive one policy from a streaming feed with no lookahead.

    ``feed`` is a kind name (``"replay"`` replays the exact trace the
    batch run would generate; ``"synthetic"`` is a seeded open-loop
    arrival process) or any feed object from :mod:`repro.live`.
    ``forecaster`` supplies the grouping-value estimate the scheduler is
    retargeted with at each decision boundary (``"oracle"`` |
    ``"last-value"``); ``mpc=True`` instead races candidate GVs through
    planned shadow simulations forked from the live snapshot.
    ``mpc_workers`` is accepted and validated (``>= 1``) and does
    nothing: the shadows race one after another.
    ``speedup`` paces ingestion against the wall clock (e.g. ``60.0``
    plays one simulated minute per real second); ``None`` runs
    accelerated, as fast as rows can be consumed.

    A live run with the oracle forecaster over a replay feed is
    bit-identical to :func:`run` on the same config -- that differential
    is this subsystem's honesty proof.  Returns a
    :class:`~repro.live.runner.LiveRunReport` (``.result`` is the usual
    :class:`~repro.cluster.metrics.SimulationResult`).
    """
    from .live import (DEFAULT_DECISION_EVERY, LiveRunner, MPCController,
                       make_feed, resume_live)
    from .perf.runner import Deadline

    deadline = Deadline.of(timeout_s)
    cadence = (DEFAULT_DECISION_EVERY if decision_every is None
               else decision_every)
    if resume_from is not None:
        if config is not None or policy is not None:
            raise ConfigurationError(
                "resume_from= carries its own config and policy; do not "
                "pass config= or policy= alongside it")
        snapshot_config = None
    else:
        if policy is None:
            raise ConfigurationError(
                "policy= is required (optional only with resume_from=)")
        _check_policy(policy)
        snapshot_config = _build_config(
            config, num_servers=num_servers, gv=gv, seed=seed,
            inlet_stdev_c=inlet_stdev_c, wax_threshold=wax_threshold)

    def _resolve_feed(cfg):
        if isinstance(feed, str):
            return make_feed(feed, cfg, seed=feed_seed)
        return feed

    def _controller(cfg):
        if not mpc:
            return None
        return MPCController(cfg, horizon_steps=mpc_horizon_steps,
                             max_workers=mpc_workers)

    if resume_from is not None:
        from .state import load_snapshot
        snapshot = load_snapshot(resume_from)
        cfg = SimulationConfig.from_dict(snapshot.config)
        runner = resume_live(
            snapshot, _resolve_feed(cfg), forecaster=forecaster,
            decision_every=cadence, mpc=_controller(cfg),
            telemetry=telemetry, checks=checks,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir, deadline=deadline)
        return runner.run()

    runner = LiveRunner(
        snapshot_config, policy, _resolve_feed(snapshot_config),
        forecaster=forecaster, decision_every=cadence,
        mpc=_controller(snapshot_config), telemetry=telemetry,
        checks=checks, record_heatmaps=record_heatmaps,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, deadline=deadline,
        speedup=speedup)
    return runner.run()


def fleet_run(*, fleet=None, num_sites: Optional[int] = None,
              policy: str = "independent",
              scheduler: str = "round-robin",
              config: Optional[SimulationConfig] = None,
              num_servers: Optional[int] = None,
              gv: Optional[float] = None, seed: Optional[int] = None,
              stagger_hours: float = 0.0, demo: bool = False,
              max_workers: Optional[int] = 1,
              record_heatmaps: bool = False,
              telemetry: TelemetryLike = None,
              checks: Optional[str] = None):
    """Simulate a (possibly heterogeneous) multi-datacenter fleet.

    Three entry shapes, in precedence order:

    * ``fleet=`` -- a full :class:`~repro.fleet.FleetSpec` (site table,
      hardware classes, tariffs, batteries), the escape hatch;
    * ``demo=True`` -- the documented 3-site heterogeneous reference
      fleet (CPU+GPU classes, two tariffs including a wrapped
      overnight-peak one, a battery site) on the resolved base config;
    * ``num_sites=N`` -- a homogeneous fleet, whose per-site results
      are *fingerprint-identical* to :func:`datacenter` with
      ``num_clusters=N``.

    ``policy`` is the fleet-level strategy (a
    :data:`~repro.fleet.FLEET_POLICIES` key: ``"independent"``,
    ``"price-arbitrage"``, ``"battery-co-schedule"``,
    ``"thermal-placement"``, ``"latency-spill"``); ``scheduler`` is the
    per-site VMT scheduler name.  Returns a
    :class:`~repro.fleet.FleetResult` with per-site cost and carbon
    accounts next to the usual physics series.
    """
    from .fleet import FleetSpec, demo_fleet, run_fleet
    _check_policy(scheduler)
    if fleet is not None:
        if num_sites is not None or demo:
            raise ConfigurationError(
                "pass either fleet= or num_sites=/demo=, not both")
        spec = fleet
    else:
        resolved = _build_config(config, num_servers=num_servers,
                                 gv=gv, seed=seed, inlet_stdev_c=None,
                                 wax_threshold=None)
        if demo:
            if num_sites is not None:
                raise ConfigurationError(
                    "demo=True builds its own 3 sites; do not pass "
                    "num_sites= alongside it")
            spec = demo_fleet(resolved, policies=(scheduler,),
                              fleet_policy_name=policy,
                              stagger_hours=stagger_hours)
        else:
            if num_sites is None:
                raise ConfigurationError(
                    "pass fleet=, demo=True, or num_sites=")
            spec = FleetSpec.homogeneous(resolved, num_sites,
                                         policy=scheduler,
                                         stagger_hours=stagger_hours)
            if policy != "independent":
                spec = FleetSpec(sites=spec.sites,
                                 base_config=spec.base_config,
                                 policies=spec.policies,
                                 policy=policy,
                                 stagger_hours=stagger_hours)
    return run_fleet(spec, max_workers=max_workers,
                     record_heatmaps=record_heatmaps,
                     telemetry=telemetry, checks=checks)


def datacenter(*, num_clusters: int, policy: str = "round-robin",
               config: Optional[SimulationConfig] = None,
               num_servers: Optional[int] = None,
               gv: Optional[float] = None, seed: Optional[int] = None,
               stagger_hours: float = 0.0,
               max_workers: Optional[int] = 1,
               record_heatmaps: bool = False,
               telemetry: TelemetryLike = None) -> DatacenterResult:
    """Simulate ``num_clusters`` clusters sharing one cooling plant."""
    _check_policy(policy)
    if num_clusters <= 0:
        raise ConfigurationError("need at least one cluster")
    resolved = _build_config(config, num_servers=num_servers, gv=gv,
                             seed=seed, inlet_stdev_c=None,
                             wax_threshold=None)
    return run_datacenter(resolved, num_clusters, policy=policy,
                          stagger_hours=stagger_hours,
                          max_workers=max_workers,
                          record_heatmaps=record_heatmaps,
                          telemetry=telemetry)
