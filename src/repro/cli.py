"""Command-line interface.

Installs as ``repro-sim`` (see pyproject) and also runs as
``python -m repro.cli``.  Subcommands cover the everyday workflows:

* ``run``      -- one simulation, summary (optionally saved to .npz);
  ``--kill``/``--stuck-wax``/``--derate``/``--hazard`` inject faults;
  ``--telemetry DIR`` writes a JSONL trace + metrics + run manifest;
  ``--checks LEVEL`` attaches the invariant sanitizer;
  ``--checkpoint-every N --checkpoint-dir D`` writes resumable
  snapshots and ``--resume PATH`` continues from one bit-identically;
  ``--registry DIR`` consults the content-addressed run registry first
  and reports provenance (``cached: true`` + manifest) on a hit
* ``serve``    -- the HTTP job server: async submissions, SSE
  streaming, the run registry, and the policy leaderboard under /v1/
* ``scenario`` -- the stress-scenario engine: ``list`` the library,
  ``run`` one scenario against its matched baseline with metamorphic
  verification, or ``suite`` the whole scenarios x policies matrix
  fault-tolerantly with a ranked report
* ``check``    -- re-run the committed golden configs and diff the
  results against the stored fingerprints (``--update`` re-captures)
* ``ledger``   -- list or verify the run manifests in a telemetry dir
* ``compare``  -- policies vs the round-robin baseline
* ``resilience`` -- policies under an injected fault scenario
* ``sweep``    -- grouping-value sweep for the VMT policies
  (``--workers N`` fans the sweep points across a process pool)
* ``profile``  -- per-subsystem tick timing for one simulation
* ``trace``    -- the two-day trace and its landmarks
* ``heatmap``  -- ASCII temperature / wax heatmaps for a policy
* ``tco``      -- datacenter-scale TCO what-if
* ``fleet``    -- multi-datacenter fleet: heterogeneous sites,
  tariffs (wrapped overnight peaks included), carbon curves, batteries,
  and cross-site routing; ``--demo`` runs the documented 3-site fleet
* ``info``     -- workload table and calibration constants
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .analysis.reporting import format_heatmap, format_series, format_table
from .cluster.simulation import run_simulation
from .config import paper_cluster_config
from .core.policies import SCHEDULER_NAMES, make_scheduler
from .errors import ReproError
from .io import save_result
from .kernel import BACKENDS
from .workloads.workload import WORKLOAD_LIST

#: ``--backend`` and ``--workers-mode`` are retired: still accepted (and
#: validated), they select nothing -- a clean open-loop run is planned,
#: every other run steps, and parallel sweeps take the process pool.
_RETIRED_HELP = "accepted and ignored (retired)"


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=100,
                        help="cluster size (default 100)")
    parser.add_argument("--gv", type=float, default=22.0,
                        help="grouping value for VMT policies")
    parser.add_argument("--seed", type=int, default=7,
                        help="root RNG seed")
    parser.add_argument("--inlet-stdev", type=float, default=0.0,
                        help="per-server inlet temperature stdev (deg C)")


def _config_from(args: argparse.Namespace):
    return paper_cluster_config(num_servers=args.servers,
                                grouping_value=args.gv, seed=args.seed,
                                inlet_stdev_c=args.inlet_stdev)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "fault injection", "inject failures mid-run (all off by default)")
    group.add_argument("--kill", metavar="IDS",
                       help="comma-separated server ids to fail")
    group.add_argument("--kill-hot-fraction", type=float, metavar="FRAC",
                       help="fail this fraction of the hot group instead")
    group.add_argument("--kill-at", type=float, default=10.0,
                       metavar="HOUR", help="failure hour (default 10)")
    group.add_argument("--repair-after", type=float, metavar="HOURS",
                       help="repair killed servers after this many hours")
    group.add_argument("--stuck-wax", metavar="IDS",
                       help="comma-separated ids whose wax sensor sticks")
    group.add_argument("--stuck-at", type=float, default=10.0,
                       metavar="HOUR", help="sensor-fault hour (default 10)")
    group.add_argument("--derate", type=float, metavar="FACTOR",
                       help="derate cooling to this capacity factor [0,1]")
    group.add_argument("--derate-at", type=float, default=10.0,
                       metavar="HOUR", help="derate hour (default 10)")
    group.add_argument("--derate-restore", type=float, metavar="HOURS",
                       help="restore full cooling after this many hours")
    group.add_argument("--hazard", type=float, metavar="ACCEL",
                       help="temperature-dependent random failures, "
                            "hazard accelerated by this factor")


def _parse_ids(spec: str) -> List[int]:
    try:
        return [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ReproError(f"bad server id list: {spec!r}") from None


def _faults_from(args: argparse.Namespace, config):
    """Build a FaultConfig from CLI flags, or None when all are off."""
    from .faults.scenarios import (cooling_derate, kill_hot_group_fraction,
                                   kill_servers, merge_scenarios,
                                   stuck_wax_sensors, temperature_hazard)
    parts = []
    if args.kill:
        parts.append(kill_servers(_parse_ids(args.kill), args.kill_at,
                                  repair_after_hours=args.repair_after))
    if args.kill_hot_fraction is not None:
        parts.append(kill_hot_group_fraction(
            config, args.kill_hot_fraction, args.kill_at,
            repair_after_hours=args.repair_after))
    if args.stuck_wax:
        parts.append(stuck_wax_sensors(_parse_ids(args.stuck_wax),
                                       args.stuck_at))
    if args.derate is not None:
        parts.append(cooling_derate(
            args.derate, args.derate_at,
            restore_after_hours=args.derate_restore))
    if args.hazard is not None:
        parts.append(temperature_hazard(args.hazard))
    if not parts:
        return None
    return merge_scenarios(*parts)


def _with_faults(config, args: argparse.Namespace):
    faults = _faults_from(args, config)
    if faults is None:
        return config
    return dataclasses.replace(config, faults=faults)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.checkpoint_every is not None and not args.checkpoint_dir:
        raise ReproError("--checkpoint-every requires --checkpoint-dir")
    if args.registry and args.resume:
        raise ReproError("--registry and --resume are mutually exclusive "
                         "(a resumed run's partial history is not a "
                         "registry-addressable result)")
    telemetry = None
    if args.telemetry:
        from .obs.telemetry import Telemetry
        telemetry = Telemetry(args.telemetry)
    cached = None
    registry_manifest = None
    if args.resume:
        from .state import resume_run
        result = resume_run(args.resume, telemetry=telemetry,
                            checks=args.checks,
                            checkpoint_every=args.checkpoint_every,
                            checkpoint_dir=args.checkpoint_dir)
    elif args.registry:
        import time as _time
        from .serve.registry import RunRegistry, registry_key
        config = _with_faults(_config_from(args), args)
        registry = RunRegistry(args.registry)
        key = registry_key(config, args.policy)
        entry = registry.lookup(key)
        if entry is not None:
            result = registry.load(entry)
            cached = True
        else:
            scheduler = make_scheduler(args.policy, config)
            start = _time.perf_counter()
            # Heatmaps always on under --registry: they participate in
            # the fingerprint, so one keyed entry must mean one exact
            # result regardless of --save.
            result = run_simulation(config, scheduler,
                                    record_heatmaps=True,
                                    telemetry=telemetry,
                                    checks=args.checks,
                                    checkpoint_every=args.checkpoint_every,
                                    checkpoint_dir=args.checkpoint_dir)
            entry = registry.store(key, result,
                                   wall_clock_s=_time.perf_counter() - start,
                                   source="cli")
            cached = False
        registry_manifest = entry.manifest_path
    else:
        config = _with_faults(_config_from(args), args)
        scheduler = make_scheduler(args.policy, config)
        result = run_simulation(config, scheduler,
                                record_heatmaps=bool(args.save),
                                telemetry=telemetry, checks=args.checks,
                                checkpoint_every=args.checkpoint_every,
                                checkpoint_dir=args.checkpoint_dir)
    summary = result.summary()
    rows = [(key, value) for key, value in summary.items()]
    print(format_table(["metric", "value"], rows))
    print(f"\nfingerprint: {result.fingerprint()}")
    if cached is not None:
        # Provenance is part of the contract: a registry hit is never
        # passed off as a fresh simulation.
        print(f"cached: {'true' if cached else 'false'}")
        print(f"registry manifest: {registry_manifest}")
        if cached:
            print("(served from the run registry: zero simulation ticks "
                  "executed)")
    if args.save:
        path = save_result(result, args.save)
        print(f"saved result to {path}")
    if telemetry is not None and (cached is None or not cached):
        print(f"telemetry: {telemetry.manifest_path}")
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    import json as _json

    from . import api

    if args.checkpoint_every is not None and not args.checkpoint_dir:
        raise ReproError("--checkpoint-every requires --checkpoint-dir")
    feed = args.feed
    if feed == "jsonl":
        from .live import JsonlFeed
        source = (open(args.feed_file) if args.feed_file else sys.stdin)
        feed = JsonlFeed(source)
    kwargs = dict(feed=feed, feed_seed=args.feed_seed,
                  forecaster=args.forecaster,
                  decision_every=args.decision_every,
                  mpc=args.mpc, mpc_horizon_steps=args.mpc_horizon,
                  speedup=args.speedup, telemetry=args.telemetry,
                  checks=args.checks, timeout_s=args.timeout,
                  checkpoint_every=args.checkpoint_every,
                  checkpoint_dir=args.checkpoint_dir)
    if args.resume:
        report = api.live_run(resume_from=args.resume, **kwargs)
    else:
        if args.policy is None:
            raise ReproError("a policy is required unless --resume is "
                             "given")
        config = _config_from(args)
        if args.hours is not None:
            config = config.replace(trace=dataclasses.replace(
                config.trace, duration_hours=args.hours))
        report = api.live_run(policy=args.policy, config=config,
                              **kwargs)
    summary = report.result.summary()
    rows = [(key, value) for key, value in summary.items()]
    print(format_table(["metric", "value"], rows))
    print(f"\nforecaster: {report.forecaster}  "
          f"(decisions every {report.decision_every} steps, "
          f"{report.steps_ingested} steps ingested)")
    print(f"fingerprint: {report.result.fingerprint()}")
    if report.mpc_decisions:
        last = report.mpc_decisions[-1]
        print(f"mpc: {len(report.mpc_decisions)} decisions, last chose "
              f"gv={last['chosen_gv']:g} at step {last['step']}")
    if args.report:
        with open(args.report, "w") as fh:
            _json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report: {args.report}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import Server
    server = Server(args.data_dir, host=args.host, port=args.port,
                    max_workers=args.max_workers,
                    default_timeout_s=args.job_timeout)
    print(f"repro-serve: listening on http://{args.host}:{args.port} "
          f"(data: {args.data_dir})")
    server.serve_forever()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from(args)
    baseline = run_simulation(config,
                              make_scheduler("round-robin", config),
                              record_heatmaps=False)
    rows = [("round-robin",
             f"{baseline.peak_cooling_load_w / 1e3:.2f}", "--")]
    for policy in args.policies:
        result = run_simulation(config, make_scheduler(policy, config),
                                record_heatmaps=False)
        rows.append((result.scheduler_name,
                     f"{result.peak_cooling_load_w / 1e3:.2f}",
                     f"{result.peak_reduction_vs(baseline) * 100:.1f}%"))
    print(format_table(["policy", "peak cooling (kW)", "reduction"],
                       rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweep import gv_sweep
    values = np.arange(args.start, args.stop + 1e-9, args.step)
    sweep = gv_sweep([float(v) for v in values],
                     policies=tuple(args.policies),
                     num_servers=args.servers, seed=args.seed,
                     inlet_stdev_c=args.inlet_stdev,
                     max_workers=args.workers or None,
                     workers_mode=args.workers_mode,
                     telemetry=args.telemetry, checks=args.checks)
    headers = ["GV"] + list(args.policies)
    rows = []
    for i, gv in enumerate(sweep.values):
        rows.append((f"{gv:g}",
                     *(f"{sweep.reductions[p][i] * 100:.1f}%"
                       for p in args.policies)))
    print(format_table(headers, rows))
    for policy in args.policies:
        gv, best = sweep.best(policy)
        print(f"best {policy}: GV={gv:g} ({best * 100:.1f}%)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .cluster.simulation import ClusterSimulation
    config = _config_from(args)
    sim = ClusterSimulation(config, make_scheduler(args.policy, config),
                            record_heatmaps=False, profile=True)
    result = sim.run()
    print(f"kernel path: {sim.kernel_path}\n")
    total_s = sum(t["total_s"] for t in result.profile.values())
    rows = [(name, f"{t['calls']}", f"{t['total_s'] * 1e3:.1f}",
             f"{t['total_s'] / t['calls'] * 1e6:.1f}",
             f"{t['total_s'] / total_s * 100:.1f}%" if total_s > 0 else "--")
            for name, t in result.profile.items()]
    print(format_table(
        ["subsystem", "calls", "total (ms)", "mean (us)", "share"], rows))
    ticks = len(result.times_s)
    if ticks and total_s > 0:
        print(f"\n{ticks} ticks, {ticks / total_s:,.0f} ticks/sec "
              f"(instrumented sections only)")
    print(f"peak cooling load: {result.peak_cooling_load_w / 1e3:.2f} kW")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.experiments import figure8_trace
    trace = figure8_trace(num_servers=args.servers)
    print(format_series("cluster utilization vs hour",
                        trace.times_hours, trace.utilization,
                        x_label="hour", y_label="utilization",
                        max_points=args.points))
    print(f"\npeaks at hours {trace.peak_hours[0]:.1f} / "
          f"{trace.peak_hours[1]:.1f}; troughs at "
          f"{trace.trough_hours[0]:.1f} / {trace.trough_hours[1]:.1f}; "
          f"hot share {trace.mean_hot_fraction * 100:.1f}%")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from .analysis.experiments import heatmap_experiment
    result = heatmap_experiment(args.policy, grouping_value=args.gv,
                                num_servers=args.servers, seed=args.seed)
    print(format_heatmap(result.temp_heatmap,
                         title=f"air temperature, {args.policy}",
                         vmin=10, vmax=50))
    print()
    print(format_heatmap(result.melt_heatmap,
                         title=f"wax melted, {args.policy}",
                         vmin=0, vmax=1))
    return 0


def _cmd_tco(args: argparse.Namespace) -> int:
    from .analysis.experiments import tco_analysis
    study = tco_analysis(peak_reduction=args.reduction,
                         num_servers=args.servers, seed=args.seed)
    rows = [
        ("peak reduction", f"{study.measured_reduction * 100:.1f}%"),
        ("cooling reduction",
         f"{study.impact.cooling_reduction_w / 1e6:.2f} MW"),
        ("lifetime cooling savings",
         f"${study.savings.gross_cooling_savings_usd:,.0f}"),
        ("wax deployment cost",
         f"${study.savings.wax_deployment_cost_usd:,.0f}"),
        ("net savings", f"${study.savings.net_savings_usd:,.0f}"),
        ("additional servers", f"{study.impact.additional_servers:,}"),
    ]
    print(format_table(["quantity", "value"], rows))
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .analysis.registry import EXPERIMENTS, get_experiment
    if args.id is None:
        rows = [(e.id, e.paper_ref, "sim" if e.simulated else "model",
                 e.title) for e in EXPERIMENTS.values()]
        print(format_table(["id", "paper", "kind", "title"], rows))
        print("\nrun one with: repro-sim experiments <id>  "
              "(simulated ones take seconds to minutes)")
        return 0
    experiment = get_experiment(args.id)
    print(f"running {experiment.id} ({experiment.paper_ref}): "
          f"{experiment.title} ...")
    overrides = {}
    if args.servers is not None and "num_servers" \
            in experiment.default_kwargs:
        overrides["num_servers"] = args.servers
    result = experiment.run(**overrides)
    print(f"done: {type(result).__name__}")
    summary = getattr(result, "summary", None)
    if callable(summary):
        for key, value in summary().items():
            print(f"  {key}: {value}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validation import (validate_calibration,
                                      validate_with_simulation)
    checks = validate_calibration()
    if args.simulate:
        checks += validate_with_simulation(num_servers=args.servers,
                                           seed=args.seed)
    rows = [("PASS" if c.passed else "FAIL", c.name, c.detail)
            for c in checks]
    print(format_table(["status", "check", "detail"], rows))
    failed = sum(not c.passed for c in checks)
    print(f"\n{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_resilience(args: argparse.Namespace) -> int:
    config = _config_from(args)
    if args.kill is None and args.kill_hot_fraction is None \
            and args.stuck_wax is None and args.derate is None \
            and args.hazard is None:
        # Default scenario: lose part of the hot group right at the peak.
        args.kill_hot_fraction = args.fraction
        args.kill_at = args.at
    config = _with_faults(config, args)
    rows = []
    for policy in args.policies:
        scheduler = make_scheduler(policy, config)
        result = run_simulation(config, scheduler,
                                record_heatmaps=False)
        mean_recovery = result.mean_recovery_time_s
        recovery = ("--" if not np.isfinite(mean_recovery)
                    else f"{mean_recovery / 60.0:.1f} min")
        degraded = getattr(scheduler, "degraded", False)
        rows.append((result.scheduler_name,
                     f"{result.peak_cooling_load_w / 1e3:.2f}",
                     f"{result.min_availability * 100:.1f}%",
                     f"{result.total_displaced_jobs}",
                     recovery,
                     f"{float(result.max_cpu_temp_c.max()):.1f}",
                     "yes" if degraded else "no"))
    print(format_table(
        ["policy", "peak cooling (kW)", "min avail", "displaced",
         "mean recovery", "max cpu (C)", "degraded"], rows))
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import SCENARIO_LIBRARY
    rows = [(spec.name, ",".join(spec.tags), ",".join(spec.checks),
             spec.description)
            for spec in SCENARIO_LIBRARY.values()]
    print(format_table(["scenario", "tags", "checks", "description"],
                       rows))
    print("\nrun one with: repro-sim scenario run <name>; "
          "the whole matrix with: repro-sim scenario suite")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from .perf.runner import ExperimentRunner, RunFailure, RunSpec
    from .scenarios import get_scenario, verify_scenario
    spec = get_scenario(args.name).with_overrides(
        num_servers=args.servers, duration_hours=args.hours,
        seed=args.seed)
    runner = ExperimentRunner(max_workers=1)
    outcomes = runner.run(
        [RunSpec(config=spec.compile(), policy=args.policy,
                 label=f"{spec.name}:{args.policy}", scenario=spec.name,
                 scenario_sha256=spec.sha256(), timeout_s=args.timeout,
                 telemetry_dir=args.telemetry, checks=args.checks),
         RunSpec(config=spec.baseline(), policy=args.policy,
                 label=f"{spec.name}:baseline:{args.policy}",
                 timeout_s=args.timeout, telemetry_dir=args.telemetry,
                 checks=args.checks)],
        raise_on_error=False)
    for outcome in outcomes:
        if isinstance(outcome, RunFailure):
            print(f"error: run '{outcome.spec.name}' failed: "
                  f"{outcome.error_type}: {outcome.message}",
                  file=sys.stderr)
            return 2
    result, baseline = outcomes
    rows = [
        ("scenario", spec.name),
        ("spec sha256", spec.sha256()),
        ("policy", args.policy),
        ("peak cooling (kW)",
         f"{result.peak_cooling_load_w / 1e3:.2f} "
         f"(baseline {baseline.peak_cooling_load_w / 1e3:.2f})"),
        ("min availability", f"{result.min_availability * 100:.1f}%"),
        ("max mean melt", f"{result.max_melt_fraction:.3f} "
         f"(baseline {baseline.max_melt_fraction:.3f})"),
        ("fingerprint", result.fingerprint()),
    ]
    print(format_table(["quantity", "value"], rows))
    print()
    checks = verify_scenario(spec, result, baseline, policy=args.policy)
    for outcome in checks:
        print(outcome)
    violations = sum(not c.passed for c in checks)
    return 1 if violations else 0


def _cmd_scenario_suite(args: argparse.Namespace) -> int:
    from .scenarios import run_suite
    report = run_suite(
        scenarios=args.scenarios or None, policies=args.policies or None,
        num_servers=args.servers, duration_hours=args.hours,
        seed=args.seed, max_workers=args.workers or None,
        timeout_s=args.timeout, telemetry_dir=args.telemetry,
        checks=args.checks)
    print(report.to_text())
    if report.failures:
        return 2
    return 1 if report.violations else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks.golden import check_all, update_goldens
    policies = list(args.policies) if args.policies else None
    if args.update:
        fingerprints = update_goldens(policies, checks=args.checks)
        rows = [(name, fp) for name, fp in fingerprints.items()]
        print(format_table(["policy", "new fingerprint"], rows))
        print("\ngoldens re-captured; commit the goldens/ directory and "
              "document the intentional change in CHANGES.md")
        return 0
    comparisons = check_all(policies, checks=args.checks)
    drifted = 0
    for comparison in comparisons:
        print(comparison.report())
        if not comparison.matches:
            drifted += 1
    total = len(comparisons)
    print(f"\n{total - drifted}/{total} policies match their goldens")
    return 1 if drifted else 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from .obs.ledger import read_manifests
    from .obs.schema import validate_trace_file
    import os
    manifests = read_manifests(args.dir)
    if not manifests:
        print(f"no run manifests under {args.dir}")
        return 1
    if args.verify:
        rows = []
        failures = 0
        for m in manifests:
            trace_name = m.get("files", {}).get("trace")
            if trace_name is None:
                rows.append((m["run_id"], "--", "no trace recorded"))
                continue
            path = os.path.join(args.dir, trace_name)
            try:
                count = validate_trace_file(path)
                rows.append((m["run_id"], f"{count}", "valid"))
            except ReproError as exc:
                failures += 1
                rows.append((m["run_id"], "--", f"INVALID: {exc}"))
        print(format_table(["run", "trace lines", "status"], rows))
        return 1 if failures else 0
    rows = [(m["run_id"], m["policy"], f"{m['num_servers']}",
             f"{m['seed']}", f"{m['ticks']}", m["result_fingerprint"],
             f"{m['wall_clock_s']:.1f}s")
            for m in manifests]
    print(format_table(
        ["run", "policy", "servers", "seed", "ticks", "fingerprint",
         "wall clock"], rows))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    config = paper_cluster_config(num_servers=args.servers)
    rows = [(w.name, f"{w.per_cpu_power_w:.1f} W", w.thermal_class.value)
            for w in WORKLOAD_LIST]
    print(format_table(["workload", "per-CPU power", "VMT class"], rows))
    print()
    rows = [
        ("servers", config.num_servers),
        ("cores/server", config.server.cores),
        ("idle / peak power", f"{config.server.idle_power_w:.0f} / "
         f"{config.server.peak_power_w:.0f} W"),
        ("wax", f"{config.wax.volume_liters:.1f} L @ "
         f"{config.wax.melt_temp_c} C melt"),
        ("latent capacity/server",
         f"{config.wax.latent_capacity_j / 1e3:.0f} kJ"),
        ("inlet / R_air / hA",
         f"{config.thermal.inlet_temp_c:.0f} C / "
         f"{config.thermal.r_air_c_per_w} C/W / "
         f"{config.thermal.ha_w_per_k} W/K"),
        ("schedulers", ", ".join(SCHEDULER_NAMES)),
    ]
    print(format_table(["parameter", "value"], rows))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from . import api

    config = _config_from(args)
    if args.hours is not None:
        config = dataclasses.replace(
            config, trace=dataclasses.replace(
                config.trace, duration_hours=args.hours))
    kwargs = dict(policy=args.fleet_policy, scheduler=args.policy,
                  config=config, stagger_hours=args.stagger,
                  max_workers=args.max_workers,
                  telemetry=args.telemetry, checks=args.checks)
    if args.demo:
        result = api.fleet_run(demo=True, **kwargs)
    else:
        result = api.fleet_run(num_sites=args.sites, **kwargs)
    print(result.to_text())
    if args.json:
        import json
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.summary(), handle, indent=2)
        print(f"summary written to {args.json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="VMT (ISCA 2018) datacenter thermal simulator")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    _add_cluster_args(run)
    _add_fault_args(run)
    run.add_argument("--policy", choices=SCHEDULER_NAMES,
                     default="vmt-ta")
    run.add_argument("--save", metavar="PATH",
                     help="save the result to a .npz file")
    run.add_argument("--telemetry", metavar="DIR",
                     help="write a JSONL trace, per-tick metrics, and a "
                          "run manifest into this directory")
    run.add_argument("--checks", choices=("off", "cheap", "full"),
                     default=None,
                     help="invariant sanitizer level (default: the "
                          "REPRO_CHECKS environment variable, else off)")
    run.add_argument("--backend", choices=BACKENDS, default=None,
                     help=_RETIRED_HELP)
    run.add_argument("--checkpoint-every", type=int, metavar="N",
                     help="write a resumable snapshot every N ticks "
                          "(requires --checkpoint-dir)")
    run.add_argument("--checkpoint-dir", metavar="DIR",
                     help="directory snapshots are written into")
    run.add_argument("--resume", metavar="PATH",
                     help="resume from a checkpoint snapshot (config and "
                          "policy come from the snapshot; cluster/fault "
                          "flags are ignored)")
    run.add_argument("--registry", metavar="DIR",
                     help="consult the content-addressed run registry in "
                          "DIR before simulating; a hit is served with "
                          "'cached: true' and its ledger manifest, a "
                          "miss runs then stores (heatmaps always on)")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="run the HTTP job server (async /v1 API, SSE, registry, "
             "leaderboard)")
    serve.add_argument("--data-dir", default="repro-serve-data",
                       metavar="DIR",
                       help="state root for jobs, registry, checkpoints, "
                            "and the leaderboard cache "
                            "(default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--max-workers", type=int, default=2,
                       help="concurrent job executor threads "
                            "(default: %(default)s)")
    serve.add_argument("--job-timeout", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="default wall-clock budget per job; 0 "
                            "disables (default: %(default)s)")
    serve.set_defaults(func=_cmd_serve)

    live = sub.add_parser(
        "live",
        help="drive a policy from a streaming feed (no lookahead)")
    live.add_argument("policy", nargs="?", choices=SCHEDULER_NAMES,
                      help="scheduling policy (omit with --resume)")
    _add_cluster_args(live)
    live.add_argument("--hours", type=float, default=None,
                      help="trace duration in hours "
                           "(default: the paper's 48)")
    live.add_argument("--feed", default="replay",
                      choices=("replay", "synthetic", "jsonl"),
                      help="arrival source: replay the batch trace, a "
                           "seeded synthetic arrival process, or "
                           "line-delimited JSON (default: %(default)s)")
    live.add_argument("--feed-file", metavar="PATH",
                      help="jsonl feed source (default: stdin)")
    live.add_argument("--feed-seed", type=int, default=None,
                      help="synthetic feed seed (default: --seed)")
    live.add_argument("--forecaster", default="oracle",
                      choices=("oracle", "last-value"),
                      help="GV forecaster (default: %(default)s; "
                           "oracle reproduces the offline run exactly)")
    live.add_argument("--decision-every", type=int, default=60,
                      metavar="STEPS",
                      help="retarget cadence in scheduling intervals "
                           "(default: %(default)s)")
    live.add_argument("--mpc", action="store_true",
                      help="race candidate GVs through shadow "
                           "simulations at each decision boundary")
    live.add_argument("--mpc-horizon", type=int, default=60,
                      metavar="STEPS",
                      help="MPC forecast window (default: %(default)s)")
    live.add_argument("--speedup", type=float, default=None,
                      metavar="X",
                      help="wall-clock pacing: X simulated seconds per "
                           "real second (default: fully accelerated)")
    live.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS",
                      help="cooperative wall-clock budget for the run")
    live.add_argument("--telemetry", metavar="DIR",
                      help="write JSONL trace + metrics + manifest")
    live.add_argument("--checks", choices=("off", "cheap", "full"),
                      default=None, help="invariant sanitizer level")
    live.add_argument("--checkpoint-every", type=int, default=None,
                      metavar="N", help="snapshot every N ticks")
    live.add_argument("--checkpoint-dir", metavar="DIR",
                      help="where snapshots land")
    live.add_argument("--resume", metavar="SNAPSHOT",
                      help="continue a live run from a mid-stream "
                           "snapshot (state migration)")
    live.add_argument("--report", metavar="PATH",
                      help="write the full live-run report as JSON")
    live.set_defaults(func=_cmd_live)

    scenario = sub.add_parser(
        "scenario",
        help="stress scenarios: list, run one verified, run the suite")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)

    sc_list = scenario_sub.add_parser("list",
                                      help="list the scenario library")
    sc_list.set_defaults(func=_cmd_scenario_list)

    def _add_scenario_scale_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--servers", type=int, default=None,
                       help="rescale the scenario cluster (default: "
                            "the library's 100)")
        p.add_argument("--hours", type=float, default=None,
                       help="rescale the trace duration (default: the "
                            "full two days)")
        p.add_argument("--seed", type=int, default=None,
                       help="reseed the scenario (default: library's)")
        p.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-run wall-clock budget; a run over "
                            "budget becomes a structured failure")
        p.add_argument("--telemetry", metavar="DIR",
                       help="write per-run telemetry bundles (the "
                            "manifest records the scenario sha)")
        p.add_argument("--checks", choices=("off", "cheap", "full"),
                       default=None,
                       help="invariant sanitizer level (default: "
                            "REPRO_CHECKS, else off)")

    sc_run = scenario_sub.add_parser(
        "run", help="run one scenario + matched baseline and verify")
    sc_run.add_argument("name", help="library scenario name")
    sc_run.add_argument("--policy", choices=SCHEDULER_NAMES,
                        default="vmt-ta")
    _add_scenario_scale_args(sc_run)
    sc_run.set_defaults(func=_cmd_scenario_run)

    sc_suite = scenario_sub.add_parser(
        "suite",
        help="run scenarios x policies fault-tolerantly, ranked report")
    sc_suite.add_argument("--scenarios", nargs="+", default=None,
                          help="library scenario names (default: all)")
    sc_suite.add_argument("--policies", nargs="+",
                          choices=SCHEDULER_NAMES, default=None,
                          help="policies to rank (default: all five)")
    sc_suite.add_argument("--workers", type=int, default=1,
                          help="worker processes (default 1 = serial; "
                               "0 = all cores)")
    _add_scenario_scale_args(sc_suite)
    sc_suite.set_defaults(func=_cmd_scenario_suite)

    check = sub.add_parser(
        "check",
        help="diff the golden configs against committed fingerprints")
    check.add_argument("--policies", nargs="+", choices=SCHEDULER_NAMES,
                       default=None,
                       help="policies to check (default: all)")
    check.add_argument("--checks", choices=("off", "cheap", "full"),
                       default="full",
                       help="sanitizer level for the re-runs "
                            "(default full)")
    check.add_argument("--update", action="store_true",
                       help="re-capture the goldens instead of diffing "
                            "(after an intentional behavior change)")
    check.set_defaults(func=_cmd_check)

    resilience = sub.add_parser(
        "resilience",
        help="compare policies under an injected fault scenario")
    _add_cluster_args(resilience)
    _add_fault_args(resilience)
    resilience.add_argument("--policies", nargs="+",
                            choices=SCHEDULER_NAMES,
                            default=["round-robin", "coolest-first",
                                     "vmt-ta", "vmt-wa"])
    resilience.add_argument("--fraction", type=float, default=0.05,
                            help="default scenario: hot-group fraction "
                                 "to kill (default 0.05)")
    resilience.add_argument("--at", type=float, default=20.0,
                            help="default scenario: failure hour "
                                 "(default 20, the load peak)")
    resilience.set_defaults(func=_cmd_resilience)

    compare = sub.add_parser("compare",
                             help="compare policies vs round robin")
    _add_cluster_args(compare)
    compare.add_argument("--policies", nargs="+",
                         choices=SCHEDULER_NAMES,
                         default=["coolest-first", "vmt-ta", "vmt-wa"])
    compare.set_defaults(func=_cmd_compare)

    sweep = sub.add_parser("sweep", help="sweep the grouping value")
    _add_cluster_args(sweep)
    sweep.add_argument("--start", type=float, default=14.0)
    sweep.add_argument("--stop", type=float, default=30.0)
    sweep.add_argument("--step", type=float, default=2.0)
    sweep.add_argument("--policies", nargs="+",
                       choices=("vmt-ta", "vmt-wa", "vmt-preserve"),
                       default=["vmt-ta", "vmt-wa"])
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes for the sweep points "
                            "(default 1 = serial; 0 = all cores)")
    sweep.add_argument("--workers-mode", choices=("process", "thread"),
                       default="process", help=_RETIRED_HELP)
    sweep.add_argument("--backend", choices=BACKENDS, default=None,
                       help=_RETIRED_HELP)
    sweep.add_argument("--telemetry", metavar="DIR",
                       help="write one telemetry bundle per sweep point "
                            "into this directory")
    sweep.add_argument("--checks", choices=("off", "cheap", "full"),
                       default=None,
                       help="invariant sanitizer level for every sweep "
                            "point (default: REPRO_CHECKS, else off)")
    sweep.set_defaults(func=_cmd_sweep)

    profile = sub.add_parser(
        "profile", help="per-subsystem tick timing for one run")
    _add_cluster_args(profile)
    profile.add_argument("--policy", choices=SCHEDULER_NAMES,
                         default="vmt-ta")
    profile.add_argument("--backend", choices=BACKENDS, default=None,
                         help=_RETIRED_HELP)
    profile.set_defaults(func=_cmd_profile)

    trace = sub.add_parser("trace", help="show the two-day trace")
    trace.add_argument("--servers", type=int, default=100)
    trace.add_argument("--points", type=int, default=25)
    trace.set_defaults(func=_cmd_trace)

    heatmap = sub.add_parser("heatmap", help="ASCII cluster heatmaps")
    _add_cluster_args(heatmap)
    heatmap.add_argument("--policy", choices=SCHEDULER_NAMES,
                         default="vmt-ta")
    heatmap.set_defaults(func=_cmd_heatmap)

    tco = sub.add_parser("tco", help="datacenter TCO what-if")
    tco.add_argument("--servers", type=int, default=100,
                     help="cluster size used to measure the reduction")
    tco.add_argument("--seed", type=int, default=7)
    tco.add_argument("--reduction", type=float, default=None,
                     help="skip simulation; use this fraction (e.g. 0.128)")
    tco.set_defaults(func=_cmd_tco)

    fleet = sub.add_parser(
        "fleet",
        help="simulate a multi-datacenter fleet (sites, tariffs, "
             "carbon, batteries, cross-site routing)")
    _add_cluster_args(fleet)
    fleet.add_argument("--sites", type=int, default=3,
                       help="homogeneous site count (default: "
                            "%(default)s); ignored with --demo")
    fleet.add_argument("--demo", action="store_true",
                       help="run the documented 3-site heterogeneous "
                            "fleet (CPU+GPU classes, two tariffs, a "
                            "battery site)")
    from .fleet.spec import FLEET_POLICIES
    fleet.add_argument("--fleet-policy", default="independent",
                       choices=sorted(FLEET_POLICIES),
                       help="fleet-level strategy (default: %(default)s)")
    fleet.add_argument("--policy", choices=SCHEDULER_NAMES,
                       default="round-robin",
                       help="per-site VMT scheduler "
                            "(default: %(default)s)")
    fleet.add_argument("--stagger", type=float, default=0.0,
                       metavar="HOURS",
                       help="trace stagger between sites (wrapping)")
    fleet.add_argument("--hours", type=float, default=None,
                       help="trace duration in hours "
                            "(default: the paper's 48)")
    fleet.add_argument("--max-workers", type=int, default=1,
                       metavar="N",
                       help="worker processes for unrouted fleets")
    fleet.add_argument("--telemetry", metavar="DIR",
                       help="write per-site telemetry bundles here")
    fleet.add_argument("--checks", choices=("off", "cheap", "full"),
                       default=None,
                       help="invariant sanitizer + fleet verifier level")
    fleet.add_argument("--json", metavar="PATH",
                       help="write the fleet summary as JSON")
    fleet.set_defaults(func=_cmd_fleet)

    ledger = sub.add_parser(
        "ledger", help="list or verify run manifests in a telemetry dir")
    ledger.add_argument("dir", help="telemetry directory to inspect")
    ledger.add_argument("--verify", action="store_true",
                        help="validate every recorded JSONL trace "
                             "against the schema")
    ledger.set_defaults(func=_cmd_ledger)

    info = sub.add_parser("info", help="workloads and calibration")
    info.add_argument("--servers", type=int, default=1000)
    info.set_defaults(func=_cmd_info)

    experiments = sub.add_parser(
        "experiments", help="list or run the paper's experiments")
    experiments.add_argument("id", nargs="?", default=None,
                             help="experiment id (omit to list)")
    experiments.add_argument("--servers", type=int, default=None,
                             help="override cluster size where supported")
    experiments.set_defaults(func=_cmd_experiments)

    validate = sub.add_parser(
        "validate", help="check the calibration invariants")
    validate.add_argument("--simulate", action="store_true",
                          help="also run simulation-backed checks")
    validate.add_argument("--servers", type=int, default=50)
    validate.add_argument("--seed", type=int, default=7)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
