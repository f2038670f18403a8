"""The checkpoint/resume differential oracle, as a standalone sweep.

For every scheduling policy, with faults off and on, this script runs a
simulation straight through, runs it again writing a checkpoint every
``--every`` ticks, resumes from **each** checkpoint, and requires every
resumed run's ``SimulationResult.fingerprint()`` to be bit-identical to
the straight-through run's.  On a mismatch
:func:`repro.state.verify_roundtrip` raises with the first divergent
metric and tick (the golden harness's first-divergence formatter), and
the script exits non-zero.  Each resumed run must also end with the
straight run's engine state: events dispatched, clock, and pending
events.

This is the CI `checkpoint-roundtrip` gate; the same contract is
exercised per-commit at small scale by ``tests/test_checkpoint.py``.

Run::

    PYTHONPATH=src python benchmarks/checkpoint_roundtrip.py
    PYTHONPATH=src REPRO_CHECKS=cheap \
        python benchmarks/checkpoint_roundtrip.py --servers 100 --hours 24
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile

from repro.cluster.simulation import ClusterSimulation
from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.errors import CheckpointError
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import (cooling_derate, kill_servers,
                                    merge_scenarios, stuck_wax_sensors,
                                    temperature_hazard)
from repro.state import restore_simulation, verify_roundtrip


def _config(servers: int, hours: float, seed: int, with_faults: bool):
    cfg = paper_cluster_config(num_servers=servers, seed=seed)
    cfg = cfg.replace(trace=TraceConfig(duration_hours=hours))
    if not with_faults:
        return cfg
    quarter = max(1, servers // 4)
    faults = merge_scenarios(
        kill_servers([1, quarter], 0.25 * hours, repair_after_hours=2.0),
        stuck_wax_sensors([2], 0.3 * hours),
        cooling_derate(0.8, 0.5 * hours, restore_after_hours=1.0),
        temperature_hazard(500.0))
    return dataclasses.replace(cfg, faults=faults)


def _simulation(cfg, policy: str, **kwargs) -> ClusterSimulation:
    injector = FaultInjector(cfg) if cfg.faults.enabled else None
    return ClusterSimulation(cfg, make_scheduler(policy, cfg),
                             fault_injector=injector, **kwargs)


def _engine_state(sim: ClusterSimulation) -> tuple:
    """(events dispatched, clock, pending events) of ``sim``'s engine."""
    engine = sim.engine
    return (engine.events_dispatched, engine.now, engine.pending_events)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, default=16)
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--every", type=int, default=120,
                        help="checkpoint interval in ticks")
    args = parser.parse_args()

    failures = []
    for policy in SCHEDULER_NAMES:
        for with_faults in (False, True):
            label = f"{policy} ({'faults' if with_faults else 'clean'})"
            cfg = _config(args.servers, args.hours, args.seed, with_faults)
            straight_sim = _simulation(cfg, policy)
            straight = straight_sim.run()
            expected = _engine_state(straight_sim)
            with tempfile.TemporaryDirectory() as tmp:
                sim = _simulation(cfg, policy,
                                  checkpoint_every=args.every,
                                  checkpoint_dir=tmp)
                full = sim.run()
                if full.fingerprint() != straight.fingerprint():
                    failures.append(label)
                    print(f"FAIL {label}: checkpointing perturbed the run "
                          f"({straight.fingerprint()} -> "
                          f"{full.fingerprint()})")
                    continue
                ticks = [record["tick"]
                         for record in sim.checkpoint_records]
                try:
                    for record in sim.checkpoint_records:
                        resumed = restore_simulation(record["file"])
                        verify_roundtrip(straight, resumed.run())
                        got = _engine_state(resumed)
                        if got != expected:
                            raise CheckpointError(
                                f"resumed from tick {record['tick']}, the "
                                "engine ends at (dispatched, now, "
                                f"pending) {got}, the straight run at "
                                f"{expected}")
                except CheckpointError as exc:
                    failures.append(label)
                    print(f"FAIL {label}: {exc}")
                    continue
            print(f"ok   {label}: fingerprint {straight.fingerprint()}, "
                  f"resumed from ticks {ticks}")

    if failures:
        print(f"{len(failures)} round-trip(s) diverged: "
              + ", ".join(failures))
        return 1
    print(f"all {2 * len(SCHEDULER_NAMES)} round-trips bit-identical, "
          "with the straight run's engine state")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
