"""Sanitizer overhead benchmark: checks="cheap"/"full" vs "off".

Measures, from a profiled run's ``SimulationResult.profile``, how much
the invariant sanitizer adds to the tick loop.  The acceptance bar is
**cheap adds < 10% to the instrumented tick-loop time**; full mode is
measured too but is expected (and allowed) to cost more -- it audits
every server elementwise each tick and is meant for CI and debugging,
not for inner-loop sweeps.

Three numbers per level:

* ``checks_overhead`` -- the profile's ``checks`` section over the rest
  of the same run's instrumented sections,
  ``checks_s / (tick_loop_s - checks_s)`` (the acceptance metric).  It
  sums the sections the cross-run number sums, but both sides come
  from one run, so drift in host speed between runs cancels out;
* ``tick_loop_overhead`` -- extra instrumented section time relative to
  the ``off`` run (information only: separate runs on a shared host
  read anywhere from -4% to +43% for cheap on one tree);
* ``checks_share`` -- the ``checks`` section as a fraction of the
  level's own tick-loop time.

Every level runs on the per-tick driver (a no-op observer keeps an
open-loop ``--policy`` off the planned kernel, which refuses the
sanitizer), so the levels time the same loop.

Results merge into ``BENCH_perf.json`` under ``sanitizer_overhead``,
alongside the scaling numbers from ``bench_perf_scaling.py``.  All
three runs assert bit-identical fingerprints -- the sanitizer reads,
never writes.

Run::

    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py
    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py \
        --servers 20 --hours 6   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os

from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import make_scheduler
from repro.cluster.simulation import ClusterSimulation
from repro.perf.timing import interleaved_best

LEVELS = ("off", "cheap", "full")


def _noop_observer(time_s, demand, placement, cluster):
    """Attached only to force the per-tick driver."""


def profile_level(num_servers: int, hours: float, seed: int, policy: str,
                  checks: str) -> dict:
    """One profiled run; returns section totals and the fingerprint."""
    config = paper_cluster_config(num_servers=num_servers, seed=seed)
    config = config.replace(trace=TraceConfig(duration_hours=hours))
    sim = ClusterSimulation(config, make_scheduler(policy, config),
                            record_heatmaps=False, profile=True,
                            checks=checks)
    sim.add_observer(_noop_observer)
    result = sim.run()
    timings = result.profile
    loop_s = sum(t["total_s"] for t in timings.values())
    checks_s = timings["checks"]["total_s"] if "checks" in timings else 0.0
    return {
        "tick_loop_s": loop_s,
        "checks_s": checks_s,
        "ticks": len(result.times_s),
        "fingerprint": result.fingerprint(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, default=100)
    parser.add_argument("--hours", type=float, default=48.0)
    parser.add_argument("--policy", default="vmt-wa")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the fastest of N interleaved runs "
                             "per level")
    parser.add_argument("--out", default="BENCH_perf.json")
    args = parser.parse_args()

    # Interleave the levels round-robin (with one untimed warm-up run
    # each) so machine-speed drift between rounds hits every level
    # alike; timing each level's repeats back-to-back used to let a
    # slow first block report *negative* cheap overhead.
    runs = interleaved_best(
        {level: (lambda level=level: profile_level(
            args.servers, args.hours, args.seed, args.policy, level))
         for level in LEVELS},
        repeats=args.repeats, key="tick_loop_s")
    for level in LEVELS:
        best = runs[level]
        print(f"checks={level}: tick loop {best['tick_loop_s']:.3f} s "
              f"({best['checks_s']:.3f} s in checks) over "
              f"{best['ticks']} ticks")

    fingerprints = {level: runs[level]["fingerprint"] for level in LEVELS}
    identical = len(set(fingerprints.values())) == 1
    base = runs["off"]["tick_loop_s"]
    payload = {
        "num_servers": args.servers,
        "policy": args.policy,
        "repeats": args.repeats,
        "ticks": runs["off"]["ticks"],
        "bit_identical": identical,
        "levels": {},
    }
    for level in LEVELS:
        loop_s = runs[level]["tick_loop_s"]
        checks_s = runs[level]["checks_s"]
        payload["levels"][level] = {
            "tick_loop_s": loop_s,
            "checks_s": checks_s,
            "checks_overhead": checks_s / (loop_s - checks_s),
            "tick_loop_overhead": loop_s / base - 1.0,
            "checks_share": checks_s / loop_s if loop_s > 0 else 0.0,
        }
    levels = payload["levels"]
    cheap_overhead = levels["cheap"]["checks_overhead"]
    print(f"checks over the rest of their own run: cheap "
          f"{cheap_overhead * 100:.1f}% (bar: < 10%), full "
          f"{levels['full']['checks_overhead'] * 100:.1f}%; vs the off "
          f"run (information only): cheap "
          f"{levels['cheap']['tick_loop_overhead'] * 100:.1f}%, full "
          f"{levels['full']['tick_loop_overhead'] * 100:.1f}%; "
          f"fingerprints identical: {identical}")

    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    merged["cpu_count"] = os.cpu_count()
    merged["sanitizer_overhead"] = payload
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0 if identical and cheap_overhead < 0.10 else 1


if __name__ == "__main__":
    raise SystemExit(main())
