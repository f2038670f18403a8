"""Measure the fleet layer's cost over the multi-cluster baseline.

The fleet subsystem promises that heterogeneity is *pay-for-what-you-
use*: a homogeneous fleet takes the exact ``run_datacenter`` path
(fingerprint-identical results, same ExperimentRunner fan-out), so its
overhead over the multi-cluster study should be pricing only --
a few array passes per site.  Routed fleets run serially in-process
(traces are not picklable), so their wall time is bounded by the sum
of the site runs plus the router's tick loop.

This benchmark measures both, asserts the homogeneous identity, and
merges the numbers into ``BENCH_perf.json`` under ``"fleet"``.  Its
timings follow :mod:`repro.perf.timing`: one untimed warm-up per case,
then best-of-``--repeats`` with the three cases interleaved, so machine
drift cannot favour whichever case owned a block of seconds.  The exit
status gates CI: nonzero when the fingerprints diverge or the
homogeneous overhead exceeds the budget.

Run::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py \
        --servers 10 --hours 8 --out /tmp/bench.json     # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.cluster.multi import run_datacenter
from repro.config import SimulationConfig, TraceConfig
from repro.fleet import FleetSpec, demo_fleet, run_fleet
from repro.perf.timing import interleaved_best, time_call


def measure(num_servers: int, hours: float, sites: int, seed: int,
            stagger: float, repeats: int) -> dict:
    config = SimulationConfig(
        num_servers=num_servers, seed=seed,
        trace=TraceConfig(duration_hours=hours))

    def timed(fn):
        def case():
            wall_s, result = time_call(fn)
            return {"wall_s": wall_s, "result": result}
        return case

    best = interleaved_best({
        "datacenter": timed(
            lambda: run_datacenter(config, sites, policy="vmt-ta",
                                   stagger_hours=stagger)),
        "homogeneous": timed(
            lambda: run_fleet(FleetSpec.homogeneous(
                config, sites, policy="vmt-ta", stagger_hours=stagger))),
        "demo": timed(
            lambda: run_fleet(demo_fleet(
                config, policies=("vmt-ta",),
                fleet_policy_name="price-arbitrage",
                stagger_hours=stagger), checks="cheap")),
    }, repeats=repeats, key="wall_s")
    datacenter_wall = best["datacenter"]["wall_s"]
    homogeneous_wall = best["homogeneous"]["wall_s"]
    demo_wall = best["demo"]["wall_s"]
    golden = best["datacenter"]["result"]
    fleet = best["homogeneous"]["result"]
    demo = best["demo"]["result"]

    golden_fp = [r.fingerprint() for r in golden.cluster_results]
    fleet_fp = [r.fingerprint() for r in fleet.cluster_results]
    return {
        "num_servers": num_servers,
        "hours": hours,
        "sites": sites,
        "repeats": repeats,
        "datacenter_wall_s": datacenter_wall,
        "homogeneous_fleet_wall_s": homogeneous_wall,
        "pricing_overhead": homogeneous_wall / datacenter_wall - 1.0,
        "heterogeneous_demo_wall_s": demo_wall,
        "bit_identical": fleet_fp == golden_fp,
        "fingerprints": fleet_fp,
        "demo_bill_usd": demo.total_energy_cost_usd,
        "demo_carbon_kg": demo.total_carbon_kg,
        "demo_moved_job_cores": demo.moved_job_cores,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=20)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--sites", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stagger", type=float, default=8.0)
    # The homogeneous fleet runs the same simulations as run_datacenter
    # plus pricing, so its true overhead is a few percent; on a shared
    # host best-of-2 still swings the reading by +-20%, best-of-7 by ~1%.
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--max-overhead", type=float, default=0.5,
                        help="largest tolerated homogeneous-fleet "
                             "overhead over run_datacenter (fraction)")
    parser.add_argument("--out", default="BENCH_perf.json")
    args = parser.parse_args()

    fleet = measure(args.servers, args.hours, args.sites, args.seed,
                    args.stagger, args.repeats)
    print(json.dumps(fleet, indent=2))

    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    merged["fleet"] = fleet
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"\nmerged under 'fleet' into {args.out}")

    if not fleet["bit_identical"]:
        print("FAIL: homogeneous fleet diverged from run_datacenter")
        return 1
    if fleet["pricing_overhead"] > args.max_overhead:
        print(f"FAIL: homogeneous fleet overhead "
              f"{fleet['pricing_overhead']:.1%} exceeds "
              f"{args.max_overhead:.0%} budget")
        return 1
    print(f"fleet bench OK: bit-identical, pricing overhead "
          f"{fleet['pricing_overhead']:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
