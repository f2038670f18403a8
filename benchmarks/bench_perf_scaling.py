"""Performance scaling benchmark: tick rate per driver, parallel speedup.

Unlike the ``bench_fig*`` files (pytest-benchmark reproductions of the
paper's figures), this is a standalone script measuring the simulator
itself:

* **tick rate** -- ticks/second of one full clean VMT-TA run on both
  tick drivers: the planned kernel (the default for such a run) and the
  per-tick driver (``stepped``, forced by attaching a no-op observer),
  with the fingerprints asserted bit-identical, plus the resulting
  speedup;
* **paper scale** -- the planned kernel at the paper's full 1,000-server
  cluster over a two-day trace at GV 14, 22, 30 and 36 (the points a
  laptop study iterates on, from heavy hot-group overflow to a hot
  group spanning every server), each recorded against a 10 s target;
* **sweep points** -- every point of the GV sweep plus its round-robin
  baseline run alone, with the kernel path it took and, for VMT-TA, the
  hot-group size and the share of ticks whose demand overflows a group
  (those ticks take the spill passes);
* **sweep wall-clock** -- a GV sweep through the
  :class:`~repro.perf.runner.ExperimentRunner` run serially and through
  the process pool.

All timings follow :mod:`repro.perf.timing`: one untimed warm-up per
case, then best-of-``--repeats`` with the cases interleaved round-robin
so machine-speed drift cannot bias one driver's block of runs.

Results go to ``BENCH_perf.json``.  Parallel speedup is only meaningful
with real cores: the JSON records ``cpu_count`` so a 1-core container
reporting ~1x is legible as an environment limit, not a regression.
The exit status is the CI gate: nonzero when the drivers disagree on a
single bit, when a sweep mode changes a result, when the measured
planned-vs-stepped speedup falls below ``--min-speedup``, or when a
clean VMT-TA or round-robin point (tick rate, sweep or paper scale)
takes a kernel path other than ``planned``.

Run::

    PYTHONPATH=src python benchmarks/bench_perf_scaling.py
    PYTHONPATH=src python benchmarks/bench_perf_scaling.py \
        --servers 20 --hours 6 --points 4 --workers 2 \
        --repeats 2 --paper-servers 0 --min-speedup 3.0   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional

from repro.analysis.sweep import gv_sweep
from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import make_scheduler
from repro.cluster.simulation import ClusterSimulation
from repro.perf.cache import clear_shared_cache, shared_trace
from repro.perf.timing import interleaved_best, time_call
from repro.workloads.workload import COLD_INDICES, HOT_INDICES

#: The tick drivers the tick-rate runs compare.
DRIVERS = ("stepped", "planned")

#: Grouping values of the paper-scale points.
PAPER_GVS = (14.0, 22.0, 30.0, 36.0)


def sweep_gvs(points: int) -> list:
    """The GV sweep's points: 14, 16, 18, ..."""
    return [14.0 + 2.0 * i for i in range(points)]


def make_config(num_servers: int, seed: int, grouping_value: float = 22.0,
                hours: Optional[float] = None):
    """The paper config; ``hours`` replaces its two-day trace."""
    config = paper_cluster_config(num_servers=num_servers,
                                  grouping_value=grouping_value, seed=seed)
    if hours is not None:
        config = config.replace(trace=TraceConfig(duration_hours=hours))
    return config


def group_load(config) -> dict:
    """VMT-TA's hot-group size and its share of group-overflow ticks.

    A tick overflows when its hot (cold) demand exceeds the hot (cold)
    group's cores; VMT-TA then spills the excess into the other group.
    """
    hot = make_scheduler("vmt-ta", config).sizer.hot_size
    cores = config.server.cores
    counts = shared_trace(config).counts
    hot_tot = counts[:, list(HOT_INDICES)].sum(axis=1)
    cold_tot = counts[:, list(COLD_INDICES)].sum(axis=1)
    spill = ((hot_tot > hot * cores)
             | (cold_tot > (config.num_servers - hot) * cores))
    return {"hot_size": hot,
            "spill_tick_pct": 100.0 * float(spill.mean())}


def _noop_observer(time_s, demand, placement, cluster):
    """Attached only to force the per-tick driver."""


def run_once(config, policy: str = "vmt-ta", *,
             per_tick: bool = False) -> dict:
    """Wall-clock one serial run; return ticks/sec and the fingerprint.

    ``per_tick`` forces the per-tick driver (the planned kernel refuses
    runs with observers).
    """
    sim = ClusterSimulation(config, make_scheduler(policy, config),
                            record_heatmaps=False)
    if per_tick:
        sim.add_observer(_noop_observer)
    ticks = sim.trace.num_steps
    elapsed, result = time_call(sim.run)
    return {
        "wall_s": elapsed,
        "ticks": ticks,
        "ticks_per_sec": ticks / elapsed,
        "fingerprint": result.fingerprint(),
        "kernel_path": sim.kernel_path,
    }


def measure_tick_rate(num_servers: int, hours: float, seed: int,
                      repeats: int) -> dict:
    """Best-of-N tick rate per driver, interleaved, plus the speedup."""
    config = make_config(num_servers, seed, hours=hours)
    best = interleaved_best(
        {driver: (lambda driver=driver: run_once(
            config, per_tick=driver == "stepped"))
         for driver in DRIVERS},
        repeats=repeats, key="wall_s")
    stepped, planned = best["stepped"], best["planned"]
    return {
        "num_servers": num_servers,
        "hours": hours,
        "repeats": repeats,
        "drivers": best,
        "speedup": stepped["wall_s"] / planned["wall_s"],
        "bit_identical": stepped["fingerprint"] == planned["fingerprint"],
    }


def measure_paper_scale(num_servers: int, hours: float, seed: int,
                        repeats: int) -> dict:
    """The planned kernel at full paper scale, against a 10 s target."""
    configs = {f"{gv:g}": make_config(num_servers, seed, gv, hours)
               for gv in PAPER_GVS}
    best = interleaved_best(
        {name: (lambda config=config: run_once(config))
         for name, config in configs.items()},
        repeats=repeats, key="wall_s")
    points = {name: {**group_load(config), **best[name]}
              for name, config in configs.items()}
    return {
        "num_servers": num_servers,
        "hours": hours,
        "repeats": repeats,
        "target_s": 10.0,
        "under_target": all(p["wall_s"] < 10.0 for p in points.values()),
        "points": points,
    }


def measure_sweep_points(num_servers: int, points: int, seed: int,
                         repeats: int) -> dict:
    """Each sweep point run alone, with the kernel path it took."""
    configs = {f"{gv:g}": make_config(num_servers, seed, gv)
               for gv in sweep_gvs(points)}
    baseline = make_config(num_servers, seed)
    cases = {"round-robin": lambda: run_once(baseline, "round-robin")}
    cases.update({name: (lambda config=config: run_once(config))
                  for name, config in configs.items()})
    best = interleaved_best(cases, repeats=repeats, key="wall_s")
    rows = {}
    for name, run in best.items():
        row = ({"policy": "round-robin"} if name == "round-robin"
               else {"policy": "vmt-ta", **group_load(configs[name])})
        rows[name] = {**row, "wall_s": run["wall_s"],
                      "kernel_path": run["kernel_path"]}
    return {
        "num_servers": num_servers,
        "repeats": repeats,
        "all_planned": all(row["kernel_path"] == "planned"
                           for row in rows.values()),
        "points": rows,
    }


def measure_sweep(num_servers: int, points: int, workers: int, seed: int,
                  repeats: int) -> dict:
    """Time one GV sweep serially vs the process pool."""
    gvs = sweep_gvs(points)

    def run_mode(max_workers):
        clear_shared_cache()
        elapsed, sweep = time_call(lambda: gv_sweep(
            gvs, policies=("vmt-ta",), num_servers=num_servers,
            seed=seed, max_workers=max_workers))
        return {"wall_s": elapsed, "sweep": sweep}

    best = interleaved_best(
        {
            "serial": lambda: run_mode(1),
            "process": lambda: run_mode(workers),
        },
        repeats=repeats, key="wall_s")
    serial = best["serial"]
    identical = all(
        (serial["sweep"].reductions[p] ==
         best["process"]["sweep"].reductions[p]).all()
        for p in serial["sweep"].reductions)
    payload = {
        "points": points,
        "num_servers": num_servers,
        "workers": workers,
        "repeats": repeats,
        "bit_identical": bool(identical),
        "modes": {},
    }
    for mode in ("serial", "process"):
        payload["modes"][mode] = {
            "wall_s": best[mode]["wall_s"],
            "speedup_vs_serial": serial["wall_s"] / best[mode]["wall_s"],
        }
    return payload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, default=100)
    parser.add_argument("--hours", type=float, default=48.0,
                        help="trace duration for the tick-rate runs")
    parser.add_argument("--points", type=int, default=12,
                        help="GV sweep size")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N interleaved runs per case")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail (exit 1) when the planned kernel's "
                             "speedup over the per-tick driver falls "
                             "below this ratio")
    parser.add_argument("--paper-servers", type=int, default=1000,
                        help="cluster size for the paper-scale planned "
                             "runs (0 skips them)")
    parser.add_argument("--paper-hours", type=float, default=48.0)
    parser.add_argument("--out", default="BENCH_perf.json")
    args = parser.parse_args()

    print(f"tick rate: {args.servers} servers, {args.hours:g} h trace, "
          f"drivers {'/'.join(DRIVERS)}, best of {args.repeats} ...")
    tick = measure_tick_rate(args.servers, args.hours, args.seed,
                             args.repeats)
    for driver in DRIVERS:
        run = tick["drivers"][driver]
        print(f"  {driver:>9}: {run['ticks']} ticks in "
              f"{run['wall_s']:.3f} s = {run['ticks_per_sec']:,.0f} "
              f"ticks/sec (path: {run['kernel_path']})")
    print(f"  speedup {tick['speedup']:.2f}x, bit-identical: "
          f"{tick['bit_identical']}")
    # The tick-rate run is a clean VMT-TA run: each driver must take it.
    ok = (all(tick["drivers"][driver]["kernel_path"] == driver
              for driver in DRIVERS)
          and tick["bit_identical"]
          and tick["speedup"] >= args.min_speedup)

    paper = None
    if args.paper_servers > 0:
        print(f"paper scale: {args.paper_servers} servers, "
              f"{args.paper_hours:g} h, GV "
              f"{'/'.join(f'{gv:g}' for gv in PAPER_GVS)} ...")
        paper = measure_paper_scale(args.paper_servers, args.paper_hours,
                                    args.seed, args.repeats)
        for gv, point in paper["points"].items():
            print(f"  GV {gv:>2}: {point['ticks']} ticks in "
                  f"{point['wall_s']:.2f} s (hot {point['hot_size']}, "
                  f"{point['spill_tick_pct']:.0f}% spill ticks, path: "
                  f"{point['kernel_path']})")
            ok = ok and point["kernel_path"] == "planned"
        print(f"  target < {paper['target_s']:g} s: "
              f"{paper['under_target']}")

    print(f"sweep points: {args.points} GVs + round-robin, "
          f"{args.servers} servers, each run alone ...")
    points = measure_sweep_points(args.servers, args.points, args.seed,
                                  args.repeats)
    for name, row in points["points"].items():
        label = "round-robin" if name == "round-robin" else f"GV {name}"
        detail = ("" if name == "round-robin" else
                  f" (hot {row['hot_size']}, "
                  f"{row['spill_tick_pct']:.0f}% spill ticks)")
        print(f"  {label:>11}: {row['wall_s']:.3f} s, path: "
              f"{row['kernel_path']}{detail}")
    if not points["all_planned"]:
        print("  FAIL: a clean VMT-TA or round-robin point left the "
              "planned kernel")
    ok = ok and points["all_planned"]

    print(f"sweep: {args.points} GV points, "
          f"serial vs {args.workers} process workers ...")
    sweep = measure_sweep(args.servers, args.points, args.workers,
                          args.seed, args.repeats)
    for mode, timing in sweep["modes"].items():
        print(f"  {mode:>8}: {timing['wall_s']:.2f} s "
              f"({timing['speedup_vs_serial']:.2f}x vs serial)")
    print(f"  bit-identical across modes: {sweep['bit_identical']}")
    ok = ok and sweep["bit_identical"]

    payload = {
        "cpu_count": os.cpu_count(),
        "tick_rate": tick,
        "sweep_points": points,
        "sweep": sweep,
    }
    if paper is not None:
        payload["paper_scale"] = paper
    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    merged.update(payload)
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
