"""Checkpoint overhead benchmark: snapshot/restore cost vs the tick loop.

Measures what checkpointing adds to a run at the paper's 100-server
sweep scale:

* ``snapshot_capture_s`` -- building the in-memory state tree
  (``ClusterSimulation.snapshot()``);
* ``snapshot_write_s`` -- capture **plus** serializing the ``.npz`` and
  manifest to disk (``save_snapshot``), i.e. the full cost one
  checkpoint adds to the run;
* ``restore_s`` -- ``load_snapshot`` + ``restore_simulation``, the cost
  paid once on resume;
* ``checkpoint_overhead`` -- extra wall time of a run checkpointing
  every 60 ticks relative to an identical run without checkpoints,
  the two timed as one ``interleaved_best`` pair so host drift hits
  both alike;
* ``planned_vmt_ta`` -- the same pair for VMT-TA, where the planned
  kernel runs the checkpointing run in segments and writes each
  snapshot between two of them, beside the same checkpointing run on
  the per-tick driver (forced by a no-op observer); timed with
  ``interleaved_best``.

The acceptance bar is **one snapshot write costs < 5% of a tick-loop
second** (i.e. < 50 ms wall) at 100 servers, and the checkpointed run's
fingerprint is bit-identical to the baseline's -- resume correctness is
never traded for speed, so the snapshot path takes no shortcuts.  The
``planned_vmt_ta`` row records its kernel path and bit identity without
entering the gate.

Results merge into ``BENCH_perf.json`` under ``checkpoint``, alongside
the scaling and sanitizer numbers.

Run::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py
    PYTHONPATH=src python benchmarks/bench_checkpoint.py \
        --servers 20 --hours 6   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from repro.cluster.simulation import ClusterSimulation
from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import make_scheduler
from repro.perf.timing import interleaved_best, time_call
from repro.state import (load_snapshot, restore_simulation, save_snapshot,
                         snapshot_manifest_path)

SNAPSHOT_BAR_S = 0.05  # < 5% of a tick-loop second


def _build(config, policy, **kwargs):
    return ClusterSimulation(config, make_scheduler(policy, config),
                             record_heatmaps=False, **kwargs)


def _noop_observer(time_s, demand, placement, cluster):
    """Attached only to force the per-tick driver."""


def _case(config, policy: str, every: int = 0, per_tick: bool = False):
    """One timed run of ``policy``, checkpointing every ``every`` ticks
    (never when 0), for :func:`interleaved_best`."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            extra = ({"checkpoint_every": every, "checkpoint_dir": tmp}
                     if every else {})
            sim = _build(config, policy, **extra)
            if per_tick:
                sim.add_observer(_noop_observer)
            wall_s, result = time_call(sim.run)
            return {"wall_s": wall_s,
                    "fingerprint": result.fingerprint(),
                    "kernel_path": sim.kernel_path,
                    "snapshots": len(sim.checkpoint_records),
                    "sim": sim}
    return run


def planned_vmt_ta(config, every: int, repeats: int) -> dict:
    """VMT-TA with and without checkpoints, and on the per-tick driver.

    ``checkpointed`` is the planned kernel's segmented run;
    ``checkpointed_stepped`` is the same checkpointing run forced onto
    the per-tick driver by a no-op observer.
    """
    best = interleaved_best({
        "plain": _case(config, "vmt-ta"),
        "checkpointed": _case(config, "vmt-ta", every),
        "checkpointed_stepped": _case(config, "vmt-ta", every,
                                      per_tick=True),
    }, repeats=repeats, key="wall_s")
    plain, ckpt = best["plain"], best["checkpointed"]
    return {
        "policy": "vmt-ta",
        "kernel_path": ckpt["kernel_path"],
        "bit_identical": (ckpt["fingerprint"] == plain["fingerprint"]
                          == best["checkpointed_stepped"]["fingerprint"]),
        "checkpoint_every": every,
        "snapshots": ckpt["snapshots"],
        "run_s": plain["wall_s"],
        "checkpointed_run_s": ckpt["wall_s"],
        "checkpointed_stepped_run_s":
            best["checkpointed_stepped"]["wall_s"],
        "checkpoint_overhead": ckpt["wall_s"] / plain["wall_s"] - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, default=100)
    parser.add_argument("--hours", type=float, default=48.0)
    parser.add_argument("--policy", default="vmt-wa")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--every", type=int, default=60,
                        help="checkpoint interval (ticks) for the "
                             "instrumented run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="take the fastest of N interleaved runs "
                             "and of N snapshot timings")
    parser.add_argument("--out", default="BENCH_perf.json")
    args = parser.parse_args()

    config = paper_cluster_config(num_servers=args.servers, seed=args.seed)
    config = config.replace(trace=TraceConfig(duration_hours=args.hours))

    best = interleaved_best({
        "plain": _case(config, args.policy),
        "checkpointed": _case(config, args.policy, args.every),
    }, repeats=args.repeats, key="wall_s")
    baseline_s = best["plain"]["wall_s"]
    ckpt_s = best["checkpointed"]["wall_s"]
    identical = (best["checkpointed"]["fingerprint"]
                 == best["plain"]["fingerprint"])
    ticks = config.trace.num_steps
    print(f"baseline: {baseline_s:.3f} s over {ticks} ticks "
          f"({args.servers} servers, {args.policy})")
    print(f"checkpointed (every {args.every}): {ckpt_s:.3f} s, "
          f"{best['checkpointed']['snapshots']} snapshots, "
          f"bit-identical: {identical}")

    with tempfile.TemporaryDirectory() as tmp:
        # Per-snapshot cost, measured directly on a finished sim (the
        # state tree has the same shape at any tick boundary).
        sim = best["checkpointed"]["sim"]
        capture_s = min(time_call(sim.snapshot)[0]
                        for _ in range(args.repeats))
        path = os.path.join(tmp, "bench-snapshot.npz")
        write_s = min(
            time_call(lambda: save_snapshot(sim.snapshot(), path))[0]
            for _ in range(args.repeats))
        snapshot_bytes = (os.path.getsize(path)
                          + os.path.getsize(snapshot_manifest_path(path)))
        restore_s = min(
            time_call(lambda: restore_simulation(load_snapshot(path)))[0]
            for _ in range(args.repeats))

    overhead = ckpt_s / baseline_s - 1.0
    ta_row = planned_vmt_ta(config, args.every, args.repeats)
    print(f"snapshot: capture {capture_s * 1000:.1f} ms, "
          f"capture+write {write_s * 1000:.1f} ms "
          f"({snapshot_bytes / 1024:.0f} KiB); "
          f"restore {restore_s * 1000:.1f} ms")
    print(f"snapshot write vs bar: {write_s * 1000:.1f} ms "
          f"(bar: < {SNAPSHOT_BAR_S * 1000:.0f} ms); "
          f"run overhead at every={args.every}: {overhead * 100:.1f}%")
    print(f"vmt-ta: {ta_row['run_s']:.3f} s, checkpointed "
          f"{ta_row['checkpointed_run_s']:.3f} s on "
          f"{ta_row['kernel_path']} (stepped "
          f"{ta_row['checkpointed_stepped_run_s']:.3f} s), "
          f"bit-identical: {ta_row['bit_identical']}")

    payload = {
        "num_servers": args.servers,
        "policy": args.policy,
        "ticks": ticks,
        "bit_identical": identical,
        "tick_loop_s": baseline_s,
        "checkpoint_every": args.every,
        "checkpointed_run_s": ckpt_s,
        "checkpoint_overhead": overhead,
        "snapshot_capture_s": capture_s,
        "snapshot_write_s": write_s,
        "snapshot_bytes": snapshot_bytes,
        "restore_s": restore_s,
        "snapshot_share_of_tick_loop_second": write_s / 1.0,
        "planned_vmt_ta": ta_row,
    }
    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    merged["cpu_count"] = os.cpu_count()
    merged["checkpoint"] = payload
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0 if identical and write_s < SNAPSHOT_BAR_S else 1


if __name__ == "__main__":
    raise SystemExit(main())
