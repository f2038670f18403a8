"""Measure the oracle gap: offline batch vs live forecast-driven runs.

The offline engine enjoys the paper's oracle assumption -- a grouping
value tuned against the full future trace.  The live subsystem
(:mod:`repro.live`) replaces that oracle with a pluggable forecaster
and pays a measurable price.  This benchmark quantifies it:

* **oracle differential** -- a live run driven by the perfect
  forecaster over a trace-replay feed, asserted *bit-identical* to the
  batch run (any mismatch is a harness bug and fails the gate);
* **naive gap** -- the last-value (persistence) forecaster's peak
  cooling load against the oracle's, over a full diurnal cycle where
  lagging the ramp genuinely hurts;
* **mpc recovery** -- how much of that gap the shadow-racing MPC
  controller claws back with the same naive forecaster.

Results merge into ``BENCH_perf.json`` under ``"live"``.  The exit
status gates CI: nonzero when the oracle differential is not
bit-identical or the naive gap is not positive.

Every wall time is one whole call (trace or feed build included), timed
with :func:`~repro.perf.timing.interleaved_best`: one untimed warm-up
per case, then best-of-``--repeats`` with the four cases interleaved.
The gate reads no time, so the CI smoke takes one repeat.

Run::

    PYTHONPATH=src python benchmarks/bench_live_gap.py
    PYTHONPATH=src python benchmarks/bench_live_gap.py \
        --repeats 1 --out /tmp/bench.json               # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os

from repro.cluster.simulation import run_simulation
from repro.config import SimulationConfig, TraceConfig
from repro.core.policies import make_scheduler
from repro.live import LiveRunner, MPCController, TraceReplayFeed
from repro.perf.timing import interleaved_best, time_call


def measure(num_servers: int, hours: float, seed: int, policy: str,
            decision_every: int, mpc_horizon: int, repeats: int) -> dict:
    config = SimulationConfig(
        num_servers=num_servers, seed=seed,
        trace=TraceConfig(duration_hours=hours))

    def live(forecaster: str, mpc: bool = False, **kwargs):
        def run():
            controller = (MPCController(config, horizon_steps=mpc_horizon,
                                        max_workers=4) if mpc else None)
            return LiveRunner(config, policy,
                              TraceReplayFeed.from_config(config),
                              forecaster=forecaster, mpc=controller,
                              **kwargs).run()
        return run

    def timed(fn):
        def case():
            wall_s, value = time_call(fn)
            return {"wall_s": wall_s, "value": value}
        return case

    best = interleaved_best({
        "batch": timed(lambda: run_simulation(
            config, make_scheduler(policy, config))),
        "oracle": timed(live("oracle")),
        "naive": timed(live("last-value", decision_every=decision_every)),
        "mpc": timed(live("last-value", decision_every=decision_every,
                          mpc=True)),
    }, repeats=repeats, key="wall_s")
    batch = best["batch"]["value"]
    oracle = best["oracle"]["value"]
    naive = best["naive"]["value"]
    mpc_run = best["mpc"]["value"]

    batch_peak = batch.peak_cooling_load_w
    naive_peak = naive.result.peak_cooling_load_w
    mpc_peak = mpc_run.result.peak_cooling_load_w
    return {
        "num_servers": num_servers,
        "hours": hours,
        "seed": seed,
        "policy": policy,
        "decision_every": decision_every,
        "repeats": repeats,
        "batch_wall_s": best["batch"]["wall_s"],
        "batch_fingerprint": batch.fingerprint(),
        "oracle": {
            "fingerprint": oracle.result.fingerprint(),
            "bit_identical": (oracle.result.fingerprint()
                              == batch.fingerprint()),
            "wall_s": best["oracle"]["wall_s"],
        },
        "naive": {
            "forecaster": "last-value",
            "peak_cooling_w": naive_peak,
            "peak_degradation_pct": 100.0 * (naive_peak / batch_peak
                                             - 1.0),
            "wall_s": best["naive"]["wall_s"],
        },
        "mpc": {
            "horizon_steps": mpc_horizon,
            "decisions": len(mpc_run.mpc_decisions or []),
            "peak_cooling_w": mpc_peak,
            "peak_vs_oracle_pct": 100.0 * (mpc_peak / batch_peak - 1.0),
            "gap_recovered_pct": (
                100.0 * (naive_peak - mpc_peak)
                / (naive_peak - batch_peak)
                if naive_peak > batch_peak else None),
            "wall_s": best["mpc"]["wall_s"],
        },
        "oracle_peak_cooling_w": batch_peak,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--servers", type=int, default=8)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--policy", default="vmt-ta")
    parser.add_argument("--decision-every", type=int, default=15)
    parser.add_argument("--mpc-horizon", type=int, default=60)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_perf.json")
    args = parser.parse_args()

    print(f"live gap: {args.servers} servers, {args.hours:g} h, "
          f"{args.policy}, decisions every {args.decision_every} ...")
    live = measure(args.servers, args.hours, args.seed, args.policy,
                   args.decision_every, args.mpc_horizon, args.repeats)
    print(f"  oracle bit-identical: {live['oracle']['bit_identical']} "
          f"(fingerprint {live['batch_fingerprint']})")
    print(f"  oracle peak {live['oracle_peak_cooling_w']:.0f} W; naive "
          f"peak {live['naive']['peak_cooling_w']:.0f} W "
          f"({live['naive']['peak_degradation_pct']:+.2f}%)")
    recovered = live["mpc"]["gap_recovered_pct"]
    print(f"  mpc peak {live['mpc']['peak_cooling_w']:.0f} W "
          f"({live['mpc']['peak_vs_oracle_pct']:+.2f}% vs oracle"
          + (f", {recovered:.0f}% of the gap recovered)"
             if recovered is not None else ")"))
    print(f"  wall (best of {args.repeats}): batch "
          f"{live['batch_wall_s']:.2f} s, oracle "
          f"{live['oracle']['wall_s']:.2f} s, naive "
          f"{live['naive']['wall_s']:.2f} s, mpc "
          f"{live['mpc']['wall_s']:.2f} s")

    merged = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    merged["live"] = live
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    ok = (live["oracle"]["bit_identical"]
          and live["naive"]["peak_degradation_pct"] > 0.0)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
