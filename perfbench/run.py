"""The repository benchmark: user operations, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload gv-sweep --seed 7 --seconds 35 --trace 0

Workloads (``BENCHMARK.json`` lists the timed ones and says why):

``gv-sweep``        ``api.sweep`` over GV 14/22/30/36, 100 servers, 48 h
``serve-runs``      20 distinct ``POST /v1/runs``, each sent twice, to a
                    fresh ``repro-sim serve`` process (one client, closed
                    loop)
``live-mpc``        ``api.live_run`` with the last-value forecaster and
                    the MPC racer, 8 servers, 24 h, against one batch run
``policy-compare``  ``api.compare`` of all five policies at the golden
                    config, checked against the golden fingerprints at
                    seed 7; not in the timed set, because one 9 s call per
                    sample left its run-to-run spread too wide on a
                    shared 2-vCPU host

With ``--trace 0`` the run measures, with tracing off, for ``--seconds``
seconds and reports the end-to-end metrics.  Each time is a median of
wall times scaled to a reference host speed by probes of the host taken
while each step runs (``hostspeed.py``); the unscaled medians are
printed beside them.

``setup_s``       median of seven cold set-ups: a fresh interpreter
                  importing what the operation needs and building its
                  inputs, or for serve-runs a fresh server until
                  ``/v1/healthz`` answers
``fresh_p50_s``   median wall time of one operation on fresh state: an
                  ``api.sweep`` / ``api.compare`` call with the trace
                  cache cleared (printed as ``sweep_s`` / ``compare_s``),
                  a served run that misses the registry, an
                  ``api.live_run`` call (``live_s``)
``cached_p50_s``  median wall time of the same operation sent again with
                  the same inputs: the registry holds the served result,
                  the trace cache holds the compared configs' trace.  A
                  user pays the trace build once per sweep and a live
                  run caches nothing, so on gv-sweep and live-mpc every
                  operation runs fresh and both times are their median
``peak_rss_mb``   peak resident memory of this process, plus the
                  server's for serve-runs

With ``--trace 1`` it alternates untraced and traced operations and
reports the per-layer metrics listed in ``workloads.PER_LAYER``, each
operation's tracing overhead and its unattributed remainder.  Spans are
kept in memory and written to ``.perfbench/`` when the run ends.

Every operation's output is checked (golden fingerprints at seed 7,
registry provenance, every live feed row ingested, identical outputs for
identical inputs); a wrong output is a failed operation and the command
exits 1.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment variables that silently change the kernel path
#: (``REPRO_BACKEND``, ``REPRO_CHECKS*``) or SIGKILL runner workers
#: (``REPRO_KILL_RUN``).  Neither this process nor the server inherits
#: them.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_CHECKS", "REPRO_CHECKS_POLICY",
              "REPRO_KILL_RUN")

END_TO_END = (("setup_s", "s"), ("fresh_p50_s", "s"), ("cached_p50_s", "s"),
              ("peak_rss_mb", "MiB"))

#: What ``fresh_p50_s`` is called on the workloads where it is one call.
FRESH_ALIAS = {"gv-sweep": "sweep_s", "policy-compare": "compare_s",
               "live-mpc": "live_s"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gv-sweep", "policy-compare", "serve-runs",
                                 "live-mpc"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test only")
    parser.add_argument("--expect-fingerprints", metavar="FILE",
                        help="JSON policy -> fingerprint that "
                             "policy-compare must produce (self-test)")
    return parser.parse_args(argv)


def _room_for(rounds, began, seconds, minimum) -> bool:
    """Whether another step of median length still fits the window."""
    return (len(rounds) < minimum
            or time.perf_counter() - began + statistics.median(rounds)
            <= seconds)


def _percentiles(values):
    """p50 and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    text = f"p50={statistics.median(ordered):.4f}s n={len(ordered)}"
    for pct in (99, 95, 90, 75):
        if len(ordered) * (100 - pct) / 100 >= 10:
            index = min(len(ordered) - 1,
                        int(round(pct / 100 * (len(ordered) - 1))))
            text += f" p{pct}={ordered[index]:.4f}s"
            break
    return text


def _provenance(args, np, repro_kernel):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "numba": repro_kernel.is_numba_available()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; nothing to "
              "measure", file=sys.stderr)
        return 2
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(1, SRC)
    import numpy as np
    import repro
    import repro.kernel
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{SRC}", file=sys.stderr)
        return 2
    import workloads
    from hostspeed import HostScale
    from spans import Recorder

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outdir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    expect = None
    if args.expect_fingerprints:
        with open(args.expect_fingerprints, "r", encoding="utf-8") as handle:
            expect = json.load(handle)

    ctx = workloads.Context(root=ROOT, workdir=workdir, seed=args.seed,
                            size=args.size, env=env, expect=expect)
    workload = workloads.WORKLOADS[args.workload](ctx)
    provenance = _provenance(args, np, repro.kernel)
    print(f"perfbench {args.workload}: {workload.__doc__.splitlines()[0]}")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    recorder = Recorder()
    traced = []
    scale = None
    try:
        properties = workload.inputs()
        print("inputs: " + json.dumps(properties, sort_keys=True))
        if args.trace:
            began = time.perf_counter()
            rounds = []
            while True:
                started = time.perf_counter()
                traced.append(workload.traced(recorder))
                rounds.append(time.perf_counter() - started)
                if not _room_for(rounds, began, args.seconds, 1):
                    break
        else:
            with HostScale(ctx) as scale:
                for _ in range(workloads.SETUP_REPEATS):
                    scale.measure(lambda: ctx.samples["setup"].append(
                        workload.setup()), during=False)
                began = time.perf_counter()
                rounds = []
                while True:
                    started = time.perf_counter()
                    scale.measure(workload.iterate,
                                  during=workload.PROBE_DURING)
                    rounds.append(time.perf_counter() - started)
                    if not _room_for(rounds, began, args.seconds,
                                     workload.MIN_ITERATIONS):
                        break
    except Exception as exc:  # noqa: BLE001 -- reported as a failure
        ctx.record("run aborted", f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
    finally:
        if hasattr(workload, "close"):
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = _report_traced(workloads, recorder, traced)
    else:
        metrics = _report_untraced(args, ctx, scale, workload.POOL_REPEATS)
    for failure in ctx.failures:
        print(f"FAILED {failure}")
    correct = ctx.failed == 0 and ctx.attempted > 0
    print(f"attempted={ctx.attempted} failed={ctx.failed} "
          f"correct={str(correct).lower()}")
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance, "samples": ctx.samples,
                   "scaled": scale and scale.scaled,
                   "host_factors": scale and scale.factors,
                   "metrics": metrics, "failures": ctx.failures},
                  handle, indent=2, sort_keys=True, default=str)
    if args.trace:
        recorder.write(stem + ".spans.jsonl", provenance)
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0 if correct else 1


def _report_untraced(args, ctx, scale, pooled):
    kinds = {"setup_s": ("setup",), "fresh_p50_s": ("fresh",),
             "cached_p50_s": ("cached",)}
    if pooled:
        kinds["cached_p50_s"] = ("fresh",)
    if scale is not None and scale.factors:
        print(f"host factor: median {statistics.median(scale.factors):.4f}"
              f" over {len(scale.factors)} steps (min "
              f"{min(scale.factors):.4f}, max {max(scale.factors):.4f}); "
              "times below are wall times / factor")
    metrics = {}
    for name, unit in END_TO_END:
        raw = [v for kind in kinds.get(name, ()) for v in ctx.samples[kind]]
        values = [v for kind in kinds.get(name, ()) if scale
                  for v in scale.scaled[kind]]
        if name == "peak_rss_mb":
            value = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     / 1024.0 + ctx.child_rss_mb)
        else:
            value = statistics.median(values) if values else None
        metrics[name] = {"value": value, "unit": unit}
        if values:
            print(f"{name} = {value:.6f} {unit}  ({_percentiles(values)}; "
                  f"unscaled {_percentiles(raw)})")
        else:
            print(f"{name} = {value} {unit}")
    if args.workload in FRESH_ALIAS:
        print(f"{FRESH_ALIAS[args.workload]} = "
              f"{metrics['fresh_p50_s']['value']} s  "
              "(fresh_p50_s on this workload)")
    for name, value in ctx.report.items():
        print(f"{name} = {value}" + (" %" if name.endswith("_pct") else ""))
    return metrics


def _report_traced(workloads, recorder, traced):
    if not traced:
        return {name: {"value": None, "unit": unit}
                for name, unit, _ in workloads.PER_LAYER}
    for out in traced:
        out["bench.trace_overhead_s"] = out["op_s"] - out["baseline_s"]
        root = out["root"]
        print(f"operation {root['name']}: {out['op_s']:.4f} s traced, "
              f"{out['baseline_s']:.4f} s untraced, tracing overhead "
              f"{out['bench.trace_overhead_s']:+.4f} s")
    print("  (one traced/untraced pair per line; on a shared host a "
          "difference below the run-to-run spread is noise)")
    root = traced[0]["root"]
    print(f"self time by layer, {root['name']}, {root['dur']:.4f} s:")
    table = workloads.layer_self_times(recorder, root)
    for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
        label = "unattributed" if layer == "bench" else layer
        print(f"  {label:<16} {seconds:10.4f} s  "
              f"{100.0 * seconds / root['dur']:6.2f} %")
    inside = traced[0]["cluster.unattributed_s"]
    print(f"  (the cluster row includes {inside:.4f} s of "
          "ClusterSimulation.run outside every profiled section)")
    metrics = {}
    for name, unit, meaning in workloads.PER_LAYER:
        value = statistics.median([out[name] for out in traced])
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}  ({meaning})")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
