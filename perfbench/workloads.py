"""The benchmark's workloads and their per-layer metrics.

Every workload exposes the same four steps, which ``run.py`` drives:

``setup()``
    One cold set-up, timed: a fresh interpreter importing what the
    operation needs and building its inputs (batch workloads), or a
    fresh ``repro-sim serve`` process until ``/v1/healthz`` answers.
``iterate()``
    Untraced operations: on fresh state (``fresh`` samples) and the same
    operation again on the same inputs (``cached`` samples), or, where
    nothing is cached between operations (``POOL_REPEATS``), every one
    fresh.  Every operation's output is checked; a wrong output is a
    failed operation.  ``MIN_ITERATIONS`` calls measure both kinds.
    ``PROBE_DURING`` says whether the host is probed while the step runs
    (``hostspeed.py``).
``traced(recorder)``
    The operation once untraced and once through the layers' public
    functions with spans around them, in alternating order; returns
    both wall times and the per-layer metrics of :data:`PER_LAYER`.
``inputs()``
    The input properties later optimisations depend on (spill-tick
    share, registry-hit share, MPC decisions per run).
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import inputs
from serving import ServerProcess, send_run
from spans import Recorder

from repro import api
from repro.checks.golden import load_golden, load_manifest
from repro.cluster.metrics import SimulationResult
from repro.cluster.simulation import ClusterSimulation
from repro.core.policies import make_scheduler
from repro.live import (DEFAULT_DECISION_EVERY, LiveRunner, MPCController,
                        make_feed)
from repro.obs.telemetry import Telemetry
from repro.perf import runner as perf_runner
from repro.perf.cache import TraceCache, clear_shared_cache, shared_trace
from repro.perf.runner import ExperimentRunner, RunSpec, execute_spec
from repro.serve import registry as serve_registry
from repro.serve.registry import RunRegistry, registry_key
from repro.sim.engine import Engine
from repro.workloads.workload import COLD_INDICES, HOT_INDICES

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: (name, unit, meaning) of every per-layer metric a traced run prints.
#: Times are per operation (one sweep, compare, live run; for
#: serve-runs one replayed registry-miss request) unless stated.
PER_LAYER = [
    ("kernel.spill_tick_pct", "%", "share of planned VMT-TA ticks whose "
     "demand overflows a group (spill replay)"),
    ("kernel.runs.planned", "count", "runs on the planned kernel"),
    ("kernel.runs.stepped", "count", "runs on the stepped kernel"),
    ("kernel.runs.reference", "count", "runs on the reference event loop"),
    ("kernel.plan_s", "s", "planned-kernel placement (closed form + "
     "spill replay)"),
    ("kernel.fused_step_s", "s", "planned-kernel fused physics"),
    ("kernel.metrics_write_s", "s", "planned-kernel metric columns"),
    ("kernel.dispatch_s", "s", "kernel dispatch outside the kernels "
     "proper"),
    ("core.placement_s", "s", "per-tick scheduler placement"),
] + [
    (f"core.placement_us_per_tick.{policy}", "us",
     f"{policy} placement (per-tick or planned) per tick")
    for policy in inputs.POLICIES
] + [
    ("thermal.air_s", "s", "air-node model"),
    ("thermal.pcm_s", "s", "PCM enthalpy model"),
    ("thermal.estimator_s", "s", "wax-state estimator"),
    ("cluster.metrics_s", "s", "per-tick metric recording"),
    ("cluster.setup_s", "s", "ClusterSimulation construction"),
    ("cluster.unattributed_s", "s", "ClusterSimulation.run time outside "
     "every profiled section"),
    ("sim.events_dispatched", "count", "event-engine dispatches"),
    ("sim.ticks", "count", "ticks driven through the event engine"),
    ("trace.misses", "count", "trace-cache misses"),
    ("trace.build_s", "s", "trace builds on a cache miss"),
    ("trace.hit_ratio", "ratio", "trace-cache hits / lookups"),
    ("runner.runs", "count", "runs dispatched by the experiment runner"),
    ("runner.dispatch_s", "s", "runner self time (spec to simulation)"),
    ("telemetry.spans", "count", "spans in one served run's JSONL trace"),
    ("telemetry.trace_bytes", "B", "size of one served run's JSONL trace"),
    ("telemetry.overhead_s", "s", "one served run with telemetry minus "
     "without"),
    ("registry.hit_ratio", "ratio", "registry hits / lookups"),
    ("registry.lookup_s", "s", "one RunRegistry.lookup"),
    ("registry.load_s", "s", "one RunRegistry.load (hit)"),
    ("registry.store_s", "s", "one RunRegistry.store (miss)"),
    ("io.result_bytes", "B", "one stored result file"),
    ("result.to_json_s", "s", "one SimulationResult.to_json"),
    ("result.fingerprint_s", "s", "one SimulationResult.fingerprint"),
    ("jobs.queue_wait_s", "s", "served job created -> started"),
    ("jobs.exec_s", "s", "served registry-hit job started -> finished"),
    ("jobs.exec_miss_s", "s", "served registry-miss job started -> "
     "finished"),
    ("http.overhead_s", "s", "registry-hit request latency minus job "
     "lifetime"),
    ("http.overhead_miss_s", "s", "registry-miss request latency minus job "
     "lifetime"),
    ("http.polls_per_request", "count", "status polls per request"),
    ("http.result_bytes", "B", "one result body"),
    ("live.rows", "count", "feed rows ingested"),
    ("live.decisions", "count", "decision boundaries"),
    ("live.gap_pct", "%", "live peak cooling above the batch (oracle) "
     "run's peak"),
    ("mpc.decide_s", "s", "MPCController.decide"),
    ("mpc.shadow_runs", "count", "MPC shadow simulations"),
    ("mpc.share_pct", "%", "mpc.decide_s / live run wall time"),
    ("state.snapshot_s", "s", "ClusterSimulation.snapshot"),
    ("bench.trace_overhead_s", "s", "traced operation minus untraced "
     "operation"),
    ("bench.unattributed_s", "s", "operation time outside every layer "
     "span"),
    ("bench.unattributed_pct", "%", "bench.unattributed_s / operation"),
]


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _timed(fn: Callable[[], Any]):
    began = time.perf_counter()
    value = fn()
    return time.perf_counter() - began, value


class Context:
    """Per-run state shared by ``run.py`` and the workload."""

    def __init__(self, *, root: str, workdir: str, seed: int, size: str,
                 env: Dict[str, str],
                 expect: Optional[Dict[str, str]] = None) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.env = env
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {
            "setup": [], "fresh": [], "cached": []}
        #: Named values for the human-readable report.
        self.report: Dict[str, Any] = {}
        #: Peak RSS of processes other than this one (the server), MiB.
        self.child_rss_mb = 0.0
        #: Called between operations that run in another process, while
        #: it idles; ``hostspeed.HostScale`` probes the host here.
        self.idle: Callable[[], None] = lambda: None

    def attempt(self, label: str, op: Callable[[], Any],
                check: Callable[[Any], Optional[str]]):
        """Run one operation; return ``(seconds, value)`` or ``None``.

        ``check`` returns a problem description or ``None``.  An
        exception or a problem counts the operation as failed.
        """
        try:
            seconds, value = _timed(op)
            problem = check(value)
        except Exception as exc:  # noqa: BLE001 -- counted, reported
            problem = f"{type(exc).__name__}: {exc}"
        self.record(label, problem)
        return None if problem else (seconds, value)

    def record(self, label: str, problem: Optional[str]) -> None:
        """Count one checked operation; a problem makes it a failure."""
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")


def _coldstart(ctx: Context, name: str) -> float:
    """Spawn ``coldstart.py``; seconds until it reports ready."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "coldstart.py"), name,
         str(ctx.seed), ctx.size],
        cwd=ctx.root, env=ctx.env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - began
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready":
        raise RuntimeError(f"cold set-up failed: {err[-400:]!r}")
    return seconds


def spill_tick_pct(config) -> float:
    """Share of VMT-TA ticks whose demand overflows the hot or cold group.

    Computed from the generated trace and the Eq. 1-2 group sizes, the
    same test the planned kernel uses to send a tick to spill replay.
    """
    hot = make_scheduler("vmt-ta", config).sizer.hot_size
    cores = config.server.cores
    counts = shared_trace(config).counts
    hot_tot = counts[:, list(HOT_INDICES)].sum(axis=1)
    cold_tot = counts[:, list(COLD_INDICES)].sum(axis=1)
    spill = ((hot_tot > hot * cores)
             | (cold_tot > (config.num_servers - hot) * cores))
    return 100.0 * float(spill.mean())


# -- tracing helpers --------------------------------------------------------

def _sim_run_probe(recorder: Recorder):
    def probe(sim, *args, **kwargs):
        def finish(result, span):
            span["attrs"].update(
                kernel_path=sim.kernel_path,
                policy=result.scheduler_name.split("(")[0],
                gv=result.config.scheduler.grouping_value,
                ticks=len(result.times_s))
            # A reference-loop run profiles its ticks inside the event
            # loop, so its sections belong under that span.
            loops = [s for s in recorder.spans[span["id"] + 1:]
                     if s["parent"] == span["id"]
                     and s["name"] == "run_until"]
            recorder.add_sections(loops[-1] if loops else span,
                                  result.profile)
        return finish
    return probe


def _engine_probe(engine, *args, **kwargs):
    before = engine.events_dispatched

    def finish(_, span):
        span["attrs"]["events"] = engine.events_dispatched - before
    return finish


def _trace_get_probe(cache, *args, **kwargs):
    before = cache.misses

    def finish(_, span):
        span["attrs"]["miss"] = cache.misses > before
    return finish


def wrap_simulation_layers(recorder: Recorder) -> None:
    """Spans around the layers every workload runs through."""
    recorder.wrap(TraceCache, "get", "perf", "trace.get", _trace_get_probe)
    recorder.wrap(ExperimentRunner, "run", "perf", "runner.run")
    recorder.wrap(perf_runner, "execute_spec", "perf", "execute_spec")
    recorder.wrap(ClusterSimulation, "__init__", "cluster", "setup")
    recorder.wrap(ClusterSimulation, "run", "cluster", "sim.run",
                  _sim_run_probe(recorder))
    recorder.wrap(ClusterSimulation, "snapshot", "state", "snapshot")
    recorder.wrap(Engine, "run_until", "sim", "run_until", _engine_probe)
    recorder.wrap(Engine, "advance_to", "sim", "advance_to", _engine_probe)


def layer_metrics(recorder: Recorder, root: Dict[str, Any],
                  spill_pct_by_gv: Dict[float, float]) -> Dict[str, float]:
    """The kernel/core/thermal/cluster/sim/perf metrics under ``root``."""
    spans = recorder.descendants(root)
    own = recorder.self_times(spans)
    by_id = {span["id"]: span for span in spans}
    out = {name: 0.0 for name, _, _ in PER_LAYER}

    def total(layer: str, name: str) -> float:
        return sum(s["dur"] for s in spans
                   if s["layer"] == layer and s["name"] == name)

    for key, (layer, name) in {
            "kernel.plan_s": ("kernel", "plan"),
            "kernel.fused_step_s": ("kernel", "fused_step"),
            "kernel.metrics_write_s": ("kernel", "metrics_write"),
            "kernel.dispatch_s": ("kernel", "dispatch"),
            "core.placement_s": ("core", "placement"),
            "thermal.air_s": ("thermal", "air"),
            "thermal.pcm_s": ("thermal", "pcm"),
            "thermal.estimator_s": ("thermal", "estimator"),
            "cluster.metrics_s": ("cluster", "metrics"),
            "cluster.setup_s": ("cluster", "setup"),
            "mpc.decide_s": ("live.mpc", "decide"),
            "state.snapshot_s": ("state", "snapshot")}.items():
        out[key] = total(layer, name)

    runs = [s for s in spans if s["name"] == "sim.run"]
    placement: Dict[str, List[float]] = {}
    spill_ticks = planned_ticks = 0.0
    for run in runs:
        path = run["attrs"].get("kernel_path", "reference")
        out[f"kernel.runs.{path}"] += 1
        loops = [s for s in spans
                 if s["parent"] == run["id"] and s["name"] == "run_until"]
        holders = {run["id"]} | {s["id"] for s in loops}
        sections = [s for s in spans if s["parent"] in holders
                    and s["attrs"].get("synthetic")]
        if sections:
            out["cluster.unattributed_s"] += sum(own[i] for i in holders)
            spent = sum(s["dur"] for s in sections
                        if s["name"] in ("placement", "plan"))
            acc = placement.setdefault(run["attrs"]["policy"], [0.0, 0])
            acc[0] += spent
            acc[1] += run["attrs"]["ticks"]
        if path == "planned" and run["attrs"]["policy"] == "vmt-ta":
            ticks = run["attrs"]["ticks"]
            planned_ticks += ticks
            spill_ticks += ticks * spill_pct_by_gv.get(
                run["attrs"]["gv"], 0.0) / 100.0
        if path == "reference":
            out["sim.ticks"] += run["attrs"]["ticks"]
        if _under(run, by_id, "live.mpc"):
            out["mpc.shadow_runs"] += 1
        elif _under(run, by_id, "perf"):
            out["runner.runs"] += 1
    for policy, (spent, ticks) in placement.items():
        if ticks:
            out[f"core.placement_us_per_tick.{policy}"] = spent / ticks * 1e6
    if planned_ticks:
        out["kernel.spill_tick_pct"] = 100.0 * spill_ticks / planned_ticks

    engine = [s for s in spans if s["layer"] == "sim"]
    out["sim.events_dispatched"] = sum(s["attrs"]["events"] for s in engine)
    out["sim.ticks"] += sum(1 for s in engine if s["name"] == "advance_to")

    lookups = [s for s in spans if s["name"] == "trace.get"]
    misses = [s for s in lookups if s["attrs"].get("miss")]
    out["trace.misses"] = len(misses)
    out["trace.build_s"] = sum(s["dur"] for s in misses)
    if lookups:
        out["trace.hit_ratio"] = 1.0 - len(misses) / len(lookups)
    out["runner.dispatch_s"] = sum(
        own[s["id"]] for s in spans
        if s["name"] in ("runner.run", "execute_spec"))
    out["bench.unattributed_s"] = own[root["id"]]
    out["bench.unattributed_pct"] = 100.0 * own[root["id"]] / root["dur"]
    return out


def _under(span, by_id, layer: str) -> bool:
    parent = span["parent"]
    while parent is not None and parent in by_id:
        if by_id[parent]["layer"] == layer:
            return True
        parent = by_id[parent]["parent"]
    return False


def layer_self_times(recorder: Recorder,
                     root: Dict[str, Any]) -> Dict[str, float]:
    """Layer -> self seconds under ``root``; the root's own is ``bench``."""
    spans = recorder.descendants(root)
    own = recorder.self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        table[span["layer"]] = table.get(span["layer"], 0.0) + own[span["id"]]
    return table


# -- in-process workloads ---------------------------------------------------

class _InProcess:
    """Driving shared by the workloads whose operation is one API call."""

    name = ""
    #: Run at least one fresh and one repeated operation.
    MIN_ITERATIONS = 2
    #: Whether nothing is cached between operations: then every one
    #: starts fresh and both end-to-end times are their median.
    POOL_REPEATS = False
    #: The operation runs in this thread: probe the host during it.
    PROBE_DURING = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.pairs = 0

    def setup(self) -> float:
        return _coldstart(self.ctx, self.name)

    def iterate(self, repeat: bool = True) -> None:
        """One operation; with ``repeat``, alternately the same one again.

        A fresh operation starts from an empty trace cache, as the first
        call in a process does; the repeat right after it reuses the
        trace that call built.  With ``POOL_REPEATS`` every operation is
        fresh.
        """
        samples = self.ctx.samples
        kind = ("cached" if repeat and not self.POOL_REPEATS
                and len(samples["cached"]) < len(samples["fresh"])
                else "fresh")
        if kind == "fresh":
            clear_shared_cache()
        done = self.ctx.attempt(f"{self.name} ({kind})", self._op,
                                self._check)
        if done:
            samples[kind].append(done[0])
            self._record(done[1])

    def traced(self, recorder: Recorder) -> Dict[str, Any]:
        """An untraced and a traced operation, in alternating order.

        Alternating which one runs first keeps a host that speeds up or
        slows down during the run from biasing the overhead.
        """
        self.pairs += 1
        if self.pairs % 2:
            baseline = self._untraced_once()
            out = self._traced_op(recorder)
        else:
            out = self._traced_op(recorder)
            baseline = self._untraced_once()
        return {**out, "baseline_s": baseline}

    def _untraced_once(self) -> float:
        """One untraced fresh operation, the traced one's baseline (s)."""
        samples = self.ctx.samples["fresh"]
        count = len(samples)
        self.iterate(repeat=False)
        return samples[-1] if len(samples) > count else 0.0

    def _op(self):
        raise NotImplementedError

    def _check(self, value) -> Optional[str]:
        raise NotImplementedError

    def _record(self, value) -> None:
        """Keep what the human-readable report shows of one output."""

    def _traced_runs(self, recorder: Recorder, build_specs):
        """``ExperimentRunner.run`` over profiled specs, inside spans."""
        clear_shared_cache()
        wrap_simulation_layers(recorder)
        try:
            with recorder.span("bench", f"op:{self.name}") as root:
                results = ExperimentRunner(1).run(build_specs())
        finally:
            recorder.unwrap_all()
        return root, results


class GvSweep(_InProcess):
    """``api.sweep`` over four GVs: spill replay and stepped fallbacks.

    VMT-TA ticks overflow a group on 44% of ticks at GV 14, none at 22
    and 87% at 30, so the planned kernel's spill replay does most of its
    work here; GV 36 (hot group = every server) and the round-robin
    baseline run stepped.
    """

    name = "gv-sweep"
    #: Users pay the trace build once per sweep, so every sweep starts
    #: from an empty trace cache.
    POOL_REPEATS = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.inputs_ = inputs.gv_sweep(ctx.seed, ctx.size)
        self.kwargs = self.inputs_["kwargs"]
        self.want: Optional[np.ndarray] = None
        self.spill: Dict[float, float] = {}
        # At the golden config the GV 22 point is the golden VMT-TA run
        # against the golden round-robin run.
        self.golden_gv22: Optional[float] = None
        if ctx.seed == 7 and ctx.size == "full":
            ta = load_golden("vmt-ta")["cooling_load_w"].max()
            rr = load_golden("round-robin")["cooling_load_w"].max()
            self.golden_gv22 = 1.0 - float(ta) / float(rr)

    def inputs(self) -> Dict[str, Any]:
        n = self.kwargs["num_servers"]
        per_gv = {}
        for gv, config in self.inputs_["configs"].items():
            self.spill[gv] = spill_tick_pct(config)
            hot = make_scheduler("vmt-ta", config).sizer.hot_size
            per_gv[f"{gv:g}"] = {"hot_size": hot,
                                 "planned_eligible": 0 < hot < n,
                                 "spill_tick_pct": round(self.spill[gv], 2)}
        clear_shared_cache()
        return {"vmt-ta runs by GV": per_gv, "round-robin baseline runs": 1}

    def _op(self):
        return api.sweep(**self.kwargs).reductions["vmt-ta"]

    def _check(self, reductions: np.ndarray) -> Optional[str]:
        if self.want is None:
            self.want = reductions
            if self.golden_gv22 is not None:
                got = reductions[
                    list(self.kwargs["grouping_values"]).index(22.0)]
                if got != self.golden_gv22:
                    return (f"GV 22 reduction {got!r} != golden "
                            f"{self.golden_gv22!r}")
        if not np.array_equal(reductions, self.want):
            return f"reductions {reductions} != {self.want}"
        return None

    def _record(self, reductions: np.ndarray) -> None:
        self.ctx.report["vmt-ta peak reduction by GV"] = dict(zip(
            self.kwargs["grouping_values"], reductions.round(6).tolist()))

    def _traced_op(self, recorder: Recorder) -> Dict[str, Any]:
        def specs():
            out = [RunSpec(self.inputs_["baseline"], "round-robin",
                           backend="fast", profile=True)]
            return out + [RunSpec(self.inputs_["configs"][gv], "vmt-ta",
                                  backend="fast", profile=True)
                          for gv in self.kwargs["grouping_values"]]

        root, results = self._traced_runs(recorder, specs)
        self.ctx.record("traced sweep", self._check(np.asarray(
            [r.peak_reduction_vs(results[0]) for r in results[1:]])))
        return {"op_s": root["dur"], "root": root,
                **layer_metrics(recorder, root, self.spill)}


class PolicyCompare(_InProcess):
    """``api.compare`` over all five policies at the golden config.

    Four of five runs take the stepped per-tick loop and VMT-TA spills on
    no tick, so spill-replay work is bypassed here while tick-loop work
    shows; at seed 7 the golden fingerprints make it self-checking.
    """

    name = "policy-compare"

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.inputs_ = inputs.policy_compare(ctx.seed, ctx.size)
        self.kwargs = self.inputs_["kwargs"]
        self.source = "given" if ctx.expect else "first call of the run"
        self.want: Optional[Dict[str, str]] = ctx.expect
        if self.want is None and ctx.seed == 7 and ctx.size == "full":
            self.want = dict(load_manifest()["fingerprints"])
            self.source = "golden manifest"
        self.spill: Dict[float, float] = {}

    def inputs(self) -> Dict[str, Any]:
        self.spill = {22.0: spill_tick_pct(self.inputs_["config"])}
        clear_shared_cache()
        return {"vmt-ta spill_tick_pct": round(self.spill[22.0], 2),
                "expected fingerprints": self.source}

    def _op(self):
        comparison = api.compare(**self.kwargs)
        return {p: r.fingerprint() for p, r in comparison.results.items()}

    def _check(self, fingerprints: Dict[str, str]) -> Optional[str]:
        if self.want is None:
            self.want = fingerprints
        bad = [f"{p}: {fingerprints.get(p)} != {fp}"
               for p, fp in self.want.items() if fingerprints.get(p) != fp]
        return "; ".join(bad) or None

    def _record(self, fingerprints: Dict[str, str]) -> None:
        self.ctx.report["fingerprints"] = fingerprints

    def _traced_op(self, recorder: Recorder) -> Dict[str, Any]:
        policies = self.kwargs["policies"]
        root, results = self._traced_runs(recorder, lambda: [
            RunSpec(self.inputs_["config"], policy, backend="fast",
                    profile=True) for policy in policies])
        self.ctx.record("traced compare", self._check(
            {p: r.fingerprint() for p, r in zip(policies, results)}))
        return {"op_s": root["dur"], "root": root,
                **layer_metrics(recorder, root, self.spill)}


# -- serving ----------------------------------------------------------------

class ServeRuns:
    """20 distinct run requests, each sent twice, to a fresh server.

    The only workload where telemetry, the run registry, ``io`` and HTTP
    do the work: each first send misses the registry (simulate, store),
    each repeat hits it (load, verify).  Served runs carry telemetry, so
    they take the reference event loop and the kernel does little.
    """

    name = "serve-runs"
    #: One round sends every request fresh and repeated.
    MIN_ITERATIONS = 1
    #: Each repeat is served from the registry.
    POOL_REPEATS = False
    #: The server does the work: probe the host between requests.
    PROBE_DURING = False

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        built = inputs.serve_runs(ctx.seed, ctx.size)
        self.requests: List[Dict[str, Any]] = built["requests"]
        self.ticks: int = built["ticks"]
        self.fingerprints: Dict[int, str] = {}
        self.ready: List[ServerProcess] = []
        self.spawned = 0
        self.pairs = 0

    def _spawn(self):
        self.spawned += 1
        server = ServerProcess(
            self.ctx.root,
            os.path.join(self.ctx.workdir, f"serve-{self.spawned}"),
            self.ctx.env)
        return server, server.start()

    def setup(self) -> float:
        """Spawn a server; keep only the newest one for the first round."""
        server, seconds = self._spawn()
        while self.ready:
            self.ready.pop().stop()
        self.ready.append(server)
        return seconds

    def close(self) -> None:
        while self.ready:
            self.ready.pop().stop()

    def inputs(self) -> Dict[str, Any]:
        return {"distinct requests": len(self.requests),
                "sends per request": 2,
                "registry_hit_pct (by construction)": 50.0,
                "ticks per run": self.ticks}

    def _fresh_check(self, index: int):
        def check(reply) -> Optional[str]:
            body = reply["result"]
            if body["cached"] is not False:
                return f"first send came back cached={body['cached']}"
            if body["sim_ticks_executed"] != self.ticks:
                return (f"executed {body['sim_ticks_executed']} ticks, "
                        f"expected {self.ticks}")
            known = self.fingerprints.setdefault(index, body["fingerprint"])
            if body["fingerprint"] != known:
                return f"fingerprint {body['fingerprint']} != {known}"
            return None
        return check

    def _cached_check(self, index: int):
        def check(reply) -> Optional[str]:
            body = reply["result"]
            if body["cached"] is not True or body["sim_ticks_executed"] != 0:
                return (f"repeat not served from the registry (cached="
                        f"{body['cached']}, ticks="
                        f"{body['sim_ticks_executed']})")
            if body["fingerprint"] != self.fingerprints.get(index):
                return (f"repeat fingerprint {body['fingerprint']} != "
                        f"{self.fingerprints.get(index)}")
            return None
        return check

    def iterate(self, replies: Optional[list] = None) -> None:
        """One round on a fresh server: every request, then its repeat."""
        if self.ready:
            server = self.ready.pop()
        else:
            server, seconds = self._spawn()
            self.ctx.samples["setup"].append(seconds)
        try:
            for index, request in enumerate(self.requests):
                for kind, check in (("fresh", self._fresh_check(index)),
                                    ("cached", self._cached_check(index))):
                    done = self.ctx.attempt(
                        f"{kind} {request}",
                        lambda: send_run(server, request), check)
                    self.ctx.idle()
                    if done:
                        self.ctx.samples[kind].append(done[1]["latency_s"])
                        if replies is not None:
                            replies.append((kind, done[1]))
            self.ctx.child_rss_mb = max(self.ctx.child_rss_mb,
                                        server.peak_rss_mb())
        finally:
            server.stop()

    def traced(self, recorder: Recorder) -> Dict[str, Any]:
        """HTTP-side job timing, then the job path replayed in process.

        The served round gives the job records' queue and execution
        times and the HTTP overhead around them.  The server's layers run
        in another process, so their spans come from replaying its run
        job path here, once plain and once traced (in alternating order
        across calls): the difference is the tracing overhead.
        """
        replies: list = []
        self.iterate(replies)
        self.pairs += 1
        if self.pairs % 2:
            baseline = self._replay(Recorder(), "replay-plain")
            traced = self._replay(recorder, "replay-traced", wrap=True)
        else:
            traced = self._replay(recorder, "replay-traced", wrap=True)
            baseline = self._replay(Recorder(), "replay-plain")
        per_miss = [layer_metrics(recorder, root, {})
                    for root in traced["fresh"]]
        out = {name: _median([m[name] for m in per_miss])
               for name, _, _ in PER_LAYER}
        out.update(self._http_metrics(replies))
        out.update(self._registry_metrics(recorder, traced))
        out["telemetry.overhead_s"] = self._telemetry_overhead()
        out["op_s"] = _median([r["dur"] for r in traced["fresh"]])
        out["baseline_s"] = _median([r["dur"] for r in baseline["fresh"]])
        out["root"] = traced["fresh"][len(traced["fresh"]) // 2]
        return out

    @staticmethod
    def _http_metrics(replies) -> Dict[str, float]:
        def pick(kind, fn):
            return _median([fn(r) for k, r in replies if k == kind])

        def exec_s(r):
            return r["record"]["finished_s"] - r["record"]["started_s"]

        def overhead(r):
            rec = r["record"]
            return r["latency_s"] - (rec["finished_s"] - rec["created_s"])

        return {
            "jobs.queue_wait_s": _median(
                [r["record"]["started_s"] - r["record"]["created_s"]
                 for _, r in replies]),
            "jobs.exec_s": pick("cached", exec_s),
            "jobs.exec_miss_s": pick("fresh", exec_s),
            "http.overhead_s": pick("cached", overhead),
            "http.overhead_miss_s": pick("fresh", overhead),
            "http.polls_per_request": statistics.fmean(
                [r["polls"] for _, r in replies]) if replies else 0.0,
            "http.result_bytes": _median(
                [r["result_bytes"] for _, r in replies]),
        }

    def _replay(self, recorder: Recorder, name: str,
                wrap: bool = False) -> Dict[str, Any]:
        """The server's run-job path, in process, one span per call.

        Mirrors ``JobManager._execute_run`` through public functions:
        registry key and lookup; on a miss ``execute_spec`` with the
        job's telemetry bundle, then ``store``; on the repeat ``load``.
        With ``wrap``, spans also cover the calls those make (io, result
        fingerprints, telemetry, simulation) and runs are profiled.
        """
        workdir = tempfile.mkdtemp(prefix=name, dir=self.ctx.workdir)
        registry = RunRegistry(os.path.join(workdir, "registry"))
        if wrap:
            wrap_simulation_layers(recorder)
            recorder.wrap(serve_registry, "save_result", "io",
                          "save_result")
            recorder.wrap(serve_registry, "load_result", "io",
                          "load_result")
            recorder.wrap(SimulationResult, "fingerprint", "result",
                          "fingerprint")
            recorder.wrap(Telemetry, "finish", "obs.telemetry", "finish")
        roots: Dict[str, List[Dict[str, Any]]] = {"fresh": [], "cached": []}
        files: Dict[str, List[int]] = {"spans": [], "trace": [], "result": []}
        try:
            for index, request in enumerate(self.requests):
                config = inputs.serve_config(request)
                label = f"job-{index}"
                job_dir = os.path.join(workdir, label)
                for kind in ("fresh", "cached"):
                    with recorder.span("bench", f"op:{kind}") as root:
                        with recorder.span("serve.registry", "key"):
                            key = registry_key(config, request["policy"])
                        with recorder.span("serve.registry", "lookup"):
                            entry = registry.lookup(key)
                        root["attrs"]["hit"] = entry is not None
                        if entry is None:
                            spec = RunSpec(config, request["policy"],
                                           label=label,
                                           record_heatmaps=True,
                                           telemetry_dir=job_dir,
                                           profile=wrap)
                            with recorder.span("perf", "execute_spec") as run:
                                result = execute_spec(spec)
                            with recorder.span("serve.registry", "store"):
                                entry = registry.store(
                                    key, result, wall_clock_s=run["dur"],
                                    source=label)
                        else:
                            with recorder.span("serve.registry", "load"):
                                result = registry.load(entry)
                        with recorder.span("result", "to_json"):
                            result.to_json()
                    roots[kind].append(root)
                    self._check_replay(kind, index, root, entry)
                with open(os.path.join(job_dir, f"{label}.trace.jsonl"),
                          "rb") as handle:
                    raw = handle.read()
                files["spans"].append(raw.count(b'"kind":"span"'))
                files["trace"].append(len(raw))
                files["result"].append(os.path.getsize(entry.result_path))
        finally:
            recorder.unwrap_all()
            shutil.rmtree(workdir, ignore_errors=True)
        return {**roots, "files": files}

    def _check_replay(self, kind: str, index: int, root, entry) -> None:
        want = self.fingerprints.get(index)
        problem = None
        if root["attrs"]["hit"] != (kind == "cached"):
            problem = f"registry hit={root['attrs']['hit']}"
        elif entry.fingerprint != want:
            problem = f"fingerprint {entry.fingerprint} != {want}"
        self.ctx.record(f"replayed {kind} {self.requests[index]}", problem)

    @staticmethod
    def _registry_metrics(recorder: Recorder,
                          replay: Dict[str, Any]) -> Dict[str, float]:
        roots = replay["fresh"] + replay["cached"]

        def each(layer, name):
            return _median([s["dur"] for root in roots
                            for s in recorder.descendants(root)
                            if s["layer"] == layer and s["name"] == name])

        files = replay["files"]
        return {
            "telemetry.spans": _median(files["spans"]),
            "telemetry.trace_bytes": _median(files["trace"]),
            "registry.hit_ratio": (sum(r["attrs"]["hit"] for r in roots)
                                   / len(roots)),
            "registry.lookup_s": each("serve.registry", "lookup"),
            "registry.load_s": each("serve.registry", "load"),
            "registry.store_s": each("serve.registry", "store"),
            "io.result_bytes": _median(files["result"]),
            "result.to_json_s": each("result", "to_json"),
            "result.fingerprint_s": each("result", "fingerprint"),
        }

    def _telemetry_overhead(self) -> float:
        """Each policy's first request run with and without telemetry."""
        deltas = []
        workdir = tempfile.mkdtemp(prefix="telemetry", dir=self.ctx.workdir)
        try:
            for request in self.requests[:len(inputs.POLICIES)]:
                config = inputs.serve_config(request)
                plain = RunSpec(config, request["policy"],
                                record_heatmaps=True)
                spec = RunSpec(config, request["policy"],
                               record_heatmaps=True,
                               telemetry_dir=os.path.join(
                                   workdir, request["policy"]))
                without, _ = _timed(lambda: execute_spec(plain))
                with_telemetry, _ = _timed(lambda: execute_spec(spec))
                deltas.append(with_telemetry - without)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return _median(deltas)


# -- live control -----------------------------------------------------------

class LiveMpc(_InProcess):
    """A forecaster-driven live run with the MPC shadow racer.

    The only workload on ``Engine.advance_to``, the live buffer and MPC
    snapshot-fork shadow runs.  One batch ``api.run`` of the same config
    is the oracle the live peak is measured against.
    """

    name = "live-mpc"
    #: A live run caches nothing a repeat could reuse.
    POOL_REPEATS = True

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.config = inputs.live_mpc(ctx.seed, ctx.size)["config"]
        self.rows = self.config.trace.num_steps
        self.decisions = math.ceil(self.rows / DEFAULT_DECISION_EVERY)
        self.fingerprint: Optional[str] = None
        self.oracle_peak: Optional[float] = None

    def inputs(self) -> Dict[str, Any]:
        return {"feed rows": self.rows,
                "decision every (ticks)": DEFAULT_DECISION_EVERY,
                "MPC decisions per run": self.decisions}

    def iterate(self, repeat: bool = True) -> None:
        if self.oracle_peak is None:
            done = self.ctx.attempt(
                "oracle batch run",
                lambda: api.run(policy="vmt-ta", config=self.config),
                lambda r: None if len(r.times_s) == self.rows
                else f"{len(r.times_s)} ticks, expected {self.rows}")
            if done:
                self.ctx.report["oracle_batch_s"] = done[0]
                self.oracle_peak = done[1].peak_cooling_load_w
        super().iterate(repeat)

    def _op(self):
        return api.live_run(policy="vmt-ta", config=self.config,
                            feed="replay", forecaster="last-value",
                            mpc=True, mpc_workers=1)

    def _check(self, report) -> Optional[str]:
        if report.steps_ingested != self.rows or \
                len(report.result.times_s) != self.rows:
            return (f"ingested {report.steps_ingested} of {self.rows} rows "
                    f"({len(report.result.times_s)} ticks recorded)")
        if len(report.gv_trail) != self.decisions:
            return (f"{len(report.gv_trail)} decisions, expected "
                    f"{self.decisions}")
        fingerprint = report.result.fingerprint()
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        if fingerprint != self.fingerprint:
            return f"fingerprint {fingerprint} != {self.fingerprint}"
        return None

    def _gap_pct(self, report) -> float:
        if self.oracle_peak is None:
            return 0.0
        return 100.0 * (report.result.peak_cooling_load_w
                        / self.oracle_peak - 1.0)

    def _record(self, report) -> None:
        self.ctx.report["live_gap_pct"] = self._gap_pct(report)

    def _traced_op(self, recorder: Recorder) -> Dict[str, Any]:
        clear_shared_cache()
        controller = MPCController(self.config, max_workers=1)
        wrap_simulation_layers(recorder)
        recorder.wrap(controller, "decide", "live.mpc", "decide")
        try:
            with recorder.span("bench", f"op:{self.name}") as root:
                with recorder.span("live", "feed"):
                    feed = make_feed("replay", self.config)
                with recorder.span("live", "runner"):
                    report = LiveRunner(
                        self.config, "vmt-ta", feed,
                        forecaster="last-value",
                        decision_every=DEFAULT_DECISION_EVERY,
                        mpc=controller).run()
        finally:
            recorder.unwrap_all()
        self.ctx.record("traced live run", self._check(report))
        out = layer_metrics(recorder, root, {})
        out.update({
            "op_s": root["dur"], "root": root,
            "live.rows": report.steps_ingested,
            "live.decisions": len(report.gv_trail),
            "live.gap_pct": self._gap_pct(report),
            "mpc.share_pct": 100.0 * out["mpc.decide_s"] / root["dur"],
        })
        return out


WORKLOADS = {cls.name: cls for cls in (GvSweep, PolicyCompare, ServeRuns,
                                       LiveMpc)}
