"""The parallel experiment engine.

Sweeps and multi-cluster studies are sets of *independent* simulations:
each run owns its seed-derived RNG streams, its own cluster state, and
its own metrics.  :class:`ExperimentRunner` exploits that by fanning
:class:`RunSpec` jobs across a :class:`concurrent.futures.ProcessPoolExecutor`
while guaranteeing:

* **determinism** -- results come back in submission order and each job
  is bit-identical to running it serially (worker processes replay the
  exact same seeded construction path);
* **graceful fallback** -- ``max_workers=1``, a single job, or a host
  where process pools are unavailable (restricted environments, missing
  semaphores) all degrade to plain in-process execution;
* **error capture** -- an exception inside any job is caught *in the
  worker*, wrapped in a :class:`RunFailure` naming the failing spec,
  and either re-raised in the parent (default) or returned in-place.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

from ..cluster.metrics import SimulationResult
from ..config import SimulationConfig
from ..errors import SimulationError
from ..workloads.trace import TraceMatrix
from .cache import shared_trace


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation job, as a picklable value.

    The spec carries everything a worker process needs to reconstruct
    the run: the full configuration, the policy *name* (schedulers are
    built inside the worker -- live scheduler objects never cross the
    process boundary), and the trace/measurement flags.
    """

    config: SimulationConfig
    policy: str
    label: str = ""
    record_heatmaps: bool = False
    #: Time shift applied to the trace (multi-cluster stagger), hours.
    trace_shift_hours: float = 0.0
    #: When False the run regenerates its trace in-simulation instead of
    #: using the process-wide cache (bit-identical either way; useful
    #: for cache-bypass comparisons).
    use_trace_cache: bool = True
    #: Time the run's tick sections into ``SimulationResult.profile``.
    profile: bool = False
    #: When set, the worker writes its telemetry bundle (JSONL trace,
    #: metric columns, run manifest) into this directory, keyed by the
    #: spec's name.  A plain string keeps the spec picklable.
    telemetry_dir: Optional[str] = None
    #: Invariant-sanitizer level ("off" | "cheap" | "full"); ``None``
    #: defers to the ``REPRO_CHECKS`` environment variable.  Checks read
    #: ground truth only, so any level yields bit-identical results.
    checks: Optional[str] = None
    #: Write a resumable snapshot every N completed ticks (requires
    #: ``checkpoint_dir``).  Each spec checkpoints into its own
    #: subdirectory keyed by the spec's sanitized name, and a re-run of
    #: the same spec resumes from its latest compatible checkpoint --
    #: this is what makes killed sweeps crash-recoverable.
    checkpoint_every: Optional[int] = None
    #: Root directory for per-spec checkpoint subdirectories.
    checkpoint_dir: Optional[str] = None
    #: Wall-clock budget for this one run, seconds.  Enforced by a
    #: cooperative :class:`Deadline` checked at every tick boundary, so
    #: it fires identically on main threads, worker threads, and worker
    #: processes; a run over budget aborts with :class:`RunTimeout` and
    #: comes back as a :class:`RunFailure` instead of hanging the sweep.
    timeout_s: Optional[float] = None
    #: Scenario provenance: when the spec was compiled from a
    #: :class:`~repro.scenarios.spec.ScenarioSpec`, its name and
    #: canonical SHA-256 land in the run-ledger manifest so any result
    #: row traces back to the exact scenario definition.
    scenario: Optional[str] = None
    scenario_sha256: Optional[str] = None
    #: Retired: validated when the spec runs, and it selects nothing
    #: (every run takes the planned kernel or the per-tick driver).
    backend: Optional[str] = None

    @property
    def name(self) -> str:
        """Human-readable identity used in error messages and reports."""
        if self.label:
            return self.label
        return (f"{self.policy}[servers={self.config.num_servers},"
                f"seed={self.config.seed}]")

    def with_label(self, label: str) -> "RunSpec":
        """Copy of the spec under a different label."""
        return replace(self, label=label)


@dataclass(frozen=True)
class RunFailure:
    """A job that raised, with enough context to debug it."""

    spec: RunSpec
    error_type: str
    message: str
    traceback_text: str = field(repr=False, default="")
    #: How many times the job was attempted before giving up (2 when a
    #: pool crash triggered the bounded serial retry).
    attempts: int = 1

    def raise_(self) -> None:
        """Re-raise as a :class:`SimulationError` naming the spec."""
        raise SimulationError(
            f"run '{self.spec.name}' failed with {self.error_type}: "
            f"{self.message}")


Outcome = Union[SimulationResult, RunFailure]


def collect_cluster_results(outcomes: Sequence[Outcome], *,
                            what: str = "cluster"
                            ) -> List[SimulationResult]:
    """Unwrap runner outcomes, surfacing failures as a readable error.

    A job that fails (in a pool worker, even twice) comes back as a
    :class:`RunFailure` row, not a result -- reading ``.cooling_load_w``
    off it would die with a bare ``AttributeError`` that names nothing.
    Instead, raise a :class:`SimulationError` listing every failed
    index, its policy, and the traceback captured with the failure.
    """
    failures = [(index, outcome) for index, outcome in enumerate(outcomes)
                if isinstance(outcome, RunFailure)]
    if failures:
        lines = []
        for index, failure in failures:
            lines.append(
                f"{what} {index} (policy '{failure.spec.policy}', "
                f"run '{failure.spec.name}') failed after "
                f"{failure.attempts} attempt(s) with "
                f"{failure.error_type}: {failure.message}")
            if failure.traceback_text:
                lines.append(failure.traceback_text.rstrip())
        raise SimulationError(
            f"{len(failures)} of {len(outcomes)} {what} run(s) failed:\n"
            + "\n".join(lines))
    return list(outcomes)  # type: ignore[arg-type]


class RunTimeout(SimulationError):
    """A run exceeded its :attr:`RunSpec.timeout_s` wall-clock budget."""


class Deadline:
    """A cooperative wall-clock budget, checked at tick boundaries.

    The previous implementation rode on ``SIGALRM``, which only fires on
    a process's *main* thread -- so every run executed by a thread pool
    (the serve layer's job workers) silently had no budget at all.  A
    deadline object instead starts a monotonic timer at construction and
    raises :class:`RunTimeout` from :meth:`check`, which the simulation
    calls at the top of every tick (and the batched kernels call between
    stages).  That makes the budget thread-agnostic
    and leaves the run in a clean, resumable state: the abort propagates
    out of the tick like any simulation error, with the engine clock at
    the aborted tick and every checkpoint written so far intact.
    """

    __slots__ = ("_budget_s", "_started_at")

    def __init__(self, budget_s: float) -> None:
        if budget_s <= 0:
            raise SimulationError("deadline budget must be positive")
        self._budget_s = float(budget_s)
        self._started_at = time.monotonic()

    @property
    def budget_s(self) -> float:
        """The wall-clock budget, seconds."""
        return self._budget_s

    def remaining_s(self) -> float:
        """Seconds left before expiry (negative once overdue)."""
        return self._budget_s - (time.monotonic() - self._started_at)

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.remaining_s() <= 0.0

    def check(self) -> None:
        """Raise :class:`RunTimeout` once the budget is spent."""
        if self.expired():
            raise RunTimeout(
                f"exceeded {self._budget_s:g}s wall-clock budget")

    @classmethod
    def of(cls, budget_s: Optional[float]) -> Optional["Deadline"]:
        """A started deadline, or ``None`` for no budget."""
        if budget_s is None or budget_s <= 0:
            return None
        return cls(budget_s)


def _maybe_die_for_test(spec: RunSpec) -> None:
    """Crash-injection hook for the fault-tolerance tests and CI.

    When ``REPRO_KILL_RUN`` names this spec and we are inside a *worker*
    process, SIGKILL ourselves -- an un-catchable death that breaks the
    whole pool, exactly like an OOM kill.  The parent-process guard is
    what lets the bounded serial retry then succeed: the retry runs in
    the parent, where the hook stays inert.
    """
    import multiprocessing
    import os
    target = os.environ.get("REPRO_KILL_RUN")
    if (target and target == spec.name
            and multiprocessing.parent_process() is not None):
        os.kill(os.getpid(), 9)


def execute_spec(spec: RunSpec,
                 trace: Optional[TraceMatrix] = None) -> SimulationResult:
    """Run one spec to completion in the current process.

    This is the single execution path for serial *and* parallel runs --
    workers import and call exactly this function -- which is what makes
    worker-count-independence trivially true.  An explicit ``trace``
    (a routed fleet site's, which no spec can carry across a process
    boundary) replaces the trace cache.
    """
    # Imported here (not at module top) to keep the import graph acyclic:
    # the cluster layer must not depend on the perf layer at import time.
    from ..cluster.simulation import run_simulation
    from ..core.policies import make_scheduler
    from ..kernel import check_backend

    check_backend(spec.backend)
    spec_checkpoint_dir = None
    if spec.checkpoint_dir is not None:
        import os
        from ..obs.telemetry import sanitize_run_id
        spec_checkpoint_dir = os.path.join(spec.checkpoint_dir,
                                           sanitize_run_id(spec.name))
    if trace is None and spec.use_trace_cache:
        trace = shared_trace(spec.config,
                             shift_hours=spec.trace_shift_hours)
    elif trace is None and spec.trace_shift_hours:
        # Cache bypass still honors the stagger: same generation path,
        # just without memoization.
        from ..sim.rng import RngStreams
        from ..workloads.trace import TwoDayTrace
        rng = RngStreams(spec.config.seed).stream("trace")
        trace = TwoDayTrace(spec.config.trace).generate(
            spec.config.num_servers, spec.config.server.cores,
            rng=rng).shifted(spec.trace_shift_hours)
    scheduler = make_scheduler(spec.policy, spec.config)
    telemetry = None
    if spec.telemetry_dir is not None:
        from ..obs.telemetry import Telemetry
        telemetry = Telemetry(spec.telemetry_dir)
        # Bind here (not in the simulation) so the manifest carries the
        # spec's identity: its name as run id, its policy key verbatim.
        telemetry.bind(spec.name, policy=spec.policy,
                       capacity=spec.config.trace.num_steps)
        if spec.scenario is not None:
            telemetry.annotate(scenario=spec.scenario,
                               scenario_sha256=spec.scenario_sha256)
    deadline = Deadline.of(spec.timeout_s)
    if spec_checkpoint_dir is not None:
        resumable = _compatible_checkpoint(spec, spec_checkpoint_dir)
        if resumable is not None:
            from ..state import restore_simulation
            sim = restore_simulation(
                resumable, telemetry=telemetry, checks=spec.checks,
                profile=spec.profile,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_dir=spec_checkpoint_dir,
                deadline=deadline)
            return sim.run()
    return run_simulation(spec.config, scheduler, trace=trace,
                          record_heatmaps=spec.record_heatmaps,
                          profile=spec.profile,
                          telemetry=telemetry,
                          checks=spec.checks,
                          checkpoint_every=spec.checkpoint_every,
                          checkpoint_dir=spec_checkpoint_dir,
                          deadline=deadline)


def _compatible_checkpoint(spec: RunSpec, directory: str):
    """The spec's latest resumable snapshot, or ``None`` to run fresh.

    A checkpoint left behind by a *different* configuration (the sweep
    was edited between the crash and the retry) is ignored rather than
    resumed into the wrong experiment; an unreadable (half-written,
    corrupted) checkpoint likewise falls back to the previous one, then
    to a fresh run.
    """
    from ..errors import CheckpointError
    from ..obs.ledger import config_sha256
    from ..state import list_checkpoints, load_snapshot

    expected_sha = config_sha256(spec.config)
    for _, path in reversed(list_checkpoints(directory)):
        try:
            snapshot = load_snapshot(path)
        except CheckpointError:
            continue
        if (snapshot.policy == spec.policy
                and snapshot.config_sha256 == expected_sha):
            return snapshot
    return None


def _execute_captured(spec: RunSpec,
                      trace: Optional[TraceMatrix] = None) -> Outcome:
    """Worker entry point: never lets an exception escape the job."""
    _maybe_die_for_test(spec)
    try:
        if trace is None:
            # The spec alone: a stand-in for execute_spec may take no more.
            return execute_spec(spec)
        return execute_spec(spec, trace)
    except BaseException as exc:  # noqa: BLE001 -- capture by design
        return RunFailure(spec=spec, error_type=type(exc).__name__,
                          message=str(exc),
                          traceback_text=traceback.format_exc())


#: Values the retired ``workers_mode`` keyword still accepts.
WORKERS_MODES = ("process", "thread")


class ExperimentRunner:
    """Runs batches of :class:`RunSpec` jobs, parallel when it helps.

    Parameters
    ----------
    max_workers:
        Upper bound on workers.  ``1`` forces in-process serial
        execution; ``None`` uses every available core.  The pool is
        created per :meth:`run` call and sized to
        ``min(max_workers, len(specs))``.
    workers_mode:
        Retired: validated against :data:`WORKERS_MODES`, and it selects
        nothing.  Parallel batches always take the process pool; the
        thread pool ``"thread"`` once chose was slower than serial in
        every recorded sweep.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 workers_mode: str = "process") -> None:
        if max_workers is not None and max_workers < 1:
            raise SimulationError("max_workers must be >= 1 (or None)")
        if workers_mode not in WORKERS_MODES:
            raise SimulationError(
                f"workers_mode must be one of {WORKERS_MODES}, "
                f"got {workers_mode!r}")
        self._max_workers = max_workers

    def _worker_count(self, num_jobs: int) -> int:
        import os
        limit = self._max_workers
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, min(limit, num_jobs))

    def run(self, specs: Sequence[RunSpec], *,
            raise_on_error: bool = True) -> List[Outcome]:
        """Execute every spec and return results in submission order.

        With ``raise_on_error`` (the default) the first failing job
        aborts the batch with a :class:`SimulationError` that names the
        failing spec; otherwise failures come back as :class:`RunFailure`
        entries in the result list, positionally aligned with their
        specs.
        """
        specs = list(specs)
        if not specs:
            return []
        workers = self._worker_count(len(specs))
        if workers <= 1:
            outcomes = self._run_serial(specs)
        else:
            outcomes = self._run_pool(specs, workers)
        if raise_on_error:
            for outcome in outcomes:
                if isinstance(outcome, RunFailure):
                    outcome.raise_()
        return outcomes

    def run_one(self, spec: RunSpec) -> SimulationResult:
        """Convenience: execute a single spec in-process."""
        result = self.run([spec])[0]
        assert isinstance(result, SimulationResult)
        return result

    @staticmethod
    def _run_serial(specs: Sequence[RunSpec]) -> List[Outcome]:
        return [_execute_captured(spec) for spec in specs]

    def _run_pool(self, specs: Sequence[RunSpec],
                  workers: int) -> List[Outcome]:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, NotImplementedError):
            # No usable process pool on this host (e.g. missing POSIX
            # semaphores in sandboxes): degrade to serial, same results.
            return self._run_serial(specs)
        outcomes: List[Optional[Outcome]] = [None] * len(specs)
        try:
            with pool:
                futures = [pool.submit(_execute_captured, spec)
                           for spec in specs]
                # Collect in submission order, not completion order, so
                # callers can zip results back onto their specs.  A
                # worker dying hard (segfault, OOM/SIGKILL) breaks the
                # pool and fails every uncollected future; capture those
                # per-future instead of aborting, then retry below.
                for index, future in enumerate(futures):
                    try:
                        outcomes[index] = future.result()
                    except BaseException:  # noqa: BLE001
                        outcomes[index] = None
        except BaseException:  # noqa: BLE001 -- submit/shutdown crashed
            pass
        missing = [i for i, outcome in enumerate(outcomes)
                   if outcome is None]
        if missing:
            # Bounded recovery: exactly one serial retry, in-process, of
            # the jobs the crashed pool never delivered.  A job that
            # fails again comes back as a RunFailure (attempts=2); the
            # batch itself always completes.
            for index in missing:
                retried = _execute_captured(specs[index])
                if isinstance(retried, RunFailure):
                    retried = replace(retried, attempts=2)
                outcomes[index] = retried
        return outcomes  # type: ignore[return-value]
