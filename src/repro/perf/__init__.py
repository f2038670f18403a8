"""Performance subsystem: parallel experiment engine and profiling.

The paper's evaluation is dominated by embarrassingly-parallel sweeps
(GV sweeps, seed-averaged inlet-variation sweeps, wax-threshold sweeps,
multi-cluster datacenter runs).  This package provides the machinery to
run them at hardware speed without changing a single simulated bit:

* :class:`~repro.perf.runner.RunSpec` / :class:`~repro.perf.runner.ExperimentRunner`
  -- describe independent simulation jobs as picklable values and fan
  them across a process pool, or run them serially in-process, with
  deterministic, submission-ordered results and per-job error capture
  (``RunSpec(profile=True)`` times a run's tick sections into
  ``SimulationResult.profile``);
* :class:`~repro.perf.cache.TraceCache` / :func:`~repro.perf.cache.shared_trace`
  -- build each distinct (trace config, cluster size, seed) demand trace
  exactly once per process and share it across sweep points;
* :func:`~repro.perf.timing.interleaved_best` -- the warm-up +
  interleaved best-of-N discipline every ``BENCH_perf.json`` entry is
  measured under.

Every path through this package is bit-identical to the plain serial
simulation: same seeds, same fingerprints, for every policy.
"""

from .cache import TraceCache, clear_shared_cache, shared_trace
from .runner import ExperimentRunner, RunFailure, RunSpec, execute_spec
from .timing import interleaved_best, time_call

__all__ = [
    "ExperimentRunner",
    "RunFailure",
    "RunSpec",
    "TraceCache",
    "clear_shared_cache",
    "execute_spec",
    "interleaved_best",
    "shared_trace",
    "time_call",
]
