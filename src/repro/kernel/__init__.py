"""Runtime-selected fast-path tick kernels.

The reference simulation advances one tick at a time through the event
engine: scheduler placement, air-node relaxation, PCM enthalpy
integration, estimator update, and metrics recording, each as its own
per-tick python call chain.  That is the clearest spelling of the
model -- and, at thousands of ticks per run and thousands of runs per
sweep, the bottleneck.

This package provides a second execution path selected at runtime::

    backend="reference"   the event-engine loop (default)
    backend="fast"        batched kernels, bit-identical output

selected per-simulation (``ClusterSimulation(..., backend=...)``) or
globally via the ``REPRO_BACKEND`` environment variable.  The fast
backend dispatches to the most aggressive kernel whose preconditions the
run satisfies:

* :mod:`.planned` -- batched kernel for every clean open-loop run:
  VMT-TA at any grouping value and round-robin, whose placement never
  reads thermal feedback, so any span of ticks whose rows are known is
  plannable up front -- from tick 0, or from the tick a snapshot
  restored (checkpoint resumes, MPC shadow simulations); a
  checkpointing run in segments that end at each checkpoint tick; and,
  whatever the backend, a live run one decision interval at a time
  (:meth:`~repro.cluster.simulation.ClusterSimulation.advance_stream`);
* :mod:`.stepped` -- the reference tick loop driven directly, without
  the event heap, per-tick re-validation, or dict plumbing (all
  policies, sanitizer, observers);
* the reference engine loop for everything else (fault injection and
  telemetry schedule their own engine events, so they keep the engine).

Every kernel is bit-identical to the reference path: same RNG stream
consumption, same IEEE-754 operation order per element, same recorded
series -- ``SimulationResult.fingerprint()`` is the enforced contract
(see ``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

import os
from typing import Optional

from ..errors import ConfigurationError

#: Valid backend names.
BACKENDS = ("reference", "fast")

#: Environment variable consulted when no explicit backend is given.
BACKEND_ENV = "REPRO_BACKEND"


def resolve_backend(backend: Optional[str]) -> str:
    """Resolve the effective backend for one simulation.

    An explicit ``backend`` wins; ``None`` consults the
    ``REPRO_BACKEND`` environment variable and falls back to
    ``"reference"``.
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV) or "reference"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"backend must be one of {', '.join(BACKENDS)}; "
            f"got {backend!r}")
    return backend


def is_numba_available() -> bool:
    """Whether the optional numba-compiled physics loop is importable."""
    from . import njit
    return njit.HAS_NUMBA


def run_fast(sim) -> Optional["SimulationResult"]:
    """Run ``sim`` through the fastest eligible kernel.

    Returns the finished :class:`~repro.cluster.metrics.SimulationResult`,
    or ``None`` when no kernel applies (fault injection or telemetry
    attached) -- the caller then falls through to the reference engine
    loop, which keeps ``backend="fast"`` safe for *every* run shape.
    """
    from . import planned, stepped
    result = planned.try_run(sim)
    if result is not None:
        sim._kernel_path = "planned"
        return result
    if stepped.eligible(sim):
        sim._kernel_path = "stepped"
        return stepped.run(sim)
    sim._kernel_path = "reference"
    return None
