"""Process-local cache of generated demand traces: the one trace builder.

A run's trace depends only on (trace config, cluster size, cores per
server, seed), none of which change across a GV or wax-threshold sweep.
:class:`TraceCache` builds each distinct trace exactly once and hands
the same :class:`~repro.workloads.trace.TraceMatrix` to every run --
safe because a ``TraceMatrix`` is immutable from the simulation's point
of view (the demand matrix is frozen read-only; accessors hand out
read-only views or copies) -- which also makes sharing one cached trace
across a thread-pool sweep free.

Every run's trace comes from here: :func:`shared_trace` serves the
experiment runner, the run registry, fleet sites, a
:class:`~repro.cluster.simulation.ClusterSimulation` handed no trace and
:meth:`~repro.live.feeds.TraceReplayFeed.from_config`.  A trace is
``TwoDayTrace(trace_config).generate(num_servers, cores,
rng=RngStreams(seed).stream("trace"))``.  Named RNG streams are derived
independently per (seed, name) pair, so building the trace stream
outside the simulation leaves every other stream's sequence untouched.

Time-shifted variants (multi-cluster stagger) are derived from the
cached base trace and cached themselves, keyed by the shift.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..config import SimulationConfig, TraceConfig
from ..sim.rng import RngStreams
from ..workloads.trace import TraceMatrix, TwoDayTrace

#: Cache key: (trace config, num_servers, cores_per_server, seed, shift).
_Key = Tuple[TraceConfig, int, int, Optional[int], float]


class TraceCache:
    """Builds each distinct demand trace once and memoizes it."""

    def __init__(self) -> None:
        self._traces: Dict[_Key, TraceMatrix] = {}
        self._hits = 0
        self._misses = 0
        # Reentrant: the shifted-variant path recurses into get() for
        # its base trace.  Without the lock, a thread-pool sweep's
        # first wave would all miss the empty cache at once and each
        # generate the same trace.
        self._lock = threading.RLock()

    @property
    def hits(self) -> int:
        """Lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that had to generate a trace."""
        return self._misses

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, trace_config: TraceConfig, num_servers: int,
            cores_per_server: int, seed: Optional[int], *,
            shift_hours: float = 0.0) -> TraceMatrix:
        """Return the trace for the key, generating it on first use.

        ``seed`` is the *simulation* seed whose ``"trace"`` RNG stream
        drives the trace noise; ``None`` reproduces the legacy
        rng-less generation (noise seeded from the trace config alone).
        """
        key: _Key = (trace_config, int(num_servers), int(cores_per_server),
                     seed if seed is None else int(seed),
                     float(shift_hours))
        cached = self._traces.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        with self._lock:
            cached = self._traces.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
            if shift_hours:
                base = self.get(trace_config, num_servers,
                                cores_per_server, seed)
                trace = base.shifted(shift_hours)
            else:
                rng = (RngStreams(seed).stream("trace")
                       if seed is not None else None)
                trace = TwoDayTrace(trace_config).generate(
                    num_servers, cores_per_server, rng=rng)
            self._traces[key] = trace
            return trace

    def get_for(self, config: SimulationConfig, *,
                shift_hours: float = 0.0) -> TraceMatrix:
        """Key the lookup off a full :class:`SimulationConfig`."""
        return self.get(config.trace, config.num_servers,
                        config.server.cores, config.seed,
                        shift_hours=shift_hours)

    def clear(self) -> None:
        """Drop every cached trace and reset the hit/miss counters."""
        with self._lock:
            self._traces.clear()
            self._hits = 0
            self._misses = 0


#: The process-wide cache used by the experiment runner.  Worker
#: processes each get their own copy (module state does not cross the
#: process boundary), which is exactly the sharing granularity we want:
#: each worker builds each distinct trace at most once.
_SHARED = TraceCache()


def shared_trace(config: SimulationConfig, *,
                 shift_hours: float = 0.0) -> TraceMatrix:
    """Fetch ``config``'s trace from the process-wide cache."""
    return _SHARED.get_for(config, shift_hours=shift_hours)


def shared_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` (for inspection/tests)."""
    return _SHARED


def clear_shared_cache() -> None:
    """Empty the process-wide cache (tests, memory pressure)."""
    _SHARED.clear()
