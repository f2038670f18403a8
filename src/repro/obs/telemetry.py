"""One run's telemetry bundle: registry + tracer + ledger.

:class:`Telemetry` is what callers hand to the entry points
(``telemetry=`` accepts a directory path or a ``Telemetry`` instance);
the simulation *binds* it once the run's identity is known, drives the
instruments during the run, and *finishes* it afterwards -- flushing the
trace, persisting the metric columns, and writing the ledger manifest.

Per run the telemetry directory gains three files::

    <run_id>.trace.jsonl     structured spans/events (repro.obs.schema)
    <run_id>.metrics.npz     per-tick metric columns (MetricRegistry)
    <run_id>.manifest.json   the auditable run manifest (RunLedger)

A profiled run (``profile=True`` on the simulation) records its
``SimulationResult.profile`` as the manifest's ``profile`` block, so the
two can never disagree.

Telemetry observes; it never mutates simulation state or consumes RNG.
A run with telemetry attached is bit-identical (same
``SimulationResult.fingerprint()``) to the same run without it.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from ..config import SimulationConfig
from ..errors import TelemetryError
from .ledger import RunLedger
from .registry import MetricRegistry
from .tracer import DEFAULT_BUFFER_LIMIT, NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.metrics import SimulationResult

#: Anything the ``telemetry=`` keyword accepts.
TelemetryLike = Union["Telemetry", str, os.PathLike, None]

_RUN_ID_BAD = re.compile(r"[^A-Za-z0-9._-]+")


def sanitize_run_id(label: str) -> str:
    """Turn an arbitrary label into a filesystem-safe run id."""
    cleaned = _RUN_ID_BAD.sub("-", label).strip("-.")
    return cleaned or "run"


def telemetry_directory(value: TelemetryLike) -> Optional[str]:
    """Reduce a ``telemetry=`` argument to its directory (or ``None``).

    Multi-run entry points (sweeps, datacenter studies) cannot share one
    :class:`Telemetry` bundle -- each run writes its own -- so they keep
    only the directory and let every worker build its own bundle there.
    """
    bundle = Telemetry.coerce(value)
    return bundle.directory if bundle is not None else None


class Telemetry:
    """Telemetry for exactly one simulation run.

    Construct with the target directory (created if needed), optionally
    pre-naming the run; the simulation calls :meth:`bind` when the run's
    identity and tick count are known and :meth:`finish` when it ends.
    Reuse across runs is refused -- each run gets its own bundle, which
    is what keeps manifests unambiguous.
    """

    def __init__(self, directory, run_id: Optional[str] = None, *,
                 buffer_limit: int = DEFAULT_BUFFER_LIMIT) -> None:
        self._dir = str(directory)
        os.makedirs(self._dir, exist_ok=True)
        self._requested_run_id = (sanitize_run_id(run_id)
                                  if run_id is not None else None)
        self._buffer_limit = buffer_limit
        self._run_id: Optional[str] = None
        self._policy: Optional[str] = None
        self._registry: Optional[MetricRegistry] = None
        self._tracer = NULL_TRACER
        self._ledger = RunLedger(self._dir)
        self._finished = False
        self._annotations: Dict[str, Any] = {}

    # -- coercion ----------------------------------------------------------

    @classmethod
    def coerce(cls, value: TelemetryLike) -> Optional["Telemetry"]:
        """Normalize the ``telemetry=`` keyword to a bundle (or ``None``)."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, (str, os.PathLike)):
            return cls(value)
        raise TelemetryError(
            f"telemetry must be a directory path or Telemetry, "
            f"got {type(value).__name__}")

    # -- identity ----------------------------------------------------------

    @property
    def directory(self) -> str:
        """The directory this run's artifacts land in."""
        return self._dir

    @property
    def run_id(self) -> Optional[str]:
        """The bound run id (``None`` until :meth:`bind`)."""
        return self._run_id

    @property
    def bound(self) -> bool:
        """Whether a simulation has claimed this bundle."""
        return self._run_id is not None

    @property
    def policy(self) -> Optional[str]:
        """The policy name recorded in the manifest."""
        return self._policy

    # -- components --------------------------------------------------------

    @property
    def registry(self) -> MetricRegistry:
        """The metric registry (available once bound)."""
        if self._registry is None:
            raise TelemetryError("telemetry is not bound to a run yet")
        return self._registry

    @property
    def tracer(self):
        """The span/event tracer (:data:`NULL_TRACER` before bind)."""
        return self._tracer

    # -- file layout -------------------------------------------------------

    def _artifact(self, suffix: str) -> str:
        assert self._run_id is not None
        return os.path.join(self._dir, self._run_id + suffix)

    @property
    def trace_path(self) -> Optional[str]:
        """The JSONL trace path (``None`` before bind)."""
        if self._run_id is None:
            return None
        return self._artifact(".trace.jsonl")

    @property
    def metrics_path(self) -> Optional[str]:
        """The metrics ``.npz`` path (``None`` before bind)."""
        if self._run_id is None:
            return None
        return self._artifact(".metrics.npz")

    @property
    def manifest_path(self) -> Optional[str]:
        """The manifest path (``None`` before bind)."""
        if self._run_id is None:
            return None
        return self._ledger.manifest_path(self._run_id)

    # -- lifecycle ---------------------------------------------------------

    def bind(self, default_run_id: str, *, policy: Optional[str] = None,
             capacity: int = 1024) -> None:
        """Claim the bundle for one run.

        ``default_run_id`` is used when the constructor did not pin one;
        ``capacity`` (the trace's tick count) preallocates the metric
        store; ``policy`` is the canonical scheduler key when the caller
        knows it (sweep machinery does; ad-hoc callers fall back to the
        scheduler name).
        """
        if self._run_id is not None:
            raise TelemetryError(
                f"telemetry is already bound to run {self._run_id!r}; "
                "create one bundle per run")
        if self._finished:
            raise TelemetryError("telemetry bundle was already finished")
        self._run_id = self._requested_run_id or \
            sanitize_run_id(default_run_id)
        self._policy = policy
        self._registry = MetricRegistry(capacity=max(1, capacity))
        self._tracer = Tracer(self._artifact(".trace.jsonl"),
                              buffer_limit=self._buffer_limit)

    def annotate(self, **extra: Any) -> None:
        """Attach extra provenance keys to the run's manifest.

        Used by the sweep machinery to record e.g. the compiled
        scenario's name and canonical SHA-256.  ``None`` values are
        dropped; keys must not collide with the manifest's own schema
        (the ledger validates on write).
        """
        if self._finished:
            raise TelemetryError("telemetry bundle was already finished")
        for key, value in extra.items():
            if value is not None:
                self._annotations[key] = value

    def finish(self, *, config: SimulationConfig, scheduler_name: str,
               result: "SimulationResult", trace_sha256: str,
               wall_clock_s: float,
               checkpoints: Optional[list] = None) -> Dict[str, Any]:
        """Seal the run: flush the trace, save metrics, write the manifest.

        Returns the manifest dict, whose ``profile`` block is
        ``result.profile``.
        """
        if self._run_id is None:
            raise TelemetryError("cannot finish unbound telemetry")
        if self._finished:
            raise TelemetryError("telemetry was already finished")
        self._finished = True
        self._tracer.close()
        files = {"trace": os.path.basename(self._artifact(".trace.jsonl"))}
        if self._registry.num_snapshots > 0:
            self._registry.save_npz(self._artifact(".metrics.npz"))
            files["metrics"] = os.path.basename(
                self._artifact(".metrics.npz"))
        manifest = self._ledger.record(
            run_id=self._run_id,
            scheduler=scheduler_name,
            policy=self._policy or scheduler_name.split("(")[0],
            config=config,
            trace_sha256=trace_sha256,
            result_fingerprint=result.fingerprint(),
            ticks=len(result.times_s),
            wall_clock_s=wall_clock_s,
            files=files,
            profile=result.profile,
            checkpoints=checkpoints,
            extra=self._annotations or None,
        )
        return manifest
