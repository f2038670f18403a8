"""Async job execution behind the HTTP endpoints.

The server never simulates inside a request handler: every ``POST``
validates its payload, persists a :class:`JobRecord`, and enqueues the
work on a thread pool -- the response is an immediate ``202`` with the
job id.  Clients then poll ``GET /v1/runs/{id}`` or subscribe to the
SSE stream.

Three properties the manager guarantees:

* **Registry first.**  A run job computes its content address
  (:func:`repro.serve.registry.registry_key`) and asks the
  :class:`~repro.serve.registry.RunRegistry` before simulating.  A hit
  costs zero simulation ticks and is *labeled* as such: the record
  carries ``cached: true`` plus the originating ledger manifest path --
  cached results are never passed off as fresh.
* **Kill-survivable.**  Job records persist to ``<data>/jobs/<id>.json``
  on every state change; :meth:`JobManager.recover` re-enqueues any job
  that was queued or running when the process died.  A run job's
  :class:`~repro.perf.runner.RunSpec` label is its job id, so the
  re-run resumes from its latest compatible checkpoint (PR 5 machinery)
  instead of starting over.
* **No interleaving.**  Each job executes on one worker thread against
  its own config/spec; shared state (the record map, the registry
  entry files) is mutated only under the manager lock or via atomic
  renames.
* **Bounded.**  Every run job carries a wall-clock budget -- the
  request's ``timeout_s`` or the manager's ``default_timeout_s`` --
  enforced by the cooperative :class:`~repro.perf.runner.Deadline`
  checked at tick boundaries, which fires on worker threads (the old
  SIGALRM scheme never did).  A timed-out job fails with a
  ``RunTimeout`` error instead of occupying its worker forever.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .. import api
from ..config import TraceConfig, paper_cluster_config
from ..core.policies import SCHEDULER_NAMES
from ..errors import ConfigurationError
from ..kernel import check_backend
from ..obs.telemetry import sanitize_run_id
from ..perf.runner import RunSpec, execute_spec
from ..scenarios import scenario_names
from .http import HttpError
from .registry import RunRegistry, registry_key

#: Job lifecycle states, in order.
JOB_STATUSES = ("queued", "running", "done", "failed")
#: Job kinds the server accepts.
JOB_KINDS = ("run", "sweep", "suite", "leaderboard", "live")

_CHECK_LEVELS = ("off", "cheap", "full")


def _bad(message: str) -> HttpError:
    return HttpError(400, message)


def _reject_unknown(payload: Dict[str, Any], allowed: Sequence[str],
                    kind: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise _bad(f"unknown {kind} request fields: {', '.join(unknown)} "
                   f"(allowed: {', '.join(sorted(allowed))})")


def _opt_number(payload: Dict[str, Any], key: str, *,
                default: Optional[float] = None,
                minimum: Optional[float] = None) -> Optional[float]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key} must be a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise _bad(f"{key} must be >= {minimum:g}, got {value:g}")
    return value


def _opt_int(payload: Dict[str, Any], key: str, *,
             default: Optional[int] = None,
             minimum: int = 1) -> Optional[int]:
    value = payload.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise _bad(f"{key} must be >= {minimum}, got {value}")
    return value


def _opt_policy_list(payload: Dict[str, Any], key: str = "policies"
                     ) -> Optional[List[str]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise _bad(f"{key} must be a non-empty list of policy names")
    for policy in value:
        _check_policy(policy)
    return list(value)


def _check_policy(policy: Any) -> str:
    if policy not in SCHEDULER_NAMES:
        raise _bad(f"unknown policy {policy!r}; choose from "
                   f"{', '.join(SCHEDULER_NAMES)}")
    return policy


def _check_backend(payload: Dict[str, Any]) -> Optional[str]:
    """The retired ``backend`` field: validated, then never used."""
    backend = payload.get("backend")
    try:
        check_backend(backend)
    except ConfigurationError as exc:
        raise _bad(str(exc))
    return backend


def _check_checks(payload: Dict[str, Any]) -> Optional[str]:
    checks = payload.get("checks")
    if checks is None:
        return None
    if checks not in _CHECK_LEVELS:
        raise _bad(f"checks must be one of {', '.join(_CHECK_LEVELS)}, "
                   f"got {checks!r}")
    return checks


def validate_run_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``POST /v1/runs`` body; 400 on anything off-schema."""
    allowed = ("policy", "num_servers", "gv", "seed", "inlet_stdev_c",
               "wax_threshold", "duration_hours", "backend", "checks",
               "checkpoint_every", "timeout_s")
    _reject_unknown(payload, allowed, "run")
    if "policy" not in payload:
        raise _bad("run request requires a policy")
    return {
        "policy": _check_policy(payload["policy"]),
        "num_servers": _opt_int(payload, "num_servers", default=100),
        "gv": _opt_number(payload, "gv", default=22.0),
        "seed": _opt_int(payload, "seed", default=7, minimum=0),
        "inlet_stdev_c": _opt_number(payload, "inlet_stdev_c",
                                     default=0.0, minimum=0.0),
        "wax_threshold": _opt_number(payload, "wax_threshold",
                                     default=0.98, minimum=0.0),
        "duration_hours": _opt_number(payload, "duration_hours",
                                      minimum=1e-9),
        "backend": _check_backend(payload),
        "checks": _check_checks(payload),
        "checkpoint_every": _opt_int(payload, "checkpoint_every"),
        "timeout_s": _opt_number(payload, "timeout_s", minimum=1e-9),
    }


def validate_sweep_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``POST /v1/sweeps`` body."""
    allowed = ("grouping_values", "policies", "num_servers", "seed",
               "inlet_stdev_c", "wax_threshold", "backend", "checks")
    _reject_unknown(payload, allowed, "sweep")
    values = payload.get("grouping_values")
    if not isinstance(values, list) or not values:
        raise _bad("sweep request requires grouping_values: "
                   "a non-empty list of numbers")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _bad(f"grouping_values entries must be numbers, "
                       f"got {value!r}")
    policies = _opt_policy_list(payload)
    return {
        "grouping_values": [float(v) for v in values],
        "policies": policies if policies is not None
        else ["vmt-ta", "vmt-wa"],
        "num_servers": _opt_int(payload, "num_servers", default=100),
        "seed": _opt_int(payload, "seed", default=7, minimum=0),
        "inlet_stdev_c": _opt_number(payload, "inlet_stdev_c",
                                     default=0.0, minimum=0.0),
        "wax_threshold": _opt_number(payload, "wax_threshold",
                                     default=0.98, minimum=0.0),
        "backend": _check_backend(payload),
        "checks": _check_checks(payload),
    }


def _check_scenarios(payload: Dict[str, Any]) -> Optional[List[str]]:
    scenarios = payload.get("scenarios")
    if scenarios is None:
        return None
    if not isinstance(scenarios, list) or not scenarios:
        raise _bad("scenarios must be a non-empty list of scenario names")
    known = scenario_names()
    for name in scenarios:
        if name not in known:
            raise _bad(f"unknown scenario {name!r}; choose from "
                       f"{', '.join(known)}")
    return list(scenarios)


def validate_suite_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``POST /v1/suites`` (or leaderboard) body."""
    allowed = ("scenarios", "policies", "num_servers", "duration_hours",
               "seed", "checks")
    _reject_unknown(payload, allowed, "suite")
    return {
        "scenarios": _check_scenarios(payload),
        "policies": _opt_policy_list(payload),
        "num_servers": _opt_int(payload, "num_servers"),
        "duration_hours": _opt_number(payload, "duration_hours",
                                      minimum=1e-9),
        "seed": _opt_int(payload, "seed", minimum=0),
        "checks": _check_checks(payload),
    }


def validate_live_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Normalize a ``POST /v1/live`` body."""
    from ..live import FEED_KINDS
    from ..live.forecast import FORECASTER_NAMES
    allowed = ("policy", "num_servers", "gv", "seed", "inlet_stdev_c",
               "wax_threshold", "duration_hours", "feed", "feed_seed",
               "forecaster", "decision_every", "mpc",
               "mpc_horizon_steps", "checks", "timeout_s")
    _reject_unknown(payload, allowed, "live")
    if "policy" not in payload:
        raise _bad("live request requires a policy")
    feed = payload.get("feed", "replay")
    if feed not in FEED_KINDS:
        raise _bad(f"feed must be one of {', '.join(FEED_KINDS)}, "
                   f"got {feed!r}")
    forecaster = payload.get("forecaster", "oracle")
    if forecaster not in FORECASTER_NAMES:
        raise _bad(f"forecaster must be one of "
                   f"{', '.join(FORECASTER_NAMES)}, got {forecaster!r}")
    mpc = payload.get("mpc", False)
    if not isinstance(mpc, bool):
        raise _bad(f"mpc must be a boolean, got {mpc!r}")
    return {
        "policy": _check_policy(payload["policy"]),
        "num_servers": _opt_int(payload, "num_servers", default=100),
        "gv": _opt_number(payload, "gv", default=22.0),
        "seed": _opt_int(payload, "seed", default=7, minimum=0),
        "inlet_stdev_c": _opt_number(payload, "inlet_stdev_c",
                                     default=0.0, minimum=0.0),
        "wax_threshold": _opt_number(payload, "wax_threshold",
                                     default=0.98, minimum=0.0),
        "duration_hours": _opt_number(payload, "duration_hours",
                                      minimum=1e-9),
        "feed": feed,
        "feed_seed": _opt_int(payload, "feed_seed", minimum=0),
        "forecaster": forecaster,
        "decision_every": _opt_int(payload, "decision_every",
                                   default=60),
        "mpc": mpc,
        "mpc_horizon_steps": _opt_int(payload, "mpc_horizon_steps",
                                      default=60),
        "checks": _check_checks(payload),
        "timeout_s": _opt_number(payload, "timeout_s", minimum=1e-9),
    }


@dataclass
class JobRecord:
    """One submitted job: request, lifecycle, provenance, result."""

    job_id: str
    kind: str
    request: Dict[str, Any]
    status: str = "queued"
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Registry provenance -- ``True`` means the result came from the
    #: run registry at zero simulation cost; ``manifest`` then points at
    #: the originating ledger manifest.  ``None`` until the job settles
    #: (and for kinds without per-run registry backing).
    cached: Optional[bool] = None
    sim_ticks_executed: Optional[int] = None
    fingerprint: Optional[str] = None
    registry_key: Optional[str] = None
    manifest: Optional[str] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    def to_json(self, *, include_result: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": "repro.job/1",
            "id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "request": self.request,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "cached": self.cached,
            "sim_ticks_executed": self.sim_ticks_executed,
            "fingerprint": self.fingerprint,
            "registry_key": self.registry_key,
            "manifest": self.manifest,
            "error": self.error,
            "has_result": self.result is not None,
        }
        if include_result:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "JobRecord":
        return cls(job_id=payload["id"], kind=payload["kind"],
                   request=payload["request"], status=payload["status"],
                   created_s=payload["created_s"],
                   started_s=payload.get("started_s"),
                   finished_s=payload.get("finished_s"),
                   cached=payload.get("cached"),
                   sim_ticks_executed=payload.get("sim_ticks_executed"),
                   fingerprint=payload.get("fingerprint"),
                   registry_key=payload.get("registry_key"),
                   manifest=payload.get("manifest"),
                   error=payload.get("error"),
                   result=payload.get("result"))


_VALIDATORS = {
    "run": validate_run_request,
    "sweep": validate_sweep_request,
    "suite": validate_suite_request,
    "leaderboard": validate_suite_request,
    "live": validate_live_request,
}


class JobManager:
    """Validates, persists, executes, and recovers server jobs."""

    #: Default per-job wall-clock budget (seconds).  Generous enough for
    #: paper-scale runs on the per-tick driver, but finite: a wedged
    #: job must release its worker thread eventually.
    DEFAULT_TIMEOUT_S = 3600.0

    def __init__(self, data_dir, *, max_workers: int = 2,
                 default_timeout_s: Optional[float] = DEFAULT_TIMEOUT_S
                 ) -> None:
        self._data_dir = str(data_dir)
        self._default_timeout_s = (
            None if default_timeout_s is None or default_timeout_s <= 0
            else float(default_timeout_s))
        self._jobs_dir = os.path.join(self._data_dir, "jobs")
        self._checkpoint_dir = os.path.join(self._data_dir, "checkpoints")
        self._leaderboard_dir = os.path.join(self._data_dir, "leaderboard")
        for directory in (self._jobs_dir, self._checkpoint_dir,
                          self._leaderboard_dir):
            os.makedirs(directory, exist_ok=True)
        self._registry = RunRegistry(os.path.join(self._data_dir,
                                                  "registry"))
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-job")

    # -- plumbing ----------------------------------------------------------

    @property
    def data_dir(self) -> str:
        """The server's state root."""
        return self._data_dir

    @property
    def registry(self) -> RunRegistry:
        """The content-addressed run registry."""
        return self._registry

    def _job_dir(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir, job_id)

    def _record_path(self, job_id: str) -> str:
        return os.path.join(self._jobs_dir, job_id + ".json")

    def _persist(self, record: JobRecord) -> None:
        path = self._record_path(record.job_id)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(record.to_json(include_result=True), handle,
                      sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    def trace_path(self, job_id: str) -> str:
        """Where a fresh run job's JSONL span trace lands (SSE source)."""
        return os.path.join(self._job_dir(job_id),
                            sanitize_run_id(job_id) + ".trace.jsonl")

    # -- submission and lookup ---------------------------------------------

    def submit(self, kind: str, payload: Dict[str, Any]) -> JobRecord:
        """Validate one request and enqueue it; returns the new record.

        Validation failures raise :class:`~repro.serve.http.HttpError`
        (400) *before* anything is persisted -- a malformed request
        leaves no trace on disk.
        """
        if kind not in JOB_KINDS:
            raise _bad(f"unknown job kind {kind!r}")
        request = _VALIDATORS[kind](payload)
        record = JobRecord(job_id=f"job-{uuid.uuid4().hex[:12]}",
                           kind=kind, request=request)
        with self._lock:
            self._records[record.job_id] = record
            self._persist(record)
        self._executor.submit(self._execute, record.job_id)
        return record

    def get(self, job_id: str) -> JobRecord:
        """The record for ``job_id``; 404 when unknown."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise HttpError(404, f"no such job: {job_id}")
        return record

    def list(self) -> List[JobRecord]:
        """Every known record, oldest first."""
        with self._lock:
            records = list(self._records.values())
        return sorted(records, key=lambda r: (r.created_s, r.job_id))

    def recover(self) -> List[str]:
        """Reload persisted jobs; re-enqueue any that never settled.

        A job found ``queued`` or ``running`` was in flight when the
        previous process died.  Re-running it is safe: run jobs hit the
        registry if their result was already stored, and otherwise
        resume from their latest compatible checkpoint because the spec
        label (the job id) is stable across restarts.
        """
        requeued: List[str] = []
        for name in sorted(os.listdir(self._jobs_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._jobs_dir, name), "r",
                          encoding="utf-8") as handle:
                    record = JobRecord.from_json(json.load(handle))
            except (OSError, KeyError, json.JSONDecodeError):
                continue
            with self._lock:
                if record.job_id in self._records:
                    continue
                if record.status in ("queued", "running"):
                    record.status = "queued"
                    record.started_s = None
                    requeued.append(record.job_id)
                self._records[record.job_id] = record
                self._persist(record)
        for job_id in requeued:
            self._executor.submit(self._execute, job_id)
        return requeued

    def close(self) -> None:
        """Drop queued jobs and wait for running ones to settle.

        Waiting matters for in-process restarts (tests, embedding): a
        worker thread left running past ``close()`` would race a revived
        manager re-executing the same job against the same telemetry and
        registry paths.  Python cannot kill a thread anyway -- the
        interpreter would join it at exit regardless.
        """
        self._executor.shutdown(wait=True, cancel_futures=True)

    # -- execution ---------------------------------------------------------

    def _transition(self, record: JobRecord, status: str,
                    **updates: Any) -> None:
        with self._lock:
            record.status = status
            for key, value in updates.items():
                setattr(record, key, value)
            self._persist(record)

    def _execute(self, job_id: str) -> None:
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.status != "queued":
                return
        self._transition(record, "running", started_s=time.time())
        try:
            handler = getattr(self, f"_execute_{record.kind}")
            handler(record)
            self._transition(record, "done", finished_s=time.time())
        except Exception as exc:  # noqa: BLE001 -- job boundary
            self._transition(record, "failed", finished_s=time.time(),
                             error=f"{type(exc).__name__}: {exc}")

    def _run_config(self, request: Dict[str, Any]):
        config = paper_cluster_config(
            num_servers=request["num_servers"],
            grouping_value=request["gv"],
            seed=request["seed"],
            inlet_stdev_c=request["inlet_stdev_c"],
            wax_threshold=request["wax_threshold"])
        if request.get("duration_hours") is not None:
            config = config.replace(
                trace=TraceConfig(duration_hours=request["duration_hours"]))
        return config

    def _execute_run(self, record: JobRecord) -> None:
        request = record.request
        config = self._run_config(request)
        key = registry_key(config, request["policy"])
        with self._lock:
            record.registry_key = key.digest
            self._persist(record)

        entry = self._registry.lookup(key)
        if entry is not None:
            result = self._registry.load(entry)
            with self._lock:
                record.cached = True
                record.sim_ticks_executed = 0
                record.fingerprint = entry.fingerprint
                record.manifest = entry.manifest_path
                record.result = result.to_json()
                self._persist(record)
            return

        job_dir = self._job_dir(record.job_id)
        os.makedirs(job_dir, exist_ok=True)
        checkpoint_every = request.get("checkpoint_every")
        # record_heatmaps matches the api.run default: the heatmap
        # series participate in the fingerprint, and the acceptance
        # contract is bit-identity with a direct api.run call.
        timeout_s = request.get("timeout_s")
        if timeout_s is None:
            timeout_s = self._default_timeout_s
        spec = RunSpec(
            config, request["policy"], label=record.job_id,
            record_heatmaps=True, telemetry_dir=job_dir,
            checks=request.get("checks"),
            checkpoint_every=checkpoint_every,
            checkpoint_dir=self._checkpoint_dir
            if checkpoint_every is not None else None,
            timeout_s=timeout_s)
        start = time.perf_counter()
        result = execute_spec(spec)
        wall_clock_s = time.perf_counter() - start
        stored = self._registry.store(key, result,
                                      wall_clock_s=wall_clock_s,
                                      source=record.job_id)
        with self._lock:
            record.cached = False
            record.sim_ticks_executed = len(result.times_s)
            record.fingerprint = stored.fingerprint
            record.manifest = os.path.join(
                job_dir, sanitize_run_id(record.job_id) + ".manifest.json")
            record.result = result.to_json()
            self._persist(record)

    def _execute_live(self, record: JobRecord) -> None:
        """Stream a live run; SSE tails its telemetry trace as it goes.

        Live results are not registry-backed: they depend on the feed
        and forecaster, not just (config, policy), so caching
        under the batch registry key would conflate the two.
        """
        from ..obs.telemetry import Telemetry
        request = record.request
        config = self._run_config(request)
        job_dir = self._job_dir(record.job_id)
        os.makedirs(job_dir, exist_ok=True)
        telemetry = Telemetry(job_dir, run_id=record.job_id)
        timeout_s = request.get("timeout_s")
        if timeout_s is None:
            timeout_s = self._default_timeout_s
        report = api.live_run(
            policy=request["policy"], config=config,
            feed=request["feed"], feed_seed=request.get("feed_seed"),
            forecaster=request["forecaster"],
            decision_every=request["decision_every"],
            mpc=request["mpc"],
            mpc_horizon_steps=request["mpc_horizon_steps"],
            telemetry=telemetry, checks=request.get("checks"),
            timeout_s=timeout_s)
        with self._lock:
            record.cached = False
            record.sim_ticks_executed = report.steps_ingested
            record.fingerprint = report.result.fingerprint()
            record.manifest = telemetry.manifest_path
            record.result = report.to_json()
            self._persist(record)

    def _execute_sweep(self, record: JobRecord) -> None:
        request = record.request
        sweep = api.sweep(
            grouping_values=request["grouping_values"],
            policies=tuple(request["policies"]),
            num_servers=request["num_servers"], seed=request["seed"],
            inlet_stdev_c=request["inlet_stdev_c"],
            wax_threshold=request["wax_threshold"], max_workers=1,
            checks=request.get("checks"))
        with self._lock:
            record.cached = False
            record.result = sweep.to_json()
            self._persist(record)

    def _suite_report(self, request: Dict[str, Any]):
        scenarios = request.get("scenarios")
        policies = request.get("policies")
        return api.stress(
            scenarios=tuple(scenarios) if scenarios else None,
            policies=tuple(policies) if policies else None,
            num_servers=request.get("num_servers"),
            duration_hours=request.get("duration_hours"),
            seed=request.get("seed"), max_workers=1,
            checks=request.get("checks"))

    def _execute_suite(self, record: JobRecord) -> None:
        report = self._suite_report(record.request)
        with self._lock:
            record.cached = False
            record.result = report.to_json()
            self._persist(record)

    # -- leaderboard -------------------------------------------------------

    def leaderboard_cache_path(self, request: Dict[str, Any]) -> str:
        """The cache file for one validated leaderboard request."""
        import hashlib
        blob = json.dumps(request, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:24]
        return os.path.join(self._leaderboard_dir, digest + ".json")

    def leaderboard_lookup(self, request: Dict[str, Any]
                           ) -> Optional[Dict[str, Any]]:
        """A cached leaderboard for this request, or ``None``."""
        path = self.leaderboard_cache_path(request)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if payload.get("schema") != "repro.leaderboard/1":
            return None
        payload["cached"] = True
        payload["cache_path"] = path
        return payload

    def _execute_leaderboard(self, record: JobRecord) -> None:
        import dataclasses
        report = self._suite_report(record.request)
        board = report.leaderboard()
        payload: Dict[str, Any] = {
            "schema": "repro.leaderboard/1",
            "request": record.request,
            "generated_by": record.job_id,
            "policies_ranked": [entry.policy for entry in board],
            "leaderboard": [entry.to_json() for entry in board],
            "rankings": [dataclasses.asdict(r)
                         for r in report.rankings],
        }
        path = self.leaderboard_cache_path(record.request)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)
        with self._lock:
            record.cached = False
            record.result = dict(payload, cached=False, cache_path=path)
            self._persist(record)
