"""The run registry: content-addressed simulation results on disk.

A simulation is a pure function of (configuration, demand trace,
policy), and every one of those already has a canonical identity: the
config's SHA-256 (:func:`repro.obs.ledger.config_sha256`), the trace's
fingerprint (:meth:`TraceMatrix.fingerprint`), and the policy key.  The
registry hashes those three into one **registry key** and stores each
result exactly once under it:

    <dir>/reg-<key>.result.npz      the full result (repro.io format)
    <dir>/reg-<key>.manifest.json   the originating RunLedger manifest
    <dir>/reg-<key>.entry.json      key components + fingerprint index

A repeated query is then a registry *hit*: the stored result is loaded
back bit-identically (same ``fingerprint()``) at zero simulation cost.
Callers must always surface provenance -- a hit is labeled ``cached``
with the originating manifest path, never presented as a fresh run.

The retired ``backend`` keyword is not part of the key: it selects
nothing, so ``"reference"`` and ``"fast"`` requests share one entry.  An
entry written under the earlier four-component key (which hashed the
backend name too) has a different address, so it reads as a miss and
is re-stored under the three-component one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..cluster.metrics import SimulationResult
from ..config import SimulationConfig
from ..errors import ReproError
from ..io import load_result, save_result
from ..kernel import check_backend
from ..obs.ledger import RunLedger, config_sha256
from ..perf.cache import shared_trace

#: Schema tag for registry entry files.
ENTRY_SCHEMA = "repro.registry-entry/1"


@dataclass(frozen=True)
class RegistryKey:
    """The three components that address one simulation result."""

    config_sha256: str
    trace_sha256: str
    policy: str

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical key components (the address)."""
        blob = json.dumps(
            {"config_sha256": self.config_sha256,
             "trace_sha256": self.trace_sha256,
             "policy": self.policy},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def run_id(self) -> str:
        """The registry's on-disk name for this key."""
        return f"reg-{self.digest[:24]}"


@dataclass(frozen=True)
class RegistryEntry:
    """One stored result: its key, fingerprint, and artifact paths."""

    key: RegistryKey
    fingerprint: str
    ticks: int
    result_path: str
    manifest_path: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": ENTRY_SCHEMA,
            "key": self.key.digest,
            "config_sha256": self.key.config_sha256,
            "trace_sha256": self.key.trace_sha256,
            "policy": self.key.policy,
            "fingerprint": self.fingerprint,
            "ticks": self.ticks,
            "result_file": os.path.basename(self.result_path),
            "manifest_file": os.path.basename(self.manifest_path),
        }


def registry_key(config: SimulationConfig, policy: str,
                 backend: Optional[str] = None) -> RegistryKey:
    """Compute the content address of one (config, policy) run.

    The trace fingerprint comes from the shared trace cache, so keying a
    config whose trace was already built (or is about to be run) costs
    no extra generation.  ``backend`` is retired: validated, and not
    part of the key.
    """
    check_backend(backend)
    trace = shared_trace(config)
    return RegistryKey(config_sha256=config_sha256(config),
                       trace_sha256=trace.fingerprint(),
                       policy=policy)


class RunRegistry:
    """Stores and serves content-addressed results in one directory."""

    def __init__(self, directory) -> None:
        self._dir = str(directory)
        os.makedirs(self._dir, exist_ok=True)
        self._ledger = RunLedger(self._dir)

    @property
    def directory(self) -> str:
        """The registry directory."""
        return self._dir

    def _entry_path(self, key: RegistryKey) -> str:
        return os.path.join(self._dir, key.run_id + ".entry.json")

    def lookup(self, key: RegistryKey) -> Optional[RegistryEntry]:
        """The stored entry for ``key``, or ``None`` on a miss.

        A half-written or inconsistent entry (missing result file, key
        mismatch after a hash-scheme change) reads as a miss, never an
        error: the caller just re-runs and re-stores.
        """
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if (raw.get("schema") != ENTRY_SCHEMA
                or raw.get("key") != key.digest):
            return None
        result_path = os.path.join(self._dir, raw["result_file"])
        manifest_path = os.path.join(self._dir, raw["manifest_file"])
        if not os.path.exists(result_path) \
                or not os.path.exists(manifest_path):
            return None
        return RegistryEntry(key=key, fingerprint=raw["fingerprint"],
                             ticks=int(raw["ticks"]),
                             result_path=result_path,
                             manifest_path=manifest_path)

    def load(self, entry: RegistryEntry) -> SimulationResult:
        """Load a stored result; verifies the recorded fingerprint."""
        result = load_result(entry.result_path)
        rebuilt = result.fingerprint()
        if rebuilt != entry.fingerprint:
            raise ReproError(
                f"registry entry {entry.key.run_id} is corrupt: stored "
                f"fingerprint {entry.fingerprint}, result file hashes "
                f"to {rebuilt}")
        return result

    def store(self, key: RegistryKey, result: SimulationResult, *,
              wall_clock_s: float,
              source: Optional[str] = None) -> RegistryEntry:
        """Persist one result under its key; returns the new entry.

        Write order is result -> manifest -> entry, each atomic, so a
        crash mid-store leaves at worst orphaned artifacts that the
        next store overwrites -- never an entry pointing at nothing.
        Re-storing an existing key is idempotent by construction: the
        content address pins the bits.
        """
        result_path = os.path.join(self._dir, key.run_id + ".result.npz")
        save_result(result, result_path)
        extra: Dict[str, Any] = {"registry_key": key.digest}
        if source is not None:
            extra["source"] = source
        self._ledger.record(
            run_id=key.run_id,
            scheduler=result.scheduler_name,
            policy=key.policy,
            config=result.config,
            trace_sha256=key.trace_sha256,
            result_fingerprint=result.fingerprint(),
            ticks=len(result.times_s),
            wall_clock_s=wall_clock_s,
            files={"result": os.path.basename(result_path)},
            extra=extra,
        )
        entry = RegistryEntry(
            key=key, fingerprint=result.fingerprint(),
            ticks=len(result.times_s), result_path=result_path,
            manifest_path=self._ledger.manifest_path(key.run_id))
        tmp = self._entry_path(key) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(entry.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self._entry_path(key))
        return entry

    def entries(self) -> List[Dict[str, Any]]:
        """Every readable entry's JSON form, sorted by key."""
        out = []
        for name in sorted(os.listdir(self._dir)):
            if not name.endswith(".entry.json"):
                continue
            try:
                with open(os.path.join(self._dir, name), "r",
                          encoding="utf-8") as handle:
                    raw = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            if raw.get("schema") == ENTRY_SCHEMA:
                out.append(raw)
        return out
