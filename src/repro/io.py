"""Saving and loading simulation results.

Sweeps at 1,000-server scale take minutes; analyses of their output
should not require re-running them.  A :class:`SimulationResult` round-
trips through a single ``.npz`` file: the numeric series as arrays, the
configuration as JSON in a metadata entry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from .cluster.metrics import SimulationResult
from .config import SimulationConfig
from .errors import ReproError

#: The array fields every result carries: the first ten of
#: ``SimulationResult.FINGERPRINT_FIELDS``.  The rest may be ``None``
#: and are stored only when present.
_REQUIRED = SimulationResult.FINGERPRINT_FIELDS[:10]

_FORMAT_VERSION = 1


def save_result(result: SimulationResult,
                path: Union[str, Path]) -> Path:
    """Write a result to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    payload = {}
    for field in SimulationResult.FINGERPRINT_FIELDS:
        value = getattr(result, field)
        if field in _REQUIRED or value is not None:
            payload[field] = value
    meta = {
        "format_version": _FORMAT_VERSION,
        "scheduler_name": result.scheduler_name,
        "config": result.config.to_dict(),
    }
    payload["meta_json"] = np.array(json.dumps(meta))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **payload)
    return path


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Read a result previously written by :func:`save_result`."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such result file: {path}")
    with np.load(path, allow_pickle=False) as data:
        try:
            meta = json.loads(str(data["meta_json"]))
        except KeyError:
            raise ReproError(f"{path} is not a repro result file") from None
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ReproError(
                f"{path}: unsupported format version "
                f"{meta.get('format_version')!r}")
        kwargs = {field: (data[field]
                          if field in _REQUIRED or field in data else None)
                  for field in SimulationResult.FINGERPRINT_FIELDS}
    return SimulationResult(
        config=SimulationConfig.from_dict(meta["config"]),
        scheduler_name=meta["scheduler_name"],
        **kwargs,
    )
