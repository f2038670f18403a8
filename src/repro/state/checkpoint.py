"""Checkpoint directories, resume, and the round-trip oracle.

Checkpoints written during a run are named ``checkpoint-NNNNNN.npz``
(tick-keyed, so the latest is the lexicographic maximum) with their
sidecar manifests alongside.  :func:`restore_simulation` rebuilds a
ready-to-run :class:`~repro.cluster.simulation.ClusterSimulation` from a
snapshot in a fresh process; :func:`verify_roundtrip` is the acceptance
oracle, reporting any divergence via the golden harness's
first-divergence formatter.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import CheckpointError
from .snapshot import SimulationSnapshot, load_snapshot

_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d+)\.npz$")


def checkpoint_path(directory: str, tick: int) -> str:
    """The canonical checkpoint filename for ``tick`` in ``directory``."""
    return os.path.join(os.fspath(directory), f"checkpoint-{tick:06d}.npz")


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """All ``(tick, path)`` checkpoints in ``directory``, tick-ascending."""
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        match = _CHECKPOINT_RE.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    return sorted(found)


def latest_checkpoint(directory: str) -> Optional[str]:
    """Path of the highest-tick checkpoint in ``directory``, or ``None``."""
    checkpoints = list_checkpoints(directory)
    return checkpoints[-1][1] if checkpoints else None


def restore_simulation(source: Union[str, SimulationSnapshot], *,
                       telemetry=None, checks: Optional[str] = None,
                       profile: bool = False,
                       backend: Optional[str] = None,
                       checkpoint_every: Optional[int] = None,
                       checkpoint_dir: Optional[str] = None,
                       deadline=None):
    """Rebuild a runnable simulation from a snapshot (path or object).

    The configuration, policy, and trace all come from the snapshot; the
    rebuilt simulation is restored to the captured tick and its
    :meth:`~repro.cluster.simulation.ClusterSimulation.run` continues
    from there.  Pass ``checkpoint_every``/``checkpoint_dir`` to keep
    checkpointing the resumed run, and ``profile=True`` to time its
    remaining ticks.  ``backend`` is retired: validated, and it selects
    nothing.
    """
    # Imported lazily: this package must stay importable from the layers
    # it snapshots without a cycle.
    from ..cluster.simulation import ClusterSimulation
    from ..config import SimulationConfig
    from ..core.policies import make_scheduler
    from ..kernel import check_backend

    check_backend(backend)

    snapshot = (source if isinstance(source, SimulationSnapshot)
                else load_snapshot(source))
    config = SimulationConfig.from_dict(snapshot.config)
    scheduler = make_scheduler(snapshot.policy, config)
    sim = ClusterSimulation(config, scheduler,
                            record_heatmaps=snapshot.record_heatmaps,
                            telemetry=telemetry, checks=checks,
                            profile=profile,
                            checkpoint_every=checkpoint_every,
                            checkpoint_dir=checkpoint_dir,
                            deadline=deadline)
    sim.restore(snapshot)
    return sim


def resume_run(source: Union[str, SimulationSnapshot], *,
               telemetry=None, checks: Optional[str] = None,
               backend: Optional[str] = None,
               checkpoint_every: Optional[int] = None,
               checkpoint_dir: Optional[str] = None,
               deadline=None):
    """Restore from ``source`` and run to completion (the resume path).

    ``backend`` is retired: validated, and it selects nothing.
    """
    from ..kernel import check_backend

    check_backend(backend)
    return restore_simulation(
        source, telemetry=telemetry, checks=checks,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, deadline=deadline).run()


def verify_roundtrip(straight, resumed) -> None:
    """The differential oracle: resumed must equal straight, bit for bit.

    Raises :class:`CheckpointError` locating the first divergence (tick,
    metric, expected vs got -- the golden harness's formatter) when the
    fingerprints differ; returns silently when they match.
    """
    expected_fp = straight.fingerprint()
    got_fp = resumed.fingerprint()
    if expected_fp == got_fp:
        return
    from ..checks.golden import GOLDEN_SERIES, first_divergence

    series = {name: np.asarray(getattr(straight, name))
              for name in GOLDEN_SERIES}
    divergence = first_divergence(resumed.scheduler_name, resumed, series)
    if divergence is not None:
        detail = divergence.report()
    else:
        detail = _off_series_divergence(
            straight, resumed,
            [name for name in straight.FINGERPRINT_FIELDS
             if name not in GOLDEN_SERIES])
    raise CheckpointError(
        "checkpoint round-trip diverged from the straight-through run "
        f"(fingerprint {expected_fp} -> {got_fp}): {detail}")


def _off_series_divergence(straight, resumed, names) -> str:
    """Locate a divergence in ``names``, the fields outside the golden
    scalar series."""
    for name in names:
        expected = getattr(straight, name)
        got = getattr(resumed, name)
        if expected is None and got is None:
            continue
        if expected is None or got is None:
            return (f"field '{name}' present in only one run "
                    f"(straight: {expected is not None}, "
                    f"resumed: {got is not None})")
        expected = np.asarray(expected)
        got = np.asarray(got)
        if expected.shape != got.shape:
            return (f"field '{name}' shapes differ: "
                    f"{expected.shape} vs {got.shape}")
        same = (expected == got) | (np.isnan(expected.astype(np.float64))
                                    & np.isnan(got.astype(np.float64)))
        if not same.all():
            mismatch = ~same
            if mismatch.ndim > 1:
                mismatch = mismatch.reshape(len(mismatch), -1).any(axis=1)
            tick = int(np.argmax(mismatch))
            return f"first divergence in '{name}' at row {tick}"
    return ("scalar series all match; the divergence is in a field "
            "outside the compared set")
