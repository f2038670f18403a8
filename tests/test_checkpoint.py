"""Checkpoint/resume: the bit-identical round-trip differential oracle.

The contract under test: for every policy, with and without faults, a
run that is snapshotted at any tick boundary and resumed -- in this
process or a fresh one -- produces a ``SimulationResult`` whose
``fingerprint()`` equals the straight-through run's.  The negative
tests prove the oracle has teeth: tampering with a single hidden-state
field in a snapshot (the scheduler's rotation counter, its RNG state)
is caught and located by the golden harness's first-divergence
formatter.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.errors import CheckpointError, ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import (cooling_derate, kill_servers,
                                    merge_scenarios, stuck_wax_sensors,
                                    temperature_hazard)
from repro.sim.rng import RngStreams
from repro.state import (SNAPSHOT_SCHEMA_VERSION, checkpoint_path,
                         latest_checkpoint, list_checkpoints,
                         load_snapshot, restore_simulation, resume_run,
                         save_snapshot, snapshot_manifest_path,
                         verify_roundtrip)
from repro.workloads.trace import TwoDayTrace


def _config(num_servers=16, hours=3.0, seed=7):
    cfg = paper_cluster_config(num_servers=num_servers, seed=seed)
    return dataclasses.replace(
        cfg, trace=TraceConfig(duration_hours=hours, step_seconds=60.0))


def _fault_config(**kwargs):
    cfg = _config(**kwargs)
    faults = merge_scenarios(
        kill_servers([1, 3], 0.5, repair_after_hours=1.0),
        stuck_wax_sensors([2], 1.0),
        cooling_derate(0.8, 1.5, restore_after_hours=0.5),
        temperature_hazard(500.0))
    return dataclasses.replace(cfg, faults=faults)


def _run_straight(cfg, policy):
    injector = FaultInjector(cfg) if cfg.faults.enabled else None
    return ClusterSimulation(cfg, make_scheduler(policy, cfg),
                             fault_injector=injector).run()


def _run_checkpointed(cfg, policy, directory, every):
    injector = FaultInjector(cfg) if cfg.faults.enabled else None
    sim = ClusterSimulation(cfg, make_scheduler(policy, cfg),
                            fault_injector=injector,
                            checkpoint_every=every,
                            checkpoint_dir=str(directory))
    return sim, sim.run()


# -- the differential oracle: 5 policies x faults on/off ------------------

@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
@pytest.mark.parametrize("with_faults", [False, True],
                         ids=["clean", "faults"])
def test_roundtrip_all_policies(policy, with_faults, tmp_path):
    """Resume from a mid-run checkpoint; fingerprints must match."""
    cfg = _fault_config() if with_faults else _config()
    straight = _run_straight(cfg, policy)
    sim, full = _run_checkpointed(cfg, policy, tmp_path, every=60)
    # Checkpointing itself must not perturb the physics.
    assert full.fingerprint() == straight.fingerprint()
    for record in sim.checkpoint_records:
        resumed = restore_simulation(record["file"]).run()
        verify_roundtrip(straight, resumed)


@pytest.mark.parametrize("with_faults", [False, True],
                         ids=["clean", "faults"])
def test_roundtrip_tick_zero(with_faults, tmp_path):
    """A snapshot taken before the first tick resumes the whole run."""
    cfg = _fault_config() if with_faults else _config()
    straight = _run_straight(cfg, "vmt-wa")
    injector = FaultInjector(cfg) if with_faults else None
    fresh = ClusterSimulation(cfg, make_scheduler("vmt-wa", cfg),
                              fault_injector=injector)
    snapshot = fresh.snapshot()
    assert snapshot.tick == 0
    path = checkpoint_path(tmp_path, 0)
    save_snapshot(snapshot, path)
    resumed = restore_simulation(path).run()
    verify_roundtrip(straight, resumed)


def test_roundtrip_final_tick(tmp_path):
    """Resuming at the final tick yields the finished result unchanged."""
    cfg = _config()
    straight = _run_straight(cfg, "vmt-ta")
    sim, _ = _run_checkpointed(cfg, "vmt-ta", tmp_path,
                               every=cfg.trace.num_steps)
    (record,) = sim.checkpoint_records
    assert record["tick"] == cfg.trace.num_steps
    resumed = restore_simulation(record["file"]).run()
    verify_roundtrip(straight, resumed)


@pytest.mark.parametrize("policy", ("vmt-ta", "vmt-wa"))
def test_snapshot_with_a_trace_stream_restores(policy, tmp_path):
    """A simulation handed no trace takes it from the trace cache, so it
    creates no ``trace`` RNG stream.  A snapshot written while the
    simulation drew its own trace from that stream carries it, and still
    restores and resumes to the straight run."""
    cfg = _config()
    straight = _run_straight(cfg, policy)
    sim, _ = _run_checkpointed(cfg, policy, tmp_path / "ckpt", every=60)
    snapshot = load_snapshot(sim.checkpoint_records[0]["file"])
    assert "trace" not in snapshot.state["streams"]
    drawn = RngStreams(cfg.seed).stream("trace")
    TwoDayTrace(cfg.trace).generate(cfg.num_servers, cfg.server.cores,
                                    rng=drawn)
    snapshot.state["streams"]["trace"] = drawn.bit_generator.state
    path = checkpoint_path(tmp_path, 60)
    save_snapshot(snapshot, path)
    assert "trace" in load_snapshot(path).state["streams"]
    verify_roundtrip(straight, restore_simulation(path).run())


def test_resume_in_fresh_process(tmp_path):
    """The real crash-recovery story: resume in a separate interpreter."""
    cfg = _config()
    straight = _run_straight(cfg, "vmt-wa")
    sim, _ = _run_checkpointed(cfg, "vmt-wa", tmp_path, every=90)
    path = sim.checkpoint_records[0]["file"]
    script = (
        "import sys; sys.path.insert(0, {src!r})\n"
        "from repro.state import resume_run\n"
        "print(resume_run({path!r}).fingerprint())\n"
    ).format(src=os.path.join(os.path.dirname(__file__), "..", "src"),
             path=path)
    out = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == straight.fingerprint()


# -- the oracle has teeth -------------------------------------------------

def test_oracle_catches_omitted_scheduler_tick(tmp_path):
    """Dropping the scheduler's rotation counter fails the oracle.

    The base scheduler's tick counter feeds the waterfill tie-breaking
    rotation -- exactly the kind of hidden state a naive snapshot would
    omit.  The tick is chosen so the rotation offset does not wrap back
    onto itself (tick % num_servers != 0 after the tamper).
    """
    cfg = _config(hours=26.0)
    straight = _run_straight(cfg, "vmt-wa")
    sim, _ = _run_checkpointed(cfg, "vmt-wa", tmp_path, every=60)
    by_tick = {r["tick"]: r["file"] for r in sim.checkpoint_records}
    snapshot = load_snapshot(by_tick[1260])
    snapshot.state["scheduler"]["tick"] = (
        int(snapshot.state["scheduler"]["tick"]) + 1)
    resumed = restore_simulation(snapshot).run()
    with pytest.raises(CheckpointError) as err:
        verify_roundtrip(straight, resumed)
    message = str(err.value)
    assert "first divergence" in message
    assert "fingerprint" in message
    # The first divergent tick is the resume point itself.
    assert "tick 1260" in message


def test_oracle_catches_omitted_scheduler_rng(tmp_path):
    """Dropping the scheduler's private RNG position fails the oracle."""
    cfg = _config(hours=26.0)
    straight = _run_straight(cfg, "vmt-wa")
    sim, _ = _run_checkpointed(cfg, "vmt-wa", tmp_path, every=1260)
    snapshot = load_snapshot(sim.checkpoint_records[0]["file"])
    rng_state = snapshot.state["scheduler"]["rng"]
    rng_state["state"]["state"] = int(rng_state["state"]["state"]) + 12345
    resumed = restore_simulation(snapshot).run()
    with pytest.raises(CheckpointError, match="first divergence"):
        verify_roundtrip(straight, resumed)


def test_oracle_locates_a_divergence_outside_the_golden_series():
    """Series the goldens do not hold (heatmaps, fault columns) are
    compared too, and the report names the first divergent row."""
    a = _run_straight(_config(), "round-robin")
    heatmap = a.temp_heatmap.copy()
    heatmap[42, 3] += 1.0
    with pytest.raises(CheckpointError,
                       match="first divergence in 'temp_heatmap' at row 42"):
        verify_roundtrip(a, dataclasses.replace(a, temp_heatmap=heatmap))
    with pytest.raises(CheckpointError,
                       match="'melt_heatmap' present in only one run"):
        verify_roundtrip(a, dataclasses.replace(a, melt_heatmap=None))


def test_oracle_passes_silently_on_match():
    cfg = _config()
    a = _run_straight(cfg, "round-robin")
    b = _run_straight(cfg, "round-robin")
    verify_roundtrip(a, b)  # must not raise


# -- snapshot format hardening --------------------------------------------

def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        load_snapshot(str(tmp_path / "nope.npz"))


def test_load_rejects_corrupted_archive(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"this is not a zip archive")
    with pytest.raises(CheckpointError, match="cannot read snapshot"):
        load_snapshot(str(path))


def test_load_rejects_truncated_snapshot(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("round-robin", cfg))
    path = str(tmp_path / "snap.npz")
    save_snapshot(sim.snapshot(), path)
    data = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(data[:len(data) // 2])
    with pytest.raises(CheckpointError, match="cannot read snapshot"):
        load_snapshot(path)


def test_load_rejects_foreign_npz(tmp_path):
    path = str(tmp_path / "foreign.npz")
    np.savez(path, values=np.arange(3))
    with pytest.raises(CheckpointError,
                       match="not a simulation snapshot"):
        load_snapshot(path)


def test_load_rejects_future_schema_version(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("round-robin", cfg))
    snapshot = sim.snapshot()
    snapshot.schema = SNAPSHOT_SCHEMA_VERSION + 1
    path = str(tmp_path / "future.npz")
    save_snapshot(snapshot, path)
    with pytest.raises(CheckpointError) as err:
        load_snapshot(path)
    message = str(err.value)
    assert f"schema version {SNAPSHOT_SCHEMA_VERSION + 1}" in message
    assert f"reads version {SNAPSHOT_SCHEMA_VERSION}" in message


def test_restore_refuses_wrong_config(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg))
    path = str(tmp_path / "snap.npz")
    save_snapshot(sim.snapshot(), path)
    other = _config(hours=1.0, seed=99)
    target = ClusterSimulation(other, make_scheduler("vmt-ta", other))
    with pytest.raises(CheckpointError,
                       match="different configuration"):
        target.restore(load_snapshot(path))


def test_restore_refuses_wrong_policy(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg))
    snapshot = sim.snapshot()
    target = ClusterSimulation(cfg, make_scheduler("vmt-wa", cfg))
    with pytest.raises(CheckpointError, match="policy"):
        target.restore(snapshot)


def test_restore_refuses_used_simulation(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("round-robin", cfg))
    snapshot = sim.snapshot()
    sim.run()
    with pytest.raises(CheckpointError,
                       match="freshly constructed"):
        sim.restore(snapshot)


def test_manifest_sidecar(tmp_path):
    cfg = _config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg))
    path = str(tmp_path / "snap.npz")
    manifest = save_snapshot(sim.snapshot(), path)
    sidecar = snapshot_manifest_path(path)
    assert os.path.exists(sidecar)
    on_disk = json.loads(open(sidecar).read())
    assert on_disk == manifest
    assert on_disk["tick"] == 0
    assert on_disk["policy"] == "vmt-ta"
    assert on_disk["snapshot_file"] == os.path.basename(path)
    import hashlib
    assert on_disk["snapshot_sha256"] == hashlib.sha256(
        open(path, "rb").read()).hexdigest()


def test_snapshot_is_pickle_free(tmp_path):
    """The payload must load with allow_pickle=False (no code execution)."""
    cfg = _fault_config(hours=1.0)
    sim = ClusterSimulation(cfg, make_scheduler("vmt-wa", cfg),
                            fault_injector=FaultInjector(cfg))
    path = str(tmp_path / "snap.npz")
    save_snapshot(sim.snapshot(), path)
    with np.load(path, allow_pickle=False) as data:
        assert "__meta__" in data.files
    with zipfile.ZipFile(path) as zf:
        assert zf.testzip() is None


# -- directory helpers ----------------------------------------------------

def test_checkpoint_directory_helpers(tmp_path):
    assert list_checkpoints(tmp_path) == []
    assert latest_checkpoint(tmp_path) is None
    cfg = _config()
    sim, _ = _run_checkpointed(cfg, "round-robin", tmp_path, every=60)
    ticks = [t for t, _ in list_checkpoints(tmp_path)]
    assert ticks == [60, 120, 180]
    assert latest_checkpoint(tmp_path).endswith("checkpoint-000180.npz")


# -- run ledger lineage ---------------------------------------------------

def test_ledger_records_checkpoint_lineage(tmp_path):
    cfg = _config()
    from repro.obs.telemetry import Telemetry
    telemetry = Telemetry(str(tmp_path / "runs"))
    sim = ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg),
                            telemetry=telemetry,
                            checkpoint_every=60,
                            checkpoint_dir=str(tmp_path / "ckpt"))
    sim.run()
    manifest = json.loads(open(telemetry.manifest_path).read())
    lineage = manifest["checkpoints"]
    assert [entry["tick"] for entry in lineage] == [60, 120, 180]
    for entry in lineage:
        assert os.path.exists(entry["file"])
        assert len(entry["sha256"]) == 64


def test_resumed_telemetry_run_keeps_the_dispatch_count(tmp_path):
    """A snapshot is written after its tick's dispatch is counted, so a
    faulted telemetry run resumed from one ends with the straight run's
    engine state, and records the same dispatch column over the resumed
    ticks."""
    from repro.obs.telemetry import Telemetry
    cfg = dataclasses.replace(
        _config(num_servers=12, hours=4.0),
        faults=kill_servers([3], 1.0, repair_after_hours=1.0))
    straight_telemetry = Telemetry(str(tmp_path / "straight"), "run")
    straight = ClusterSimulation(cfg, make_scheduler("vmt-wa", cfg),
                                 telemetry=straight_telemetry,
                                 checkpoint_every=120,
                                 checkpoint_dir=str(tmp_path / "ckpt"))
    expected = straight.run()
    resumed_telemetry = Telemetry(str(tmp_path / "resumed"), "run")
    resumed = restore_simulation(
        checkpoint_path(str(tmp_path / "ckpt"), 120),
        telemetry=resumed_telemetry)
    assert resumed.run().fingerprint() == expected.fingerprint()
    assert (resumed.engine.events_dispatched
            == straight.engine.events_dispatched)
    assert resumed.engine.now == straight.engine.now
    assert resumed.engine.pending_events == straight.engine.pending_events
    column = "engine.events_dispatched"
    with np.load(straight_telemetry.metrics_path) as full, \
            np.load(resumed_telemetry.metrics_path) as tail:
        np.testing.assert_array_equal(tail[column], full[column][120:])


# -- api facade -----------------------------------------------------------

def test_api_run_checkpoint_and_resume(tmp_path):
    from repro import api
    straight = api.run(policy="vmt-ta", config=_config())
    api.run(policy="vmt-ta", config=_config(),
            checkpoint_every=90, checkpoint_dir=str(tmp_path))
    resumed = api.run(resume_from=latest_checkpoint(tmp_path))
    assert resumed.fingerprint() == straight.fingerprint()


def test_api_resume_rejects_conflicting_arguments(tmp_path):
    from repro import api
    api.run(policy="vmt-ta", config=_config(),
            checkpoint_every=90, checkpoint_dir=str(tmp_path))
    path = latest_checkpoint(tmp_path)
    with pytest.raises(ConfigurationError, match="shortcut"):
        api.run(resume_from=path, num_servers=5)
    with pytest.raises(ConfigurationError, match="config"):
        api.run(resume_from=path, config=_config())
    with pytest.raises(ConfigurationError, match="policy"):
        api.run(resume_from=path, policy="vmt-wa")
    with pytest.raises(ConfigurationError, match="policy"):
        api.run()


# -- crash-recoverable sweeps ---------------------------------------------

def test_runner_spec_resumes_from_latest_checkpoint(tmp_path):
    """A killed sweep spec picks up from its own checkpoint subdir."""
    from repro.perf.runner import ExperimentRunner, RunSpec, execute_spec
    cfg = _config(hours=4.0)
    straight = ExperimentRunner(1).run_one(RunSpec(cfg, "vmt-ta"))
    spec = RunSpec(cfg, "vmt-ta", checkpoint_every=60,
                   checkpoint_dir=str(tmp_path))
    full = execute_spec(spec)
    assert full.fingerprint() == straight.fingerprint()
    subdir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    # Simulate the crash: drop the tail checkpoints so the latest is
    # mid-run, then retry the identical spec.
    checkpoints = list_checkpoints(subdir)
    assert [t for t, _ in checkpoints] == [60, 120, 180, 240]
    for _, path in checkpoints[2:]:
        os.remove(path)
    resumed = execute_spec(spec)
    assert resumed.fingerprint() == straight.fingerprint()


def test_runner_ignores_stale_checkpoint_from_other_config(tmp_path):
    """An edited sweep must not resume into the old experiment."""
    from repro.perf.runner import ExperimentRunner, RunSpec, execute_spec
    cfg = _config(hours=4.0)
    spec = RunSpec(cfg, "vmt-ta", label="point",
                   checkpoint_every=60, checkpoint_dir=str(tmp_path))
    execute_spec(spec)
    edited = _config(hours=4.0, seed=99)
    edited_spec = RunSpec(edited, "vmt-ta", label="point",
                          checkpoint_every=60,
                          checkpoint_dir=str(tmp_path))
    straight = ExperimentRunner(1).run_one(RunSpec(edited, "vmt-ta"))
    resumed = execute_spec(edited_spec)
    assert resumed.fingerprint() == straight.fingerprint()


def test_runner_skips_corrupted_checkpoint(tmp_path):
    """A half-written checkpoint falls back to the previous one."""
    from repro.perf.runner import execute_spec, RunSpec, ExperimentRunner
    cfg = _config(hours=4.0)
    straight = ExperimentRunner(1).run_one(RunSpec(cfg, "vmt-ta"))
    spec = RunSpec(cfg, "vmt-ta", checkpoint_every=60,
                   checkpoint_dir=str(tmp_path))
    execute_spec(spec)
    subdir = os.path.join(str(tmp_path), os.listdir(str(tmp_path))[0])
    _, last = list_checkpoints(subdir)[-1]
    data = open(last, "rb").read()
    with open(last, "wb") as fh:
        fh.write(data[:100])
    resumed = execute_spec(spec)
    assert resumed.fingerprint() == straight.fingerprint()


# -- constructor validation -----------------------------------------------

def test_checkpoint_every_requires_directory():
    cfg = _config(hours=1.0)
    from repro.errors import SimulationError
    with pytest.raises(SimulationError, match="checkpoint_dir"):
        ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg),
                          checkpoint_every=10)
    with pytest.raises(SimulationError, match="positive"):
        ClusterSimulation(cfg, make_scheduler("vmt-ta", cfg),
                          checkpoint_every=0, checkpoint_dir="/tmp/x")
