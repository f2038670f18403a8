"""Tests for the parallel experiment engine, trace cache and profiling.

The load-bearing property of the whole ``repro.perf`` package is that
none of it changes a single simulated bit: parallel equals serial,
cached trace equals regenerated trace, profiled equals unprofiled.  The
:meth:`~repro.cluster.metrics.SimulationResult.fingerprint` hash makes
those assertions exact rather than approximate.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.simulation import run_simulation
from repro.config import SimulationConfig, TraceConfig, paper_cluster_config
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.errors import SimulationError
from repro.obs.ledger import read_manifests
from repro.perf import (ExperimentRunner, RunFailure, RunSpec, TraceCache,
                        clear_shared_cache, execute_spec, shared_trace)
from repro.state import list_checkpoints

#: Sections the per-tick driver times ("checks" only under a sanitizer).
STEPPED_SECTIONS = {"placement", "air_model", "pcm", "estimator", "metrics"}

#: Sections the planned kernel times instead.
KERNEL_SECTIONS = {"kernel_plan", "kernel_fused_step",
                   "kernel_metrics_write", "dispatch"}


def tiny_config(seed=11, **overrides):
    config = paper_cluster_config(num_servers=6, grouping_value=22.0,
                                  seed=seed, **overrides)
    return config.replace(trace=TraceConfig(duration_hours=2.0))


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_shared_cache()
    yield
    clear_shared_cache()


class TestRunSpec:
    def test_name_defaults_to_policy_and_identity(self):
        spec = RunSpec(tiny_config(), "vmt-ta")
        assert spec.name == "vmt-ta[servers=6,seed=11]"

    def test_label_wins(self):
        spec = RunSpec(tiny_config(), "vmt-ta", label="headline")
        assert spec.name == "headline"

    def test_specs_are_picklable(self):
        import pickle
        spec = RunSpec(tiny_config(), "vmt-wa", record_heatmaps=True)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestDeterminism:
    def test_parallel_matches_serial_for_every_policy(self):
        """The headline guarantee: 5 policies, pool vs in-process."""
        specs = [RunSpec(tiny_config(), policy)
                 for policy in SCHEDULER_NAMES]
        serial = ExperimentRunner(max_workers=1).run(specs)
        clear_shared_cache()
        parallel = ExperimentRunner(max_workers=2).run(specs)
        for policy, a, b in zip(SCHEDULER_NAMES, serial, parallel):
            assert a.fingerprint() == b.fingerprint(), policy

    def test_runner_matches_direct_run_simulation(self):
        config = tiny_config()
        direct = run_simulation(config, make_scheduler("vmt-ta", config),
                                record_heatmaps=False)
        via_runner = ExperimentRunner(1).run_one(RunSpec(config, "vmt-ta"))
        assert direct.fingerprint() == via_runner.fingerprint()

    def test_results_come_back_in_submission_order(self):
        specs = [RunSpec(tiny_config(seed=seed), "round-robin")
                 for seed in (3, 1, 2)]
        results = ExperimentRunner(2).run(specs)
        assert [r.config.seed for r in results] == [3, 1, 2]

    def test_heatmap_runs_survive_the_pool(self):
        spec = RunSpec(tiny_config(), "vmt-ta", record_heatmaps=True)
        serial = ExperimentRunner(1).run_one(spec)
        parallel = ExperimentRunner(2).run([spec])[0]
        assert serial.temp_heatmap is not None
        assert serial.fingerprint() == parallel.fingerprint()


class TestTraceCache:
    def test_identical_specs_build_the_trace_once(self):
        cache = TraceCache()
        config = tiny_config()
        first = cache.get_for(config)
        again = cache.get_for(config)
        assert first is again
        assert cache.misses == 1 and cache.hits == 1

    def test_different_seed_is_a_different_trace(self):
        cache = TraceCache()
        a = cache.get_for(tiny_config(seed=1))
        b = cache.get_for(tiny_config(seed=2))
        assert cache.misses == 2
        assert any(not np.array_equal(a.demand_at(i), b.demand_at(i))
                   for i in range(a.num_steps))

    def test_gv_does_not_key_the_cache(self):
        """A GV sweep shares one trace across every sweep point."""
        import dataclasses
        cache = TraceCache()
        config = tiny_config()
        for gv in (18.0, 26.0):
            cache.get_for(config.replace(scheduler=dataclasses.replace(
                config.scheduler, grouping_value=gv)))
        assert cache.misses == 1 and cache.hits == 1

    def test_cached_trace_equals_in_simulation_generation(self):
        """The cache replays the exact seeded path ClusterSimulation uses."""
        config = tiny_config()
        with_cache = execute_spec(RunSpec(config, "coolest-first"))
        clear_shared_cache()
        direct = run_simulation(config,
                                make_scheduler("coolest-first", config),
                                record_heatmaps=False)
        assert with_cache.fingerprint() == direct.fingerprint()

    def test_shifted_variants_derive_from_the_cached_base(self):
        config = tiny_config()
        base = shared_trace(config)
        shifted = shared_trace(config, shift_hours=1.0)
        assert shifted is not base
        assert shifted is shared_trace(config, shift_hours=1.0)


class TestProfiler:
    def test_profiling_is_bit_identical(self):
        config = tiny_config()
        plain = execute_spec(RunSpec(config, "vmt-ta"))
        profiled = execute_spec(RunSpec(config, "vmt-ta", profile=True))
        assert plain.fingerprint() == profiled.fingerprint()
        assert plain.profile is None

    def test_profile_covers_every_section(self):
        # A closed-loop run takes the per-tick driver.
        result = execute_spec(RunSpec(tiny_config(), "vmt-wa",
                                      profile=True))
        assert result.profile is not None
        # "checks" only appears when a sanitizer is attached.
        assert set(result.profile) == STEPPED_SECTIONS
        ticks = result.times_s.shape[0]
        for section, timing in result.profile.items():
            assert timing["calls"] == ticks, section
            assert timing["total_s"] > 0.0, section
        # A clean VMT-TA run is planned: one call per kernel stage.
        result = execute_spec(RunSpec(tiny_config(), "vmt-ta",
                                      profile=True))
        assert set(result.profile) == KERNEL_SECTIONS
        for section, timing in result.profile.items():
            assert timing["calls"] == 1, section

    def test_checks_section_times_the_sanitizer(self):
        result = execute_spec(RunSpec(tiny_config(), "vmt-ta",
                                      profile=True, checks="cheap"))
        assert set(result.profile) == STEPPED_SECTIONS | {"checks"}
        ticks = result.times_s.shape[0]
        timing = result.profile["checks"]
        # Placement and state audits are timed separately each tick.
        assert timing["calls"] == 2 * ticks
        assert timing["total_s"] > 0.0

    def test_profile_survives_the_process_pool(self):
        spec = RunSpec(tiny_config(), "vmt-wa", profile=True,
                       checks="cheap")
        result = ExperimentRunner(2).run([spec])[0]
        assert result.profile is not None
        assert set(result.profile) == STEPPED_SECTIONS | {"checks"}

    def test_manifest_profile_block_is_the_result_profile(self, tmp_path):
        spec = RunSpec(tiny_config(), "vmt-wa", profile=True,
                       telemetry_dir=str(tmp_path))
        result = execute_spec(spec)
        (manifest,) = read_manifests(str(tmp_path))
        assert set(result.profile) == STEPPED_SECTIONS
        assert manifest["profile"] == result.profile

    def test_resumed_spec_keeps_its_profile(self, tmp_path):
        # Regression: a resumed spec was profiled only through its
        # telemetry bundle, so without one it came back with None.
        spec = RunSpec(tiny_config(), "vmt-wa", checkpoint_every=30,
                       checkpoint_dir=str(tmp_path))
        straight = execute_spec(spec)
        (directory,) = tmp_path.iterdir()
        for tick, path in list_checkpoints(directory):
            if tick != 30:
                os.remove(path)
        resumed = execute_spec(replace(spec, profile=True))
        assert resumed.fingerprint() == straight.fingerprint()
        assert set(resumed.profile) == STEPPED_SECTIONS
        ticks = straight.times_s.shape[0] - 30
        for section, timing in resumed.profile.items():
            assert timing["calls"] == ticks, section


class TestErrorCapture:
    def failing_spec(self):
        # The scheduler is built inside the worker, so an unknown policy
        # name raises there -- exercising in-worker capture end to end.
        config = SimulationConfig(
            num_servers=2, trace=TraceConfig(duration_hours=2.0), seed=1)
        return RunSpec(config, "no-such-policy", label="doomed")

    def test_failure_names_the_spec(self):
        with pytest.raises(SimulationError, match="doomed"):
            ExperimentRunner(1).run([self.failing_spec()])

    def test_worker_failure_propagates_from_the_pool(self):
        specs = [RunSpec(tiny_config(), "round-robin"),
                 self.failing_spec()]
        with pytest.raises(SimulationError, match="doomed"):
            ExperimentRunner(2).run(specs)

    def test_raise_on_error_false_returns_failures_in_place(self):
        specs = [RunSpec(tiny_config(), "round-robin"),
                 self.failing_spec()]
        outcomes = ExperimentRunner(1).run(specs, raise_on_error=False)
        assert not isinstance(outcomes[0], RunFailure)
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.spec.label == "doomed"
        assert failure.error_type == "ConfigurationError"
        assert "no-such-policy" in failure.message
        assert "ConfigurationError" in failure.traceback_text

    def test_bad_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(0)

    def test_unknown_workers_mode_rejected(self):
        # Retired, but still validated: "process" and "thread" pass.
        ExperimentRunner(2, workers_mode="thread")
        with pytest.raises(SimulationError,
                           match="workers_mode must be one of"):
            ExperimentRunner(2, workers_mode="fiber")

    def test_empty_batch(self):
        assert ExperimentRunner(4).run([]) == []


class TestSweepIntegration:
    def test_gv_sweep_parallel_equals_serial(self):
        from repro.analysis.sweep import gv_sweep
        kwargs = dict(num_servers=6, seed=3)
        serial = gv_sweep([18.0, 22.0], policies=("vmt-ta",), **kwargs)
        clear_shared_cache()
        parallel = gv_sweep([18.0, 22.0], policies=("vmt-ta",),
                            max_workers=2,
                            **kwargs)
        assert np.array_equal(serial.reductions["vmt-ta"],
                              parallel.reductions["vmt-ta"])

    def test_multi_cluster_derives_per_cluster_seeds(self):
        """Regression: clusters used to share the root seed's trace."""
        from repro.cluster.multi import run_datacenter
        config = tiny_config(seed=5)
        result = run_datacenter(config, 2, policy="round-robin")
        a, b = result.cluster_results
        assert a.config.seed == 5 and b.config.seed == 6
        assert not np.array_equal(a.cooling_load_w, b.cooling_load_w)
