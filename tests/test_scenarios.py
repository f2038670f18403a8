"""Scenario engine: specs, library, verifier teeth, suite resilience.

Covers the four contracts the scenario layer makes:

* **determinism** -- equal specs compile to equal configs and equal run
  fingerprints, and the spec's canonical SHA-256 is stable;
* **compilation semantics** -- demand overlays, ambient profiles, and
  fault scripts land in the config tree exactly as declared, and the
  scenarios-off path stays bit-identical to a plain config;
* **verifier teeth** -- every registered metamorphic check fires on a
  deliberately tampered result (a checker that cannot fail checks
  nothing);
* **fault-tolerant execution** -- a SIGKILLed worker, a hung run, or a
  failing scenario produces structured rows, never an aborted suite.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (AmbientConfig, AmbientEventSpec, DemandEventSpec,
                          FaultConfig, ServerFaultSpec, SimulationConfig,
                          TraceConfig, _ramp_weight)
from repro.errors import ConfigurationError
from repro.faults.scenarios import (cooling_derate, kill_servers,
                                    merge_scenarios, temperature_hazard)
from repro.perf.runner import (ExperimentRunner, RunFailure, RunSpec,
                               RunTimeout)
from repro.scenarios import (SCENARIO_LIBRARY, ScenarioSpec, get_scenario,
                             run_suite, scenario_names, verify_scenario)
from repro.scenarios.spec import _cap_concurrent_downtime
from repro.scenarios.verifier import CHECK_REGISTRY
from repro.workloads.trace import TwoDayTrace, apply_demand_overlay


def tiny_spec(name="tiny", **overrides):
    fields = dict(name=name, num_servers=10, duration_hours=3.0, seed=5)
    fields.update(overrides)
    return ScenarioSpec(**fields)


def run_pair(spec, policy="vmt-ta"):
    runner = ExperimentRunner(max_workers=1)
    result = runner.run_one(RunSpec(config=spec.compile(), policy=policy))
    baseline = runner.run_one(RunSpec(config=spec.baseline(),
                                      policy=policy))
    return result, baseline


class TestDemandOverlay:
    def test_empty_overlay_returns_the_same_array(self):
        util = np.linspace(0.1, 0.9, 50)
        assert apply_demand_overlay(util, util * 0, ()) is util

    def test_surge_raises_only_inside_the_window(self):
        times_h = np.linspace(0.0, 10.0, 200)
        util = np.full_like(times_h, 0.5)
        event = DemandEventSpec(kind="surge", start_hour=4.0,
                                end_hour=6.0, magnitude=1.4,
                                ramp_hours=0.5)
        out = apply_demand_overlay(util, times_h, (event,))
        # full strength inside [start, end]; linear ramps extend half an
        # hour before/after; zero beyond the ramps
        inside = (times_h >= 4.0) & (times_h <= 6.0)
        outside = (times_h <= 3.5) | (times_h >= 6.5)
        assert np.allclose(out[inside], 0.7)
        assert np.allclose(out[outside], 0.5)
        assert np.all(out >= 0.5 - 1e-12)

    def test_curtail_caps_and_never_raises(self):
        times_h = np.linspace(0.0, 10.0, 400)
        util = 0.5 + 0.4 * np.sin(times_h)
        event = DemandEventSpec(kind="curtail", start_hour=2.0,
                                end_hour=8.0, magnitude=0.3,
                                ramp_hours=1.0)
        out = apply_demand_overlay(util, times_h, (event,))
        assert np.all(out <= util + 1e-12)
        fully_on = (times_h >= 2.0) & (times_h <= 8.0)
        assert np.all(out[fully_on] <= 0.3 + 1e-12)

    def test_overlay_output_stays_in_unit_interval(self):
        times_h = np.linspace(0.0, 24.0, 500)
        util = np.clip(0.6 + 0.5 * np.sin(times_h), 0.0, 1.0)
        events = (
            DemandEventSpec(kind="surge", start_hour=1.0, end_hour=23.0,
                            magnitude=3.0),
            DemandEventSpec(kind="curtail", start_hour=5.0,
                            end_hour=9.0, magnitude=0.0),
        )
        out = apply_demand_overlay(util, times_h, events)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_overlay_changes_the_generated_trace(self):
        base = TraceConfig(duration_hours=6.0)
        overlaid = dataclasses.replace(base, overlay=(
            DemandEventSpec(kind="surge", start_hour=1.0, end_hour=5.0,
                            magnitude=1.5),))
        plain = TwoDayTrace(base).generate(8, 32)
        surged = TwoDayTrace(overlaid).generate(8, 32)
        assert surged.utilization().sum() > plain.utilization().sum()

    @given(hour=st.floats(-5.0, 30.0), start=st.floats(0.0, 24.0),
           width=st.floats(0.1, 10.0), ramp=st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_ramp_weight_bounded_and_zero_beyond_ramps(self, hour, start,
                                                       width, ramp):
        weight = _ramp_weight(hour, start, start + width, ramp)
        assert 0.0 <= weight <= 1.0
        if hour <= start - ramp or hour >= start + width + ramp:
            assert weight == 0.0
        if start < hour < start + width:
            assert weight == 1.0


class TestAmbientConfig:
    def test_inactive_by_default(self):
        assert not AmbientConfig().is_active
        assert AmbientConfig().offset_c_at(12 * 3600.0) == 0.0

    def test_diurnal_peaks_at_the_peak_hour(self):
        ambient = AmbientConfig(diurnal_amplitude_c=5.0,
                                diurnal_peak_hour=15.0)
        peak = ambient.offset_c_at(15 * 3600.0)
        trough = ambient.offset_c_at(3 * 3600.0)
        assert peak == pytest.approx(5.0)
        assert trough == pytest.approx(-5.0)

    def test_event_offset_adds_to_diurnal(self):
        ambient = AmbientConfig(
            diurnal_amplitude_c=3.0, diurnal_peak_hour=15.0,
            events=(AmbientEventSpec(start_hour=12.0, end_hour=18.0,
                                     delta_c=8.0, ramp_hours=1.0),))
        assert ambient.offset_c_at(15 * 3600.0) == pytest.approx(11.0)

    def test_config_round_trips_with_ambient_and_overlay(self):
        config = SimulationConfig(
            num_servers=8,
            trace=TraceConfig(duration_hours=4.0, overlay=(
                DemandEventSpec(kind="curtail", start_hour=1.0,
                                end_hour=2.0, magnitude=0.5),)),
            ambient=AmbientConfig(diurnal_amplitude_c=2.0))
        assert SimulationConfig.from_dict(config.to_dict()) == config

    def test_ambient_off_is_bit_identical_to_plain_config(self):
        plain = SimulationConfig(
            num_servers=10, seed=5,
            trace=TraceConfig(duration_hours=3.0))
        explicit = dataclasses.replace(plain, ambient=AmbientConfig())
        runner = ExperimentRunner(max_workers=1)
        a = runner.run_one(RunSpec(config=plain, policy="vmt-ta"))
        b = runner.run_one(RunSpec(config=explicit, policy="vmt-ta"))
        assert a.fingerprint() == b.fingerprint()


class TestScenarioSpec:
    def test_library_has_at_least_eight_scenarios(self):
        assert len(SCENARIO_LIBRARY) >= 8
        assert scenario_names() == list(SCENARIO_LIBRARY)

    def test_every_library_scenario_compiles_and_validates(self):
        for spec in SCENARIO_LIBRARY.values():
            compiled = spec.compile()
            compiled.validate()
            assert spec.checks, spec.name
            for key in spec.checks:
                assert key in CHECK_REGISTRY, (spec.name, key)

    def test_unknown_scenario_is_a_config_error(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_scenario("no-such-thing")

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigurationError, match="kebab-case"):
            ScenarioSpec(name="Not Valid").validate()

    def test_equal_specs_compile_to_equal_configs(self):
        a = tiny_spec(ambient=AmbientConfig(diurnal_amplitude_c=4.0))
        b = tiny_spec(ambient=AmbientConfig(diurnal_amplitude_c=4.0))
        assert a.compile() == b.compile()
        assert a.sha256() == b.sha256()

    def test_sha_changes_when_the_spec_changes(self):
        assert tiny_spec().sha256() != tiny_spec(seed=6).sha256()
        assert tiny_spec().sha256() != tiny_spec(
            demand_events=(DemandEventSpec(kind="surge", start_hour=1.0,
                                           end_hour=2.0,
                                           magnitude=1.2),)).sha256()

    def test_sha_is_canonical_json(self):
        spec = get_scenario("heat-wave")
        canonical = json.dumps(spec.to_dict(), sort_keys=True,
                               separators=(",", ":"), default=str)
        import hashlib
        assert spec.sha256() == hashlib.sha256(
            canonical.encode()).hexdigest()

    def test_same_spec_same_run_fingerprint(self):
        spec = tiny_spec(demand_events=(
            DemandEventSpec(kind="surge", start_hour=1.0, end_hour=2.5,
                            magnitude=1.3),))
        runner = ExperimentRunner(max_workers=1)
        a = runner.run_one(RunSpec(config=spec.compile(),
                                   policy="vmt-wa"))
        b = runner.run_one(RunSpec(config=spec.compile(),
                                   policy="vmt-wa"))
        assert a.fingerprint() == b.fingerprint()

    def test_baseline_strips_every_stress_layer(self):
        spec = get_scenario("heat-wave").with_overrides(
            num_servers=10, duration_hours=3.0)
        baseline = spec.baseline()
        assert not baseline.ambient.is_active
        assert baseline.trace.overlay == ()
        assert not baseline.faults.enabled
        # ... but keeps the cluster identity.
        assert baseline.num_servers == spec.compile().num_servers
        assert baseline.seed == spec.compile().seed

    def test_with_overrides_rescales_without_mutating(self):
        original = get_scenario("rolling-maintenance")
        scaled = original.with_overrides(num_servers=12,
                                         duration_hours=6.0, seed=2)
        assert original.num_servers is None
        assert scaled.compile().num_servers == 12
        assert scaled.compile().trace.duration_hours == 6.0

    def test_reduced_scale_drops_out_of_range_fault_targets(self):
        spec = get_scenario("correlated-rack-failure").with_overrides(
            num_servers=12)
        compiled = spec.compile()
        ids = {f.server_id for f in compiled.faults.server_faults}
        assert ids and max(ids) < 12
        # concurrency cap: at most a third of the fleet down at once
        assert len(ids) <= max(1, 12 // 3)

    def test_cap_concurrent_downtime_keeps_disjoint_waves(self):
        waves = tuple(ServerFaultSpec(time_s=h * 3600.0, server_id=i,
                                      repair_after_s=3600.0)
                      for h, i in ((1.0, 0), (3.0, 1), (5.0, 2)))
        assert _cap_concurrent_downtime(waves, 1) == waves

    def test_cap_concurrent_downtime_caps_overlap(self):
        rack = tuple(ServerFaultSpec(time_s=3600.0, server_id=i,
                                     repair_after_s=3600.0)
                     for i in range(6))
        kept = _cap_concurrent_downtime(rack, 2)
        assert len(kept) == 2
        assert [f.server_id for f in kept] == [0, 1]


class TestVerifierTeeth:
    """Each metamorphic check must fire on a tampered result."""

    @pytest.fixture(scope="class")
    def heat_pair(self):
        spec = get_scenario("heat-wave").with_overrides(
            num_servers=10, duration_hours=6.0, seed=5)
        return (spec,) + run_pair(spec)

    def test_untampered_heat_wave_passes(self, heat_pair):
        spec, result, baseline = heat_pair
        outcomes = verify_scenario(spec, result, baseline,
                                   policy="vmt-ta")
        assert outcomes and all(o.passed for o in outcomes)

    def test_peak_temp_check_fires(self, heat_pair):
        spec, result, baseline = heat_pair
        cold = dataclasses.replace(result,
                                   mean_temp_c=result.mean_temp_c - 50.0)
        outcomes = verify_scenario(spec, cold, baseline)
        failed = {o.check for o in outcomes if not o.passed}
        assert "ambient-never-lowers-peak-temp" in failed

    def test_melt_check_fires(self, heat_pair):
        spec, result, baseline = heat_pair
        frozen = dataclasses.replace(
            result, mean_melt_fraction=result.mean_melt_fraction * 0.0)
        hot_base = dataclasses.replace(
            baseline,
            mean_melt_fraction=baseline.mean_melt_fraction * 0.0 + 0.5)
        outcomes = verify_scenario(spec, frozen, hot_base)
        failed = {o.check for o in outcomes if not o.passed}
        assert "ambient-never-reduces-melt" in failed

    def test_sane_series_check_fires_on_nan(self, heat_pair):
        spec, result, baseline = heat_pair
        poisoned = dataclasses.replace(
            result, cooling_load_w=result.cooling_load_w + np.nan)
        outcomes = verify_scenario(spec, poisoned, baseline)
        failed = {o.check for o in outcomes if not o.passed}
        assert "sane-series" in failed

    def test_curtail_check_fires_when_energy_rises(self):
        spec = get_scenario("demand-response-curtailment")\
            .with_overrides(num_servers=10, duration_hours=6.0, seed=5)
        result, baseline = run_pair(spec)
        greedy = dataclasses.replace(result,
                                     it_power_w=result.it_power_w * 2.0)
        outcomes = verify_scenario(spec, greedy, baseline)
        failed = {o.check for o in outcomes if not o.passed}
        assert "curtail-never-raises-it-energy" in failed
        clean = verify_scenario(spec, result, baseline)
        assert all(o.passed for o in clean)

    def test_surge_check_fires_when_energy_drops(self):
        spec = get_scenario("black-friday-surge").with_overrides(
            num_servers=10, duration_hours=6.0, seed=5)
        result, baseline = run_pair(spec)
        lazy = dataclasses.replace(result,
                                   it_power_w=result.it_power_w * 0.1)
        outcomes = verify_scenario(spec, lazy, baseline)
        failed = {o.check for o in outcomes if not o.passed}
        assert "surge-never-lowers-it-energy" in failed

    def test_availability_check_fires_when_faults_do_not_bite(self):
        spec = get_scenario("rolling-maintenance").with_overrides(
            num_servers=12, duration_hours=6.0, seed=5)
        result, baseline = run_pair(spec)
        ghost = dataclasses.replace(
            result, availability=result.availability * 0.0 + 1.0)
        outcomes = verify_scenario(spec, ghost, baseline)
        failed = {o.check for o in outcomes if not o.passed}
        assert "faults-never-raise-availability" in failed
        clean = verify_scenario(spec, result, baseline)
        assert all(o.passed for o in clean)

    def test_unknown_check_key_is_a_config_error(self, heat_pair):
        spec, result, baseline = heat_pair
        bogus = dataclasses.replace(spec, checks=("no-such-check",))
        with pytest.raises(ConfigurationError, match="unknown check"):
            verify_scenario(bogus, result, baseline)


class TestMergeScenariosPessimism:
    """merge_scenarios must keep the most pessimistic scalar settings."""

    configs = st.builds(
        FaultConfig,
        enabled=st.booleans(),
        hazard_failures=st.booleans(),
        hazard_acceleration=st.floats(0.0, 1e4),
        mtbf_hours=st.floats(1.0, 1e6),
        repair_time_s=st.floats(1.0, 1e6),
        auto_repair=st.booleans(),
        derate_inlet_rise_c=st.floats(0.0, 20.0),
    )

    @given(st.lists(configs, min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_scalars_take_the_worst_case(self, parts):
        merged = merge_scenarios(*parts)
        assert merged.enabled == any(p.enabled for p in parts)
        assert merged.hazard_failures == any(p.hazard_failures
                                             for p in parts)
        assert merged.hazard_acceleration == max(p.hazard_acceleration
                                                 for p in parts)
        assert merged.mtbf_hours == min(p.mtbf_hours for p in parts)
        assert merged.repair_time_s == max(p.repair_time_s for p in parts)
        assert merged.auto_repair == all(p.auto_repair for p in parts)
        assert merged.derate_inlet_rise_c == max(p.derate_inlet_rise_c
                                                 for p in parts)

    @given(st.lists(configs, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_scalar_merge_is_order_insensitive(self, parts):
        forward = merge_scenarios(*parts)
        backward = merge_scenarios(*reversed(parts))
        for name in ("enabled", "hazard_failures", "hazard_acceleration",
                     "mtbf_hours", "repair_time_s", "auto_repair",
                     "derate_inlet_rise_c"):
            assert getattr(forward, name) == getattr(backward, name), name

    def test_events_concatenate(self):
        a = kill_servers([0, 1], 2.0)
        b = cooling_derate(0.5, 4.0)
        c = temperature_hazard(100.0, repair_time_hours=9.0,
                               auto_repair=False)
        merged = merge_scenarios(a, b, c)
        assert len(merged.server_faults) == 2
        assert len(merged.cooling_faults) == 1
        assert merged.repair_time_s == 9.0 * 3600.0
        assert merged.auto_repair is False


class TestSuiteExecution:
    SMALL = dict(num_servers=10, duration_hours=3.0, seed=5)

    def test_suite_runs_verifies_and_ranks(self):
        report = run_suite(scenarios=["heat-wave", "black-friday-surge"],
                           policies=["vmt-ta", "round-robin"],
                           max_workers=1, **self.SMALL)
        assert len(report.records) == 4
        assert report.passed
        assert {r.policy for r in report.rankings} == {"vmt-ta",
                                                       "round-robin"}
        text = report.to_text()
        assert "policy ranking" in text and "0 check violations" in text

    def test_failed_scenario_is_a_structured_row_not_an_abort(self):
        # A closed-loop policy ticks one step at a time, so over a
        # ten-day trace it cannot finish inside a 1-second budget (a
        # clean VMT-TA run of that trace is planned and can), and the
        # doomed scenario's runs become RunFailure rows while the short
        # heat wave still completes and verifies.
        doomed = tiny_spec(name="doomed", duration_hours=240.0)
        heat = get_scenario("heat-wave").with_overrides(**self.SMALL)
        report = run_suite(scenarios=[doomed, heat],
                           policies=["vmt-wa"], max_workers=1,
                           timeout_s=1.0)
        assert len(report.records) == 2
        doomed_row = next(r for r in report.records
                          if r.scenario == "doomed")
        heat_row = next(r for r in report.records
                        if r.scenario == "heat-wave")
        assert not doomed_row.completed
        assert isinstance(doomed_row.failure, RunFailure)
        assert doomed_row.failure.error_type == "RunTimeout"
        assert heat_row.completed and not heat_row.violations
        # the doomed baseline also timed out, structured as well
        assert report.baseline_failures
        assert not report.passed

    def test_timeout_becomes_a_structured_failure(self):
        # A closed-loop policy over a ten-day trace: no driver finishes
        # it in the budget.
        spec = tiny_spec(duration_hours=240.0)
        runner = ExperimentRunner(max_workers=1)
        outcome = runner.run(
            [RunSpec(config=spec.compile(), policy="vmt-wa",
                     label="hung", timeout_s=0.01)],
            raise_on_error=False)[0]
        assert isinstance(outcome, RunFailure)
        assert outcome.error_type == "RunTimeout"
        assert outcome.attempts == 1

    def test_deadline_is_cooperative_not_signal_based(self):
        # The old SIGALRM scheme only fired on the main thread; the
        # cooperative Deadline must work anywhere and leave signal
        # handlers untouched.
        import signal
        import time as _time
        from repro.perf.runner import Deadline
        before = signal.getsignal(signal.SIGALRM)
        deadline = Deadline.of(30.0)
        assert deadline is not None
        deadline.check()  # within budget: no-op
        assert deadline.remaining_s() > 0 and not deadline.expired()
        assert Deadline.of(None) is None
        assert Deadline.of(0) is None
        expired = Deadline(1e-9)
        _time.sleep(0.002)
        assert expired.expired()
        with pytest.raises(RunTimeout):
            expired.check()
        assert signal.getsignal(signal.SIGALRM) == before
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_runtimeout_is_a_simulation_error(self):
        from repro.errors import SimulationError
        assert issubclass(RunTimeout, SimulationError)


class TestKilledWorkerRecovery:
    def _specs(self):
        spec = tiny_spec()
        config = spec.compile()
        return [RunSpec(config=config, policy=policy, label=policy)
                for policy in ("round-robin", "vmt-ta", "coolest-first")]

    def test_sigkilled_worker_triggers_serial_retry(self, monkeypatch):
        specs = self._specs()
        monkeypatch.setenv("REPRO_KILL_RUN", "vmt-ta")
        outcomes = ExperimentRunner(max_workers=2).run(
            specs, raise_on_error=False)
        assert all(not isinstance(o, RunFailure) for o in outcomes)
        monkeypatch.delenv("REPRO_KILL_RUN")
        clean = ExperimentRunner(max_workers=1).run(specs)
        for recovered, reference in zip(outcomes, clean):
            assert recovered.fingerprint() == reference.fingerprint()

    def test_job_failing_after_pool_crash_reports_two_attempts(
            self, monkeypatch):
        # The victim both SIGKILLs its worker *and* fails legitimately
        # on the serial retry (a closed-loop policy over a ten-day
        # trace against a 1-second budget), so the bounded retry is
        # exercised end to end: crash -> retry -> fail.
        doomed = tiny_spec(name="doomed-victim", duration_hours=240.0)
        specs = [RunSpec(config=doomed.compile(), policy="vmt-wa",
                         label="victim", timeout_s=1.0),
                 RunSpec(config=tiny_spec().compile(),
                         policy="round-robin", label="bystander")]
        monkeypatch.setenv("REPRO_KILL_RUN", "victim")
        outcomes = ExperimentRunner(max_workers=2).run(
            specs, raise_on_error=False)
        victim, bystander = outcomes
        assert isinstance(victim, RunFailure)
        assert victim.attempts == 2
        assert not isinstance(bystander, RunFailure)

    def test_kill_hook_is_inert_in_the_parent_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_KILL_RUN", "victim")
        spec = RunSpec(config=tiny_spec().compile(), policy="vmt-ta",
                       label="victim")
        result = ExperimentRunner(max_workers=1).run_one(spec)
        assert result.fingerprint()


class TestScenarioProvenance:
    def test_manifest_records_scenario_and_sha(self, tmp_path):
        spec = get_scenario("black-friday-surge").with_overrides(
            num_servers=10, duration_hours=3.0, seed=5)
        run_spec = RunSpec(config=spec.compile(), policy="vmt-wa",
                           label="bf:vmt-wa", scenario=spec.name,
                           scenario_sha256=spec.sha256(),
                           telemetry_dir=str(tmp_path))
        ExperimentRunner(max_workers=1).run([run_spec])
        manifests = [f for f in os.listdir(tmp_path)
                     if f.endswith(".manifest.json")]
        assert len(manifests) == 1
        with open(tmp_path / manifests[0]) as handle:
            manifest = json.load(handle)
        assert manifest["scenario"] == "black-friday-surge"
        assert manifest["scenario_sha256"] == spec.sha256()

    def test_manifest_still_validates_with_scenario_keys(self, tmp_path):
        from repro.obs.ledger import read_manifests
        spec = get_scenario("heat-wave").with_overrides(
            num_servers=10, duration_hours=3.0, seed=5)
        ExperimentRunner(max_workers=1).run(
            [RunSpec(config=spec.compile(), policy="vmt-ta",
                     label="hw", scenario=spec.name,
                     scenario_sha256=spec.sha256(),
                     telemetry_dir=str(tmp_path))])
        manifests = read_manifests(str(tmp_path))
        assert len(manifests) == 1 and manifests[0]["scenario"] \
            == "heat-wave"

    def test_extra_keys_cannot_shadow_the_schema(self, tmp_path):
        from repro.errors import TelemetryError
        from repro.obs.ledger import RunLedger
        from repro.config import paper_cluster_config
        ledger = RunLedger(str(tmp_path))
        with pytest.raises(TelemetryError, match="shadow"):
            ledger.record(run_id="r", scheduler="s", policy="p",
                          config=paper_cluster_config(num_servers=4),
                          trace_sha256="t", result_fingerprint="f",
                          ticks=1, wall_clock_s=0.0,
                          extra={"policy": "evil"})


class TestCliScenario:
    def test_scenario_list(self, capsys):
        from repro.cli import main
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_scenario_run_verifies(self, capsys):
        from repro.cli import main
        code = main(["scenario", "run", "black-friday-surge",
                     "--servers", "10", "--hours", "3", "--seed", "5",
                     "--policy", "vmt-ta"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "spec sha256" in out

    def test_scenario_suite_exit_code_clean(self, capsys):
        from repro.cli import main
        code = main(["scenario", "suite", "--scenarios", "heat-wave",
                     "--policies", "vmt-ta", "--servers", "10",
                     "--hours", "3", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy ranking" in out

    def test_unknown_scenario_exits_with_error(self, capsys):
        from repro.cli import main
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
