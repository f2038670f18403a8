"""Tests for the simulation invariant sanitizer.

Two angles: clean runs stay clean (and bit-identical at every check
level), and each invariant actually fires when the corresponding state
is corrupted.  Corruption happens either by handing the sanitizer a
doctored placement/view (the pre-step checks) or by patching the
cluster's ground-truth views between the physics step and the audit
(the post-step checks).
"""

import dataclasses

import numpy as np
import pytest

from repro.checks import (CHECK_LEVELS, CHECKS_ENV, CHECKS_POLICY_ENV,
                          SimulationSanitizer, resolve_check_level)
from repro.cluster.cluster import Cluster
from repro.cluster.simulation import ClusterSimulation
from repro.config import TraceConfig, paper_cluster_config
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.core.scheduler import Placement
from repro.errors import ConfigurationError, InvariantViolation
from repro.obs import MetricRegistry, read_trace


def tiny_config(seed=11, **overrides):
    config = paper_cluster_config(num_servers=8, grouping_value=22.0,
                                  seed=seed, **overrides)
    return config.replace(trace=TraceConfig(duration_hours=2.0))


def build_sim(policy="vmt-wa", checks="full", config=None, **kwargs):
    config = config if config is not None else tiny_config()
    scheduler = make_scheduler(policy, config)
    return ClusterSimulation(config, scheduler, record_heatmaps=False,
                             checks=checks, **kwargs)


def one_tick(sim, step_index=None):
    """Manually drive one scheduling tick through the sanitizer.

    Returns ``(demand, view, placement)`` so tests can re-invoke the
    checkers with doctored copies.
    """
    sim._scheduler.reset()
    if step_index is None:
        # Mid-trace: guaranteed nonzero demand.
        step_index = sim.trace.num_steps // 2
    demand = sim.trace.demand_at(step_index)
    view = sim.cluster.view()
    placement = sim._scheduler.place(demand, view)
    sim.sanitizer.check_placement(0, 60.0, demand, view, placement)
    block = sim.cluster.advance(placement.allocation[np.newaxis],
                                sim.trace.step_seconds)
    sim._metrics.fill_block(block, jobs=int(demand.sum()),
                            hot_mask=placement.hot_group_mask)
    return demand, view, placement


class TestResolveCheckLevel:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHECKS_ENV, "full")
        assert resolve_check_level("off") == "off"
        assert resolve_check_level("cheap") == "cheap"

    def test_none_defaults_off(self, monkeypatch):
        monkeypatch.delenv(CHECKS_ENV, raising=False)
        assert resolve_check_level(None, "vmt-wa(gv=22)") == "off"

    def test_env_supplies_default(self, monkeypatch):
        monkeypatch.setenv(CHECKS_ENV, "cheap")
        monkeypatch.delenv(CHECKS_POLICY_ENV, raising=False)
        assert resolve_check_level(None, "round-robin") == "cheap"

    def test_env_policy_scope(self, monkeypatch):
        monkeypatch.setenv(CHECKS_ENV, "full")
        monkeypatch.setenv(CHECKS_POLICY_ENV, "vmt-wa")
        assert resolve_check_level(None, "vmt-wa(gv=22)") == "full"
        assert resolve_check_level(None, "round-robin") == "off"
        assert resolve_check_level(None, None) == "off"

    def test_invalid_level_rejected(self, monkeypatch):
        with pytest.raises(ConfigurationError):
            resolve_check_level("paranoid")
        monkeypatch.setenv(CHECKS_ENV, "bogus")
        with pytest.raises(ConfigurationError):
            resolve_check_level(None, "vmt-wa")

    def test_levels_are_ordered(self):
        assert CHECK_LEVELS == ("off", "cheap", "full")


class TestCleanRuns:
    @pytest.mark.parametrize("policy", SCHEDULER_NAMES)
    def test_every_policy_clean_under_full(self, policy):
        sim = build_sim(policy, checks="full")
        sim.run()
        assert sim.sanitizer.level == "full"
        assert sim.sanitizer.ticks_checked == sim.trace.num_steps

    def test_fingerprint_identical_across_levels(self):
        fingerprints = {
            level: build_sim("vmt-wa", checks=level).run().fingerprint()
            for level in CHECK_LEVELS}
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_off_attaches_no_sanitizer(self):
        assert build_sim("vmt-ta", checks="off").sanitizer is None

    def test_gauges_track_progress(self):
        sim = build_sim("vmt-ta", checks="cheap")
        registry = MetricRegistry(capacity=4)
        sim.sanitizer.register_metrics(registry)
        assert registry.get("checks.level").value == 1.0  # cheap
        sim.run()
        assert registry.get("checks.ticks_checked").value \
            == float(sim.trace.num_steps)


class TestPlacementInvariants:
    def test_dropped_jobs_caught(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        assert demand.sum() > 0
        empty = Placement(allocation=np.zeros_like(placement.allocation))
        with pytest.raises(InvariantViolation, match="job-conservation"):
            sim.sanitizer.check_placement(1, 120.0, demand, view, empty)

    def test_time_must_advance(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        with pytest.raises(InvariantViolation, match="time-monotonic"):
            sim.sanitizer.check_placement(1, 60.0, demand, view,
                                          placement)

    def test_nonfinite_demand_rejected(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        bad = demand.astype(np.float64)
        bad[0] = np.nan
        with pytest.raises(InvariantViolation, match="finite-state"):
            sim.sanitizer.check_placement(1, 120.0, bad, view, placement)

    def test_workload_mix_swap_caught(self):
        """Total-preserving swaps between workload types still violate."""
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        alloc = placement.allocation.copy()
        server, wtype = np.argwhere(alloc > 0)[0]
        other = (wtype + 1) % alloc.shape[1]
        alloc[server, wtype] -= 1
        alloc[server, other] += 1
        with pytest.raises(InvariantViolation, match="job-conservation"):
            sim.sanitizer.check_placement(
                1, 120.0, demand, view, Placement(allocation=alloc))

    def test_negative_counts_caught(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        alloc = placement.allocation.copy()
        server, wtype = np.argwhere(alloc == 0)[0]
        donor = np.argwhere(alloc[:, wtype] > 0)[0][0]
        alloc[server, wtype] -= 1
        alloc[donor, wtype] += 1
        with pytest.raises(InvariantViolation, match="job-conservation"):
            sim.sanitizer.check_placement(
                1, 120.0, demand, view, Placement(allocation=alloc))

    def test_over_capacity_caught(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        assert demand.sum() > view.cores_per_server
        alloc = np.zeros_like(placement.allocation)
        alloc[0, :] = demand  # everything piles on server 0
        with pytest.raises(InvariantViolation, match="capacity"):
            sim.sanitizer.check_placement(
                1, 120.0, demand, view, Placement(allocation=alloc))

    def test_estimator_out_of_range_caught(self):
        sim = build_sim("round-robin")
        demand, view, placement = one_tick(sim)
        bad_view = dataclasses.replace(
            view, wax_melt_estimate=np.full(view.num_servers, 1.5))
        with pytest.raises(InvariantViolation, match="estimator-range"):
            sim.sanitizer.check_placement(1, 120.0, demand, bad_view,
                                          placement)

    def test_hot_mask_must_be_prefix(self):
        sim = build_sim("vmt-wa")
        demand, view, placement = one_tick(sim)
        mask = np.zeros(view.num_servers, dtype=bool)
        mask[-1] = True
        doctored = Placement(allocation=placement.allocation,
                             hot_group_mask=mask)
        with pytest.raises(InvariantViolation, match="group-partition"):
            sim.sanitizer.check_placement(1, 120.0, demand, view,
                                          doctored)

    def test_vmt_ta_partition_is_eq1_exact(self):
        sim = build_sim("vmt-ta")
        demand, view, placement = one_tick(sim)
        expected = sim._scheduler.sizer.hot_size
        mask = np.zeros(view.num_servers, dtype=bool)
        mask[:expected + 1] = True  # one server too many
        doctored = Placement(allocation=placement.allocation,
                             hot_group_mask=mask)
        with pytest.raises(InvariantViolation, match="group-partition"):
            sim.sanitizer.check_placement(1, 120.0, demand, view,
                                          doctored)


class TestStateInvariants:
    def test_clean_tick_passes(self):
        sim = build_sim("vmt-wa")
        one_tick(sim)
        sim.sanitizer.check_state(0, 60.0, sim.trace.step_seconds)
        assert sim.sanitizer.ticks_checked == 1

    def test_melt_fraction_out_of_bounds_caught(self, monkeypatch):
        sim = build_sim("round-robin")
        one_tick(sim)
        bad = np.zeros(sim.cluster.num_servers)
        bad[3] = 1.5
        monkeypatch.setattr(Cluster, "wax_melt_fraction_view",
                            property(lambda self: bad))
        with pytest.raises(InvariantViolation,
                           match=r"melt-bounds.*server 3"):
            sim.sanitizer.check_state(0, 60.0, sim.trace.step_seconds)

    def test_cooling_identity_vs_cluster_state(self, monkeypatch):
        sim = build_sim("round-robin")
        one_tick(sim)
        true_power = sim.cluster.power_w_view.copy()
        monkeypatch.setattr(Cluster, "power_w_view",
                            property(lambda self: true_power * 1.01))
        with pytest.raises(InvariantViolation, match="cooling-identity"):
            sim.sanitizer.check_state(0, 60.0, sim.trace.step_seconds)

    def test_nonfinite_air_temp_caught(self, monkeypatch):
        sim = build_sim("round-robin")
        one_tick(sim)
        bad = sim.cluster.air_temp_c_view.copy()
        bad[1] = np.inf
        monkeypatch.setattr(Cluster, "air_temp_c_view",
                            property(lambda self: bad))
        with pytest.raises(InvariantViolation,
                           match=r"finite-state.*server 1"):
            sim.sanitizer.check_state(0, 60.0, sim.trace.step_seconds)

    def test_energy_balance_caught(self):
        """Enthalpy injected outside the physics step breaks the audit."""
        sim = build_sim("round-robin")
        one_tick(sim)
        sim.cluster._pcm._h[0] += 5000.0  # magic heat from nowhere
        with pytest.raises(InvariantViolation,
                           match=r"energy-balance.*server 0"):
            sim.sanitizer.check_state(0, 60.0, sim.trace.step_seconds)


class TestTracerIntegration:
    def test_violation_emits_structured_event(self, tmp_path):
        sim = build_sim("vmt-wa", telemetry=str(tmp_path))

        def corrupt(time_s, demand, placement, cluster):
            if time_s >= 1800.0:
                cluster._estimator.estimate[0] = 5.0

        sim.add_observer(corrupt)
        with pytest.raises(InvariantViolation, match="estimator-range"):
            sim.run()
        traces = list(tmp_path.glob("*.trace.jsonl"))
        assert len(traces) == 1
        events = [rec for rec in read_trace(traces[0])
                  if rec["name"] == "invariant-violation"]
        assert len(events) == 1
        fields = events[0]["fields"]
        assert fields["invariant"] == "estimator-range"
        assert fields["server"] == 0
        assert fields["step"] > 0
        assert "outside" in fields["message"]
