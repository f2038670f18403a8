"""Kernel equivalence: the planned kernel is bit-identical, and engages.

The reference is the per-tick chain (``Scheduler.place`` ->
``Cluster.step`` -> ``MetricsCollector.record``) fired once per tick by
the stepped driver; attaching a no-op observer forces any run onto it
(``run_backend(..., "reference")``).  The planned kernel's contract is
exact: same RNG stream consumption, same IEEE-754 operation order per
element, same recorded series.  ``SimulationResult.fingerprint()`` (the
golden-trace hash) is the oracle throughout, so any single-bit drift in
any recorded series fails these tests.

Fault runs went through an event-heap tick loop before the stepped
driver took them over; :data:`HEAP_LOOP_PINS` holds what that loop
produced (fingerprint, dispatch count, pending events, engine clock)
and the driver must reproduce it exactly.

The suite also pins *dispatch*: clean open-loop runs (round-robin, and
VMT-TA at every grouping value) must take the planned whole-run kernel,
and every other run the stepped driver -- otherwise a
silently-ineligible planned path would pass equivalence while
delivering no speedup.  The retired ``backend`` keyword and
``REPRO_BACKEND`` change nothing; a bad ``backend`` value still raises.

The default config (GV 22) never overflows a group, so the open-loop
cases below add the ticks where VMT-TA spills across groups, the empty
groups, and round-robin; a hypothesis oracle checks the planner's
closed-form spill placement tick by tick against the scheduler itself.
Runs restored from a mid-run checkpoint are planned from the restored
tick, and must finish exactly as the straight reference run does.  The
kernel also stops at any tick: a checkpointing run is planned in
segments, and every snapshot it writes between two segments must equal
the reference run's at that tick.  A generated differential resumes
runs with scripted faults off the tick grid and hazard failures from a
drawn checkpoint tick.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api
from repro.analysis.sweep import gv_sweep
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.cluster.state import ClusterView
from repro.config import (CoolingFaultSpec, FaultConfig, SensorFaultSpec,
                          ServerConfig, ServerFaultSpec, SimulationConfig,
                          TraceConfig, paper_cluster_config)
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.core.scheduler import NUM_WORKLOADS
from repro.core.vmt_ta import VMTThermalAwareScheduler
from repro.kernel.planned import plan_vmt_ta
from repro.errors import ConfigurationError, TraceError
from repro.live import LiveTraceBuffer
from repro.perf.runner import RunSpec, execute_spec
from repro.scenarios import get_scenario
from repro.serve.registry import registry_key
from repro.state.checkpoint import (checkpoint_path, latest_checkpoint,
                                    restore_simulation, resume_run,
                                    verify_roundtrip)
from repro.state.snapshot import load_snapshot

NUM_SERVERS = 24
HOURS = 6.0
SEED = 7

#: A mid-trace mix exercising displacement, repair, derating, and a
#: stuck wax sensor -- enough to perturb every scheduler's decisions.
FAULTS = FaultConfig(
    enabled=True,
    server_faults=(ServerFaultSpec(time_s=3600.0, server_id=3,
                                   repair_after_s=7200.0),),
    cooling_faults=(CoolingFaultSpec(time_s=2 * 3600.0,
                                     capacity_factor=0.7,
                                     restore_after_s=3600.0),),
    sensor_faults=(SensorFaultSpec(time_s=3600.0, server_id=5,
                                   sensor="wax", mode="stuck"),),
)

#: Temperature-hazard failures, each repaired half an hour later.
HAZARD = FaultConfig(enabled=True, hazard_failures=True,
                     hazard_acceleration=3000.0, auto_repair=True,
                     repair_time_s=1800.0)

#: Scripted faults, repairs and clears none of which fall on a tick.
OFF_GRID = FaultConfig(
    enabled=True,
    server_faults=(ServerFaultSpec(time_s=5430.5, server_id=2,
                                   repair_after_s=1234.5),),
    sensor_faults=(SensorFaultSpec(time_s=1234.5, server_id=4,
                                   sensor="air", mode="drift",
                                   drift_c_per_hour=3.0,
                                   clear_after_s=4321.25),),
    cooling_faults=(CoolingFaultSpec(time_s=7777.7, capacity_factor=0.8,
                                     restore_after_s=999.9),),
)

#: A fault and its repair between the last tick and the end of the run,
#: and a sensor fault after the end that never fires.
TAIL = FaultConfig(
    enabled=True,
    server_faults=(ServerFaultSpec(time_s=HOURS * 3600 - 30.0,
                                   server_id=1, repair_after_s=10.0),),
    sensor_faults=(SensorFaultSpec(time_s=HOURS * 3600 + 0.5,
                                   server_id=4),),
)

#: Fault configs, by the names :data:`HEAP_LOOP_PINS` uses.
PINNED_FAULTS = {"faults": FAULTS, "hazard": HAZARD, "off-grid": OFF_GRID,
                 "tail": TAIL}

#: What the event-heap tick loop produced for fault runs before the
#: stepped driver replaced it: (fingerprint, events dispatched, pending
#: events) per (:data:`PINNED_FAULTS` name or library scenario, policy);
#: its engine clock ended at ``HOURS * 3600 - 1e-9`` in every one.
HEAP_LOOP_PINS = {
    ("faults", "coolest-first"): ("67ac7a91accdded5", 365, 0),
    ("faults", "round-robin"): ("79e2d0e68f880443", 365, 0),
    ("faults", "vmt-preserve"): ("fd29a5a17b5117a0", 365, 0),
    ("faults", "vmt-ta"): ("5f9208ba8048709d", 365, 0),
    ("faults", "vmt-wa"): ("7cb237673a9c9bac", 365, 0),
    ("hazard", "vmt-ta"): ("54fafb1d1683735a", 728, 0),
    ("hazard", "vmt-wa"): ("fb8f23f1ce6ff6ce", 727, 0),
    ("off-grid", "vmt-ta"): ("c165172e898d6684", 366, 0),
    ("off-grid", "vmt-wa"): ("8cd0ed7f442de91f", 366, 0),
    ("tail", "vmt-ta"): ("fd70bf7ee4d56da3", 362, 1),
    ("tail", "vmt-wa"): ("549ab2d00ee94de1", 362, 1),
    ("heat-wave", "vmt-wa"): ("549ab2d00ee94de1", 360, 0),
    ("sensor-fault-storm", "vmt-wa"): ("549ab2d00ee94de1", 366, 18),
}


#: Hazard and scripted faults at a 59.9 s step, which is not exact in
#: binary: tick and hazard-draw times accumulate in float and drift off
#: ``k * 59.9``.  16 servers x 4 h (240 ticks).
ODD_STEP = dataclasses.replace(
    paper_cluster_config(num_servers=16, grouping_value=22.0,
                         seed=SEED).replace(
        trace=TraceConfig(duration_hours=4.0, step_seconds=59.9)),
    faults=dataclasses.replace(
        HAZARD,
        server_faults=(ServerFaultSpec(time_s=3600.0, server_id=3,
                                       repair_after_s=1800.0),),
        sensor_faults=(SensorFaultSpec(time_s=1800.0, server_id=5,
                                       sensor="wax", mode="stuck"),),
        cooling_faults=(CoolingFaultSpec(time_s=5400.0,
                                         capacity_factor=0.7,
                                         restore_after_s=3600.0),)))

#: What :data:`ODD_STEP` runs (heatmaps recorded) produced while the
#: hazard sampler was a periodic process on the engine: (fingerprint,
#: events dispatched) per policy, each with no event pending and the
#: clock at 240 * 59.9 - 1e-9 at the end, straight or resumed.
ODD_STEP_PINS = {
    "coolest-first": ("f834246d2431f5b2", 487),
    "round-robin": ("f5649f6abbab681e", 487),
    "vmt-preserve": ("6c513b6942da7c56", 487),
    "vmt-ta": ("67f4ef5a46bee0f2", 488),
    "vmt-wa": ("6d50ffd55a431395", 488),
}

#: Open-loop runs beyond the default GV 22, which never overflows a
#: group: (policy, servers, grouping value), keyed by test id.
OPEN_LOOP = {
    # 23% of ticks overflow the hot group (hot -> cold spill).
    "ta-gv10": ("vmt-ta", NUM_SERVERS, 10.0),
    # 48% of ticks overflow the cold group (cold -> hot spill).
    "ta-gv30": ("vmt-ta", NUM_SERVERS, 30.0),
    # Hot group = all 24 servers: every cold job spills.
    "ta-gv36": ("vmt-ta", NUM_SERVERS, 36.0),
    # Hot group = 0 of 8 servers: every hot job spills.
    "ta-gv1-n8": ("vmt-ta", 8, 1.0),
    "round-robin": ("round-robin", NUM_SERVERS, 22.0),
}


def small_config(faults=False, num_servers: int = NUM_SERVERS,
                 grouping_value: float = 22.0):
    """The suite's config; ``faults`` is ``True`` (for :data:`FAULTS`) or
    a :class:`FaultConfig`."""
    config = paper_cluster_config(num_servers=num_servers,
                                  grouping_value=grouping_value, seed=SEED)
    config = config.replace(trace=TraceConfig(duration_hours=HOURS))
    if faults:
        config = dataclasses.replace(
            config, faults=FAULTS if faults is True else faults)
    return config


def open_loop_case(case: str):
    """(config, policy) of one :data:`OPEN_LOOP` run."""
    policy, num_servers, grouping_value = OPEN_LOOP[case]
    return small_config(num_servers=num_servers,
                        grouping_value=grouping_value), policy


#: The default config plus every open-loop case, for resume parity.
RESUME_CASES = ("default", *OPEN_LOOP)

#: Mid-run ticks the resume tests checkpoint at and restore from.
RESUME_TICKS = (97, 194, 291)


def resume_case(case: str):
    """(config, policy) of one :data:`RESUME_CASES` run."""
    if case == "default":
        return small_config(), "vmt-ta"
    return open_loop_case(case)


def partly_filled_buffer(config, rows: int) -> LiveTraceBuffer:
    """A live buffer holding the first ``rows`` of ``config``'s trace."""
    trace = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                              record_heatmaps=False).trace
    buffer = LiveTraceBuffer(trace.num_steps, trace.step_seconds,
                             trace.total_cores)
    for step in range(rows):
        buffer.append(trace.demand_at(step))
    return buffer


def _noop_observer(time_s, demand, placement, cluster):
    """Attached only to force the per-tick driver."""


def per_tick(sim):
    """``sim`` forced onto the per-tick driver (the planned kernel
    refuses runs with observers)."""
    sim.add_observer(_noop_observer)
    return sim


def run_backend(config, policy: str, backend: str):
    """One run; returns (result, simulation) so tests can read state.

    ``"reference"`` is the per-tick chain, forced by a no-op observer;
    ``"fast"`` is the default dispatch.
    """
    sim = ClusterSimulation(config, make_scheduler(policy, config),
                            record_heatmaps=False)
    if backend == "reference":
        per_tick(sim)
    return sim.run(), sim


def assert_state_trees_equal(expected, got, path="state"):
    """Bit-exact recursive comparison of two snapshot state trees."""
    if isinstance(expected, np.ndarray):
        got = np.asarray(got)
        assert expected.dtype == got.dtype, path
        equal_nan = np.issubdtype(expected.dtype, np.floating)
        assert np.array_equal(expected, got, equal_nan=equal_nan), path
    elif isinstance(expected, dict):
        assert set(expected) == set(got), path
        for key in expected:
            assert_state_trees_equal(expected[key], got[key],
                                     f"{path}.{key}")
    elif isinstance(expected, (list, tuple)):
        assert len(expected) == len(got), path
        for i, (a, b) in enumerate(zip(expected, got)):
            assert_state_trees_equal(a, b, f"{path}[{i}]")
    elif isinstance(expected, float):
        assert expected == got or (np.isnan(expected)
                                   and np.isnan(got)), path
    else:
        assert expected == got, path


class TestBitIdentity:
    @pytest.mark.parametrize("faults", (False, True),
                             ids=("clean", "faults"))
    @pytest.mark.parametrize("policy", SCHEDULER_NAMES)
    def test_fast_matches_reference(self, policy, faults):
        config = small_config(faults)
        ref, _ = run_backend(config, policy, "reference")
        fast, _ = run_backend(config, policy, "fast")
        assert ref.fingerprint() == fast.fingerprint()

    @pytest.mark.parametrize("name", ("heat-wave", "sensor-fault-storm"))
    def test_library_scenarios_match(self, name):
        spec = get_scenario(name).with_overrides(
            num_servers=NUM_SERVERS, duration_hours=HOURS, seed=SEED)
        config = spec.compile()
        ref, _ = run_backend(config, "vmt-wa", "reference")
        fast, _ = run_backend(config, "vmt-wa", "fast")
        assert ref.fingerprint() == fast.fingerprint()

    def test_post_run_state_parity(self):
        """Beyond the recorded series: the live simulation state (wax
        enthalpy, air temps, estimator, RNG positions) must also agree,
        or a later resume from the fast run would diverge."""
        config = small_config()
        _, ref_sim = run_backend(config, "vmt-ta", "reference")
        _, fast_sim = run_backend(config, "vmt-ta", "fast")
        assert ref_sim.kernel_path == "stepped"
        assert fast_sim.kernel_path == "planned"
        ref_snap = ref_sim.snapshot()
        fast_snap = fast_sim.snapshot()
        assert ref_snap.tick == fast_snap.tick
        assert_state_trees_equal(ref_snap.state, fast_snap.state)

    @pytest.mark.parametrize("case", OPEN_LOOP)
    def test_open_loop_fast_matches_reference(self, case):
        config, policy = open_loop_case(case)
        ref, _ = run_backend(config, policy, "reference")
        fast, sim = run_backend(config, policy, "fast")
        assert sim.kernel_path == "planned"
        assert ref.fingerprint() == fast.fingerprint()

    @pytest.mark.parametrize("case", OPEN_LOOP)
    def test_open_loop_post_run_state_parity(self, case):
        config, policy = open_loop_case(case)
        _, ref_sim = run_backend(config, policy, "reference")
        _, fast_sim = run_backend(config, policy, "fast")
        assert fast_sim.kernel_path == "planned"
        ref_snap = ref_sim.snapshot()
        fast_snap = fast_sim.snapshot()
        assert ref_snap.tick == fast_snap.tick
        if policy == "round-robin":
            # The persistent job map, the RNG and the tick counter all
            # travel in the scheduler's state, so parity covers them.
            assert {"alloc", "rng", "tick"} <= set(
                fast_snap.state["scheduler"])
        assert_state_trees_equal(ref_snap.state, fast_snap.state)


    @pytest.mark.parametrize("degenerate", ("no-mass", "no-latent",
                                            "no-ha"))
    def test_degenerate_wax_is_planned_and_matches_reference(
            self, degenerate):
        """Wax with no mass, no latent heat or no convection takes the
        models' special branches; the planned kernel runs them through
        the same block stage, so it plans such runs too."""
        config = small_config()
        if degenerate == "no-mass":
            config = config.replace(
                wax=dataclasses.replace(config.wax, volume_liters=0.0))
        elif degenerate == "no-latent":
            config = config.replace(wax=dataclasses.replace(
                config.wax, latent_heat_j_per_kg=0.0))
        else:
            config = config.replace(thermal=dataclasses.replace(
                config.thermal, ha_w_per_k=0.0))
        ref, ref_sim = run_backend(config, "vmt-ta", "reference")
        fast, fast_sim = run_backend(config, "vmt-ta", "fast")
        assert fast_sim.kernel_path == "planned"
        assert ref.fingerprint() == fast.fingerprint()
        assert_state_trees_equal(ref_sim.snapshot().state,
                                 fast_sim.snapshot().state)


class TestHeapLoopPins:
    """The stepped driver reproduces what the event-heap loop produced
    for fault runs, and what the periodic hazard sampler produced at a
    step not exact in binary: same fingerprint, dispatch count, pending
    events and engine clock, with fault events drained at tick
    boundaries."""

    @pytest.mark.parametrize("name, policy", HEAP_LOOP_PINS,
                             ids=[f"{name}-{policy}"
                                  for name, policy in HEAP_LOOP_PINS])
    def test_matches_the_heap_loop(self, name, policy):
        if name in PINNED_FAULTS:
            config = small_config(PINNED_FAULTS[name])
        else:
            config = get_scenario(name).with_overrides(
                num_servers=NUM_SERVERS, duration_hours=HOURS,
                seed=SEED).compile()
        result, sim = run_backend(config, policy, "fast")
        assert sim.kernel_path == "stepped"
        fingerprint, dispatched, pending = HEAP_LOOP_PINS[name, policy]
        assert result.fingerprint() == fingerprint
        assert sim.engine.events_dispatched == dispatched
        assert sim.engine.pending_events == pending
        assert sim.engine.now == HOURS * 3600 - 1e-9

    @pytest.mark.parametrize("policy", ODD_STEP_PINS)
    def test_odd_step_matches_the_periodic_sampler(self, policy, tmp_path):
        """At a 59.9 s step, straight, checkpointing every 37 ticks, and
        resumed from the tick-74 checkpoint."""
        def simulation(**kwargs):
            return ClusterSimulation(
                ODD_STEP, make_scheduler(policy, ODD_STEP), **kwargs)

        runs = [simulation(),
                simulation(checkpoint_every=37,
                           checkpoint_dir=str(tmp_path))]
        results = [sim.run() for sim in runs]
        runs.append(restore_simulation(checkpoint_path(str(tmp_path), 74)))
        results.append(runs[-1].run())
        fingerprint, dispatched = ODD_STEP_PINS[policy]
        for sim, result in zip(runs, results):
            assert sim.kernel_path == "stepped"
            assert result.fingerprint() == fingerprint
            assert sim.engine.events_dispatched == dispatched
            assert sim.engine.pending_events == 0
            assert sim.engine.now == 14375.999999999


def _demand(hot, cold):
    """A demand vector from (WebSearch, VideoEncoding, Clustering) hot and
    (DataCaching, VirusScan) cold job counts."""
    return [hot[0], cold[0], hot[1], cold[1], hot[2]]


@st.composite
def single_ticks(draw):
    """(servers, cores, hot size, demand, tick) of one fault-free tick."""
    num_servers = draw(st.integers(1, 10))
    cores = draw(st.integers(1, 6))
    hot_size = draw(st.integers(0, num_servers))
    total = draw(st.integers(0, num_servers * cores))
    cuts = sorted(draw(st.lists(st.integers(0, total),
                                min_size=NUM_WORKLOADS - 1,
                                max_size=NUM_WORKLOADS - 1)))
    demand = np.diff([0, *cuts, total])
    return num_servers, cores, hot_size, demand, draw(st.integers(0, 10**6))


class TestClosedFormOracle:
    """``plan_vmt_ta`` on one tick against ``VMTThermalAwareScheduler``.

    Every group size in ``[0, n]``, demand up to the whole cluster and
    any tick index (the waterfill tie offset): the planned allocation
    and the scheduler's RNG state afterwards must both be identical.
    """

    @given(tick=single_ticks())
    @settings(max_examples=60, deadline=None, derandomize=True)
    # Spills that fill past the lower residual capacity the target
    # group's own pass left: cold -> hot, hot -> cold, and cold -> hot
    # with the leftover servers' rotation wrapping past the last one.
    @example(tick=(6, 4, 3, np.array(_demand((2, 1, 1), (10, 9))), 5))
    @example(tick=(6, 4, 2, np.array(_demand((6, 6, 5), (3, 2))), 7))
    @example(tick=(6, 4, 4, np.array(_demand((2, 2, 1), (9, 9))), 2))
    def test_single_tick_matches_scheduler(self, tick):
        num_servers, cores, hot_size, demand, index = tick
        config = SimulationConfig(
            num_servers=num_servers,
            server=ServerConfig(sockets=1, cores_per_socket=cores))
        sched = VMTThermalAwareScheduler(config)
        sched.retarget_grouping(
            max(hot_size, 0.25) / num_servers * config.wax.melt_temp_c)
        assert sched.sizer.hot_size == hot_size
        state = sched.state_dict()
        state["tick"] = index
        sched.load_state_dict(state)
        rng = copy.deepcopy(sched._rng)

        block = plan_vmt_ta(demand[None, :], num_servers, cores, hot_size,
                            rng, first_tick=index)
        view = ClusterView(time_s=0.0, num_servers=num_servers,
                           cores_per_server=cores,
                           air_temp_c=np.zeros(num_servers),
                           wax_melt_estimate=np.zeros(num_servers),
                           melt_temp_c=config.wax.melt_temp_c)
        placement = sched.place(demand, view)
        assert np.array_equal(block.reshape(num_servers, NUM_WORKLOADS),
                              placement.allocation)
        assert rng.bit_generator.state == sched.state_dict()["rng"]


class TestDispatch:
    def test_clean_vmt_ta_takes_the_planned_kernel(self):
        _, sim = run_backend(small_config(), "vmt-ta", "fast")
        assert sim.kernel_path == "planned"

    @pytest.mark.parametrize(
        "policy, grouping_value",
        [pytest.param("round-robin", 22.0, id="round-robin")]
        # Hot group sizes 0, 1, ..., 8 of 8 servers.
        + [pytest.param("vmt-ta", gv, id=f"vmt-ta-gv{gv:g}")
           for gv in (1.0, 5.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0,
                      36.0)])
    def test_open_loop_runs_are_planned(self, policy, grouping_value):
        config = small_config(num_servers=8, grouping_value=grouping_value)
        _, sim = run_backend(config, policy, "fast")
        assert sim.kernel_path == "planned"

    @pytest.mark.parametrize("policy", ("coolest-first", "vmt-preserve",
                                        "vmt-wa"))
    def test_other_clean_policies_take_the_stepped_driver(self, policy):
        _, sim = run_backend(small_config(), policy, "fast")
        assert sim.kernel_path == "stepped"

    def test_restored_closed_loop_run_stays_stepped(self, tmp_path):
        config = small_config()
        ClusterSimulation(config, make_scheduler("vmt-wa", config),
                          record_heatmaps=False, checkpoint_every=120,
                          checkpoint_dir=str(tmp_path)).run()
        sim = restore_simulation(checkpoint_path(str(tmp_path), 120))
        sim.run()
        assert sim.kernel_path == "stepped"

    def test_restored_checkpointing_run_is_planned(self, tmp_path):
        config = small_config()
        straight, _ = run_backend(config, "vmt-ta", "reference")
        first, again = tmp_path / "first", tmp_path / "again"
        per_tick(ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                   record_heatmaps=False,
                                   checkpoint_every=120,
                                   checkpoint_dir=str(first))).run()
        sim = restore_simulation(checkpoint_path(str(first), 120),
                                 checkpoint_every=120,
                                 checkpoint_dir=str(again))
        verify_roundtrip(straight, sim.run())
        assert sim.kernel_path == "planned"
        assert [r["tick"] for r in sim.checkpoint_records] == [240, 360]

    def test_run_restored_at_its_final_tick_returns_the_result(
            self, tmp_path):
        config = small_config()
        straight, _ = run_backend(config, "vmt-ta", "reference")
        final = config.trace.num_steps
        per_tick(ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                   record_heatmaps=False,
                                   checkpoint_every=final,
                                   checkpoint_dir=str(tmp_path))).run()
        sim = restore_simulation(checkpoint_path(str(tmp_path), final))
        verify_roundtrip(straight, sim.run())
        assert sim.kernel_path == "stepped"

    def test_live_buffer_run_refuses_lookahead_before_any_tick(self):
        """A live buffer raises on rows that have not arrived.  The
        segment loop reads a span's last row through the buffer's guard
        before it changes any state, so the run raises before its first
        tick."""
        config = small_config()
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                trace=partly_filled_buffer(config, 10),
                                record_heatmaps=False)
        with pytest.raises(TraceError, match="no lookahead"):
            sim.run()
        assert sim.kernel_path == "stepped"
        assert sim.engine.events_dispatched == 0

    @pytest.mark.parametrize("option",
                             (None, "telemetry", "checks", "observer"))
    @pytest.mark.parametrize("policy", sorted(SCHEDULER_NAMES))
    def test_every_run_refuses_lookahead_before_any_tick(self, policy,
                                                         option, tmp_path):
        """Closed-loop and instrumented runs, which take the per-tick
        driver, raise before their first tick too."""
        config = small_config()
        kwargs = {None: {}, "observer": {},
                  "telemetry": {"telemetry": str(tmp_path)},
                  "checks": {"checks": "cheap"}}[option]
        sim = ClusterSimulation(config, make_scheduler(policy, config),
                                trace=partly_filled_buffer(config, 10),
                                record_heatmaps=False, **kwargs)
        if option == "observer":
            per_tick(sim)
        with pytest.raises(TraceError, match="no lookahead"):
            sim.run()
        assert sim.engine.events_dispatched == 0
        assert sim._metrics.size == 0

    def test_fault_runs_fall_back_to_the_engine(self):
        """Fault runs take the stepped driver, which runs their fault
        events on the engine between ticks."""
        config = small_config(faults=True)
        _, sim = run_backend(config, "vmt-ta", "fast")
        assert sim.kernel_path == "stepped"
        assert sim.engine.events_dispatched > config.trace.num_steps

    def test_telemetry_runs_take_the_stepped_driver(self, tmp_path):
        config = small_config()
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                record_heatmaps=False,
                                telemetry=str(tmp_path))
        assert sim.run().fingerprint() == \
            run_backend(config, "vmt-ta", "fast")[0].fingerprint()
        assert sim.kernel_path == "stepped"

    def test_reference_backend_never_dispatches_kernels(self):
        """The reference the suite compares against is the per-tick
        chain: the no-op observer keeps a plannable run off the planned
        kernel."""
        _, sim = run_backend(small_config(), "vmt-ta", "reference")
        assert sim.kernel_path == "stepped"

    @pytest.mark.parametrize("backend", ("reference", "fast"))
    def test_backend_keyword_changes_nothing(self, backend, tmp_path):
        config = small_config()
        expected, _ = run_backend(config, "vmt-ta", "fast")
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                record_heatmaps=False, backend=backend)
        assert sim.run().fingerprint() == expected.fingerprint()
        assert sim.kernel_path == "planned"
        assert run_simulation(
            config, make_scheduler("vmt-ta", config),
            record_heatmaps=False,
            backend=backend).fingerprint() == expected.fingerprint()
        assert execute_spec(RunSpec(
            config, "vmt-ta", backend=backend)).fingerprint() == \
            execute_spec(RunSpec(config, "vmt-ta")).fingerprint()
        assert registry_key(config, "vmt-ta", backend) == \
            registry_key(config, "vmt-ta")
        per_tick(ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                   record_heatmaps=False,
                                   checkpoint_every=120,
                                   checkpoint_dir=str(tmp_path))).run()
        path = checkpoint_path(str(tmp_path), 120)
        resumed = restore_simulation(path, backend=backend)
        assert resumed.run().fingerprint() == expected.fingerprint()
        assert resumed.kernel_path == "planned"
        assert resume_run(path, backend=backend).fingerprint() == \
            expected.fingerprint()

    def test_unknown_backend_rejected(self, tmp_path):
        config = small_config()
        calls = [
            lambda: ClusterSimulation(config,
                                      make_scheduler("vmt-ta", config),
                                      backend="vectorized"),
            lambda: run_simulation(config, make_scheduler("vmt-ta", config),
                                   backend="vectorized"),
            lambda: execute_spec(RunSpec(config, "vmt-ta",
                                         backend="vectorized")),
            lambda: restore_simulation(str(tmp_path / "none.npz"),
                                       backend="vectorized"),
            lambda: resume_run(str(tmp_path / "none.npz"),
                               backend="vectorized"),
            lambda: gv_sweep((22.0,), num_servers=4, backend="vectorized"),
            lambda: registry_key(config, "vmt-ta", "vectorized"),
            lambda: api.run(policy="vmt-ta", config=config,
                            backend="vectorized"),
            lambda: api.compare(config=config, backend="vectorized"),
            lambda: api.sweep(grouping_values=(22.0,), num_servers=4,
                              backend="vectorized"),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError,
                               match="backend must be one of"):
                call()

    def test_env_variable_is_ignored(self, monkeypatch):
        config = small_config()
        expected, _ = run_backend(config, "vmt-ta", "fast")
        for value in ("reference", "fast", "vectorized"):
            monkeypatch.setenv("REPRO_BACKEND", value)
            result, sim = run_backend(config, "vmt-ta", "fast")
            assert sim.kernel_path == "planned"
            assert result.fingerprint() == expected.fingerprint()


class TestCheckpointRoundtrip:
    def test_roundtrip_through_the_fast_backend(self, tmp_path):
        """Checkpoint mid-run on the planned kernel, resume on it, and
        compare against a straight per-tick run -- the checkpoint
        oracle, crossing both drivers."""
        config = small_config()
        straight, _ = run_backend(config, "vmt-ta", "reference")
        partial = ClusterSimulation(config,
                                    make_scheduler("vmt-ta", config),
                                    record_heatmaps=False,
                                    checkpoint_every=100,
                                    checkpoint_dir=str(tmp_path))
        partial.run()
        assert partial.kernel_path == "planned"
        path = latest_checkpoint(str(tmp_path))
        assert path is not None
        resumed_sim = restore_simulation(path)
        resumed = resumed_sim.run()
        verify_roundtrip(straight, resumed)

    def test_cross_backend_checkpoint_resume(self, tmp_path):
        """A run checkpointed on the per-tick driver resumes
        bit-identically on the planned kernel."""
        config = small_config()
        straight, _ = run_backend(config, "vmt-ta", "fast")
        per_tick(ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                   record_heatmaps=False,
                                   checkpoint_every=150,
                                   checkpoint_dir=str(tmp_path))).run()
        resumed_sim = restore_simulation(latest_checkpoint(str(tmp_path)))
        resumed = resumed_sim.run()
        assert resumed_sim.kernel_path == "planned"
        verify_roundtrip(straight, resumed)

    @pytest.mark.parametrize("case", RESUME_CASES)
    def test_resumed_open_loop_runs_are_planned(self, case, tmp_path):
        """Resuming a per-tick checkpoint plans the rest of the run: same
        fingerprint as the straight run, and the same post-run state as
        a per-tick resume from that checkpoint."""
        config, policy = resume_case(case)
        straight = per_tick(ClusterSimulation(
            config, make_scheduler(policy, config), record_heatmaps=True,
            checkpoint_every=RESUME_TICKS[0],
            checkpoint_dir=str(tmp_path))).run()
        for tick in RESUME_TICKS:
            path = checkpoint_path(str(tmp_path), tick)
            fast_sim = restore_simulation(path)
            fast = fast_sim.run()
            assert fast_sim.kernel_path == "planned"
            assert fast.fingerprint() == straight.fingerprint()
            ref_sim = per_tick(restore_simulation(path))
            ref_sim.run()
            ref_snap = ref_sim.snapshot()
            fast_snap = fast_sim.snapshot()
            assert ref_snap.tick == fast_snap.tick
            assert_state_trees_equal(ref_snap.state, fast_snap.state)


#: Examples per generated differential (here and in ``test_live.py``):
#: 30 in tier-1; a longer CI job sets ``REPRO_DIFFERENTIAL_EXAMPLES``.
GENERATED_EXAMPLES = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", "30"))


def generated_cases(build):
    """``GENERATED_EXAMPLES`` distinct cases, ``build(index)`` for each
    index once.

    Hypothesis runs every value of a range no larger than its example
    budget exactly once, whereas its own generation mutates recent
    examples into families of near-duplicates.  So each case is a pure
    function of its index: the policy cycles through all five and the
    seed is the index, so no two cases are the same run, and the rest is
    drawn from a generator seeded by the index.
    """
    return st.integers(0, GENERATED_EXAMPLES - 1).map(build)


def fault_run(index: int):
    """(config, policy, checkpoint tick) of generated run ``index``.

    Scripted server, sensor and cooling faults fall at times off the tick
    grid; every run without hazard failures has at least one, and a
    cluster of fewer than 8 servers at most one server fault, which
    leaves it the capacity for its demand.  Even indices add hazard
    failures, and every fourth index repairs them after whole minutes,
    so a repair can share its timestamp with a hazard draw and a tick.
    Scripted server faults may repeat a server id, or hit one a hazard
    failure took down.  The tick is at least an eighth of the run, so
    the run writes at most eight checkpoints.
    """
    rng = random.Random(index)
    servers = rng.randint(4, 24)
    hours = rng.randint(1, 4)
    span_s = hours * 3600
    hazard = index % 2 == 0

    def off_grid():
        return rng.randint(0, span_s - 1) + rng.choice((0.25, 0.5, 0.75))

    def delay():
        return rng.choice((None, rng.randint(1, 7200) + 0.5))

    def server_id():
        return rng.randint(0, servers - 1)

    server_faults = tuple(
        ServerFaultSpec(time_s=off_grid(), server_id=server_id(),
                        repair_after_s=delay())
        for _ in range(rng.randint(0 if hazard else 1,
                                   2 if servers >= 8 else 1)))
    sensor_faults = tuple(
        SensorFaultSpec(time_s=off_grid(), server_id=server_id(),
                        sensor=rng.choice(("air", "wax")),
                        mode=rng.choice(("stuck", "dropout", "drift")),
                        drift_c_per_hour=rng.uniform(-5.0, 5.0),
                        clear_after_s=delay())
        for _ in range(rng.randint(0, 2)))
    cooling_faults = tuple(
        CoolingFaultSpec(time_s=off_grid(),
                         capacity_factor=rng.uniform(0.5, 1.0),
                         restore_after_s=delay())
        for _ in range(rng.randint(0, 1)))
    repair_time_s = (60.0 * rng.randint(1, 60) if index % 4 == 0
                     else rng.randint(60, 7200) + 0.5)
    faults = FaultConfig(
        enabled=True, hazard_failures=hazard, hazard_acceleration=3000.0,
        repair_time_s=repair_time_s, server_faults=server_faults,
        sensor_faults=sensor_faults, cooling_faults=cooling_faults)
    config = paper_cluster_config(
        num_servers=servers, grouping_value=rng.uniform(1.0, 36.0),
        seed=index).replace(trace=TraceConfig(duration_hours=hours))
    config = dataclasses.replace(config, faults=faults)
    policy = SCHEDULER_NAMES[index % len(SCHEDULER_NAMES)]
    ticks = config.trace.num_steps
    return config, policy, rng.randint(ticks // 8, ticks - 1)


class TestGeneratedCheckpointDifferential:
    """A run checkpointed at a drawn tick and resumed in a fresh
    simulation finishes exactly as the straight run does: fingerprint
    and final state tree, with faults and hazards in flight."""

    @given(case=generated_cases(fault_run))
    @settings(max_examples=GENERATED_EXAMPLES, deadline=None,
              derandomize=True)
    def test_resume_matches_the_straight_run(self, case):
        config, policy, tick = case
        with tempfile.TemporaryDirectory() as directory:
            straight_sim = ClusterSimulation(
                config, make_scheduler(policy, config),
                record_heatmaps=False, checkpoint_every=tick,
                checkpoint_dir=directory)
            straight = straight_sim.run()
            resumed_sim = restore_simulation(
                checkpoint_path(directory, tick))
            resumed = resumed_sim.run()
        assert resumed.fingerprint() == straight.fingerprint()
        assert_state_trees_equal(straight_sim.snapshot().state,
                                 resumed_sim.snapshot().state)


class TestPlannedSegments:
    """``planned.advance`` stops at any tick with the reference state."""

    @pytest.mark.parametrize("policy, every",
                             [("vmt-ta", 60), ("round-robin", 45)])
    def test_checkpoints_equal_the_reference_run(self, policy, every,
                                                 tmp_path):
        config = small_config()
        sims, results = {}, {}
        for backend in ("reference", "fast"):
            sim = ClusterSimulation(
                config, make_scheduler(policy, config),
                checkpoint_every=every,
                checkpoint_dir=str(tmp_path / backend))
            if backend == "reference":
                per_tick(sim)
            results[backend] = sim.run()
            sims[backend] = sim
        assert sims["fast"].kernel_path == "planned"
        assert (results["fast"].fingerprint()
                == results["reference"].fingerprint())
        ticks = [r["tick"] for r in sims["reference"].checkpoint_records]
        assert ticks == list(range(every, config.trace.num_steps + 1,
                                   every))
        assert [r["tick"] for r in sims["fast"].checkpoint_records] == ticks
        for tick in ticks:
            expected = load_snapshot(
                checkpoint_path(str(tmp_path / "reference"), tick))
            got = load_snapshot(checkpoint_path(str(tmp_path / "fast"), tick))
            assert got.tick == expected.tick == tick
            assert_state_trees_equal(expected.state, got.state)

    def test_segment_past_the_arrived_rows_raises_and_changes_nothing(self):
        config = small_config()
        buffer = partly_filled_buffer(config, 10)
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                trace=buffer, record_heatmaps=False)
        sim.begin_streaming()
        sim.advance_stream(4)
        before = sim.snapshot()
        with pytest.raises(TraceError, match="no lookahead"):
            sim._advance(11)
        with pytest.raises(TraceError, match="no lookahead"):
            sim.advance_stream(10)
        after = sim.snapshot()
        assert before.tick == after.tick == 5
        assert_state_trees_equal(before.state, after.state)
        assert buffer.filled == 10
        sim.advance_stream(9)  # every arrived row still plans
        assert sim.kernel_path == "planned"
        assert sim.finish_streaming().times_s.shape == (10,)


class TestParallelModes:
    def test_thread_mode_fast_sweep_matches_serial_reference(self):
        gvs = (18.0, 22.0)
        serial = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                          max_workers=1)
        threaded = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                            max_workers=2, workers_mode="thread")
        for policy in serial.reductions:
            assert (serial.reductions[policy] ==
                    threaded.reductions[policy]).all()
