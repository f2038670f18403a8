"""Backend equivalence: ``backend="fast"`` is bit-identical, and engages.

The fast tick engine's contract is exact: same RNG stream consumption,
same IEEE-754 operation order per element, same recorded series as the
reference event-engine loop.  ``SimulationResult.fingerprint()`` (the
golden-trace hash) is the oracle throughout, so any single-bit drift in
any recorded series fails these tests.

The suite also pins *dispatch*: clean open-loop runs (round-robin, and
VMT-TA at every grouping value) must take the planned whole-run kernel,
other clean runs the stepped driver, and fault/telemetry runs must fall
back to the reference engine -- otherwise a silently-ineligible fast
path would pass equivalence while delivering no speedup.

The default config (GV 22) never overflows a group, so the open-loop
cases below add the ticks where VMT-TA spills across groups, the empty
groups, and round-robin; a hypothesis oracle checks the planner's
closed-form spill placement tick by tick against the scheduler itself.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import gv_sweep
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.cluster.state import ClusterView
from repro.config import (CoolingFaultSpec, FaultConfig, SensorFaultSpec,
                          ServerConfig, ServerFaultSpec, SimulationConfig,
                          TraceConfig, paper_cluster_config)
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.core.scheduler import NUM_WORKLOADS
from repro.core.vmt_ta import VMTThermalAwareScheduler
from repro.kernel import is_numba_available, resolve_backend
from repro.kernel.planned import plan_vmt_ta
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario
from repro.state.checkpoint import (latest_checkpoint, restore_simulation,
                                    verify_roundtrip)

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


def small_config(faults: bool = False, num_servers: int = NUM_SERVERS,
                 grouping_value: float = 22.0):
    config = paper_cluster_config(num_servers=num_servers,
                                  grouping_value=grouping_value, seed=SEED)
    config = config.replace(trace=TraceConfig(duration_hours=HOURS))
    if faults:
        config = dataclasses.replace(config, faults=FAULTS)
    return config


def open_loop_case(case: str):
    """(config, policy) of one :data:`OPEN_LOOP` run."""
    policy, num_servers, grouping_value = OPEN_LOOP[case]
    return small_config(num_servers=num_servers,
                        grouping_value=grouping_value), policy


def run_backend(config, policy: str, backend: str):
    """One run; returns (result, simulation) so tests can read state."""
    sim = ClusterSimulation(config, make_scheduler(policy, config),
                            record_heatmaps=False, backend=backend)
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
        assert ref_sim.kernel_path == "reference"
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

    def test_fault_runs_fall_back_to_the_engine(self):
        _, sim = run_backend(small_config(faults=True), "vmt-ta", "fast")
        assert sim.kernel_path == "reference"

    def test_reference_backend_never_dispatches_kernels(self):
        _, sim = run_backend(small_config(), "vmt-ta", "reference")
        assert sim.kernel_path == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("vectorized")

    def test_env_variable_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "reference"
        monkeypatch.setenv("REPRO_BACKEND", "fast")
        assert resolve_backend(None) == "fast"
        assert resolve_backend("reference") == "reference"


class TestCheckpointRoundtrip:
    def test_roundtrip_through_the_fast_backend(self, tmp_path):
        """Checkpoint mid-run under the fast backend, resume under the
        fast backend, and compare against a straight reference run --
        the PR 5 oracle, now crossing both engines."""
        config = small_config()
        straight = run_simulation(config,
                                  make_scheduler("vmt-ta", config),
                                  record_heatmaps=False,
                                  backend="reference")
        partial = ClusterSimulation(config,
                                    make_scheduler("vmt-ta", config),
                                    record_heatmaps=False, backend="fast",
                                    checkpoint_every=100,
                                    checkpoint_dir=str(tmp_path))
        partial.run()
        path = latest_checkpoint(str(tmp_path))
        assert path is not None
        resumed_sim = restore_simulation(path, backend="fast")
        resumed = resumed_sim.run()
        verify_roundtrip(straight, resumed)

    def test_cross_backend_checkpoint_resume(self, tmp_path):
        """A run checkpointed under reference resumes bit-identically
        under fast (and the restored run engages a kernel)."""
        config = small_config()
        straight = run_simulation(config,
                                  make_scheduler("vmt-ta", config),
                                  record_heatmaps=False,
                                  backend="fast")
        ClusterSimulation(config, make_scheduler("vmt-ta", config),
                          record_heatmaps=False, backend="reference",
                          checkpoint_every=150,
                          checkpoint_dir=str(tmp_path)).run()
        resumed_sim = restore_simulation(
            latest_checkpoint(str(tmp_path)), backend="fast")
        resumed = resumed_sim.run()
        assert resumed_sim.kernel_path == "stepped"
        verify_roundtrip(straight, resumed)


class TestParallelModes:
    def test_thread_mode_fast_sweep_matches_serial_reference(self):
        gvs = (18.0, 22.0)
        serial = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                          max_workers=1, backend="reference")
        threaded = gv_sweep(gvs, num_servers=NUM_SERVERS, seed=SEED,
                            max_workers=2, workers_mode="thread",
                            backend="fast")
        for policy in serial.reductions:
            assert (serial.reductions[policy] ==
                    threaded.reductions[policy]).all()


@pytest.mark.skipif(not is_numba_available(),
                    reason="numba not installed; the python spelling of "
                           "the fused physics loop is already covered")
class TestNumbaKernel:
    def test_njit_physics_matches_reference(self):
        config = small_config()
        ref, _ = run_backend(config, "vmt-ta", "reference")
        fast, sim = run_backend(config, "vmt-ta", "fast")
        assert sim.kernel_path == "planned"
        assert ref.fingerprint() == fast.fingerprint()
