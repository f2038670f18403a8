"""Tests for the streaming/live subsystem (``repro.live``).

The load-bearing contract is the oracle differential: a live run driven
by the perfect forecaster over a trace-replay feed must be bit-identical
to the offline batch run for every policy -- any gap under a real
forecaster is then a measured property of the forecaster, not a harness
artifact.  Around that: no-lookahead enforcement, feed framing, live
determinism, MPC shadow racing, mid-stream checkpoint/resume as state
migration, and the cooperative (thread-safe) run timeout.

A live run advances once per decision or checkpoint interval.  A clean
open-loop run plans each interval as one segment; it must match the
per-row path (the same ticks fired one by one on the per-tick driver,
forced by attaching an observer) in fingerprint, control trail and the
snapshot state tree at every decision, on hand-picked and generated
cases.  A checkpointing stream must match the same stream without
checkpoints, write snapshots that hold exactly their tick's rows, and
resume from any of them to the straight run's fingerprint.
"""

import glob
import json
import random
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_kernel_equivalence import (GENERATED_EXAMPLES,
                                     assert_state_trees_equal,
                                     generated_cases, per_tick)

from repro import api
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.config import SimulationConfig, TraceConfig, paper_cluster_config
from repro.core.grouping import hot_group_size
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.errors import SimulationError, TraceError
from repro.live import (JsonlFeed, LiveRunner, LiveTraceBuffer,
                        MPCController, SyntheticArrivalFeed,
                        TraceReplayFeed, invert_grouping_value,
                        make_feed, make_forecaster, resume_live)
from repro.perf.runner import RunFailure, RunSpec, _execute_captured
from repro.state.checkpoint import checkpoint_path, verify_roundtrip
from repro.state.snapshot import load_snapshot
from repro.workloads.workload import HOT_INDICES, WORKLOAD_LIST

NUM_WORKLOADS = len(WORKLOAD_LIST)


def tiny_config(hours=2.0, servers=6, seed=11):
    return SimulationConfig(
        num_servers=servers, seed=seed,
        trace=TraceConfig(duration_hours=hours))


def run_live(config, policy, feed, *, per_row, decision_every,
             forecaster="last-value", mpc_horizon=None, **kwargs):
    """One live run: (report, state tree at every decision, simulation).

    ``per_row`` attaches a no-op observer, so the run fires its ticks on
    the per-tick driver instead of planning each decision interval.
    """
    mpc = (None if mpc_horizon is None
           else MPCController(config, horizon_steps=mpc_horizon))
    runner = LiveRunner(config, policy, feed, forecaster=forecaster,
                        decision_every=decision_every, mpc=mpc, **kwargs)
    sim = runner.simulation
    if per_row:
        per_tick(sim)
    states = []
    decide = runner._decide

    def capture(step):
        states.append(sim.snapshot().state)
        decide(step)

    runner._decide = capture
    return runner.run(), states, sim


def assert_live_runs_equal(planned_run, per_row_run):
    """Planned segments against the per-row path, decision by decision."""
    (planned, planned_states, planned_sim) = planned_run
    (per_row, per_row_states, per_row_sim) = per_row_run
    assert planned_sim.kernel_path == "planned"
    assert per_row_sim.kernel_path == "stepped"
    assert planned.result.fingerprint() == per_row.result.fingerprint()
    assert planned.steps_ingested == per_row.steps_ingested
    assert planned.gv_trail == per_row.gv_trail
    assert planned.mpc_decisions == per_row.mpc_decisions
    assert len(planned_states) == len(per_row_states)
    for expected, got in zip(per_row_states, planned_states):
        assert_state_trees_equal(expected, got)
    assert_state_trees_equal(per_row_sim.snapshot().state,
                             planned_sim.snapshot().state)


class TestLiveTraceBuffer:
    def test_lookahead_is_structurally_impossible(self):
        buffer = LiveTraceBuffer(10, 60.0, 192)
        buffer.append(np.ones(NUM_WORKLOADS, dtype=np.int64))
        assert buffer.filled == 1
        buffer.demand_at(0)  # arrived: fine
        with pytest.raises(TraceError, match="no lookahead"):
            buffer.demand_at(1)
        with pytest.raises(TraceError, match="no lookahead"):
            buffer.demand_at(9)

    def test_append_validates_shape_sign_and_capacity(self):
        buffer = LiveTraceBuffer(4, 60.0, 10)
        with pytest.raises(TraceError):
            buffer.append(np.zeros(NUM_WORKLOADS + 1, dtype=np.int64))
        with pytest.raises(TraceError):
            buffer.append(np.array([-1, 0, 0, 0, 0]))
        with pytest.raises(TraceError, match="exceeds cluster capacity"):
            buffer.append(np.array([11, 0, 0, 0, 0]))
        for _ in range(4):
            buffer.append(np.zeros(NUM_WORKLOADS, dtype=np.int64))
        with pytest.raises(TraceError, match="full"):
            buffer.append(np.zeros(NUM_WORKLOADS, dtype=np.int64))

    def test_fingerprint_covers_only_the_ingested_prefix(self):
        a = LiveTraceBuffer(8, 60.0, 100)
        b = LiveTraceBuffer(8, 60.0, 100)
        row = np.array([3, 1, 0, 2, 0])
        a.append(row)
        assert a.fingerprint() != b.fingerprint()
        b.append(row)
        assert a.fingerprint() == b.fingerprint()

    def test_state_roundtrip_restores_prefix(self):
        a = LiveTraceBuffer(6, 60.0, 50)
        for k in range(3):
            a.append(np.array([k, 0, 1, 0, 0]))
        b = LiveTraceBuffer(6, 60.0, 50)
        b.load_state_dict(a.state_dict())
        assert b.filled == 3
        assert b.fingerprint() == a.fingerprint()
        mismatched = LiveTraceBuffer(7, 60.0, 50)
        with pytest.raises(TraceError, match="framing"):
            mismatched.load_state_dict(a.state_dict())

    def test_with_forecast_clips_over_capacity_rows(self):
        buffer = LiveTraceBuffer(6, 60.0, 10)
        buffer.append(np.array([1, 1, 0, 0, 0]))
        wild = np.array([[100, 100, 0, 0, 0]])
        trace = buffer.with_forecast(wild)
        assert trace.num_steps == 2
        assert trace.counts[1].sum() <= 10
        np.testing.assert_array_equal(trace.counts[0],
                                      [1, 1, 0, 0, 0])


class TestFeeds:
    def test_replay_feed_matches_batch_trace(self):
        config = tiny_config()
        feed = TraceReplayFeed.from_config(config)
        rows = list(feed.iter_rows())
        assert len(rows) == config.trace.num_steps
        assert rows[0][0] == 0
        np.testing.assert_array_equal(rows[5][1],
                                      feed.trace.counts[5])

    def test_synthetic_feed_is_seeded_and_capacity_bounded(self):
        a = SyntheticArrivalFeed(120, 60.0, 192, seed=3)
        b = SyntheticArrivalFeed(120, 60.0, 192, seed=3)
        c = SyntheticArrivalFeed(120, 60.0, 192, seed=4)
        rows_a = np.array([r for _, r in a.iter_rows()])
        rows_b = np.array([r for _, r in b.iter_rows()])
        rows_c = np.array([r for _, r in c.iter_rows()])
        np.testing.assert_array_equal(rows_a, rows_b)
        assert not np.array_equal(rows_a, rows_c)
        assert rows_a.sum(axis=1).max() <= 192

    def test_jsonl_feed_header_and_rows(self):
        lines = ['{"num_steps": 3, "step_seconds": 60.0, '
                 '"total_cores": 50}',
                 '{"jobs": [1, 2, 3, 4, 5]}',
                 '',
                 '[5, 4, 3, 2, 1]']
        feed = JsonlFeed(lines)
        assert feed.num_steps == 3
        rows = list(feed.iter_rows())
        assert len(rows) == 2  # stream ended early: run just ends
        np.testing.assert_array_equal(rows[0][1], [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(rows[1][1], [5, 4, 3, 2, 1])
        with pytest.raises(TraceError, match="rewind"):
            list(feed.iter_rows(start=1))

    def test_jsonl_feed_requires_framing(self):
        with pytest.raises(TraceError, match="num_steps"):
            JsonlFeed(['{"jobs": [1, 2, 3, 4, 5]}'])

    def test_make_feed_kinds(self):
        config = tiny_config()
        assert isinstance(make_feed("replay", config), TraceReplayFeed)
        synthetic = make_feed("synthetic", config)
        assert synthetic.num_steps == config.trace.num_steps
        with pytest.raises(TraceError, match="unknown feed"):
            make_feed("psychic", config)


class TestForecasters:
    def test_invert_grouping_value_roundtrips_eq1(self):
        from repro.core.grouping import hot_group_size
        config = tiny_config()
        pmt = config.wax.melt_temp_c
        for servers in range(1, config.num_servers):
            gv = servers * pmt / config.num_servers
            assert hot_group_size(gv, pmt, config.num_servers) == servers
        gv = invert_grouping_value(3 * config.server.cores, config)
        assert hot_group_size(gv, pmt, config.num_servers) == 3

    def test_last_value_falls_back_to_configured_gv(self):
        config = tiny_config()
        forecaster = make_forecaster("last-value", config)
        assert forecaster.grouping_value(0) == \
            config.scheduler.grouping_value
        forecaster.observe(0, np.array([50, 50, 0, 0, 0]))
        assert forecaster.grouping_value(1) != \
            config.scheduler.grouping_value

    def test_oracle_forecast_requires_trace(self):
        config = tiny_config()
        oracle = make_forecaster("oracle", config)
        with pytest.raises(SimulationError, match="trace"):
            oracle.forecast(0, 5)


class TestOracleDifferential:
    """THE honesty proof: live + oracle == offline batch, bit for bit."""

    @pytest.mark.parametrize("policy", sorted(SCHEDULER_NAMES))
    def test_live_oracle_is_bit_identical_to_batch(self, policy):
        config = tiny_config()
        batch = run_simulation(config, make_scheduler(policy, config))
        feed = TraceReplayFeed.from_config(config)
        live = LiveRunner(config, policy, feed,
                          forecaster="oracle").run()
        assert live.result.fingerprint() == batch.fingerprint()
        assert live.steps_ingested == config.trace.num_steps

    @pytest.mark.parametrize("policy", ("vmt-wa", "coolest-first"))
    def test_step_not_exact_in_binary(self, policy):
        """At a 59.9 s step the accumulated tick time passes ``k * 59.9``
        from tick 21 on; each live tick still fires at the batch run's
        time, and none is dropped."""
        config = SimulationConfig(
            num_servers=6, seed=11,
            trace=TraceConfig(duration_hours=1.0, step_seconds=59.9))
        batch = run_simulation(config, make_scheduler(policy, config))
        live = LiveRunner(config, policy,
                          TraceReplayFeed.from_config(config),
                          forecaster="oracle").run()
        assert len(live.result.times_s) == config.trace.num_steps == 60
        assert live.result.fingerprint() == batch.fingerprint()

    def test_live_runs_are_deterministic(self):
        config = tiny_config()
        fingerprints = set()
        for _ in range(2):
            feed = SyntheticArrivalFeed(
                60, 60.0, config.total_cores, seed=9)
            report = LiveRunner(config, "vmt-wa", feed,
                                forecaster="last-value",
                                decision_every=10).run()
            fingerprints.add(report.result.fingerprint())
        assert len(fingerprints) == 1

    def test_naive_forecaster_measurably_degrades_peak_cooling(self):
        # Over a full diurnal cycle the persistence forecaster lags the
        # ramp: it under-sizes the hot group into the peak.  The paper's
        # oracle assumption is worth real watts.
        config = tiny_config(hours=24.0, servers=8, seed=7)
        batch = run_simulation(config, make_scheduler("vmt-ta", config))
        feed = TraceReplayFeed.from_config(config)
        naive = LiveRunner(config, "vmt-ta", feed,
                           forecaster="last-value",
                           decision_every=15).run()
        assert naive.result.fingerprint() != batch.fingerprint()
        assert naive.result.peak_cooling_load_w > \
            1.05 * batch.peak_cooling_load_w


class TestLiveRunnerGuards:
    def test_feed_framing_must_match_config(self):
        config = tiny_config()
        bad_cores = SyntheticArrivalFeed(10, 60.0,
                                         config.total_cores + 1)
        with pytest.raises(SimulationError, match="cores"):
            LiveRunner(config, "vmt-ta", bad_cores)
        bad_step = SyntheticArrivalFeed(10, 30.0, config.total_cores)
        with pytest.raises(SimulationError, match="step_seconds"):
            LiveRunner(config, "vmt-ta", bad_step)

    def test_live_refuses_fault_injection(self):
        import dataclasses
        from repro.cluster.simulation import ClusterSimulation
        from repro.faults import FaultInjector, kill_servers
        config = dataclasses.replace(tiny_config(),
                                     faults=kill_servers([0], 0.5))
        buffer = LiveTraceBuffer(10, 60.0, config.total_cores)
        sim = ClusterSimulation(config,
                                make_scheduler("vmt-ta", config),
                                trace=buffer,
                                fault_injector=FaultInjector(config))
        with pytest.raises(SimulationError, match="fault"):
            sim.begin_streaming()


class TestMPC:
    def test_mpc_decisions_are_recorded_and_clipped(self):
        config = tiny_config(hours=4.0)
        feed = TraceReplayFeed.from_config(config)
        mpc = MPCController(config, horizon_steps=20, max_workers=1)
        report = LiveRunner(config, "vmt-ta", feed,
                            forecaster="last-value",
                            decision_every=60, mpc=mpc).run()
        assert report.mpc_decisions
        pmt = config.wax.melt_temp_c
        n = config.num_servers
        for decision in report.mpc_decisions:
            assert len(decision["candidates"]) == \
                len(decision["predicted_peak_w"])
            assert decision["chosen_gv"] in decision["candidates"]
            for gv in decision["candidates"]:
                assert pmt / n <= gv <= pmt * (n - 1) / n
            best = int(np.argmin(decision["predicted_peak_w"]))
            assert decision["chosen_gv"] == \
                decision["candidates"][best]

    @pytest.mark.parametrize("forecaster", ("oracle", "last-value"))
    def test_one_server_keeps_the_incumbent(self, forecaster):
        """Regression: with one server every candidate clamped to GV 0,
        and the first decision raised "grouping value must be
        positive"."""
        config = paper_cluster_config(num_servers=1, seed=3).replace(
            trace=TraceConfig(duration_hours=3.0))
        report = api.live_run(policy="vmt-ta", config=config, mpc=True,
                              forecaster=forecaster)
        assert report.mpc_decisions
        gv = config.scheduler.grouping_value
        for decision in report.mpc_decisions:
            assert decision["candidates"] == [gv]
            assert decision["chosen_gv"] == gv
        assert report.result.times_s.shape == (180,)

    def test_mpc_threaded_race_matches_sequential(self):
        config = tiny_config(hours=3.0)
        reports = []
        for workers in (1, 4):
            feed = TraceReplayFeed.from_config(config)
            mpc = MPCController(config, horizon_steps=15,
                                max_workers=workers)
            reports.append(
                LiveRunner(config, "vmt-wa", feed,
                           forecaster="last-value", decision_every=45,
                           mpc=mpc).run())
        assert reports[0].result.fingerprint() == \
            reports[1].result.fingerprint()
        assert reports[0].mpc_decisions == reports[1].mpc_decisions

    def test_shadow_is_planned_and_matches_reference(self):
        """A VMT-TA shadow is a clean open-loop run restored mid-run: it
        takes the planned kernel, and it runs bit-identically to the
        same shadow forced onto the per-tick driver."""
        config = tiny_config(hours=4.0, servers=8, seed=7)
        mpc = MPCController(config, horizon_steps=30, max_workers=1)
        forks = []
        score = mpc._score_shadow

        def capture(snapshot, trace, gv, history_rows):
            forks.append((snapshot, trace))
            return score(snapshot, trace, gv, history_rows)

        mpc._score_shadow = capture
        LiveRunner(config, "vmt-ta", TraceReplayFeed.from_config(config),
                   forecaster="last-value", decision_every=60,
                   mpc=mpc).run()
        snapshot, trace = next(fork for fork in forks
                               if fork[0].tick >= 120)
        # One hot server: every hot job beyond its cores spills, and the
        # forecast window's hot demand always exceeds them.
        gv = config.wax.melt_temp_c / config.num_servers
        assert hot_group_size(gv, config.wax.melt_temp_c,
                              config.num_servers) == 1
        window = trace.counts[snapshot.tick:]
        assert (window[:, list(HOT_INDICES)].sum(axis=1)
                > config.server.cores).all()

        fingerprints = {}
        for per_row in (False, True):
            shadow_config = SimulationConfig.from_dict(snapshot.config)
            scheduler = make_scheduler(snapshot.policy, shadow_config)
            shadow = ClusterSimulation(
                shadow_config, scheduler, trace=trace,
                record_heatmaps=snapshot.record_heatmaps, checks="off")
            shadow.restore(snapshot, trace_check=False)
            if per_row:
                per_tick(shadow)
            scheduler.retarget_grouping(gv)
            fingerprints[per_row] = shadow.run().fingerprint()
            assert shadow.kernel_path == (
                "stepped" if per_row else "planned")
        assert fingerprints[False] == fingerprints[True]

    @pytest.mark.parametrize("workers", (1, 4))
    def test_one_shadow_per_distinct_hot_group_size(self, workers):
        """One shadow races per distinct Eq. 1 hot-group size, and every
        candidate scores the peak of the shadow raced at its size."""
        config = tiny_config(hours=6.0, servers=8, seed=7)
        mpc = MPCController(config, horizon_steps=20, max_workers=workers)
        raced = []  # (decision index, gv, peak) of every shadow
        score = mpc._score_shadow

        def counted(snapshot, trace, gv, history_rows):
            peak = score(snapshot, trace, gv, history_rows)
            raced.append((len(mpc.decisions), gv, peak))
            return peak

        mpc._score_shadow = counted
        LiveRunner(config, "vmt-ta", TraceReplayFeed.from_config(config),
                   forecaster="last-value", decision_every=30,
                   mpc=mpc).run()
        pmt, n = config.wax.melt_temp_c, config.num_servers
        shared = distinct = 0
        for index, decision in enumerate(mpc.decisions):
            shadows = [(gv, peak) for i, gv, peak in raced if i == index]
            peak_by_size = {hot_group_size(gv, pmt, n): peak
                            for gv, peak in shadows}
            sizes = [hot_group_size(gv, pmt, n)
                     for gv in decision.candidates]
            assert len(shadows) == len(peak_by_size) == len(set(sizes))
            assert decision.predicted_peak_w == tuple(
                peak_by_size[size] for size in sizes)
            shared += len(sizes) - len(set(sizes))
            distinct += len(set(decision.predicted_peak_w)) > 1
        assert shared > 0  # some decision did share a hot-group size
        assert distinct > 0  # and some scored sizes apart


class TestLiveMigration:
    """Checkpoint/resume treated as live state migration."""

    def test_mid_stream_checkpoint_resumes_bit_identically(self, tmp_path):
        config = tiny_config(hours=3.0, servers=8, seed=7)
        feed = TraceReplayFeed.from_config(config)
        straight = LiveRunner(config, "vmt-wa", feed,
                              forecaster="last-value",
                              decision_every=10).run()

        feed2 = TraceReplayFeed.from_config(config)
        LiveRunner(config, "vmt-wa", feed2, forecaster="last-value",
                   decision_every=10, checkpoint_every=60,
                   checkpoint_dir=str(tmp_path)).run()
        checkpoints = sorted(glob.glob(str(tmp_path / "*.npz")))
        assert len(checkpoints) >= 2
        mid = checkpoints[len(checkpoints) // 2]

        feed3 = TraceReplayFeed.from_config(config)
        runner = resume_live(mid, feed3, forecaster="last-value",
                             decision_every=10)
        assert runner.buffer.filled > 0  # prefix came from the snapshot
        resumed = runner.run()
        assert resumed.steps_ingested < straight.steps_ingested
        verify_roundtrip(straight.result, resumed.result)

    def test_mpc_stream_resumes_bit_identically(self, tmp_path):
        """A resumed MPC stream races its first decision against the last
        GV decided before the snapshot, as the straight stream does."""
        config = paper_cluster_config(
            num_servers=11, grouping_value=30.57821956020735,
            seed=72).replace(trace=TraceConfig(duration_hours=4.0))

        def stream(**kwargs):
            return LiveRunner(config, "vmt-ta",
                              TraceReplayFeed.from_config(config),
                              forecaster="oracle", decision_every=15,
                              mpc=MPCController(config, horizon_steps=13),
                              **kwargs)

        straight = stream().run()
        stream(checkpoint_every=40, checkpoint_dir=str(tmp_path)).run()
        resumed = resume_live(
            checkpoint_path(str(tmp_path), 40),
            TraceReplayFeed.from_config(config), forecaster="oracle",
            decision_every=15,
            mpc=MPCController(config, horizon_steps=13)).run()
        # The snapshot's scheduler holds the GV decided at step 30.
        assert straight.gv_trail[2] != (30, config.scheduler.grouping_value)
        assert resumed.gv_trail == straight.gv_trail[3:]
        assert resumed.result.fingerprint() == straight.result.fingerprint()

    def test_resume_live_rejects_batch_snapshots(self, tmp_path):
        config = tiny_config()
        run_simulation(config, make_scheduler("vmt-ta", config),
                       checkpoint_every=60,
                       checkpoint_dir=str(tmp_path))
        batch_ckpt = sorted(glob.glob(str(tmp_path / "*.npz")))[0]
        feed = TraceReplayFeed.from_config(config)
        with pytest.raises(SimulationError, match="no live state"):
            resume_live(batch_ckpt, feed)

    def test_api_live_run_resume_from(self, tmp_path):
        config = tiny_config(hours=2.0)
        straight = api.live_run(policy="vmt-ta", config=config,
                                forecaster="oracle")
        api.live_run(policy="vmt-ta", config=config,
                     forecaster="oracle", checkpoint_every=40,
                     checkpoint_dir=str(tmp_path))
        mid = sorted(glob.glob(str(tmp_path / "*.npz")))[0]
        resumed = api.live_run(resume_from=mid, forecaster="oracle")
        verify_roundtrip(straight.result, resumed.result)


class TestSegmentPlanning:
    """Open-loop live runs plan each decision interval as one segment."""

    @pytest.mark.parametrize("mpc", (False, True), ids=("forecast", "mpc"))
    @pytest.mark.parametrize("cadence", (1, 7, 60))
    @pytest.mark.parametrize("policy", ("vmt-ta", "round-robin"))
    def test_segments_match_the_per_row_path(self, policy, cadence, mpc):
        config = tiny_config(hours=2.0, servers=8, seed=7)
        runs = [run_live(config, policy, TraceReplayFeed.from_config(config),
                         per_row=per_row, decision_every=cadence,
                         mpc_horizon=10 if mpc else None)
                for per_row in (False, True)]
        assert len(runs[0][1]) == -(-config.trace.num_steps // cadence)
        assert_live_runs_equal(*runs)

    def test_observer_attached_mid_stream_takes_over_on_the_engine(self):
        """After planned ticks, a stream that stops being plannable fires
        its next tick on the per-tick driver, on time."""
        config = tiny_config(hours=2.0, servers=8, seed=7)
        trace = TraceReplayFeed.from_config(config).trace
        buffer = LiveTraceBuffer(trace.num_steps, trace.step_seconds,
                                 trace.total_cores)
        sim = ClusterSimulation(config, make_scheduler("vmt-ta", config),
                                trace=buffer)
        sim.begin_streaming()
        for step in range(trace.num_steps):
            buffer.append(trace.demand_at(step))
            if step < 50:
                sim.advance_stream(step)
        assert sim.kernel_path == "planned"
        seen = []
        sim.add_observer(lambda time_s, *_: seen.append(time_s))
        sim.advance_stream(trace.num_steps - 1)
        assert seen[0] == 51 * trace.step_seconds
        assert len(seen) == trace.num_steps - 50
        assert sim.engine.events_dispatched == trace.num_steps
        batch = run_simulation(config, make_scheduler("vmt-ta", config))
        assert sim.finish_streaming().fingerprint() == batch.fingerprint()

    def test_early_closed_jsonl_feed(self):
        config = tiny_config(hours=2.0, servers=8, seed=7)
        counts = TraceReplayFeed.from_config(config).trace.counts
        lines = [json.dumps({"num_steps": config.trace.num_steps,
                             "step_seconds": config.trace.step_seconds,
                             "total_cores": config.total_cores})]
        lines += [json.dumps({"jobs": row.tolist()}) for row in counts[:77]]
        runs = [run_live(config, "vmt-ta", JsonlFeed(lines), per_row=per_row,
                         decision_every=15)
                for per_row in (False, True)]
        assert runs[0][0].steps_ingested == 77
        assert len(runs[0][0].result.times_s) == 77
        assert_live_runs_equal(*runs)

    def test_resume_live_plans_from_the_restored_tick(self, tmp_path):
        config = tiny_config(hours=4.0, servers=8, seed=7)
        straight = LiveRunner(config, "vmt-ta",
                              TraceReplayFeed.from_config(config),
                              forecaster="last-value",
                              decision_every=15).run()
        LiveRunner(config, "vmt-ta", TraceReplayFeed.from_config(config),
                   forecaster="last-value", decision_every=15,
                   checkpoint_every=60, checkpoint_dir=str(tmp_path)).run()
        runner = resume_live(checkpoint_path(str(tmp_path), 120),
                             TraceReplayFeed.from_config(config),
                             forecaster="last-value", decision_every=15)
        resumed = runner.run()
        assert runner.simulation.kernel_path == "planned"
        assert resumed.steps_ingested == config.trace.num_steps - 120
        assert resumed.result.fingerprint() == straight.result.fingerprint()

    @pytest.mark.parametrize("policy, option, path", [
        ("vmt-ta", None, "planned"),
        ("round-robin", None, "planned"),
        ("vmt-wa", None, "reference"),
        ("vmt-ta", "telemetry", "reference"),
        ("vmt-ta", "checkpoints", "planned"),
        ("vmt-ta", "sanitizer", "reference"),
    ])
    def test_dispatch(self, policy, option, path, tmp_path):
        config = tiny_config()
        kwargs = {None: {},
                  "telemetry": {"telemetry": str(tmp_path)},
                  "checkpoints": {"checkpoint_every": 30,
                                  "checkpoint_dir": str(tmp_path)},
                  "sanitizer": {"checks": "cheap"}}[option]
        runner = LiveRunner(config, policy,
                            TraceReplayFeed.from_config(config),
                            forecaster="oracle", **kwargs)
        report = runner.run()
        # "reference" is the per-tick chain, which the stepped driver
        # fires tick by tick.
        assert runner.simulation.kernel_path == (
            "stepped" if path == "reference" else path)
        batch = run_simulation(config, make_scheduler(policy, config))
        assert report.result.fingerprint() == batch.fingerprint()


def live_case(index: int):
    """(servers, hours, gv, cadence, policy, forecaster, feed, horizon,
    seed, every) of generated live run ``index``; ``horizon`` None runs
    no MPC, and ``every`` None writes no checkpoints.  The policy cycles
    through all five and the seed is the index (see
    :func:`~test_kernel_equivalence.generated_cases`)."""
    rng = random.Random(index)
    policy = SCHEDULER_NAMES[index % len(SCHEDULER_NAMES)]
    return (rng.randint(4, 16), rng.randint(1, 6), rng.uniform(1.0, 36.0),
            rng.randint(1, 90), policy, rng.choice(("oracle", "last-value")),
            rng.choice(("replay", "synthetic")),
            rng.choice((None, rng.randint(5, 60))), index,
            rng.choice((None, rng.randint(1, 90))))


class TestGeneratedLiveDifferential:
    """Generated live runs.  Open-loop: planned segments == per-row path,
    decision by decision.  Checkpointing: == the same stream without
    checkpoints, every snapshot holds its tick's rows, and a resume from
    one of them == the straight run.  With the oracle over a replay feed
    and no MPC: == the batch run on the per-tick chain."""

    @given(case=generated_cases(live_case))
    @settings(max_examples=GENERATED_EXAMPLES, deadline=None,
              derandomize=True)
    @example(case=(6, 1, 22.0, 1, "vmt-ta", "last-value", "replay", 5, 3,
                   None))
    # Hot group sizes 0 and n of 8 servers (Eq. 1, PMT 35.7 C).
    @example(case=(8, 2, 1.0, 30, "vmt-ta", "oracle", "replay", None, 7,
                   None))
    @example(case=(8, 2, 36.0, 30, "vmt-ta", "oracle", "replay", None, 7,
                   None))
    # A checkpoint between two decisions of a closed-loop MPC stream.
    @example(case=(6, 2, 22.0, 45, "vmt-wa", "last-value", "replay", 10,
                   3, 40))
    def test_planned_live_run_equals_per_row(self, case):
        (servers, hours, gv, cadence, policy, forecaster, feed, horizon,
         seed, every) = case
        config = paper_cluster_config(
            num_servers=servers, grouping_value=gv, seed=seed).replace(
                trace=TraceConfig(duration_hours=hours))
        if feed == "synthetic" and horizon is not None:
            # The oracle forecasts only from a recorded trace.
            forecaster = "last-value"

        def live(**kwargs):
            return run_live(config, policy,
                            make_feed(feed, config, seed=seed),
                            decision_every=cadence, forecaster=forecaster,
                            mpc_horizon=horizon, **kwargs)

        straight = live(per_row=False)
        fingerprint = straight[0].result.fingerprint()
        if policy in ("vmt-ta", "round-robin"):
            assert_live_runs_equal(straight, live(per_row=True))
        if every is not None:
            with tempfile.TemporaryDirectory() as tmp:
                report, _, sim = live(per_row=False, checkpoint_every=every,
                                      checkpoint_dir=tmp)
                assert report.result.fingerprint() == fingerprint
                assert report.gv_trail == straight[0].gv_trail
                records = sim.checkpoint_records
                assert [r["tick"] for r in records] == list(
                    range(every, config.trace.num_steps + 1, every))
                for record in records:
                    snapshot = load_snapshot(record["file"])
                    assert (snapshot.state["live"]["filled"]
                            == snapshot.tick == record["tick"])
                if records:
                    mpc = (None if horizon is None else
                           MPCController(config, horizon_steps=horizon))
                    resumed = resume_live(
                        records[seed % len(records)]["file"],
                        make_feed(feed, config, seed=seed),
                        forecaster=forecaster, decision_every=cadence,
                        mpc=mpc).run()
                    assert resumed.result.fingerprint() == fingerprint
        if forecaster == "oracle" and feed == "replay" and horizon is None:
            batch = per_tick(ClusterSimulation(
                config, make_scheduler(policy, config))).run()
            assert fingerprint == batch.fingerprint()


class TestThreadedTimeout:
    def test_timeout_fires_on_worker_threads(self):
        # The whole point of replacing SIGALRM: a budget that actually
        # aborts runs executing off the main thread, as the serve
        # layer's job workers run them.
        config = tiny_config(hours=240.0, servers=20)
        specs = [RunSpec(config=config, policy="vmt-ta", label="hung-a",
                         timeout_s=0.05),
                 RunSpec(config=config, policy="vmt-wa", label="hung-b",
                         timeout_s=0.05)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_execute_captured, specs))
        for outcome in outcomes:
            assert isinstance(outcome, RunFailure)
            assert outcome.error_type == "RunTimeout"

    def test_live_run_honors_timeout(self):
        config = tiny_config(hours=240.0, servers=20)
        from repro.perf.runner import RunTimeout
        with pytest.raises(RunTimeout):
            api.live_run(policy="vmt-ta", config=config,
                         forecaster="oracle", timeout_s=0.05)
