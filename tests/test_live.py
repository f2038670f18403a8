"""Tests for the streaming/live subsystem (``repro.live``).

The load-bearing contract is the oracle differential: a live run driven
by the perfect forecaster over a trace-replay feed must be bit-identical
to the offline batch run for every policy -- any gap under a real
forecaster is then a measured property of the forecaster, not a harness
artifact.  Around that: no-lookahead enforcement, feed framing, live
determinism, MPC shadow racing, mid-stream checkpoint/resume as state
migration, and the cooperative (thread-safe) run timeout.
"""

import glob

import numpy as np
import pytest

from repro import api
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.config import SimulationConfig, TraceConfig
from repro.core.grouping import hot_group_size
from repro.core.policies import SCHEDULER_NAMES, make_scheduler
from repro.errors import SimulationError, TraceError
from repro.live import (JsonlFeed, LiveRunner, LiveTraceBuffer,
                        MPCController, SyntheticArrivalFeed,
                        TraceReplayFeed, invert_grouping_value,
                        make_feed, make_forecaster, resume_live)
from repro.perf.runner import ExperimentRunner, RunFailure, RunSpec
from repro.state.checkpoint import verify_roundtrip
from repro.workloads.workload import HOT_INDICES, WORKLOAD_LIST

NUM_WORKLOADS = len(WORKLOAD_LIST)


def tiny_config(hours=2.0, servers=6, seed=11):
    return SimulationConfig(
        num_servers=servers, seed=seed,
        trace=TraceConfig(duration_hours=hours))


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
        """A VMT-TA shadow is a clean open-loop run restored mid-run:
        under the fast backend it takes the planned kernel, and it runs
        bit-identically to the same shadow on the reference loop."""
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
        for backend in ("reference", "fast"):
            shadow_config = SimulationConfig.from_dict(snapshot.config)
            scheduler = make_scheduler(snapshot.policy, shadow_config)
            shadow = ClusterSimulation(
                shadow_config, scheduler, trace=trace,
                record_heatmaps=snapshot.record_heatmaps, checks="off",
                backend=backend)
            shadow.restore(snapshot, trace_check=False)
            scheduler.retarget_grouping(gv)
            fingerprints[backend] = shadow.run().fingerprint()
            assert shadow.kernel_path == (
                "planned" if backend == "fast" else "reference")
        assert fingerprints["fast"] == fingerprints["reference"]

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


class TestThreadedTimeout:
    def test_timeout_fires_on_worker_threads(self):
        # The whole point of replacing SIGALRM: a budget that actually
        # aborts runs executing off the main thread.
        config = tiny_config(hours=240.0, servers=20)
        runner = ExperimentRunner(max_workers=2, workers_mode="thread")
        outcomes = runner.run(
            [RunSpec(config=config, policy="vmt-ta", label="hung-a",
                     timeout_s=0.05),
             RunSpec(config=config, policy="vmt-wa", label="hung-b",
                     timeout_s=0.05)],
            raise_on_error=False)
        for outcome in outcomes:
            assert isinstance(outcome, RunFailure)
            assert outcome.error_type == "RunTimeout"

    def test_live_run_honors_timeout(self):
        config = tiny_config(hours=240.0, servers=20)
        from repro.perf.runner import RunTimeout
        with pytest.raises(RunTimeout):
            api.live_run(policy="vmt-ta", config=config,
                         forecaster="oracle", timeout_s=0.05)
