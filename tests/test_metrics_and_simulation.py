"""Unit tests for metrics collection and the simulation wiring."""

import numpy as np
import pytest

from repro.cluster.metrics import MetricsCollector, SimulationResult
from repro.cluster.simulation import ClusterSimulation, run_simulation
from repro.config import SimulationConfig, TraceConfig
from repro.core import RoundRobinScheduler, VMTThermalAwareScheduler
from repro.errors import SimulationError
from repro.workloads.trace import TwoDayTrace


def record_fake(collector, time_s, n=4, temp=30.0, melt=0.0, power=200.0,
                absorb=10.0, hot=None):
    collector.record(
        time_s,
        air_temp_c=np.full(n, temp),
        melt_fraction=np.full(n, melt),
        power_w=np.full(n, power),
        wax_absorption_w=np.full(n, absorb),
        jobs=n * 8,
        hot_mask=hot,
    )


class TestMetricsCollector:
    def test_records_cooling_load(self):
        collector = MetricsCollector()
        record_fake(collector, 0.0, power=200.0, absorb=10.0)
        result = collector.finish(SimulationConfig(num_servers=4), "rr")
        assert result.cooling_load_w[0] == pytest.approx(4 * 190.0)

    def test_hot_group_means(self):
        collector = MetricsCollector()
        hot = np.array([True, True, False, False])
        collector.record(0.0,
                         air_temp_c=np.array([40.0, 42.0, 25.0, 27.0]),
                         melt_fraction=np.zeros(4),
                         power_w=np.full(4, 100.0),
                         wax_absorption_w=np.zeros(4), jobs=0,
                         hot_mask=hot)
        result = collector.finish(SimulationConfig(num_servers=4), "ta")
        assert result.hot_group_mean_temp_c[0] == pytest.approx(41.0)
        assert result.cold_group_mean_temp_c[0] == pytest.approx(26.0)
        assert result.hot_group_size[0] == 2

    def test_no_hot_mask_yields_nan(self):
        collector = MetricsCollector()
        record_fake(collector, 0.0)
        result = collector.finish(SimulationConfig(num_servers=4), "rr")
        assert np.isnan(result.hot_group_mean_temp_c[0])

    def test_heatmaps_optional(self):
        collector = MetricsCollector(record_heatmaps=False)
        record_fake(collector, 0.0)
        result = collector.finish(SimulationConfig(num_servers=4), "rr")
        assert result.temp_heatmap is None

    def test_heatmap_shape(self):
        collector = MetricsCollector(record_heatmaps=True)
        for t in range(3):
            record_fake(collector, float(t))
        result = collector.finish(SimulationConfig(num_servers=4), "rr")
        assert result.temp_heatmap.shape == (3, 4)
        assert result.melt_heatmap.shape == (3, 4)

    def test_empty_collector_raises(self):
        with pytest.raises(SimulationError):
            MetricsCollector().finish(SimulationConfig(num_servers=4), "x")

    @pytest.mark.parametrize("capacity", (None, 2))
    @pytest.mark.parametrize("prefix", (0, 3))
    @pytest.mark.parametrize("hot_size", (0, 2, 4))
    def test_fill_block_after_restored_prefix_matches_record(
            self, hot_size, prefix, capacity):
        """A restored prefix plus one ``fill_block`` of the remaining
        rows stores exactly what ``record`` stores tick by tick: every
        series, the heatmaps, and NaN for an empty group's mean."""
        n, ticks = 4, 8
        rng = np.random.default_rng(5)
        temp = rng.uniform(20.0, 45.0, (ticks, n))
        melt = rng.uniform(0.0, 1.0, (ticks, n))
        power = rng.uniform(100.0, 300.0, (ticks, n))
        absorb = rng.uniform(-20.0, 40.0, (ticks, n))
        cpu = rng.uniform(40.0, 80.0, ticks)
        jobs = rng.integers(0, 64, ticks)
        times = np.cumsum(np.full(ticks, 60.0))
        hot = np.arange(n) < hot_size

        def record(collector, rows):
            for t in rows:
                collector.record(times[t], air_temp_c=temp[t],
                                 melt_fraction=melt[t], power_w=power[t],
                                 wax_absorption_w=absorb[t],
                                 jobs=int(jobs[t]), hot_mask=hot,
                                 max_cpu_temp_c=float(cpu[t]))

        straight = MetricsCollector(capacity=ticks)
        record(straight, range(ticks))
        partial = MetricsCollector(capacity=ticks)
        record(partial, range(prefix))
        resumed = MetricsCollector(capacity=capacity)
        resumed.load_state_dict(partial.state_dict())

        rest = slice(prefix, ticks)
        it_power = np.array([row.sum() for row in power[rest]])
        absorbed = np.array([row.sum() for row in absorb[rest]])
        resumed.fill_block(
            times_s=times[rest], cooling_load_w=it_power - absorbed,
            it_power_w=it_power, wax_absorption_w=absorbed,
            mean_temp_c=np.array([row.mean() for row in temp[rest]]),
            hot_group_mean_temp_c=(
                np.array([row[hot].mean() for row in temp[rest]])
                if hot.any() else None),
            cold_group_mean_temp_c=(
                np.array([row[~hot].mean() for row in temp[rest]])
                if hot.any() and not hot.all() else None),
            mean_melt_fraction=np.array([row.mean()
                                         for row in melt[rest]]),
            hot_group_size=hot_size, jobs=jobs[rest],
            max_cpu_temp_c=cpu[rest], temp_map=temp[rest],
            melt_map=melt[rest])

        config = SimulationConfig(num_servers=n)
        expected = straight.finish(config, "x")
        got = resumed.finish(config, "x")
        assert resumed.size == ticks
        for name in SimulationResult.FINGERPRINT_FIELDS:
            a, b = getattr(expected, name), getattr(got, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert got.fingerprint() == expected.fingerprint()


class TestSimulationResult:
    def _result(self):
        collector = MetricsCollector()
        for t, power in enumerate([100.0, 300.0, 200.0]):
            record_fake(collector, t * 60.0, power=power, absorb=0.0)
        return collector.finish(SimulationConfig(num_servers=4), "rr")

    def test_peak_and_times(self):
        result = self._result()
        assert result.peak_cooling_load_w == pytest.approx(1200.0)
        assert result.times_hours[-1] == pytest.approx(120.0 / 3600.0)

    def test_peak_reduction_vs(self):
        result = self._result()
        assert result.peak_reduction_vs(result) == pytest.approx(0.0)

    def test_summary_keys(self):
        summary = self._result().summary()
        assert summary["scheduler"] == "rr"
        assert summary["peak_cooling_kw"] == pytest.approx(1.2)

    def test_energy_stored_counts_only_absorption(self):
        collector = MetricsCollector()
        record_fake(collector, 0.0, absorb=10.0)
        record_fake(collector, 60.0, absorb=-5.0)
        result = collector.finish(SimulationConfig(num_servers=4), "rr")
        assert result.total_energy_stored_j == pytest.approx(4 * 10 * 60.0)


class TestClusterSimulation:
    def test_short_run_produces_consistent_result(self, small_config):
        result = run_simulation(small_config,
                                RoundRobinScheduler(small_config))
        assert len(result.times_s) == small_config.trace.num_steps
        assert result.scheduler_name == "round-robin"
        assert result.temp_heatmap.shape == (
            small_config.trace.num_steps, small_config.num_servers)

    def test_jobs_recorded_match_trace(self, small_config):
        sim = ClusterSimulation(small_config,
                                RoundRobinScheduler(small_config))
        result = sim.run()
        assert np.array_equal(result.jobs,
                              sim.trace.counts.sum(axis=1))

    def test_mismatched_scheduler_cluster_size_raises(self, small_config):
        other = small_config.replace(num_servers=7)
        with pytest.raises(SimulationError):
            ClusterSimulation(small_config, RoundRobinScheduler(other))

    def test_supplied_trace_is_rescaled_when_needed(self, small_config):
        trace = TwoDayTrace(small_config.trace).generate(40)
        sim = ClusterSimulation(small_config,
                                RoundRobinScheduler(small_config),
                                trace=trace)
        assert sim.trace.total_cores == small_config.total_cores

    def test_deterministic_given_seed(self, small_config):
        a = run_simulation(small_config,
                           RoundRobinScheduler(small_config))
        b = run_simulation(small_config,
                           RoundRobinScheduler(small_config))
        assert np.array_equal(a.cooling_load_w, b.cooling_load_w)

    def test_vmt_records_hot_group_series(self, small_config):
        result = run_simulation(small_config,
                                VMTThermalAwareScheduler(small_config))
        assert not np.isnan(result.hot_group_mean_temp_c).any()
        assert result.hot_group_size[0] > 0

    def test_engine_clock_matches_trace_span(self, small_config):
        sim = ClusterSimulation(small_config,
                                RoundRobinScheduler(small_config))
        sim.run()
        expected = small_config.trace.num_steps * 60.0
        assert sim.engine.now == pytest.approx(expected, abs=1.0)
