"""The shared physics stage against the per-model references.

Both tick drivers advance the cluster through one stage,
:meth:`Cluster.advance`, and write metrics through one writer,
:meth:`MetricsCollector.fill_block`: the planned kernel with a whole
segment as one block, the per-tick driver with a block of one row.  The
property here pins that stage to the chain the goldens were recorded
with -- one tick at a time through :meth:`ServerAirModel.step`,
:meth:`PCMBank.step` and :meth:`WaxStateEstimator.update` /
:meth:`~WaxStateEstimator.correct` -- bit for bit, over wax that crosses
solid, melting and liquid, one and several PCM substeps, sensor noise on
and off, degenerate wax, an ambient profile, and fault states on
one-row calls.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import MetricsCollector, TickBlock
from repro.config import (AmbientConfig, SimulationConfig, ThermalConfig,
                          WaxConfig)
from repro.faults.state import FaultState
from repro.sim.rng import RngStreams
from repro.workloads.workload import WORKLOAD_LIST

K = len(WORKLOAD_LIST)


def reference_tick(cluster, allocation, dt_s):
    """One tick of the per-model reference chain, on ``cluster``'s own
    models: what ``Cluster.step`` ran before the block stage."""
    faults = cluster.fault_state
    air, pcm, estimator = cluster._air, cluster._pcm, cluster._estimator
    if faults is not None or cluster._ambient is not None:
        offset = faults.inlet_offset_c if faults is not None else 0.0
        if cluster._ambient is not None:
            offset += cluster._ambient.offset_c_at(cluster.time_s)
        air.set_inlet_offset(offset)
    dynamic = allocation.astype(np.float64) @ cluster.per_core_power_w
    power = cluster._power_model.server_power(dynamic)
    if faults is not None:
        power = np.where(faults.active, power, 0.0)
        dynamic = np.where(faults.active, dynamic, 0.0)
    t_air = air.step(power, dt_s).copy()
    heat = pcm.step(t_air, cluster.config.thermal.ha_w_per_k, dt_s)
    sensed = t_air
    if faults is not None:
        sensed = faults.corrupt_wax(t_air, cluster.time_s)
    estimator.update(sensed, dt_s)
    truth = pcm.melt_fraction
    anchored = (truth <= 0.0) | (truth >= 1.0)
    if faults is not None:
        anchored = anchored & ~faults.wax_sensor_faulty
    if np.any(anchored):
        estimator.correct(truth, mask=anchored)
    cluster._time_s += dt_s
    cluster._dynamic_w, cluster._power_w = dynamic, power
    cluster._last_q_wax, cluster._last_melt_fraction = heat, truth
    junction = cluster._cpu_model.junction_temp_c(
        air.inlet_temp_c, dynamic, cluster.config.server)
    return TickBlock(np.array([cluster.time_s]), power[None], heat[None],
                     t_air[None], truth[None],
                     np.array([junction.max()]))


def faulted(config, rng):
    """A fault state with failed servers, faulted wax sensors and a
    cooling derate, drawn from ``rng``."""
    state = FaultState(config)
    n = config.num_servers
    for server in rng.choice(n, size=n // 3, replace=False):
        state.fail_server(int(server), 0.0)
    for server in rng.choice(n, size=(n + 1) // 2, replace=False):
        mode = ("stuck", "dropout", "drift")[int(rng.integers(3))]
        state.wax_faults.set_fault(int(server), mode, time_s=0.0,
                                   drift_per_hour=2.0)
    state.set_cooling_factor(float(rng.uniform(0.5, 1.0)))
    return state


def assert_same_bits(a, b, what):
    assert a.dtype == b.dtype, what
    assert np.array_equal(a, b, equal_nan=True), what


@given(seed=st.integers(0, 2**32 - 1),
       num_servers=st.sampled_from((1, 5, 9, 24)),
       ticks=st.integers(1, 30),
       volume=st.sampled_from((0.0, 0.05, 4.0)),
       latent=st.sampled_from((0.0, 4e3, 230e3)),
       ha=st.sampled_from((0.0, 14.0, 140.0)),
       noise=st.booleans(),
       ambient=st.booleans(),
       faults=st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_block_matches_the_per_model_references(
        seed, num_servers, ticks, volume, latent, ha, noise, ambient,
        faults):
    """One ``T``-row :meth:`Cluster.advance` (``T`` one-row calls under a
    fault state, which the engine may change between ticks) leaves the
    bits of ``T`` reference ticks: temperatures, enthalpies, heat flows,
    melt fractions, estimates and RNG state; and one ``T``-row
    ``fill_block`` stores what ``T`` one-row blocks store."""
    rng = np.random.default_rng(seed)
    config = SimulationConfig(
        num_servers=num_servers, seed=seed % 1000,
        wax=WaxConfig(volume_liters=volume, latent_heat_j_per_kg=latent),
        thermal=ThermalConfig(
            ha_w_per_k=ha, inlet_stdev_c=1.0,
            air_sensor_noise_c=0.5 if noise else 0.0,
            wax_sensor_noise_c=0.2 if noise else 0.0),
        ambient=(AmbientConfig(diurnal_amplitude_c=3.0,
                               diurnal_peak_hour=0.2)
                 if ambient else AmbientConfig()))
    fault_seed = int(rng.integers(2**32))
    clusters = []
    for _ in range(2):
        state = (faulted(config, np.random.default_rng(fault_seed))
                 if faults else None)
        clusters.append(Cluster(config, RngStreams(config.seed),
                                fault_state=state))
    block_side, reference_side = clusters

    # Wax anywhere from 5 K below solidus to 5 K above liquidus, so the
    # block crosses solid, melting and liquid; a random estimate.
    pcm = block_side._pcm
    h0 = rng.uniform(pcm._h_sol - 5 * pcm._cp_s,
                     pcm._h_liq + 5 * pcm._cp_l, num_servers)
    estimate0 = rng.uniform(0.0, 1.0, num_servers)
    for cluster in clusters:
        cluster._pcm._h = h0.copy()
        cluster._estimator._estimate = estimate0.copy()
    alloc = rng.integers(0, 7, (ticks, num_servers, K))
    if faults:
        alloc[:, ~block_side.fault_state.active] = 0
    dt = 60.0

    if faults:
        rows = [block_side.advance(alloc[t:t + 1], dt)
                for t in range(ticks)]
        block = TickBlock(*(np.concatenate(column)
                            for column in zip(*rows)))
    else:
        block = block_side.advance(alloc.reshape(ticks, -1), dt)
    reference = [reference_tick(reference_side, alloc[t], dt)
                 for t in range(ticks)]
    expected = TickBlock(*(np.concatenate(column)
                           for column in zip(*reference)))
    for field in TickBlock._fields:
        assert_same_bits(getattr(block, field), getattr(expected, field),
                         field)

    for a, b, what in (
            (block_side._air._temp, reference_side._air._temp, "air"),
            (block_side._air.inlet_temp_c, reference_side._air.inlet_temp_c,
             "inlet"),
            (block_side._pcm._h, reference_side._pcm._h, "enthalpy"),
            (block_side._estimator._estimate,
             reference_side._estimator._estimate, "estimate"),
            (block_side.power_w, reference_side.power_w, "power"),
            (block_side.wax_absorption_w, reference_side.wax_absorption_w,
             "heat"),
            (block_side.wax_melt_fraction_view,
             reference_side.wax_melt_fraction_view, "melt"),
            (block_side.cpu_junction_temp_c,
             reference_side.cpu_junction_temp_c, "junction")):
        assert_same_bits(a, b, what)
    assert block_side.time_s == reference_side.time_s
    if faults:
        assert_same_bits(block_side.fault_state.wax_faults._stuck_value,
                         reference_side.fault_state.wax_faults._stuck_value,
                         "stuck latch")

    # The views the per-tick driver takes consume the air sensor's stream.
    block_side.skip_views(ticks)
    for _ in range(ticks):
        reference_side.view()
    for part in ("_estimator", "_sensor"):
        assert (getattr(block_side, part)._rng.bit_generator.state
                == getattr(reference_side, part)._rng.bit_generator.state
                ), part

    # One writer: a T-row block stores the 1-D reductions of each row.
    hot = rng.random(num_servers) < 0.5
    whole, one_by_one = MetricsCollector(), MetricsCollector()
    whole.fill_block(block, jobs=alloc.sum(axis=(1, 2)), hot_mask=hot)
    for t, row in enumerate(reference):
        one_by_one.fill_block(row, jobs=int(alloc[t].sum()), hot_mask=hot)
    got = whole.finish(config, "x")
    assert got.fingerprint() == one_by_one.finish(config, "x").fingerprint()
    temp = expected.air_temp_c
    if hot.any():
        assert_same_bits(got.hot_group_mean_temp_c,
                         np.array([row[hot].mean() for row in temp]),
                         "hot mean")
    if 0 < hot.sum() < num_servers:
        assert_same_bits(got.cold_group_mean_temp_c,
                         np.array([row[~hot].mean() for row in temp]),
                         "cold mean")
    assert_same_bits(got.it_power_w,
                     np.array([float(row.sum()) for row in expected.power_w]),
                     "it power")


def test_property_covers_one_and_several_substeps():
    """The property's wax volumes and hA values give one PCM substep per
    tick and several."""
    def substeps(volume, ha):
        wax = WaxConfig(volume_liters=volume)
        tau = wax.mass_kg * min(wax.specific_heat_solid_j_per_kg_k,
                                wax.specific_heat_liquid_j_per_kg_k) / ha
        return max(1, math.ceil(60.0 / (0.25 * tau)))

    assert substeps(4.0, 14.0) == 1
    assert substeps(4.0, 140.0) > 1
    assert substeps(0.05, 14.0) > 1
