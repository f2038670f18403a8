"""Whole-run batched kernel for every clean open-loop simulation.

Two policies are open-loop: VMT-TA, whose hot/cold split is fixed by the
grouping value (Eqs. 1-2), and the round-robin baseline.  Their placement
depends only on the demand trace and the scheduler's private RNG --
never on temperatures, wax state, or faults.  That makes the entire run
*plannable*: every tick's allocation can be computed up front, and the
remaining physics chain is either elementwise (batchable across all
ticks at once) or a cheap recurrence.

The kernel preserves bit-identity with the per-tick chain
(:mod:`.stepped`) by construction:

* **RNG**: each consumer draws from its own named stream, so streams can
  be consumed in any relative order.  Batched ``normal(0, s, (T, n))``
  draws the exact same values (and leaves the same generator state) as
  ``T`` sequential ``(n,)`` draws.  The scheduler's own draws are
  replayed tick by tick in reference order.
* **VMT-TA placement** (:func:`plan_vmt_ta`): on a fault-free group of
  equal-capacity servers each of the scheduler's four passes has a
  closed form.  The own-group passes (hot->hot, cold->cold) are
  ``waterfill_quotas``'s even level plus a remainder rotated by the tick
  index -- an overflowing group gets every core -- and the proportional
  slice an overflowing group keeps vectorizes across ticks.  The spill
  passes (hot->cold, cold->hot) waterfill over the two-valued residual
  capacities the own-group pass leaves.  ``deal_types``'s round-robin
  slot order becomes precomputed key arrays, and ``bincount`` then
  reproduces the reference allocation integer-for-integer.  Each pass
  that places a job shuffles once, in reference order, and nothing else
  is drawn.  Either group may be empty (hot size ``0`` or ``n``).
* **Round-robin placement**: job persistence and churn make it a per-tick
  recurrence, but it never reads the sensed state, so the scheduler's
  own ``place`` runs tick by tick against one fixed fault-free view --
  same draws, same conservation checks, same end state.
* **Physics**: every expression is applied with the same IEEE-754
  operation order per element as the reference models; only the loop
  structure changes (elementwise ops are batched across ticks, the
  air/PCM state recurrence stays a per-tick loop, optionally compiled by
  :mod:`.njit`).
* **Metrics**: per-row reductions (``row.mean()``) and axis reductions
  over C-contiguous rows (``block.mean(axis=1)``) use the same pairwise
  summation, so recorded series match bitwise;
  :meth:`MetricsCollector.fill_block` writes them into the same buffers
  ``record`` would have filled, NaN where a group is empty.

The kernel plans any span of ticks ``[t0, t1)`` (:func:`advance`) and
leaves exactly the state the per-tick driver leaves after firing tick
``t1 - 1``: the scheduler keeps its state (tick, RNG, round-robin's job
map, a retargeted grouping value), the physics recurrences start from
the current air, wax and estimator state, the metrics clock continues
from the cluster time, and the new rows append after the recorded ones.
:meth:`~repro.cluster.simulation.ClusterSimulation._advance` calls it
for every segment that :func:`plannable` accepts, so a run restored
from a snapshot is planned over its remaining ticks, a checkpointing
run is planned in segments with each snapshot written between two of
them, and a live run plans each decision or checkpoint interval once
its rows have arrived.

What stays python: the planning loop (per tick, one shuffle per placing
pass and one bincount for VMT-TA; the scheduler's ``place`` for
round-robin) and the state recurrences.  Everything else -- power model,
air targets, junction temps, sensor/estimator noise, enthalpy-delta heat
flow, melt-fraction truth, every recorded series -- is a handful of
whole-run numpy kernels over preallocated blocks.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from ..cluster.state import ClusterView
from ..core.round_robin import RoundRobinScheduler
from ..core.vmt_ta import VMTThermalAwareScheduler
from ..workloads.workload import COLD_INDICES, HOT_INDICES, WORKLOAD_LIST

_K = len(WORKLOAD_LIST)

try:
    # The ufunc np.clip dispatches to: same kernel, same bits, without
    # the per-call dispatch overhead (it runs once per tick in the
    # estimator recurrence).
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # pragma: no cover - numpy internals moved
    def _clip_ufunc(a, lo, hi, out):
        return np.clip(a, lo, hi, out=out)


def eligible(sim) -> bool:
    """Whether ``sim``'s next ticks can be planned.

    Eligibility mirrors exactly the situations where planning ahead is
    provably equivalent: a clean open-loop run (VMT-TA at any grouping
    value, or round-robin) -- no faults, no sanitizer, no telemetry or
    observers, no ambient profile, a non-degenerate PCM -- whose
    recorded metrics rows match its tick.  :func:`plannable` adds the
    per-span capacity check.
    """
    if type(sim._scheduler) not in (VMTThermalAwareScheduler,
                                    RoundRobinScheduler):
        return False
    if (sim._injector is not None
            or sim._sanitizer is not None
            or sim._telemetry is not None
            or sim._observers
            or sim._metrics.size != sim._step_index
            or sim._cluster._ambient is not None):
        return False
    config = sim._config
    wax = config.wax
    # Degenerate PCM: the reference models switch to special-cased
    # branches (zero heat flow, step-function melt fraction) that are
    # not worth mirroring here.
    return (wax.mass_kg > 0 and wax.latent_heat_j_per_kg > 0
            and config.thermal.ha_w_per_k != 0)


def plannable(sim, t1: int) -> bool:
    """Whether ticks ``[t0, t1)`` of ``sim`` can be planned.

    ``sim`` must be :func:`eligible`, and no row of the span may demand
    more cores than the cluster has (the reference scheduler raises
    there, so the per-tick driver takes the span and raises at that
    tick).
    """
    if not eligible(sim):
        return False
    counts = sim._trace._counts[sim._step_index:t1]
    return int(counts.sum(axis=1).max()) <= sim._config.total_cores


def _fitted_slice(rows: np.ndarray, capacity: int) -> np.ndarray:
    """The part of each tick's demand an own-group pass places.

    ``VMTThermalAwareScheduler._place_group`` on a group of ``capacity``
    free cores, vectorized across ticks: all of it when the demand fits;
    otherwise each workload's proportional share rounded down, with the
    shortfall granted in order of larger leftover first (lower workload
    index on ties).
    """
    totals = rows.sum(axis=1)
    fit = np.minimum(totals, capacity)
    taken = np.minimum(
        rows, rows * fit[:, None] // np.maximum(totals, 1)[:, None])
    shortfall = fit - taken.sum(axis=1)
    if shortfall.any():
        leftovers = rows - taken
        order = np.argsort(-leftovers, axis=1, kind="stable")
        ranked = np.take_along_axis(leftovers, order, axis=1)
        before = np.cumsum(ranked, axis=1) - ranked
        grab = np.clip(shortfall[:, None] - before, 0, ranked)
        np.put_along_axis(
            taken, order,
            np.take_along_axis(taken, order, axis=1) + grab, axis=1)
    return taken


def _group_pass(taken: np.ndarray, base: int, m: int, cores: int,
                ticks: np.ndarray,
                own_totals: Optional[np.ndarray] = None) -> tuple:
    """Per-tick dealing parameters of one VMT-TA pass into a group.

    The group is the ``m`` servers from id ``base``; ``taken`` holds the
    ``(T, K)`` jobs the pass places.  An own-group pass deals onto free
    servers.  A spill pass (``own_totals``: what the group's own pass
    placed per tick) deals onto the residual that pass left, which keeps
    the even closed form -- level ``total // m``, remainder rotated from
    ``tick % m`` -- unless the spill fills past the lower residual
    capacity; those ticks are flagged for :func:`_spill_keys`.
    """
    totals = taken.sum(axis=1)
    keys = (base + np.arange(m, dtype=np.int64)) * _K
    levels, rems = np.divmod(totals, m)
    wide = own_levels = own_rems = None
    if own_totals is not None:
        own_level, own_rem = np.divmod(own_totals, m)
        flags = (own_rem > 0) & (levels >= cores - own_level - 1)
        if flags.any():
            wide = flags.tolist()
            own_levels = own_level.tolist()
            own_rems = own_rem.tolist()
    return (totals.tolist(), list(taken), (levels * m).tolist(),
            rems.tolist(), (ticks % m).tolist(), keys,
            np.tile(keys, cores), m, wide, own_levels, own_rems)


def _spill_keys(keys: np.ndarray, tile: np.ndarray, cores: int,
                own_level: int, own_rem: int, total: int,
                tick: int) -> np.ndarray:
    """Dealing order of a spill pass that fills past the lower residual.

    The group's own pass left ``cores - own_level - 1`` free cores on its
    ``own_rem`` remainder servers (rotated from ``tick % m``) and
    ``cores - own_level`` on the rest.  ``waterfill_quotas`` saturates
    the former, levels the latter, and hands the leftover to the latter
    rotated by ``tick``; dealing takes the common rounds, then the
    levelled rounds, then the leftover servers in ascending order.
    """
    m = len(keys)
    low = cores - own_level - 1
    start = tick % m
    stop = start + own_rem
    high = np.ones(m, dtype=bool)
    high[start:stop] = False
    high[:max(0, stop - m)] = False
    high_keys = keys[high]
    level, rem = divmod(total - own_rem * low, len(high_keys))
    leftover = np.sort(np.roll(high_keys, -(tick % len(high_keys)))[:rem])
    return np.concatenate((tile[:low * m], np.tile(high_keys, level - low),
                           leftover))


def plan_vmt_ta(counts: np.ndarray, num_servers: int, cores: int,
                hot_size: int, rng: np.random.Generator, *,
                first_tick: int = 0, deadline=None) -> np.ndarray:
    """VMT-TA's allocation at every tick of ``counts``, as one block.

    Row ``t`` is the flattened ``(num_servers, K)`` allocation
    :meth:`VMTThermalAwareScheduler.place` makes at tick
    ``first_tick + t`` on a fault-free view of ``num_servers`` servers
    with ``cores`` cores each and the hot group on the first
    ``hot_size`` of them (any size in ``[0, num_servers]``).  ``rng`` is
    drawn exactly as the scheduler draws its own.  Every row's demand
    must fit the cluster.
    """
    T = counts.shape[0]
    n = num_servers
    ticks = np.arange(first_tick, first_tick + T)
    hot_cols = list(HOT_INDICES)
    cold_cols = list(COLD_INDICES)
    hot_rows = np.zeros((T, _K), dtype=np.int64)
    hot_rows[:, hot_cols] = counts[:, hot_cols]
    cold_rows = np.zeros((T, _K), dtype=np.int64)
    cold_rows[:, cold_cols] = counts[:, cold_cols]
    cold_size = n - hot_size
    hot_own = _fitted_slice(hot_rows, hot_size * cores)
    cold_own = _fitted_slice(cold_rows, cold_size * cores)
    # Reference pass order: hot->hot, cold->cold, hot->cold, cold->hot.
    # An empty group places nothing, so its passes never deal.
    passes = []
    if hot_size:
        passes.append(_group_pass(hot_own, 0, hot_size, cores, ticks))
    if cold_size:
        passes.append(_group_pass(cold_own, hot_size, cold_size, cores,
                                  ticks))
        passes.append(_group_pass(hot_rows - hot_own, hot_size, cold_size,
                                  cores, ticks, cold_own.sum(axis=1)))
    if hot_size:
        passes.append(_group_pass(cold_rows - cold_own, 0, hot_size, cores,
                                  ticks, hot_own.sum(axis=1)))

    # All ticks' allocations in one float block so the dynamic-power
    # matmul runs once, batched (bitwise identical to per-tick matmuls).
    block = np.zeros((T, n * _K))
    block_rows = list(block)
    # Per-tick scratch stays a few KB, i.e. cache-resident: building
    # each pass's type list fresh beats materializing tick blocks up
    # front, which would stream tens of MB through memory instead.
    key_buf = np.empty(n * cores, dtype=np.int64)
    ar5 = np.arange(_K)
    add = np.add
    bincount = np.bincount
    copyto = np.copyto
    shuffle = rng.shuffle
    repeat = np.repeat
    width = n * _K
    # Each pass's tick work: the exact unshuffled type list deal_types
    # builds, shuffled in place (same stream consumption and bits as
    # rng.permutation on a fresh copy), dealt against the waterfill
    # closed form -- an even level plus a remainder rotated by the tick
    # index, dealt all-servers-ascending per full round and then the
    # remainder servers in ascending index order.
    for t in range(T):
        if deadline is not None and not (t & 255):
            deadline.check()
        fill = 0
        for (tots, taken, lms, rems, starts, keys, tile, m, wide,
             own_levels, own_rems) in passes:
            tot = tots[t]
            if not tot:
                continue
            types = repeat(ar5, taken[t])
            shuffle(types)
            seg = key_buf[fill:fill + tot]
            fill += tot
            rem = rems[t]
            if wide is not None and wide[t]:
                add(_spill_keys(keys, tile, cores, own_levels[t],
                                own_rems[t], tot, first_tick + t),
                    types, out=seg)
            elif rem == 0:
                add(tile[:tot], types, out=seg)
            else:
                lm = lms[t]
                seg[:lm] = tile[:lm]
                start = starts[t]
                stop = start + rem
                if stop <= m:
                    seg[lm:] = keys[start:stop]
                else:
                    wrap = stop - m
                    seg[lm:lm + wrap] = keys[:wrap]
                    seg[lm + wrap:] = keys[start:]
                add(seg, types, out=seg)
        if fill:
            copyto(block_rows[t], bincount(key_buf[:fill], minlength=width))
    return block


def _plan_round_robin(sched: RoundRobinScheduler, counts: np.ndarray,
                      view: ClusterView, deadline=None) -> np.ndarray:
    """Round-robin's allocation at every tick, from its own ``place``."""
    T = counts.shape[0]
    block = np.empty((T, view.num_servers * _K))
    place = sched.place
    for t in range(T):
        if deadline is not None and not (t & 255):
            deadline.check()
        block[t] = place(counts[t], view).allocation.reshape(-1)
    return block


def advance(sim, t1: int) -> None:
    """Plan ticks ``[t0, t1)`` of ``sim``, where ``t0`` is its next tick.

    Reads only rows ``[t0, t1)`` of the trace.  Afterwards ``sim``
    holds exactly the state the per-tick driver leaves after firing tick
    ``t1 - 1``: the metrics rows; the scheduler's tick, RNG and job map;
    the cluster arrays and clock; ``_last_allocation``; the engine clock
    at ``(t1 - 1) * dt``; and the dispatch counter, up by ``t1 - t0``.
    The per-tick driver would fire the next tick at ``t1 * dt``.
    It never resets the scheduler, so a retargeted grouping value
    stays.  The caller checks :func:`plannable`, ``t0 < t1``, and that
    the rows have arrived
    (:meth:`~repro.cluster.simulation.ClusterSimulation._advance`).
    """
    prof = sim._profiler
    clock = time.perf_counter
    setup_start = clock()
    # The planned kernel bypasses ClusterSimulation._tick (where the
    # cooperative deadline is normally polled), so it checks the budget
    # itself: every 256 plan-loop ticks and once after the fused physics.
    deadline = sim._deadline
    if deadline is not None:
        deadline.check()

    config = sim._config
    cluster = sim._cluster
    sched = sim._scheduler
    air = cluster._air
    pcm = cluster._pcm
    estimator = cluster._estimator
    engine = sim._engine

    n = config.num_servers
    t0 = sim._step_index
    counts = sim._trace._counts[t0:t1]
    T = t1 - t0
    dt = sim._trace.step_seconds
    cores = config.server.cores

    thermal = config.thermal
    inlet = air._inlet  # fixed: no ambient profile, no cooling derates
    r_air = thermal.r_air_c_per_w
    alpha = 1.0 - math.exp(-dt / thermal.tau_air_s)
    ha = thermal.ha_w_per_k

    mass = pcm._mass
    cp_s = pcm._cp_s
    cp_l = pcm._cp_l
    t_melt = pcm._t_melt
    h_sol = pcm._h_sol
    h_liq = pcm._h_liq
    tau = mass * min(cp_s, cp_l) / ha
    n_sub = max(1, int(math.ceil(dt / (0.25 * tau))))
    sub_dt = dt / n_sub

    first_tick = sched._tick

    # ---- plan: replay the placement for every tick -----------------------
    plan_start = clock()
    if type(sched) is RoundRobinScheduler:
        hs = 0  # no hot group: its metrics read NaN, as record() writes
        view = ClusterView(time_s=cluster._time_s, num_servers=n,
                           cores_per_server=cores,
                           air_temp_c=air._temp.copy(),
                           wax_melt_estimate=estimator._estimate.copy(),
                           melt_temp_c=pcm.melt_temp_c)
        alloc_block = _plan_round_robin(sched, counts, view, deadline)
    else:
        hs = sched.sizer.hot_size
        alloc_block = plan_vmt_ta(counts, n, cores, hs, sched._rng,
                                  first_tick=first_tick, deadline=deadline)
    dyn_block = np.matmul(alloc_block.reshape(T * n, _K),
                          cluster._per_core_power).reshape(T, n)
    plan_elapsed = clock() - plan_start

    # ---- fused physics ---------------------------------------------------
    step_start = clock()
    power_block = cluster._power_model.server_power(dyn_block)
    targets = power_block * r_air
    targets += inlet

    # Batched stream draws, identical values/state to per-tick draws.
    sensor = cluster._sensor
    if sensor._noise > 0:
        # view() reads the air sensor every tick; open-loop policies
        # never look at the sensed values, so only the stream
        # consumption matters.
        sensor._rng.normal(0.0, sensor._noise, size=(T, n))
    est_noise = None
    if estimator._sensor_noise > 0:
        est_noise = estimator._rng.normal(0.0, estimator._sensor_noise,
                                          size=(T, n))

    temp_block = np.empty((T, n))
    h_store = np.empty((T + 1, n))
    h_store[0] = pcm._h
    h_block = h_store[1:]

    from . import njit
    if njit.fused_air_pcm is not None:
        njit.fused_air_pcm(targets, air._temp.copy(), h_store[0].copy(),
                           temp_block, h_block, alpha, ha, sub_dt,
                           n_sub, mass, cp_s, cp_l, t_melt, h_sol,
                           h_liq)
    else:
        _python_air_pcm(targets, air._temp, h_store, temp_block,
                        h_block, alpha, ha, sub_dt, n_sub, mass, cp_s,
                        cp_l, t_melt, h_sol, h_liq)

    # Heat into wax: enthalpy delta per tick, same expression as
    # PCMBank.step's return value.
    q_block = (h_block - h_store[:-1]) * mass / dt

    # Estimator: rate lookup is elementwise (batch it); the clipped
    # integration + anchoring is a cheap per-tick recurrence.
    truth_block = np.clip((h_block - h_sol) / pcm._latent, 0.0, 1.0)
    anchored = (truth_block <= 0.0) | (truth_block >= 1.0)
    anchored_any = anchored.any(axis=1).tolist()
    sensed = temp_block if est_noise is None else temp_block + est_noise
    delta = sensed - estimator._t_melt
    bins = np.clip(np.digitize(delta, estimator._bin_edges) - 1,
                   0, len(estimator._rate_table) - 1)
    rates_dt = estimator._rate_table[bins]
    rates_dt *= dt
    est = estimator._estimate.copy()
    add = np.add
    clip = _clip_ufunc
    copyto = np.copyto
    anchored_rows = list(anchored)
    truth_rows = list(truth_block)
    for t, rates_row in enumerate(rates_dt):
        add(est, rates_row, out=est)
        clip(est, 0.0, 1.0, est)
        if anchored_any[t]:
            # Same values as where(mask, truth, est); clip of the
            # already-clipped truth is bitwise idempotent.
            copyto(est, truth_rows[t], where=anchored_rows[t])
    step_elapsed = clock() - step_start
    if deadline is not None:
        deadline.check()

    # ---- metrics ---------------------------------------------------------
    metrics_start = clock()
    times = np.empty(T)
    t_acc = cluster._time_s
    for t in range(T):
        t_acc += dt
        times[t] = t_acc
    it_power = power_block.sum(axis=1)
    wax_abs = q_block.sum(axis=1)
    junction = cluster._cpu_model.junction_temp_c(
        inlet[None, :], dyn_block, config.server)
    # An empty group's mean is NaN, exactly where record() writes NaN.
    hot_mean = temp_block[:, :hs].mean(axis=1) if hs else None
    cold_mean = temp_block[:, hs:].mean(axis=1) if 0 < hs < n else None
    sim._metrics.fill_block(
        times_s=times,
        cooling_load_w=it_power - wax_abs,
        it_power_w=it_power,
        wax_absorption_w=wax_abs,
        mean_temp_c=temp_block.mean(axis=1),
        hot_group_mean_temp_c=hot_mean,
        cold_group_mean_temp_c=cold_mean,
        mean_melt_fraction=truth_block.mean(axis=1),
        hot_group_size=hs,
        jobs=counts.sum(axis=1),
        max_cpu_temp_c=junction.max(axis=1),
        temp_map=temp_block,
        melt_map=truth_block,
    )
    metrics_elapsed = clock() - metrics_start

    # ---- sync live state to the reference values after tick t1 - 1 -------
    air._temp = temp_block[T - 1].copy()
    pcm._h = h_block[T - 1].copy()
    estimator._estimate = est
    cluster._dynamic_w = dyn_block[T - 1].copy()
    cluster._power_w = power_block[T - 1].copy()
    cluster._last_q_wax = q_block[T - 1].copy()
    cluster._last_melt_fraction = truth_block[T - 1].copy()
    cluster._time_s = t_acc
    sched._tick = first_tick + T
    sim._step_index = t1
    sim._last_allocation = (alloc_block[T - 1]
                            .reshape(n, _K).astype(np.int64))
    engine._now = (t1 - 1) * dt
    engine._dispatched += T
    sim._next_tick_s = t1 * dt

    if prof is not None:
        prof.add("kernel_plan", plan_elapsed)
        prof.add("kernel_fused_step", step_elapsed)
        prof.add("kernel_metrics_write", metrics_elapsed)
        prof.add("dispatch", clock() - setup_start - plan_elapsed
                 - step_elapsed - metrics_elapsed)
        prof.count_ticks(T)


def _python_air_pcm(targets, temp0, h_store, temp_block, h_block, alpha,
                    ha, sub_dt, n_sub, mass, cp_s, cp_l, t_melt, h_sol,
                    h_liq) -> None:
    """Vectorized-per-tick spelling of the air + PCM recurrence.

    Same IEEE-754 operation order per element as ``ServerAirModel.step``
    and ``PCMBank.step`` (the commuted operand orders below are bitwise
    exact: IEEE add/multiply are commutative).
    """
    T, n = targets.shape
    t_melt_row = np.full(n, t_melt)
    scratch_a = np.empty(n)
    scratch_b = np.empty(n)
    scratch_c = np.empty(n)
    q_buf = np.empty(n)
    subtract = np.subtract
    multiply = np.multiply
    divide = np.divide
    npadd = np.add
    where = np.where
    target_rows = list(targets)
    temp_rows = list(temp_block)
    h_rows = list(h_block)
    temp = temp0
    h = h_store[0]
    if n_sub == 1:
        below = np.empty(n, dtype=bool)
        twax_buf = np.empty(n)
        less = np.less
        copyto = np.copyto
        arr_max = np.ndarray.max
        for t in range(T):
            trow = temp_rows[t]
            subtract(target_rows[t], temp, out=trow)
            multiply(trow, alpha, out=trow)
            npadd(temp, trow, out=trow)
            temp = trow
            hrow = h_rows[t]
            if arr_max(h) > h_liq:
                # Rare: something fully molten.  Spell out the full
                # three-branch selection exactly as PCMBank does.
                divide(h, cp_s, out=scratch_a)
                subtract(h, h_liq, out=scratch_b)
                divide(scratch_b, cp_l, out=scratch_b)
                npadd(scratch_b, t_melt, out=scratch_b)
                t_wax = where(h < h_sol, scratch_a,
                              where(h > h_liq, scratch_b, t_melt))
            else:
                # Nothing above liquidus: the inner where collapses to
                # t_melt, and masked copyto picks the same bits the
                # two-branch where would.
                less(h, h_sol, out=below)
                divide(h, cp_s, out=scratch_a)
                copyto(twax_buf, t_melt_row)
                copyto(twax_buf, scratch_a, where=below)
                t_wax = twax_buf
            subtract(temp, t_wax, out=q_buf)
            multiply(q_buf, ha, out=q_buf)
            multiply(q_buf, sub_dt, out=q_buf)
            divide(q_buf, mass, out=q_buf)
            npadd(h, q_buf, out=hrow)
            h = hrow
        return
    npmin = np.min
    npmax = np.max
    for t in range(T):
        trow = temp_rows[t]
        subtract(target_rows[t], temp, out=trow)
        multiply(trow, alpha, out=trow)
        npadd(temp, trow, out=trow)
        temp = trow
        hrow = h_rows[t]
        hcur = h
        for sub in range(n_sub):
            dest = hrow if sub == n_sub - 1 else scratch_c
            if npmin(hcur) < h_sol or npmax(hcur) > h_liq:
                divide(hcur, cp_s, out=scratch_a)
                subtract(hcur, h_liq, out=scratch_b)
                divide(scratch_b, cp_l, out=scratch_b)
                npadd(scratch_b, t_melt, out=scratch_b)
                t_wax = where(hcur < h_sol, scratch_a,
                              where(hcur > h_liq, scratch_b, t_melt))
            else:
                # Everything in the melting band reads t_melt exactly.
                t_wax = t_melt_row
            subtract(temp, t_wax, out=q_buf)
            multiply(q_buf, ha, out=q_buf)
            multiply(q_buf, sub_dt, out=q_buf)
            divide(q_buf, mass, out=q_buf)
            npadd(hcur, q_buf, out=dest)
            hcur = dest
        h = hrow
