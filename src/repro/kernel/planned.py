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
* **Physics and metrics**: the per-tick driver's own stages, called
  with the whole span as one block --
  :meth:`~repro.cluster.cluster.Cluster.advance` (power, air, wax and
  estimator recurrences; every expression with the same IEEE-754
  operation order per element whatever the block length) and
  :meth:`~repro.cluster.metrics.MetricsCollector.fill_block` (row
  reductions, the same pairwise summation for one row or many).  The
  air sensor's stream is consumed as the per-tick views would
  (:meth:`~repro.cluster.cluster.Cluster.skip_views`).  An ambient
  profile is a function of the clock, and the block stage adds its
  inlet offset at each tick's start, so weather runs plan too.

The kernel plans any span of ticks ``[t0, t1)`` (:func:`advance`) and
leaves exactly the state the per-tick driver leaves after firing tick
``t1 - 1``: the scheduler keeps its state (tick, RNG, round-robin's job
map, a retargeted grouping value), the physics recurrences start from
the cluster's current state, the cluster clock continues, and the new
metrics rows append after the recorded ones.
:meth:`~repro.cluster.simulation.ClusterSimulation._advance` calls it
for every segment that :func:`plannable` accepts, so a run restored
from a snapshot is planned over its remaining ticks, a checkpointing
run is planned in segments with each snapshot written between two of
them, and a live run plans each decision or checkpoint interval once
its rows have arrived.

What stays here is the placement plan (per tick, one shuffle per placing
pass and one bincount for VMT-TA; the scheduler's ``place`` for
round-robin) and the scheduler, engine and step counters the per-tick
driver would have moved.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..cluster.metrics import add_timing
from ..cluster.state import ClusterView
from ..core.round_robin import RoundRobinScheduler
from ..core.vmt_ta import VMTThermalAwareScheduler
from ..workloads.workload import COLD_INDICES, HOT_INDICES, WORKLOAD_LIST

_K = len(WORKLOAD_LIST)


def plannable(sim) -> bool:
    """Whether ``sim``'s next ticks can be planned.

    This mirrors exactly the situations where planning ahead is provably
    equivalent: a clean open-loop run (VMT-TA at any grouping value, or
    round-robin) -- no faults, no sanitizer, no telemetry or observers
    -- whose recorded metrics rows match its tick.  An ambient profile
    is fine: its inlet offsets are a function of the clock, applied by
    the block stage at every tick.  Every row fits the cluster, since a
    trace or live buffer refuses a row above its ``total_cores`` and the
    simulation refuses a trace sized for another cluster.
    """
    if type(sim._scheduler) not in (VMTThermalAwareScheduler,
                                    RoundRobinScheduler):
        return False
    return not (sim._injector is not None
                or sim._sanitizer is not None
                or sim._telemetry is not None
                or sim._observers
                or sim._metrics.size != sim._step_index)


def _fitted_slice(rows: np.ndarray, capacity: int) -> np.ndarray:
    """The part of each tick's demand an own-group pass places.

    :func:`~repro.core.scheduler.take_share` of ``capacity`` free cores
    (the take of every VMT dealing pass), vectorized across ticks: all
    of it when the demand fits; otherwise each workload's proportional
    share rounded down, with the shortfall granted in order of larger
    leftover first (lower workload index on ties).
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
    the cluster's physics and clock (one :meth:`Cluster.advance` over the
    block); ``_last_allocation``; the engine clock at ``(t1 - 1) * dt``;
    and the dispatch counter, up by ``t1 - t0``.  The per-tick driver
    would fire the next tick at ``t1 * dt``.  It never resets the
    scheduler, so a retargeted grouping value stays.  The caller checks
    :func:`plannable`, ``t0 < t1``, and that the rows have arrived
    (:meth:`~repro.cluster.simulation.ClusterSimulation._advance`).
    """
    prof = sim._profile
    clock = time.perf_counter
    setup_start = clock()
    # The planned kernel bypasses ClusterSimulation._tick (where the
    # cooperative deadline is normally polled), so it checks the budget
    # itself: every 256 plan-loop ticks and once after the physics.
    deadline = sim._deadline
    if deadline is not None:
        deadline.check()

    config = sim._config
    cluster = sim._cluster
    sched = sim._scheduler
    engine = sim._engine
    n = config.num_servers
    t0 = sim._step_index
    counts = sim._trace._counts[t0:t1]
    T = t1 - t0
    dt = sim._trace.step_seconds
    first_tick = sched._tick

    # ---- plan: replay the placement for every tick -----------------------
    plan_start = clock()
    if type(sched) is RoundRobinScheduler:
        hot_mask = None  # no hot group: its metrics read NaN
        view = ClusterView(time_s=cluster.time_s, num_servers=n,
                           cores_per_server=config.server.cores,
                           air_temp_c=cluster.air_temp_c,
                           wax_melt_estimate=cluster.wax_estimate_view,
                           melt_temp_c=config.wax.melt_temp_c)
        alloc_block = _plan_round_robin(sched, counts, view, deadline)
    else:
        hot_size = sched.sizer.hot_size
        hot_mask = np.arange(n) < hot_size
        alloc_block = plan_vmt_ta(counts, n, config.server.cores,
                                  hot_size, sched._rng,
                                  first_tick=first_tick, deadline=deadline)
    plan_elapsed = clock() - plan_start

    # ---- physics: the cluster's block stage ------------------------------
    step_start = clock()
    # Every per-tick view reads the air sensor; open-loop policies never
    # look at the sensed values, so only the stream consumption matters.
    cluster.skip_views(T)
    block = cluster.advance(alloc_block, dt)
    step_elapsed = clock() - step_start
    if deadline is not None:
        deadline.check()

    metrics_start = clock()
    sim._metrics.fill_block(block, jobs=counts.sum(axis=1),
                            hot_mask=hot_mask)
    metrics_elapsed = clock() - metrics_start

    sched._tick = first_tick + T
    sim._step_index = t1
    sim._last_allocation = (alloc_block[T - 1]
                            .reshape(n, _K).astype(np.int64))
    engine._now = (t1 - 1) * dt
    engine._dispatched += T
    sim._next_tick_s = t1 * dt

    if prof is not None:
        add_timing(prof, "kernel_plan", plan_elapsed)
        add_timing(prof, "kernel_fused_step", step_elapsed)
        add_timing(prof, "kernel_metrics_write", metrics_elapsed)
        add_timing(prof, "dispatch", clock() - setup_start - plan_elapsed
                   - step_elapsed - metrics_elapsed)
