"""Unit and property tests for the job-dealing primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (NUM_WORKLOADS, deal_types, pack_quotas,
                                  take_share, waterfill_quotas)
from repro.errors import CapacityError, SchedulingError
from repro.kernel.planned import _fitted_slice


class TestWaterfill:
    def test_even_split_no_caps_binding(self):
        quotas = waterfill_quotas(30, np.full(10, 32))
        assert quotas.sum() == 30
        assert quotas.max() - quotas.min() <= 1

    def test_caps_bind(self):
        quotas = waterfill_quotas(10, np.array([2, 2, 32]))
        assert quotas.sum() == 10
        assert quotas[0] == 2 and quotas[1] == 2 and quotas[2] == 6

    def test_remainder_rotates_with_offset(self):
        a = waterfill_quotas(1, np.full(4, 32), tie_offset=0)
        b = waterfill_quotas(1, np.full(4, 32), tie_offset=1)
        assert np.argmax(a) != np.argmax(b)

    def test_zero_total(self):
        assert waterfill_quotas(0, np.full(3, 32)).sum() == 0

    def test_exact_capacity(self):
        quotas = waterfill_quotas(96, np.full(3, 32))
        assert list(quotas) == [32, 32, 32]

    def test_over_capacity_raises(self):
        with pytest.raises(CapacityError):
            waterfill_quotas(97, np.full(3, 32))

    def test_negative_inputs_raise(self):
        with pytest.raises(SchedulingError):
            waterfill_quotas(-1, np.full(3, 32))
        with pytest.raises(SchedulingError):
            waterfill_quotas(1, np.array([-1, 2]))

    @given(st.integers(min_value=0, max_value=320),
           st.lists(st.integers(min_value=0, max_value=32), min_size=1,
                    max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_property_conservation_and_fairness(self, total, caps):
        caps = np.asarray(caps)
        total = min(total, int(caps.sum()))
        quotas = waterfill_quotas(total, caps)
        assert quotas.sum() == total
        assert np.all(quotas <= caps)
        assert np.all(quotas >= 0)
        # Evenness: any server below its cap is within 1 of the minimum
        # unconstrained allocation.
        below_cap = quotas < caps
        if below_cap.any():
            assert quotas[below_cap].max() - quotas[below_cap].min() <= 1

    @staticmethod
    def _iterative_waterfill(total, caps, tie_offset):
        """The original round-by-round algorithm, as a reference."""
        quotas = np.zeros_like(caps)
        remaining = total
        while remaining > 0:
            active = np.flatnonzero(quotas < caps)
            share = remaining // len(active)
            if share == 0:
                rotated = np.roll(active, -(tie_offset % len(active)))
                quotas[rotated[:remaining]] += 1
                break
            add = np.minimum(caps[active] - quotas[active], share)
            quotas[active] += add
            remaining -= int(add.sum())
        return quotas

    @given(st.integers(min_value=0, max_value=400),
           st.lists(st.integers(min_value=0, max_value=32), min_size=1,
                    max_size=20),
           st.integers(min_value=0, max_value=25))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_iterative_reference(self, total, caps,
                                                  tie_offset):
        # The closed-form water level must reproduce the iterative
        # dealing *exactly*, remainder rotation included.
        caps = np.asarray(caps, dtype=np.int64)
        total = min(total, int(caps.sum()))
        got = waterfill_quotas(total, caps, tie_offset)
        want = self._iterative_waterfill(total, caps, tie_offset)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype


class TestPack:
    def test_fills_in_order(self):
        quotas = pack_quotas(40, np.full(3, 32), np.array([2, 0, 1]))
        assert quotas[2] == 32 and quotas[0] == 8 and quotas[1] == 0

    def test_zero_total(self):
        assert pack_quotas(0, np.full(3, 32), np.arange(3)).sum() == 0

    def test_over_capacity_raises(self):
        with pytest.raises(CapacityError):
            pack_quotas(100, np.full(3, 32), np.arange(3))

    @given(st.integers(min_value=0, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_property_prefix_packing(self, total):
        order = np.array([1, 2, 0])
        quotas = pack_quotas(total, np.full(3, 32), order)
        assert quotas.sum() == total
        # In pack order, a server is only partially filled if every
        # earlier server is full.
        ordered = quotas[order]
        seen_partial = False
        for q in ordered:
            if seen_partial:
                assert q == 0
            if q < 32:
                seen_partial = True


class TestTakeShare:
    def test_proportional_share_keeps_the_mix(self):
        part = np.array([8, 0, 4, 0, 0])
        taken = take_share(part, 6)
        assert list(taken) == [4, 0, 2, 0, 0]
        assert list(part) == [4, 0, 2, 0, 0]

    def test_shortfall_ties_go_to_the_lower_workload(self):
        # Both leftovers are 1: the lower index takes the one job, on
        # every host (an unstable argsort may pick workload 3).
        part = np.array([0, 0, 1, 1, 0])
        taken = take_share(part, 1)
        assert list(taken) == [0, 0, 1, 0, 0]
        assert list(part) == [0, 0, 0, 1, 0]

    @given(st.lists(st.lists(st.integers(min_value=0, max_value=12),
                             min_size=NUM_WORKLOADS,
                             max_size=NUM_WORKLOADS),
                    min_size=1, max_size=8),
           st.integers(min_value=0, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_planned_closed_form(self, rows, capacity):
        # The planned kernel's vectorized slice is the same take, row by
        # row, so the scalar pass and the closed form cannot drift.
        rows = np.asarray(rows, dtype=np.int64)
        planned = _fitted_slice(rows, capacity)
        for row, expected in zip(rows, planned):
            part = row.copy()
            taken = take_share(part, capacity)
            assert np.array_equal(taken, expected)
            assert np.array_equal(part, row - expected)


class TestDealTypes:
    def test_conserves_per_workload_counts(self):
        demand = np.array([5, 3, 0, 2, 1])
        quotas = np.array([4, 4, 3])
        allocation = deal_types(demand, quotas)
        assert np.array_equal(allocation.sum(axis=0), demand)
        assert np.array_equal(allocation.sum(axis=1), quotas)

    def test_mismatched_totals_raise(self):
        with pytest.raises(SchedulingError):
            deal_types(np.array([1, 0, 0, 0, 0]), np.array([2]))

    def test_zero_demand(self):
        allocation = deal_types(np.zeros(NUM_WORKLOADS, dtype=int),
                                np.zeros(3, dtype=int))
        assert allocation.sum() == 0

    def test_round_robin_interleaving_spreads_types(self):
        # 4 jobs of each of two types over 4 servers of quota 2: without
        # shuffling, dealing round-robin gives each server one of each.
        demand = np.array([4, 4, 0, 0, 0])
        quotas = np.array([2, 2, 2, 2])
        allocation = deal_types(demand, quotas, rng=None)
        assert np.all(allocation[:, 0] == 1)
        assert np.all(allocation[:, 1] == 1)

    def test_shuffled_dealing_creates_mix_variance(self, rng):
        demand = np.array([64, 64, 0, 0, 0])
        quotas = np.full(4, 32)
        allocation = deal_types(demand, quotas, rng=rng)
        assert np.array_equal(allocation.sum(axis=0), demand)
        # With shuffling, at least one server deviates from the even 16/16.
        assert np.any(allocation[:, 0] != 16)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=5,
                    max_size=5),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_property_conservation(self, demand, num_servers):
        demand = np.asarray(demand)
        total = int(demand.sum())
        base, extra = divmod(total, num_servers)
        quotas = np.full(num_servers, base)
        quotas[:extra] += 1
        allocation = deal_types(demand, quotas,
                                rng=np.random.default_rng(0))
        assert np.array_equal(allocation.sum(axis=0), demand)
        assert np.array_equal(allocation.sum(axis=1), quotas)
        assert np.all(allocation >= 0)
