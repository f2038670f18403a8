"""Unit tests for the event-driven simulation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine, RngStreams


class TestEventQueue:
    """The engine's event heap: dispatch order, ties, cancellation and
    the rejection of times before the clock."""

    def test_pop_returns_events_in_time_order(self):
        engine = Engine()
        fired = []
        for time in (5.0, 1.0, 3.0):
            engine.schedule_at(time, lambda e: fired.append(e.time))
        engine.run_until(10.0)
        assert fired == [1.0, 3.0, 5.0]

    def test_ties_break_by_priority_then_insertion(self):
        engine = Engine()
        order = []
        engine.schedule_at(1.0, lambda e: order.append("b"), priority=1)
        engine.schedule_at(1.0, lambda e: order.append("a"), priority=0)
        engine.schedule_at(1.0, lambda e: order.append("c"), priority=1)
        engine.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        engine = Engine()
        fired = []
        drop = engine.schedule_at(1.0, lambda e: fired.append("drop"))
        engine.schedule_at(2.0, lambda e: fired.append("keep"))
        engine.cancel(drop)
        engine.run_until(10.0)
        assert fired == ["keep"]
        assert engine.events_dispatched == 1

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule_at(-1.0, lambda e: None)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_pop_order_is_sorted(self, times):
        engine = Engine()
        fired = []
        for t in times:
            engine.schedule_at(t, lambda e: fired.append(e.time))
        engine.run_until(1e6)
        assert fired == sorted(times)


class TestEngine:
    def test_run_until_dispatches_in_order_and_advances_clock(self):
        engine = Engine()
        seen = []
        engine.schedule_at(10.0, lambda e: seen.append(engine.now))
        engine.schedule_at(5.0, lambda e: seen.append(engine.now))
        engine.run_until(20.0)
        assert seen == [5.0, 10.0]
        assert engine.now == 20.0

    def test_run_until_leaves_future_events_queued(self):
        engine = Engine()
        seen = []
        engine.schedule_at(5.0, lambda e: seen.append("early"))
        engine.schedule_at(50.0, lambda e: seen.append("late"))
        engine.run_until(10.0)
        assert seen == ["early"]
        engine.run_until(60.0)
        assert seen == ["early", "late"]

    def test_schedule_in_past_raises(self):
        engine = Engine()
        engine.run_until(100.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(50.0, lambda e: None)

    def test_nan_times_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda e: None)
        with pytest.raises(SimulationError):
            engine.run_until(float("nan"))
        assert engine.now == 0.0
        assert engine.pending_events == 0

    def test_events_can_schedule_events(self):
        engine = Engine()
        seen = []

        def chain(event):
            seen.append(engine.now)
            if engine.now < 3.0:
                engine.schedule_at(event.time + 1.0, chain)

        engine.schedule_at(1.0, chain)
        engine.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_events_dispatched_counter(self):
        engine = Engine()
        for t in range(5):
            engine.schedule_at(float(t), lambda e: None)
        engine.run_until(4.0)
        assert engine.events_dispatched == 5

    def test_pending_events_excludes_cancelled(self):
        engine = Engine()
        keep = engine.schedule_at(1.0, lambda e: None)
        drop = engine.schedule_at(2.0, lambda e: None)
        assert engine.pending_events == 2
        engine.cancel(drop)
        assert engine.pending_events == 1
        engine.cancel(keep)
        assert engine.pending_events == 0

    def test_cancel_after_dispatch_is_a_no_op(self):
        engine = Engine()
        fired = engine.schedule_at(1.0, lambda e: None)
        later = engine.schedule_at(2.0, lambda e: None)
        engine.run_until(1.0)
        engine.cancel(fired)
        assert engine.pending_events == 1
        engine.cancel(later)
        engine.run_until(5.0)
        assert engine.events_dispatched == 1

    def test_state_dict_roundtrip(self):
        engine = Engine()
        engine.schedule_at(5.0, lambda e: None)
        engine.run_until(10.0)
        state = engine.state_dict()
        fresh = Engine()
        fresh.load_state_dict(state)
        assert fresh.now == 10.0
        assert fresh.events_dispatched == 1

    def test_load_state_refuses_non_empty_queue(self):
        engine = Engine()
        engine.run_until(10.0)
        state = engine.state_dict()
        busy = Engine()
        busy.schedule_at(1.0, lambda e: None)
        with pytest.raises(SimulationError):
            busy.load_state_dict(state)


class TestRngStreams:
    def test_same_seed_and_name_reproduce(self):
        a = RngStreams(7).stream("trace").normal(size=10)
        b = RngStreams(7).stream("trace").normal(size=10)
        assert np.array_equal(a, b)

    def test_different_names_are_independent(self):
        streams = RngStreams(7)
        a = streams.stream("alpha").normal(size=100)
        b = streams.stream("beta").normal(size=100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").normal(size=10)
        b = RngStreams(2).stream("x").normal(size=10)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        streams = RngStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_reset_recreates_streams(self):
        streams = RngStreams(7)
        first = streams.stream("x").normal(size=5)
        streams.reset()
        again = streams.stream("x").normal(size=5)
        assert np.array_equal(first, again)

    def test_adding_a_stream_does_not_perturb_others(self):
        solo = RngStreams(7)
        solo_draw = solo.stream("main").normal(size=20)
        paired = RngStreams(7)
        paired.stream("extra").normal(size=3)  # extra subsystem appears
        paired_draw = paired.stream("main").normal(size=20)
        assert np.array_equal(solo_draw, paired_draw)

    def test_crc32_colliding_names_get_distinct_streams(self):
        """Regression: the spawn key used to be crc32(name), which
        aliases distinct names onto one stream.  "plumless" and
        "buckeroo" are the classic crc32 collision pair; the injective
        key must keep them independent."""
        import zlib
        assert zlib.crc32(b"plumless") == zlib.crc32(b"buckeroo")
        streams = RngStreams(7)
        a = streams.stream("plumless").normal(size=100)
        b = streams.stream("buckeroo").normal(size=100)
        assert not np.array_equal(a, b)

    def test_state_dict_roundtrip_continues_sequences(self):
        streams = RngStreams(7)
        streams.stream("x").normal(size=13)
        streams.stream("y").normal(size=5)
        state = streams.state_dict()
        expected_x = streams.stream("x").normal(size=10)
        expected_y = streams.stream("y").normal(size=10)
        restored = RngStreams(7)
        restored.load_state_dict(state)
        assert np.array_equal(restored.stream("x").normal(size=10),
                              expected_x)
        assert np.array_equal(restored.stream("y").normal(size=10),
                              expected_y)

    def test_load_state_rejects_foreign_bit_generator(self):
        streams = RngStreams(7)
        streams.stream("x")
        state = streams.state_dict()
        state["x"] = dict(state["x"], bit_generator="MT19937")
        with pytest.raises(SimulationError, match="bit generator"):
            RngStreams(7).load_state_dict(state)
