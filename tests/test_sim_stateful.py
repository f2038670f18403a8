"""Stateful property test for the discrete-event kernel.

Hypothesis drives a random interleaving of schedule / cancel / run-until
operations against the real :class:`~repro.sim.engine.Engine` and a
naive reference model (a plain list), checking that dispatch order and
the clock always agree.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 rule)

from repro.sim import Engine


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.fired = []
        # Reference model: list of (time, seq, id, cancelled).
        self.expected = []
        self.seq = 0

    events = Bundle("events")

    @rule(target=events, delay=st.floats(min_value=0.0, max_value=100.0))
    def schedule(self, delay):
        self.seq += 1
        ident = self.seq
        time = self.engine.now + delay
        event = self.engine.schedule_at(
            time, lambda ev, i=ident: self.fired.append(i))
        self.expected.append([time, self.seq, ident, False])
        return (event, ident)

    @rule(item=events)
    def cancel(self, item):
        event, ident = item
        self.engine.cancel(event)
        for record in self.expected:
            if record[2] == ident:
                record[3] = True

    def _advance(self, deadline, method):
        method(deadline)
        due = sorted((r for r in self.expected
                      if r[0] <= deadline and not r[3]),
                     key=lambda r: (r[0], r[1]))
        expected_ids = [r[2] for r in due]
        already = len(self.fired) - len(expected_ids)
        # Remove dispatched records from the pending model.
        self.expected = [r for r in self.expected
                         if r[0] > deadline or r[3]]
        assert self.fired[already:] == expected_ids
        assert self.engine.now == deadline

    @rule(advance=st.floats(min_value=0.0, max_value=50.0))
    def run_until(self, advance):
        self._advance(self.engine.now + advance, self.engine.run_until)

    @rule(advance=st.floats(min_value=0.0, max_value=50.0))
    def advance_to(self, advance):
        # The alias must honor the identical contract under arbitrary
        # interleaving with run_until.
        self._advance(self.engine.now + advance, self.engine.advance_to)

    @invariant()
    def clock_never_runs_backwards(self):
        assert self.engine.now >= 0.0


TestEngineStateful = EngineMachine.TestCase
TestEngineStateful.settings = __import__("hypothesis").settings(
    max_examples=30, stateful_step_count=30, deadline=None)


class TestAdvanceSnapshotInterleave:
    """Snapshot and resume between ``advance_to`` calls dispatch what one
    straight run dispatches."""

    def test_snapshot_resume_interleaved_with_advance(self):
        def build(record):
            engine = Engine()
            for k in range(6):
                t = 5.0 * k + 0.5
                engine.schedule_at(
                    t, lambda ev, k=k: record.append(k))
            return engine

        straight_fired = []
        straight = build(straight_fired)
        straight.advance_to(30.0)

        fired = []
        engine = build(fired)
        engine.advance_to(7.0)
        engine.advance_to(12.0)
        state = engine.state_dict()
        assert state["now_s"] == 12.0

        resumed_fired = list(fired)
        resumed = Engine()
        resumed.load_state_dict(state)
        # Snapshots are only taken at quiescent boundaries: the owner
        # re-schedules its pending events, as the fault injector does.
        for k in range(6):
            t = 5.0 * k + 0.5
            if t > resumed.now:
                resumed.schedule_at(
                    t, lambda ev, k=k: resumed_fired.append(k))
        resumed.advance_to(21.0)
        resumed.advance_to(21.0)  # re-entry at the same boundary: no-op
        resumed.advance_to(30.0)
        assert resumed_fired == straight_fired
        assert resumed.now == straight.now == 30.0
