"""Streaming ingestion and online control for the digital twin.

The batch engine enjoys two oracle luxuries a real datacenter never has:
the full demand trace up front, and a grouping value tuned against it.
This package removes both.  Jobs arrive as *events* from a feed (trace
replay, a seeded synthetic arrival process, or line-delimited JSON); the
engine advances incrementally with a hard no-lookahead boundary; the GV
estimate comes from a pluggable forecaster; and an optional MPC
controller forks the running simulation's snapshot to race candidate
placements through shadow simulations.

The honesty proof lives in the differential test: a live run driven by
the :class:`~repro.live.forecast.OracleForecaster` over a
:class:`~repro.live.feeds.TraceReplayFeed` is bit-identical to the
offline batch run, so any divergence under a real forecaster is the
measured cost of losing the oracle -- not a harness artifact.
"""

from .buffer import LiveTraceBuffer
from .feeds import (FEED_KINDS, JsonlFeed, SyntheticArrivalFeed,
                    TraceReplayFeed, make_feed)
from .forecast import (FORECASTER_NAMES, LastValueForecaster,
                       OracleForecaster, invert_grouping_value,
                       make_forecaster)
from .mpc import DEFAULT_GV_DELTAS, MPCController, MPCDecision
from .runner import (DEFAULT_DECISION_EVERY, LiveRunner, LiveRunReport,
                     resume_live)

__all__ = [
    "DEFAULT_DECISION_EVERY",
    "DEFAULT_GV_DELTAS",
    "FEED_KINDS",
    "FORECASTER_NAMES",
    "JsonlFeed",
    "LastValueForecaster",
    "LiveRunner",
    "LiveRunReport",
    "LiveTraceBuffer",
    "MPCController",
    "MPCDecision",
    "OracleForecaster",
    "SyntheticArrivalFeed",
    "TraceReplayFeed",
    "invert_grouping_value",
    "make_feed",
    "make_forecaster",
    "resume_live",
]
