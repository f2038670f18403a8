"""Arrival feeds: where live demand rows come from.

A feed declares its framing (``num_steps``, ``step_seconds``,
``total_cores``) and yields integer demand rows one scheduling interval
at a time via :meth:`iter_rows`.  Three sources cover the spectrum the
online-control study needs:

* :class:`TraceReplayFeed` -- replay a recorded trace log (a
  :class:`~repro.workloads.trace.TraceMatrix`), including the exact
  trace an offline batch run would generate from a configuration.  This
  is the differential-test workhorse: same rows, delivered with no
  lookahead.
* :class:`SyntheticArrivalFeed` -- a seeded open-loop arrival process
  (diurnally modulated Poisson arrivals per workload).  Open-loop means
  the whole stream is determined by the seed at construction; the
  no-lookahead property is enforced downstream by the
  :class:`~repro.live.buffer.LiveTraceBuffer`, never by hiding state
  here.
* :class:`JsonlFeed` -- line-delimited JSON from a socket, pipe, or
  file: one ``{"jobs": [...]}`` object (or bare list) per interval,
  optionally preceded by a header object declaring the framing.

Replay and synthetic feeds are *rewindable* (``iter_rows(start=k)``
skips ahead), which is what lets a checkpoint restore resume ingestion
mid-stream; a consumed line stream is not, so JSONL migration requires
re-supplying the remaining lines.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ..config import SimulationConfig, TraceConfig
from ..errors import TraceError
from ..perf.cache import shared_trace
from ..workloads.trace import DEFAULT_SHARES, TraceMatrix, _diurnal_shape
from ..workloads.workload import WORKLOAD_LIST

NUM_WORKLOADS = len(WORKLOAD_LIST)

#: Feed kinds accepted by :func:`make_feed`.
FEED_KINDS = ("replay", "synthetic")


class TraceReplayFeed:
    """Replay a recorded demand trace row by row."""

    def __init__(self, trace: TraceMatrix) -> None:
        self._trace = trace
        self._counts = trace.counts  # one defensive copy up front

    @classmethod
    def from_config(cls, config: SimulationConfig) -> "TraceReplayFeed":
        """The exact trace an offline batch run of ``config`` would use.

        Taken from the process-wide trace cache
        (:func:`~repro.perf.cache.shared_trace`), which builds every
        run's trace, so a live replay of this feed observes the demand
        the batch run does, row for row.
        """
        return cls(shared_trace(config))

    @property
    def num_steps(self) -> int:
        return self._counts.shape[0]

    @property
    def step_seconds(self) -> float:
        return self._trace.step_seconds

    @property
    def total_cores(self) -> int:
        return self._trace.total_cores

    @property
    def trace(self) -> TraceMatrix:
        """The full underlying trace (oracle forecasters read this)."""
        return self._trace

    def iter_rows(self, start: int = 0
                  ) -> Iterator[Tuple[int, np.ndarray]]:
        for step in range(start, self._counts.shape[0]):
            yield step, self._counts[step]


class SyntheticArrivalFeed:
    """Seeded open-loop arrivals: diurnal Poisson per workload.

    Per interval, workload ``k`` draws ``Poisson(rate_k(t))`` job-cores,
    where the rate follows the paper trace's 48-hour diurnal skeleton
    scaled by the workload's share of a peak utilization.  Rows are
    clipped to cluster capacity (proportionally, preserving mix).
    """

    def __init__(self, num_steps: int, step_seconds: float,
                 total_cores: int, *, seed: int = 0,
                 peak_utilization: float = 0.9) -> None:
        if num_steps <= 0:
            raise TraceError("num_steps must be positive")
        if not 0.0 < peak_utilization <= 1.0:
            raise TraceError("peak_utilization must be in (0, 1]")
        self._step_s = float(step_seconds)
        self._total_cores = int(total_cores)
        rng = np.random.default_rng(seed)
        hours = np.arange(num_steps) * self._step_s / 3600.0
        shape = _diurnal_shape(hours)
        rates = (shape[:, None] * DEFAULT_SHARES[None, :]
                 * peak_utilization * total_cores)
        counts = rng.poisson(rates).astype(np.int64)
        totals = counts.sum(axis=1, keepdims=True)
        over = totals > total_cores
        if np.any(over):
            scale = np.where(over, total_cores
                             / np.maximum(totals, 1), 1.0)
            counts = (counts * scale).astype(np.int64)
        self._counts = counts

    @property
    def num_steps(self) -> int:
        return self._counts.shape[0]

    @property
    def step_seconds(self) -> float:
        return self._step_s

    @property
    def total_cores(self) -> int:
        return self._total_cores

    def iter_rows(self, start: int = 0
                  ) -> Iterator[Tuple[int, np.ndarray]]:
        for step in range(start, self._counts.shape[0]):
            yield step, self._counts[step]


class JsonlFeed:
    """Line-delimited JSON arrivals from a file, pipe, or socket.

    Each line is one interval's demand: ``{"jobs": [w0, ..., w4]}`` or a
    bare 5-element list.  The first line may instead be a header object
    ``{"num_steps": N, "step_seconds": S, "total_cores": C}``; framing
    not supplied by a header must come from the constructor.  Blank
    lines are skipped; the stream ending early simply ends the run.
    """

    def __init__(self, lines: Iterable[str], *,
                 num_steps: Optional[int] = None,
                 step_seconds: Optional[float] = None,
                 total_cores: Optional[int] = None) -> None:
        self._lines = iter(lines)
        first_row: Optional[np.ndarray] = None
        header = self._read_header()
        if header is not None and "jobs" not in header \
                and not isinstance(header, list):
            num_steps = int(header.get("num_steps", num_steps or 0)) \
                or num_steps
            step_seconds = header.get("step_seconds", step_seconds)
            total_cores = header.get("total_cores", total_cores)
        elif header is not None:
            first_row = self._coerce_row(header)
        if num_steps is None or step_seconds is None \
                or total_cores is None:
            raise TraceError(
                "jsonl feed needs num_steps, step_seconds, and "
                "total_cores -- from the constructor or a header line")
        self._num_steps = int(num_steps)
        self._step_s = float(step_seconds)
        self._total_cores = int(total_cores)
        self._pending = first_row

    def _read_header(self):
        for raw in self._lines:
            raw = raw.strip()
            if not raw:
                continue
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceError(f"bad jsonl feed line: {exc}") from exc
        return None

    @staticmethod
    def _coerce_row(payload) -> np.ndarray:
        jobs = payload.get("jobs") if isinstance(payload, dict) \
            else payload
        row = np.asarray(jobs, dtype=np.int64)
        if row.shape != (NUM_WORKLOADS,):
            raise TraceError(
                f"jsonl row must have {NUM_WORKLOADS} entries")
        return row

    @property
    def num_steps(self) -> int:
        return self._num_steps

    @property
    def step_seconds(self) -> float:
        return self._step_s

    @property
    def total_cores(self) -> int:
        return self._total_cores

    def iter_rows(self, start: int = 0
                  ) -> Iterator[Tuple[int, np.ndarray]]:
        if start != 0:
            raise TraceError(
                "a consumed line stream cannot rewind; re-supply the "
                "remaining lines to resume a jsonl feed")
        step = 0
        if self._pending is not None:
            yield step, self._pending
            self._pending = None
            step += 1
        for raw in self._lines:
            if step >= self._num_steps:
                break
            raw = raw.strip()
            if not raw:
                continue
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceError(f"bad jsonl feed line: {exc}") from exc
            yield step, self._coerce_row(payload)
            step += 1


def make_feed(kind: str, config: SimulationConfig, *,
              seed: Optional[int] = None):
    """Build a named feed sized to ``config``'s trace framing."""
    if kind == "replay":
        return TraceReplayFeed.from_config(config)
    if kind == "synthetic":
        trace_cfg: TraceConfig = config.trace
        return SyntheticArrivalFeed(
            trace_cfg.num_steps, trace_cfg.step_seconds,
            config.total_cores,
            seed=config.seed if seed is None else seed,
            peak_utilization=trace_cfg.peak_utilization)
    raise TraceError(
        f"unknown feed kind {kind!r}; choose from {FEED_KINDS} "
        "(or construct a JsonlFeed directly)")
