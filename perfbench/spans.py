"""In-memory spans for the benchmark's traced mode.

A :class:`Recorder` keeps every span in a list until the run ends; the
benchmark then writes them out as JSON lines.  Spans come from two
places, both in the benchmark's own files:

* ``with recorder.span(layer, name):`` around a call the benchmark makes
  itself;
* :meth:`Recorder.wrap`, which swaps a public function or method of the
  program for a timing wrapper while the traced operation runs, so calls
  the program makes internally (``ClusterSimulation.run`` inside
  ``ExperimentRunner.run``, ``Engine.advance_to`` inside ``LiveRunner``)
  get a span too.  :meth:`Recorder.unwrap_all` puts the originals back.

Every span records its parent, so a layer's *self* time is its duration
minus the time its direct children cover.  Per-tick sections from the
program's ``TickProfiler`` are attached as synthetic children of the
span whose run they timed.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Profiler section -> (layer, span name) used for attribution.
SECTION_LAYERS = {
    "placement": ("core", "placement"),
    "air_model": ("thermal", "air"),
    "pcm": ("thermal", "pcm"),
    "estimator": ("thermal", "estimator"),
    "metrics": ("cluster", "metrics"),
    "checks": ("checks", "sanitizer"),
    "kernel_plan": ("kernel", "plan"),
    "kernel_fused_step": ("kernel", "fused_step"),
    "kernel_metrics_write": ("kernel", "metrics_write"),
    "dispatch": ("kernel", "dispatch"),
}


class Recorder:
    """Collects spans from the thread that created it.

    Calls arriving on any other thread pass straight through unrecorded:
    every traced operation in this benchmark runs on one thread, and a
    span stack shared across threads would mis-parent spans.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._owner = threading.get_ident()
        self._undo: List[Callable[[], None]] = []

    def open(self, layer: str, name: str, **attrs: Any) -> Dict[str, Any]:
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "layer": layer, "name": name,
                "start": time.perf_counter(), "dur": 0.0, "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["dur"] = time.perf_counter() - span["start"]
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        span = self.open(layer, name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def add_sections(self, parent: Dict[str, Any],
                     profile: Optional[Dict[str, Dict[str, float]]]) -> None:
        """Attach a ``TickProfiler`` snapshot as children of ``parent``."""
        for section, timing in (profile or {}).items():
            layer, name = SECTION_LAYERS.get(section, ("cluster", section))
            self.spans.append({
                "id": len(self.spans), "parent": parent["id"],
                "layer": layer, "name": name, "start": parent["start"],
                "dur": float(timing["total_s"]),
                "attrs": {"calls": int(timing["calls"]),
                          "synthetic": True}})

    def wrap(self, owner: Any, attr: str, layer: str, name: str,
             probe: Optional[Callable[..., Callable[[Any, Dict], None]]]
             = None) -> None:
        """Time every call of ``owner.attr`` until :meth:`unwrap_all`.

        ``probe(*args, **kwargs)`` runs before the call and returns a
        function ``finish(return_value, span)`` run after it, which
        records what the call did into the span (a counter's delta, the
        kernel path taken).
        """
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            if threading.get_ident() != recorder._owner:
                return original(*args, **kwargs)
            finish = probe(*args, **kwargs) if probe is not None else None
            span = recorder.open(layer, name)
            try:
                out = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if finish is not None:
                finish(out, span)
            return out

        setattr(owner, attr, wrapper)

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.append(undo)

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------

    def descendants(self, root: Dict[str, Any]) -> List[Dict[str, Any]]:
        """``root`` and every span below it, in recording order."""
        inside = {root["id"]}
        out = [root]
        for span in self.spans[root["id"] + 1:]:
            if span["parent"] in inside:
                inside.add(span["id"])
                out.append(span)
        return out

    def self_times(self, spans: List[Dict[str, Any]]) -> Dict[int, float]:
        """Span id -> duration minus its direct children's durations."""
        own = {span["id"]: span["dur"] for span in spans}
        for span in spans:
            if span["parent"] in own:
                own[span["parent"]] -= span["dur"]
        return own

    def write(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True,
                                        default=str) + "\n")
