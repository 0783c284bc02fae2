"""Structured, hierarchical execution tracing with bounded buffering.

The seed simulator's :class:`~repro.congest.events.TraceRecorder` is a
flat append-only list of ``(round, node, kind, data)`` tuples -- enough
for the invariant checks, but it cannot express *structure* (which phase
of Algorithm 3 a send belongs to), it grows without bound, and it has no
export format.  :class:`Tracer` is the observability-grade replacement:

* **events** -- per-round facts (sends, key promotions, blocker
  elections, fault injections) stored in a bounded ring; once the ring
  is full the oldest events are dropped and counted in
  :attr:`Tracer.dropped`, so tracing a long run has bounded memory.
* **spans** -- hierarchical phases (``with tracer.span("csssp"): ...``)
  with wall-clock duration and arbitrary attributes (round counts,
  parameters).  Spans nest; every event records the innermost open span,
  so an exported trace can be grouped phase by phase.
* **JSONL export** -- one self-describing JSON object per line
  (``{"type": "span" | "event", ...}``), the interchange format the
  ``repro obs`` dashboard and external tools consume.

``Tracer`` subclasses :class:`~repro.congest.events.TraceRecorder`, so it
can be handed to every API that accepts a recorder (``run_hk_ssp(trace=...)``,
program-level emits) and the existing query helpers (``of_kind``,
``per_node``, ``rounds_of``) keep working -- they see the bounded event
window.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..congest.events import TraceEvent, TraceRecorder


@dataclass
class Span:
    """One traced phase: a named interval with attributes.

    ``t0``/``t1`` are :func:`time.perf_counter` readings (relative wall
    clock, meaningful only as differences); ``attrs`` commonly carries
    ``rounds`` so per-phase round counts can be cross-checked against
    :class:`~repro.congest.metrics.RunMetrics`.
    """

    span_id: int
    name: str
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    t0: float = 0.0
    t1: Optional[float] = None

    @property
    def wall_seconds(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes (e.g. ``span.set(rounds=42)``)."""
        self.attrs.update(attrs)
        return self


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close_span(self.span, failed=exc_type is not None)


class Tracer(TraceRecorder):
    """Bounded structured tracer: spans + events + JSONL export.

    Parameters
    ----------
    max_events:
        Ring capacity.  Beyond it the *oldest* events are evicted (and
        tallied in :attr:`dropped`) -- recent history is what post-hoc
        debugging needs, and memory stays bounded on arbitrarily long
        runs.
    max_spans:
        Safety cap on retained spans (phases are few; this only guards
        against a pathological caller opening spans in a loop).
    """

    def __init__(self, *, max_events: int = 100_000,
                 max_spans: int = 10_000) -> None:
        super().__init__()
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self.max_events = max_events
        self.max_spans = max_spans
        self.spans: List[Span] = []
        #: Events evicted from the ring (0 until the buffer wraps).
        self.dropped = 0
        #: Spans discarded because ``max_spans`` was reached.
        self.dropped_spans = 0
        self._next_span_id = 1
        self._stack: List[Span] = []
        #: Innermost open span id at emit time, per retained event index.
        self._event_spans: List[Optional[int]] = []

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a (possibly nested) phase span::

            with tracer.span("short-range", h=h) as sp:
                ...
                sp.set(rounds=metrics.rounds)
        """
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(span_id=self._next_span_id, name=name, parent_id=parent,
                  attrs=dict(attrs), t0=time.perf_counter())
        self._next_span_id += 1
        if len(self.spans) < self.max_spans:
            self.spans.append(sp)
        else:
            self.dropped_spans += 1
        self._stack.append(sp)
        return _SpanContext(self, sp)

    def _close_span(self, sp: Span, *, failed: bool) -> None:
        sp.t1 = time.perf_counter()
        if failed:
            sp.attrs.setdefault("failed", True)
        # Unwind to the matching frame (tolerates exceptions that skipped
        # inner __exit__ calls, which cannot happen with `with` but can
        # with hand-driven contexts).
        while self._stack:
            top = self._stack.pop()
            if top is sp:
                break

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def phases(self) -> List[Span]:
        """Top-level spans in open order (the dashboard's phase rows)."""
        return [s for s in self.spans if s.parent_id is None]

    # -- events ----------------------------------------------------------

    def emit(self, round_: int, node: int, kind: str, *data: Any) -> None:
        """:class:`TraceRecorder`-compatible emit, with bounded buffering."""
        if len(self.events) >= self.max_events:
            # Evict in chunks (1/8 of the ring) so the list shift costs
            # O(1) amortized per emit instead of O(n) once the ring fills.
            evict = max(len(self.events) - self.max_events + 1,
                        self.max_events // 8)
            del self.events[:evict]
            del self._event_spans[:evict]
            self.dropped += evict
        self.events.append(TraceEvent(round_, node, kind, tuple(data)))
        self._event_spans.append(
            self._stack[-1].span_id if self._stack else None)

    def emit_events(self, events: List[TraceEvent]) -> None:
        """Bulk :meth:`emit` of prebuilt events: one append while they
        fit the ring, otherwise one :meth:`emit` per event -- so the
        retained events, their span ids and :attr:`dropped` are exactly
        those of emitting each event on its own."""
        if (type(self).emit is Tracer.emit
                and len(self.events) + len(events) <= self.max_events):
            self.events.extend(events)
            sid = self._stack[-1].span_id if self._stack else None
            self._event_spans.extend([sid] * len(events))
        else:
            super().emit_events(events)

    def event(self, kind: str, *, round: int = 0, node: int = -1,
              **fields: Any) -> None:
        """Structured emit: named fields instead of a positional tuple.

        Stored as one ``(key, value)``-tuple payload so the event shares
        the ring (and the bounded-buffer accounting) with :meth:`emit`.
        """
        self.emit(round, node, kind, *sorted(fields.items()))

    def kind_counts(self) -> Dict[str, int]:
        """Event count per kind over the retained window."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # -- export ----------------------------------------------------------

    def records(self) -> Iterator[Dict[str, Any]]:
        """The JSONL records, spans first (in open order), then events."""
        for sp in self.spans:
            yield {
                "type": "span",
                "id": sp.span_id,
                "parent": sp.parent_id,
                "name": sp.name,
                "wall_seconds": sp.wall_seconds,
                "attrs": _jsonable(sp.attrs),
            }
        for e, sid in zip(self.events, self._event_spans):
            yield {
                "type": "event",
                "kind": e.kind,
                "round": e.round,
                "node": e.node,
                "span": sid,
                "data": _jsonable(list(e.data)),
            }

    def export_jsonl(self, path: Any) -> int:
        """Write the trace as JSON Lines; returns the record count.

        The first line is a header record carrying the drop counters, so
        a consumer can tell a complete trace from a wrapped one.
        """
        count = 0
        with open(path, "w", encoding="ascii") as fh:
            header = {"type": "trace", "events": len(self.events),
                      "spans": len(self.spans), "dropped_events": self.dropped,
                      "dropped_spans": self.dropped_spans}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
                count += 1
        return count + 1


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-encodable data (tuples -> lists,
    inf -> the string "inf", unknown objects -> repr)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def load_jsonl(path: Any) -> List[Dict[str, Any]]:
    """Read back a trace written by :meth:`Tracer.export_jsonl`."""
    out: List[Dict[str, Any]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
