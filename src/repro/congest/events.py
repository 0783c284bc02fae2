"""Optional execution tracing for debugging and for the invariant checks.

The benchmark E4 (invariants of Algorithm 1) and several property tests
need to observe *when* entries were inserted and sent.  Rather than give
the simulator a heavyweight instrumentation layer, programs that support
tracing accept a :class:`TraceRecorder` and call :meth:`TraceRecorder.emit`
at the relevant points.  A ``None`` recorder disables tracing with zero
overhead beyond one attribute test.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple


class TraceEvent(NamedTuple):
    """One recorded fact.  A named tuple rather than a dataclass: traced
    runs build one per send and per insert, and a tuple is about half
    the cost to construct."""

    round: int
    node: int
    kind: str
    data: Tuple


class TraceRecorder:
    """Append-only event log with simple query helpers."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, round_: int, node: int, kind: str, *data: Any) -> None:
        self.events.append(TraceEvent(round_, node, kind, tuple(data)))

    def emit_events(self, events: List[TraceEvent]) -> None:
        """Record prebuilt events in order, with the same result as one
        :meth:`emit` per event (a subclass that overrides only
        :meth:`emit` gets exactly those calls).  Bulk engines hand over
        a whole round at once through this."""
        if type(self).emit is TraceRecorder.emit:
            self.events.extend(events)
            return
        emit = self.emit
        for e in events:
            emit(e.round, e.node, e.kind, *e.data)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def per_node(self, kind: Optional[str] = None) -> Dict[int, List[TraceEvent]]:
        out: Dict[int, List[TraceEvent]] = {}
        for e in self.events:
            if kind is None or e.kind == kind:
                out.setdefault(e.node, []).append(e)
        return out

    def rounds_of(self, kind: str) -> List[int]:
        return [e.round for e in self.events if e.kind == kind]


class RingTraceRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that retains only the last ``window``
    *rounds* of events.

    Used by ``Network(record_window=k)`` to keep a bounded flight
    recorder for post-mortems: memory stays proportional to the recent
    traffic instead of the whole execution.  Eviction is by round, not
    by event count, so a post-mortem always sees complete rounds.
    """

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 round, got {window}")
        super().__init__()
        self.window = window
        self._round_starts: List[Tuple[int, int]] = []  # (round, first index)

    def emit(self, round_: int, node: int, kind: str, *data: Any) -> None:
        if not self._round_starts or self._round_starts[-1][0] != round_:
            self._round_starts.append((round_, len(self.events)))
            # Evict rounds older than the window.  The simulator emits in
            # non-decreasing round order, so one pass from the left is
            # enough and amortises to O(1) per event.
            while (self._round_starts
                   and self._round_starts[0][0] <= round_ - self.window):
                self._round_starts.pop(0)
            if self._round_starts:
                cut = self._round_starts[0][1]
                if cut:
                    del self.events[:cut]
                    self._round_starts = [(rr, i - cut)
                                          for rr, i in self._round_starts]
        super().emit(round_, node, kind, *data)
