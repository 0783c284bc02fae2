"""List entries for the pipelined algorithm (paper Table II / Section II-A).

An entry ``Z = (kappa, d, l, x)`` records one candidate path from source
``x`` to the node holding the entry: weighted distance ``d``, hop length
``l``, key ``kappa = d * gamma + l``.  The node also tracks, per entry:

* ``flag_sp`` -- the paper's ``Z.flag-d*``: set iff this entry currently
  realises the smallest ``(d, kappa)`` for its source at this node (its
  ``d`` is the current shortest-distance estimate ``d*_x``);
* ``parent`` -- the neighbour the entry arrived from (the last edge of
  the path, which is the required APSP output alongside the distance);
* ``sent_at`` -- rounds at which this entry was sent.  **Opt-in**
  diagnostics: ``None`` until the first :meth:`Entry.record_send`, so
  the default hot path never allocates the per-entry list.  The
  pipelined program records sends only when a trace recorder, a record
  window, or the paranoid debug mode is active (or ``record_sends=True``
  is forced); renderers must treat ``None`` as "recording was off", not
  "never sent" (:func:`repro.analysis.inspect.send_history`).

Hot-path note: ``sort_key`` is a plain slot computed once in
``__init__`` (it was a property).  The kernelised
:class:`~repro.core.node_list.NodeList` reads it on every insert,
position query, and count, and ``kappa``/``d``/``x`` are immutable path
data, so caching is free and saves a descriptor call per access.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class Entry:
    """One element of ``list_v``.  Mutable flags, immutable path data."""

    __slots__ = ("kappa", "d", "l", "x", "flag_sp", "parent", "sort_key",
                 "sent_at", "_li")

    def __init__(self, kappa: float, d: int, l: int, x: int,
                 *, flag_sp: bool = False, parent: Optional[int] = None) -> None:
        self.kappa = kappa
        self.d = d
        self.l = l
        self.x = x
        self.flag_sp = flag_sp
        self.parent = parent
        #: List order: by key, ties by distance, then by the label of the
        #: source vertex (Section II-A).  Immutable -- computed once.
        self.sort_key: Tuple[float, int, int] = (kappa, d, x)
        #: Rounds this entry was sent in; ``None`` = recording disabled.
        self.sent_at: Optional[List[int]] = None
        #: Index of this entry within its source's per-source list --
        #: maintained by the owning NodeList kernel (None = not on a
        #: list).  Private coupling: an Entry is created by one node and
        #: lives on exactly one list, which is what makes an identity
        #: index on the entry itself safe (and free of the id()-reuse
        #: hazards a side-table would have).
        self._li: Optional[int] = None

    def record_send(self, r: int) -> None:
        """Append *r* to ``sent_at``, allocating the list lazily."""
        if self.sent_at is None:
            self.sent_at = [r]
        else:
            self.sent_at.append(r)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        star = "*" if self.flag_sp else ""
        return (f"Entry(k={self.kappa:.3f}, d={self.d}, l={self.l}, "
                f"x={self.x}{star}, p={self.parent})")


class SourceBest:
    """Per-source shortest-path state at a node: the paper's
    ``d*_x`` plus the tie-break fields of Step 9 (hop length and parent
    id of the current best path)."""

    __slots__ = ("d", "l", "parent", "_entry", "_owner")

    def __init__(self) -> None:
        self.d: float = float("inf")
        self.l: float = float("inf")
        self.parent: Optional[int] = None
        self._entry: Optional[Entry] = None
        #: The program whose list the columnar kernel left as columns
        #: (``PipelinedSSPProgram.park_kernel_columns``); ``None`` when
        #: ``entry`` is current.
        self._owner = None

    @property
    def entry(self) -> Optional[Entry]:
        """The Entry object currently flagged as SP (None before first).
        After a columnar kernel run it is built on first access, together
        with the owning program's ``list_v``."""
        if self._owner is not None:
            self._owner.materialize()
        return self._entry

    @entry.setter
    def entry(self, entry: Optional[Entry]) -> None:
        self._entry = entry

    def beats(self, d: int, l: int, parent: Optional[int]) -> bool:
        """Step 9 of Algorithm 1: does a new candidate ``(d, l, parent)``
        replace the current shortest-path entry?  Strictly smaller
        distance; or equal distance and strictly fewer hops; or equal
        both and a smaller parent id.  The deterministic parent-id
        tie-break is what makes the 2h-hop run produce *consistent*
        trees (Section III-A)."""
        if d < self.d:
            return True
        if d == self.d:
            if l < self.l:
                return True
            if l == self.l:
                pa = -1 if parent is None else parent
                pb = -1 if self.parent is None else self.parent
                return pa < pb
        return False
