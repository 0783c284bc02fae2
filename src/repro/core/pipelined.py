"""Algorithm 1 -- the pipelined (h, k)-SSP algorithm (paper, Section II-A).

Given a set ``S`` of ``k`` sources, a hop bound ``h``, and a bound
``Delta`` on the shortest-path distances reachable within ``h`` hops,
every node ``v`` computes, for every source ``x``, the pair
``(delta(x, v), minhop(x, v))`` -- the exact shortest-path distance and
the minimum hop count among shortest paths -- whenever
``minhop(x, v) <= h``, together with the last edge (parent) on such a
path, in at most

    ceil(2 * sqrt(Delta h k) + h + k)        rounds (Theorem I.1 / Lemma II.14)

with every node sending at most one O(log n)-word message per round.

Output semantics.  "(h, k)-SSP" here is the paper's notion, *not* the
h-hop dynamic-programming distance: a node whose shortest paths from x
all need more than ``h`` hops either learns nothing for x or learns the
weight of some genuine <= h-hop path (never anything below the h-hop DP
optimum).  This is exactly the contract CSSSP construction needs
(Definition III.3 and the Figure 1 caption make the same restriction) and
the contract the single-estimate short-range Algorithm 2 provides; with
``h = n - 1`` it degenerates to exact APSP/k-SSP.  See DESIGN.md sec. 6
and :func:`repro.graphs.validation.assert_weak_h_hop_contract`.

How the machinery fits together (reconstruction notes, DESIGN.md sec. 6):

* Step 1 (send): the entry at position ``pos`` with ``ceil(kappa + pos)
  == r`` fires in round ``r``; the sortedness of the list makes that
  entry unique per round, which the implementation asserts -- the
  CONGEST one-message constraint is self-enforcing.  The message carries
  ``(d, l, x, flag_sp, nu)`` with ``nu`` computed at send time.
* Steps 3-13 (receive): every incoming message is rebuilt as a candidate
  with ``d = d- + w(y, v)``, ``l = l- + 1``, ``kappa = d * gamma + l``
  -- *including* candidates whose paths exceed ``h`` hops: they pad list
  positions, which Invariant 1 (Lemma II.12 via Corollary II.8) counts.
* flag-d* marks the entry with minimum ``(d, kappa)`` for its source over
  the whole list (the paper's verbatim definition; no hop gate).  The
  final flag-d* holder per source is never demoted, never evicted, and
  always fires -- correctness of the output rides on exactly this chain.
* Non-SP candidates pass the Step 13 quota gate iff fewer than ``nu-``
  same-source entries sit at-or-below their key; they exist to pad
  positions so that the send schedule stays ahead of arrivals.
* ``Insert`` evicts the closest non-SP same-source entry above the
  insertion point when the source's entry count exceeds the Invariant 2
  budget ``floor(sqrt(Delta h / k)) + 1``; an SP replacement that wins
  only the parent-id tie-break removes its fully dominated twin outright.
* Nodes stop sending after the cutoff round of Lemma II.14 -- by then
  every guaranteed output entry has arrived, so the remaining scheduled
  sends are dead weight the real algorithm would also skip (each node
  knows ``h``, ``k``, ``Delta`` and hence the cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..congest import Envelope, NodeContext, Program, RunMetrics
from ..congest.events import TraceRecorder
from ..perf.backends import make_network
from ..graphs.digraph import WeightedDigraph
from ..graphs.reference import weak_delta_bound
from .entries import Entry, SourceBest
from .keys import gamma_for, key_of, send_round
from . import node_list as _node_list
from .node_list import make_node_list

INF = float("inf")


class _ParkedList:
    """``PipelinedSSPProgram.list_v`` while the list is parked as
    kernel columns: a non-data descriptor, so the instance attribute
    shadows it and the object loops' ``self.list_v`` never reaches it."""

    def __get__(self, program, owner=None):
        if program is None:
            return self
        program.materialize()
        try:
            return program.__dict__["list_v"]
        except KeyError:
            raise AttributeError("list_v") from None


class PipelinedSSPProgram(Program):
    """Per-node state machine of Algorithm 1."""

    list_v = _ParkedList()

    def __init__(self, v: int, sources: Sequence[int], h: int, gamma: float,
                 *, cutoff_round: Optional[int] = None,
                 directed_broadcast: bool = True,
                 eviction: str = "budget",
                 trace: Optional[TraceRecorder] = None,
                 record_sends: Optional[bool] = None,
                 list_kernel: str = "indexed") -> None:
        self.v = v
        self.sources = sources
        self.h = h
        self.gamma = gamma
        self.cutoff_round = cutoff_round
        self.directed_broadcast = directed_broadcast
        self.trace = trace
        #: Per-entry ``sent_at`` diagnostics are opt-in (an allocation +
        #: append per send otherwise paid by every run); default: record
        #: exactly when something is watching -- a trace recorder or the
        #: paranoid kernel mode.
        self.record_sends = (trace is not None or _node_list.PARANOID
                             if record_sends is None else bool(record_sends))
        #: Invariant 2 budget: at most floor(h/gamma) + 1 = floor(
        #: sqrt(Delta h / k)) + 1 entries per source (Lemma II.11);
        #: Insert evicts only when an insertion would exceed it.  The
        #: "always" ablation (benchmark E14) evicts on every non-SP
        #: insert instead -- the literal pseudo-code reading; under the
        #: final output semantics both are correct (the flag-d* chain is
        #: eviction-immune) and the policies trade list size against
        #: padding, which E14 measures.
        if eviction not in ("budget", "always"):
            raise ValueError(f"unknown eviction policy {eviction!r}")
        self.budget = None if eviction == "always" else int(h / gamma) + 1

        #: ``indexed`` (the kernel NodeList) or ``reference`` (the naive
        #: linear-scan baseline) -- the E20 ablation knob.
        self.list_v = make_node_list(list_kernel)
        #: flag-d* machinery: per source, the smallest (d, kappa) over
        #: all entries ever inserted (any hop count).  The node's final
        #: (d*, l*) converges to (delta(x, v), minhop(x, v)) and is the
        #: output when l* <= h (see module docstring).
        self.best: Dict[int, SourceBest] = {}
        #: Diagnostics for the invariant benchmarks (E4).
        self.max_per_source_seen = 0
        self.max_list_len_seen = 0
        self.last_sp_update_round = 0
        self.sends = 0

    # -- initialization (paper: 'Initialization ... at node v') ----------

    def on_start(self, ctx: NodeContext) -> None:
        for x in self.sources:
            self.best[x] = SourceBest()
        if self.v in self.best:
            z = Entry(key_of(0, 0, self.gamma), 0, 0, self.v, flag_sp=True)
            self.list_v.insert_sp(z)
            b = self.best[self.v]
            b.d, b.l, b.parent, b.entry = 0, 0, None, z

    # -- Steps 1-2: send ---------------------------------------------------

    def on_send(self, ctx: NodeContext, r: int) -> None:
        if self.cutoff_round is not None and r > self.cutoff_round:
            return
        z = self.list_v.fire_at(r)
        if z is None:
            return
        nu = self.list_v.nu_of(z)
        payload = (z.d, z.l, z.x, z.flag_sp, nu)
        if self.directed_broadcast:
            ctx.broadcast_out(payload)
        else:
            ctx.broadcast(payload)
        if self.record_sends:
            z.record_send(r)
        self.sends += 1
        if self.trace is not None:
            self.trace.emit(r, self.v, "send", z.d, z.l, z.x, nu)

    # -- Steps 3-13: receive -------------------------------------------------

    def on_receive(self, ctx: NodeContext, r: int, inbox: List[Envelope]) -> None:
        # Batched round processing: per-envelope *order* is semantic (the
        # Step 13 quota gate and the flag-d* tie-breaks read list state
        # mutated by earlier envelopes of the same round), so the batching
        # is in hoisting -- bind the list, the weight lookup, and the
        # per-source bests once per round instead of once per envelope --
        # and in the per-round stats below being O(1) kernel reads rather
        # than full-list recounts.  An ``Entry`` is built only for a
        # candidate that is inserted: a Step 13 rejection needs its sort
        # key alone.
        list_v = self.list_v
        gamma = self.gamma
        best = self.best
        budget = self.budget
        weight_in = ctx.weight_in
        count_below = list_v.count_for_source_below
        for y, _dst, _sent, payload, _words in inbox:
            w = weight_in(y)
            if w is None:
                # Message arrived over the bidirectional channel of an
                # edge v -> y; there is no edge y -> v to relax.
                continue
            d_in, l_in, x, _flag_in, nu_in = payload
            d = d_in + w
            l = l_in + 1
            kappa = key_of(d, l, gamma)

            # Steps 8-13: list maintenance.  flag-d* marks the entry with
            # the smallest (d, kappa) among *all* entries for the source
            # on this list (the paper's verbatim definition) -- no hop
            # gate here: a cheap long-hop path still wins the flag.  This
            # matters: it is what shields the (d, l)-Pareto entries
            # (larger d, fewer hops) that downstream nodes need for
            # *their* h-hop answers from Insert's eviction (the Figure 1
            # phenomenon; see tests/test_pipelined.py).
            b = best[x]
            # ``d <= b.d`` first: beats() is False for a larger distance,
            # the common case once the source's estimate has settled.
            if d <= b.d and b.beats(d, l, y):
                # Steps 9-11: new flag-d* holder.  Inserting the SP entry
                # does not evict (the eviction clause of Insert applies to
                # non-SP additions, which are the only ones admitted by a
                # quota rather than by an improvement).
                if self.trace is not None:
                    self.trace.emit(r, self.v, "promote", x, d, l)
                old = b.entry
                z = Entry(kappa, d, l, x, flag_sp=True, parent=y)
                b.d, b.l, b.parent, b.entry = d, l, y, z
                pos = list_v.insert_sp(z)
                if old is not None:
                    old.flag_sp = False
                    if old.sort_key == z.sort_key:
                        # Parent-id tie-break replacement: the demoted
                        # twin has identical (kappa, d, l) and is fully
                        # dominated -- drop it outright (it sits *below*
                        # the newcomer, out of reach of the closest-above
                        # eviction, and would leak past the Invariant 2
                        # budget).
                        list_v.remove(old)
                    else:
                        list_v.evict_over_budget(
                            z, 0 if budget is None else budget)
                if l <= self.h:
                    # an output-relevant improvement: Theorem I.1 bounds
                    # the round by which the last of these happens
                    self.last_sp_update_round = r
                self._note_insert(r, z, pos)
            else:
                # Step 13: non-SP quota gate, then Insert with eviction of
                # the closest non-SP same-source entry above.
                if count_below(x, (kappa, d, x)) < nu_in:
                    z = Entry(kappa, d, l, x, parent=y)
                    pos, _removed = list_v.insert(z, budget)
                    self._note_insert(r, z, pos)

        # O(1) on the kernel list (incremental max); a recount on the
        # reference list.
        self.max_list_len_seen = max(self.max_list_len_seen, len(list_v))
        self.max_per_source_seen = max(self.max_per_source_seen,
                                       list_v.max_entries_any_source())

    def _note_insert(self, r: int, z: Entry, pos: int) -> None:
        if self.trace is not None:
            self.trace.emit(r, self.v, "insert", z.d, z.l, z.x, z.kappa, pos)
        # Invariant 1 (Lemma II.12): an entry is added strictly before the
        # round it is scheduled to fire in.
        if r >= send_round(z.kappa, pos):
            raise AssertionError(
                f"Invariant 1 violated at node {self.v}, round {r}: "
                f"inserted {z!r} at pos {pos} with ceil(kappa+pos)="
                f"{send_round(z.kappa, pos)}")

    # -- scheduling --------------------------------------------------------

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        nxt = self.list_v.next_fire_after(r)
        if nxt is None:
            return None
        if self.cutoff_round is not None and nxt > self.cutoff_round:
            return None
        return nxt

    # -- output -------------------------------------------------------------

    def output(self, ctx: NodeContext) -> Dict[int, Tuple[int, int, Optional[int]]]:
        out = {}
        for x, b in self.best.items():
            if b.d != INF and b.l <= self.h:
                out[x] = (int(b.d), int(b.l), b.parent)
        return out

    # -- columnar bridge ---------------------------------------------------
    #
    # The columnar bulk kernel (repro.perf.columnar_pipelined) runs on
    # flat columns.  At run() exit it writes ``best`` distances and the
    # stats back, and leaves ``list_v`` parked as its columns: the list
    # and each ``SourceBest.entry`` are rebuilt on first access, in
    # place, exactly as a per-message run would have left them.  A
    # re-entered kernel run takes the parked columns as they are.

    def park_kernel_columns(self, columns: Tuple) -> None:
        """Replace ``list_v`` by bulk-kernel *columns* until first
        access.  ``columns[:5]`` is the
        :func:`repro.core.node_list.export_entry_columns` layout; the
        rest is the kernel's own index over them, handed back by
        :meth:`kernel_columns`."""
        attrs = self.__dict__
        parked = attrs.get("_parked")
        if parked is None:
            nl = attrs.pop("list_v")
            for b in self.best.values():
                b._owner = self
                b._entry = None
        else:
            nl = parked[0]
        attrs["_parked"] = (nl, columns)

    def kernel_columns(self) -> Optional[Tuple]:
        """The parked columns, or ``None`` when ``list_v`` is current."""
        parked = self.__dict__.get("_parked")
        return None if parked is None else parked[1]

    def materialize(self) -> None:
        """Rebuild ``list_v`` (the same object, every index) and each
        ``SourceBest.entry`` from parked columns; a no-op otherwise."""
        parked = self.__dict__.pop("_parked", None)
        if parked is None:
            return
        nl, columns = parked
        entries = _node_list.load_entry_columns(nl, *columns[:5])
        flagged: Dict[int, Entry] = {}
        for e in entries:
            if e.flag_sp:
                flagged[e.x] = e
        for x, b in self.best.items():
            b._entry = flagged.get(x)
            b._owner = None
        self.list_v = nl

    def __getstate__(self) -> Dict[str, object]:
        # pickling and deep copies see the materialized list
        self.materialize()
        return self.__dict__


@dataclass
class HKSSPResult:
    """Result of one Algorithm 1 execution.

    ``dist[x][v]`` / ``hops[x][v]`` / ``parent[x][v]`` describe the path
    from source x to node v under the paper's (h, k)-SSP semantics:
    guaranteed to be ``(delta(x, v), minhop(x, v), parent)`` whenever some
    shortest path from x to v has at most h hops; possibly a genuine
    <= h-hop path weight otherwise; ``inf``/``None`` when nothing with
    <= h hops was learned.  With ``h = n - 1`` this is exact APSP.
    """

    sources: Tuple[int, ...]
    h: int
    k: int
    delta: int
    gamma: float
    dist: Dict[int, List[float]]
    hops: Dict[int, List[float]]
    parent: Dict[int, List[Optional[int]]]
    metrics: RunMetrics
    round_bound: int
    #: Last round in which any node improved a shortest-path estimate --
    #: the quantity Theorem I.1 bounds.
    last_sp_update_round: int
    max_list_len: int
    max_entries_per_source: int

    def distances(self) -> Dict[int, List[float]]:
        return self.dist


def theorem11_round_bound(h: int, k: int, delta: int) -> int:
    """Theorem I.1(i) / Lemma II.14: ``ceil(2 sqrt(Delta h k) + h + k)``."""
    return math.ceil(2 * math.sqrt(delta * h * k) + h + k)


def run_hk_ssp(graph: WeightedDigraph, sources: Sequence[int], h: int,
               delta: Optional[int] = None, *,
               gamma: Optional[float] = None,
               cutoff: bool = True,
               directed_broadcast: bool = True,
               eviction: str = "budget",
               trace: Optional[TraceRecorder] = None,
               record_sends: Optional[bool] = None,
               list_kernel: str = "indexed",
               max_rounds: Optional[int] = None,
               fault_plan: Optional[object] = None,
               monitor: Optional[object] = None,
               tracer: Optional[object] = None,
               registry: Optional[object] = None,
               record_window: int = 0,
               backend: Optional[str] = None) -> HKSSPResult:
    """Run Algorithm 1 on *graph* for the source set *sources*.

    Parameters
    ----------
    h:
        Hop bound of the (h, k)-SSP instance.
    delta:
        A bound on the h-hop shortest-path distances from the sources.
        The CONGEST algorithm takes ``Delta`` as a promise; if omitted, the
        exact value is computed with the sequential oracle (fine for
        experiments -- the algorithm only uses it through ``gamma`` and
        the cutoff round).
    cutoff:
        Stop sends after the Lemma II.14 round bound (the real algorithm's
        termination rule).  Disable to observe natural quiescence.
    record_sends:
        Per-entry ``Entry.sent_at`` recording.  ``None`` (default) turns
        it on exactly when something will read it: a ``trace``/``tracer``
        recorder, a ``record_window``, or the paranoid kernel mode.
        Force ``True`` to inspect send histories on a bare run
        (:func:`repro.analysis.inspect.send_history`).
    list_kernel:
        ``"indexed"`` (default) -- the O(log n) bisection/per-source
        kernels of :class:`repro.core.node_list.NodeList`; or
        ``"reference"`` -- the naive linear-scan
        :class:`~repro.core.node_list.ReferenceNodeList`, kept as the
        differential baseline (E20 measures the gap).  Identical
        observable behaviour either way.
    fault_plan / monitor / record_window:
        Forwarded to :class:`~repro.congest.network.Network`.  **Caveat**:
        Algorithm 1's schedule ``ceil(kappa + pos)`` *is* its correctness
        mechanism -- Invariants 1 and 2 assume every sent entry arrives in
        its send round, so the algorithm is fundamentally not drop- or
        delay-tolerant, and the ack/retransmit wrapper cannot help (a
        retransmitted entry arrives off-schedule and the pipelining
        argument collapses).  Fault injection here is for *observing* the
        failure modes; attach ``monitor=InvariantMonitor(pipelined_invariants())``
        to catch the moment the schedule breaks.
    tracer / registry:
        Observability hooks (:class:`repro.obs.Tracer` /
        :class:`repro.obs.MetricsRegistry`).  The run executes under a
        ``pipelined`` span carrying ``(h, k, delta, rounds)``; the
        tracer doubles as the program-level ``trace`` recorder (sends,
        inserts, flag-d* promotions) unless an explicit ``trace`` is
        given, and both hooks are forwarded to the
        :class:`~repro.congest.network.Network`.
    backend:
        Simulator backend: ``"reference"``, ``"columnar"``,
        or ``None`` for the ambient default (see
        :mod:`repro.perf.backends`).  Every backend honors every hook
        and is differentially pinned to identical results, trace events
        included.  The columnar bulk kernel runs traced and
        send-recording runs itself; a ``fault_plan``, ``monitor`` or
        ``record_window`` sends the run to the worklist loop.

    Returns an :class:`HKSSPResult` (see its docstring for the exact
    output contract); validation against the sequential oracles is the
    caller's (tests'/benchmarks') job via
    :func:`repro.graphs.validation.assert_weak_h_hop_contract`.
    """
    sources = tuple(dict.fromkeys(sources))  # dedupe, keep order
    if not sources:
        raise ValueError("need at least one source")
    for s in sources:
        if not (0 <= s < graph.n):
            raise ValueError(f"source {s} out of range")
    if h < 1:
        raise ValueError(f"hop bound must be >= 1, got {h}")
    k = len(sources)
    if delta is None:
        delta = weak_delta_bound(graph, sources, h)
    g = gamma if gamma is not None else gamma_for(h, k, delta)
    bound = theorem11_round_bound(h, k, delta)
    cutoff_round = bound if cutoff else None

    if max_rounds is None:
        # Safety net well past any legitimate activity: the largest key of
        # any insertable entry is h*W*gamma + h, and positions are bounded
        # by Invariant 2.
        max_key = h * graph.max_weight * g + h
        max_pos = int(k * (h / g + 1)) + k + 1
        max_rounds = int(math.ceil(max_key + max_pos)) + bound + 16

    if trace is None and tracer is not None:
        # A Tracer is a TraceRecorder: program-level emits (sends,
        # inserts, promotions) land in its bounded ring.
        trace = tracer  # type: ignore[assignment]
    if record_sends is None:
        record_sends = (trace is not None or record_window > 0
                        or _node_list.PARANOID)

    programs: List[PipelinedSSPProgram] = []

    def factory(v: int) -> PipelinedSSPProgram:
        p = PipelinedSSPProgram(v, sources, h, g, cutoff_round=cutoff_round,
                                directed_broadcast=directed_broadcast,
                                eviction=eviction, trace=trace,
                                record_sends=record_sends,
                                list_kernel=list_kernel)
        programs.append(p)
        return p

    net = make_network(graph, factory, backend=backend,
                       fault_plan=fault_plan, monitor=monitor,
                       tracer=tracer, registry=registry,
                       record_window=record_window)
    if tracer is not None:
        with tracer.span("pipelined", h=h, k=k, delta=delta) as sp:
            metrics = net.run(max_rounds=max_rounds)
            sp.set(rounds=metrics.rounds)
    else:
        metrics = net.run(max_rounds=max_rounds)

    dist: Dict[int, List[float]] = {x: [INF] * graph.n for x in sources}
    hops: Dict[int, List[float]] = {x: [INF] * graph.n for x in sources}
    parent: Dict[int, List[Optional[int]]] = {x: [None] * graph.n for x in sources}
    for v in range(graph.n):
        for x, (d, l, p) in net.output_of(v).items():
            dist[x][v] = d
            hops[x][v] = l
            parent[x][v] = p

    return HKSSPResult(
        sources=sources, h=h, k=k, delta=delta, gamma=g,
        dist=dist, hops=hops, parent=parent, metrics=metrics,
        round_bound=bound,
        last_sp_update_round=max((p.last_sp_update_round for p in programs),
                                 default=0),
        max_list_len=max((p.max_list_len_seen for p in programs), default=0),
        max_entries_per_source=max((p.max_per_source_seen for p in programs),
                                   default=0),
    )


def run_apsp(graph: WeightedDigraph, delta: Optional[int] = None,
             **kwargs) -> HKSSPResult:
    """Theorem I.1(ii): APSP via Algorithm 1 with ``S = V`` and ``h = n-1``
    (a minimal-hop shortest path is simple).  Runs in ``2 n sqrt(Delta) +
    2 n`` rounds."""
    h = max(1, graph.n - 1)
    return run_hk_ssp(graph, range(graph.n), h, delta, **kwargs)


def run_k_ssp(graph: WeightedDigraph, sources: Sequence[int],
              delta: Optional[int] = None, **kwargs) -> HKSSPResult:
    """Theorem I.1(iii): k-SSP via Algorithm 1 with ``h = n-1``:
    ``2 sqrt(Delta k n) + n + k`` rounds."""
    h = max(1, graph.n - 1)
    return run_hk_ssp(graph, sources, h, delta, **kwargs)
