"""Columnar bulk kernel for the pipelined (h, k)-SSP program family.

This module vectorizes the paper's actual algorithm: where the
relaxation kernel (:mod:`repro.perf.columnar`) covers the Bellman-Ford
baselines, :class:`_PipelinedKernel` executes
:class:`~repro.core.pipelined.PipelinedSSPProgram` networks -- the hot
path behind every Table I experiment and every serve-layer shard build
-- without per-message Python objects.

What is bulk and what is not
----------------------------
Per node, ``list_v`` becomes four parallel columns -- the sorted
``(kappa, d, x)`` sort keys plus ``l`` / ``parent`` / ``flag_sp`` --
mirrored by per-source key/flag subsequences and the count-of-counts
histogram, exactly the indexes the kernelised
:class:`~repro.core.node_list.NodeList` maintains on Entry objects.
On those columns:

* **Step 1 (send rule)** ``ceil(kappa + pos) == r`` runs as rank
  arithmetic on the key column (:func:`repro.core.keys.next_send_after`
  -- the strictly-increasing-schedule bisection), with the firing
  *index* cached next to the scheduled round so firing is O(1): no
  ``node_list`` bisection, no Entry access, and ``nu`` is two bisects
  (global run start + per-source rank);
* **Step 2 (deliveries)** run through the CSR gather: one flat
  ``(src, dst, w)`` edge batch per round, candidate ``d' = d + w``,
  ``l' = l + 1`` and ``kappa' = d' * gamma + l'`` computed for the
  whole batch (vectorized under numpy) -- no Envelope, payload tuple,
  or Counter update per message.  A firing node broadcasts over its
  whole CSR range, so the per-channel message counts follow from each
  node's fire count at the end of the run;
* **Steps 8-13 (insert_sp / eviction / nu-counting)** execute as
  scatter-min-style column passes: the flag-d* promotion is a bisect +
  column insert with the reference tie-break (equal-key demoted twin
  removed outright, else closest non-SP same-source entry above
  evicted when the Invariant 2 budget demands), the Step 13 quota gate
  is one per-source ``bisect_right``, and Invariant 1 is asserted per
  insert with the reference's exact message.  Arrivals that the
  round-start state already shows Step 13 must reject are dropped
  before the fold -- by an O(1) check per message in the pure-Python
  round, by a vectorized prefilter under numpy -- and the fold repeats
  the O(1) check on the current state before the full Steps 8-13 (see
  :meth:`_PipelinedKernel._round_numpy` for why that is exact).

Two round implementations share those columns: vectorized numpy and
batched pure Python.  ``REPRO_COLUMNAR_NUMPY=0/1`` (or
:func:`~repro.perf.columnar.set_numpy_enabled`) forces one at every
size; in auto mode each run picks by the graph's CSR edge count
(:data:`NUMPY_MIN_EDGES`), because a small graph's rounds carry too few
messages to pay back numpy's per-call cost.  The kernel records its
choice (:attr:`_PipelinedKernel.impl`, ``impl_reason``, and a
``columnar.pipelined.impl`` registry counter per run).

The **order** of arrivals within a round is semantic (the quota gate
and the flag-d* tie-breaks read list state mutated by earlier arrivals
of the same round), so per-destination candidates are folded
sequentially in ascending-source order -- bit-identically to the
reference's sorted inbox -- while everything around that fold
(scheduling, expansion, key computation, accounting) is batched.

Observation
-----------
Traced and ``record_sends`` runs stay on the kernel.  Each round's
events -- ``send``, ``net.send``, ``promote`` / ``insert``,
``net.round`` -- are built in the worklist loop's order and handed to
the recorder in one bulk append (:meth:`_PipelinedKernel.run`), and
``Entry.sent_at`` lives in a column next to the others.  The untraced
fold pays one ``is None`` test per inserted arrival for this.  A fault
plan, monitor or ring recorder (``record_window``) still sends the run
to the worklist loop (:meth:`~repro.perf.columnar.ColumnarNetwork._columnar_kernel`).

Exactness contract
------------------
Load / compute / store, with a lazy store.  ``run()`` flattens each
program's ``list_v`` into columns
(:func:`~repro.core.node_list.export_entry_columns`) and updates the
programs' ``SourceBest`` objects in place.  In a ``finally`` it writes
the stats (``max_list_len_seen``, ``max_per_source_seen``,
``last_sp_update_round``, ``sends``) back and parks the columns on the
program
(:meth:`~repro.core.pipelined.PipelinedSSPProgram.park_kernel_columns`):
``list_v`` and each ``SourceBest.entry`` are rebuilt, in place, on
first access -- by the object loop, a monitor,
:func:`~repro.analysis.inspect.send_history`, a checkpoint's
``capture_state``, a pickle or a deep copy -- and a re-entered run
takes the parked columns as they are.  Outputs read only ``best``, so
a plain solve never builds a list.  Outputs, round numbers,
resumption, checkpoints and post-mortems observe exactly the state the
per-message backends would have produced; ``tests/backend_conformance.py``
pins the equality differentially (including deliberate-corruption runs
via the ``send-rank-off-by-one`` / ``nu-off-by-one`` modes this module
honors) and ``tests/test_columnar_lazy.py`` pins every way of reading a
parked program.

Keys are recomputed from ``(d, l)`` with the same arithmetic as
:func:`repro.core.keys.key_of` -- a multiply-add, or the exact
quotient for a rational gamma -- under numpy via float64 vector ops,
which are bit-identical for the integer ranges the CONGEST word model
admits, so list orders agree across backends to the last ulp.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from math import ceil as _ceil, inf as _INF
from time import perf_counter as _perf
from typing import Any, Dict, List, Optional, Tuple

from ..congest.events import TraceEvent as _TE
from ..congest.network import RoundLimitExceeded
from ..core import node_list as _node_list
from ..core.keys import RationalGamma, key_of, next_send_after
from ..obs.profiling import HOT as _HOT
from . import columnar as _cmod

_Key = Tuple[float, int, int]

#: Words per pipelined payload ``(d, l, x, flag_sp, nu)`` -- five
#: scalars (repro.congest.message.payload_words).
_PAYLOAD_WORDS = 5

#: Auto mode's crossover: graphs with at least this many CSR edges run
#: the numpy round, smaller ones the pure-Python round (which carries
#: too few messages per round to pay back numpy's per-call cost).
#: A forced gate (``REPRO_COLUMNAR_NUMPY=0/1``) wins at every size.
NUMPY_MIN_EDGES = 1024

#: ``TraceEvent`` construction without the keyword-handling ``__new__``
#: (traced rounds build one per send, message and insert).
_new = tuple.__new__


class _PipelinedKernel:
    """Columnar executor for networks whose every program is a
    :class:`~repro.core.pipelined.PipelinedSSPProgram` (see the module
    docstring for the column layout and the exactness contract)."""

    @staticmethod
    def matches(net) -> bool:
        """Static eligibility (memoized by the network): every program
        is a plain ``PipelinedSSPProgram`` with uniform parameters, and
        the graph is bulk-safe.

        * uniform ``sources`` / ``h`` / ``gamma`` / ``cutoff_round`` /
          ``directed_broadcast`` / ``budget`` / ``trace`` /
          ``record_sends`` -- the kernel hoists them once;
          mixed-parameter networks (never produced by the entry points)
          take the generic loop.  A ``trace`` recorder and
          ``record_sends`` are honored (see :meth:`run`);
        * a known ``list_v`` kernel, so the column export/import is
          exact for its index structure;
        * ``max_message_words >= 5``: a smaller budget must raise the
          reference's ``MessageSizeError``, which the generic loop
          does;
        * ``int`` weights and duplicate-free broadcast targets, so
          channel enforcement can never trigger on the bulk path
          (``channel_capacity >= 1`` is construction-enforced).
        """
        from ..core.pipelined import PipelinedSSPProgram
        from ..core.node_list import LIST_KERNELS
        programs = net.programs
        if not programs or type(programs[0]) is not PipelinedSSPProgram:
            return False
        if net.max_message_words < _PAYLOAD_WORDS:
            return False
        p0 = programs[0]
        sources0 = tuple(p0.sources)
        params0 = (p0.h, p0.gamma, p0.cutoff_round, p0.directed_broadcast,
                   p0.budget, p0.record_sends)
        trace0 = p0.trace
        list_types = tuple(LIST_KERNELS.values())
        for v, p in enumerate(programs):
            if (type(p) is not PipelinedSSPProgram or p.v != v
                    or tuple(p.sources) != sources0
                    or (p.h, p.gamma, p.cutoff_round, p.directed_broadcast,
                        p.budget, p.record_sends) != params0
                    or p.trace is not trace0
                    or type(p.list_v) not in list_types):
                return False
        directed = p0.directed_broadcast
        for ctx in net.contexts:
            seen = set()
            for u, w in ctx.out_edges:
                if type(w) is not int or u in seen:
                    return False
                seen.add(u)
            if not directed:
                neigh = ctx.comm_neighbors
                if len(set(neigh)) != len(neigh):
                    return False
        return True

    def revalidate(self) -> bool:
        """Per-run dynamic eligibility on the memoized kernel: paranoid
        mode may have been toggled since the static scan (it re-derives
        kernel queries through Entry objects the bulk path does not
        keep), and the numpy gate is re-synced so flag flips between
        runs are honored."""
        from ..core import node_list as _node_list
        if _node_list.PARANOID:
            return False
        self._sync_impl()
        return True

    def __init__(self, net) -> None:
        self.net = net
        self.n = net.n
        p0 = net.programs[0]
        self.h: int = p0.h
        self.gamma: float = p0.gamma
        self.cutoff: Optional[int] = p0.cutoff_round
        self.budget: Optional[int] = p0.budget
        self.directed: bool = p0.directed_broadcast
        #: ``(num, den)`` of a rational gamma: keys are then computed as
        #: ``(d num + l den) / den``, exactly like ``keys.key_of``.
        self.ratio: Optional[Tuple[int, int]] = (
            (p0.gamma.num, p0.gamma.den)
            if type(p0.gamma) is RationalGamma else None)
        #: Program-level trace recorder (send / promote / insert events)
        #: and per-entry ``sent_at`` recording, shared by every program.
        self.trace = p0.trace
        self.record_sends: bool = p0.record_sends
        #: The distinct sources, and each one's index among them (its
        #: column in the numpy round's per-(node, source) prefilter).
        self.sources: Tuple[int, ...] = tuple(dict.fromkeys(p0.sources))
        self._xi: Dict[int, int] = {x: i for i, x in enumerate(self.sources)}
        #: The arrival fold's event buffer for the current round; None
        #: when no program-level recorder is attached.
        self._pev: Optional[list] = None
        # CSR of the broadcast targets, node ranges in increasing node
        # order.  Directed mode broadcasts over out-edges; undirected
        # mode over comm_neighbors, where the *relaxation* weight is the
        # receiver's weight_in(sender) -- the sender's out-edge weight
        # to that neighbour, absent (wok=False) when the channel exists
        # only for the reverse edge (the message is still delivered and
        # counted; there is just nothing to relax).
        indptr = [0]
        heads: List[int] = []
        weights: List[int] = []
        wok: List[bool] = []
        for v in range(self.n):
            ctx = net.contexts[v]
            if self.directed:
                for u, w in ctx.out_edges:
                    heads.append(u)
                    weights.append(w)
                    wok.append(True)
            else:
                out_w = dict(ctx.out_edges)
                for u in ctx.comm_neighbors:
                    w = out_w.get(u)
                    heads.append(u)
                    weights.append(0 if w is None else w)
                    wok.append(w is not None)
            indptr.append(len(heads))
        self._indptr = indptr
        self._heads = heads
        self._weights = weights
        self._wok = wok
        self._all_wok = all(wok)
        #: The pure-Python round's view of the CSR: per node, its
        #: ``(head, weight)`` pairs, weight ``None`` where wok is False.
        self._adj = [[(heads[e], weights[e] if wok[e] else None)
                      for e in range(indptr[v], indptr[v + 1])]
                     for v in range(self.n)]
        self._use_np = False
        self._np_ready = False
        self._sync_impl()

    def _sync_impl(self) -> None:
        """Pick the round implementation for the next run (recorded in
        :attr:`impl` and :attr:`impl_reason`); lazily build the numpy
        CSR mirrors (see _RelaxationKernel._sync_impl).

        A forced gate (:func:`~repro.perf.columnar.set_numpy_enabled`,
        ``REPRO_COLUMNAR_NUMPY=0/1``) wins at every size.  In auto mode
        the graph's size decides: numpy's per-call cost is paid back
        only from about :data:`NUMPY_MIN_EDGES` CSR edges on, below
        which the pure-Python round is faster."""
        forced = _cmod.numpy_forced()
        m = len(self._heads)
        if forced is not None:
            self._use_np = forced
            self.impl_reason = "forced"
        elif _cmod._numpy() is None:
            self._use_np = False
            self.impl_reason = "numpy is not importable"
        else:
            self._use_np = m >= NUMPY_MIN_EDGES
            self.impl_reason = (
                f"auto: {m} edges {'>=' if self._use_np else '<'} "
                f"{NUMPY_MIN_EDGES}")
        self.impl = "numpy" if self._use_np else "python"
        if self._use_np and not self._np_ready:
            np = _cmod._numpy()
            self._np_indptr = np.asarray(self._indptr, dtype=np.int64)
            self._np_heads = np.asarray(self._heads, dtype=np.int64)
            self._np_weights = np.asarray(self._weights, dtype=np.int64)
            self._np_wok = np.asarray(self._wok, dtype=bool)
            xi = np.zeros(self.n, dtype=np.int64)
            for x, i in self._xi.items():
                xi[x] = i
            self._np_xi = xi
            self._np_ready = True

    # -- load / store ------------------------------------------------------

    def _load(self) -> None:
        """Program state -> columns (see the module docstring for the
        layout).  A program parked by an earlier run hands its columns
        back as they are; otherwise ``list_v`` is exported and the
        per-source key/flag subsequences and the count-of-counts
        histogram are derived from the flat columns, so the load is
        exact for both list kernels.  ``BEST`` is each program's own
        ``best`` map: the kernel updates its ``SourceBest`` objects in
        place."""
        n = self.n
        self.KEYS: List[List[_Key]] = [None] * n
        self.LCOL: List[List[int]] = [None] * n
        self.PCOL: List[List[Optional[int]]] = [None] * n
        self.FCOL: List[List[bool]] = [None] * n
        self.SCOL: List[List[Optional[List[int]]]] = [None] * n
        self.SKEYS: List[Dict[int, List[_Key]]] = [None] * n
        self.SFLAGS: List[Dict[int, List[bool]]] = [None] * n
        self.CFREQ: List[Dict[int, int]] = [None] * n
        self.CMAX: List[int] = [0] * n
        self.BEST: List[Dict[int, Any]] = [None] * n
        self.MAXLEN: List[int] = [0] * n
        self.MAXSRC: List[int] = [0] * n
        self.LASTSP: List[int] = [0] * n
        self.SENDS: List[int] = [0] * n
        for v, p in enumerate(self.net.programs):
            cols = p.kernel_columns()
            if cols is None:
                cols = self._columns_of(p.list_v)
            (self.KEYS[v], self.LCOL[v], self.PCOL[v], self.FCOL[v],
             self.SCOL[v], self.SKEYS[v], self.SFLAGS[v], self.CFREQ[v],
             self.CMAX[v]) = cols
            self.BEST[v] = p.best
            self.MAXLEN[v] = p.max_list_len_seen
            self.MAXSRC[v] = p.max_per_source_seen
            self.LASTSP[v] = p.last_sp_update_round
            self.SENDS[v] = p.sends
        #: Each node's ``sends`` at the last flush: a firing node
        #: broadcasts over its whole CSR range, so the fires since then
        #: are the messages on each of its channels (see _flush).
        self._flushed_sends = list(self.SENDS)
        if self._use_np:
            # The numpy round's prefilter state, one cell per (node v,
            # source index i) at v * k + i: the best distance, the entry
            # count and the kappa of the largest key (see _round_numpy).
            best_d: List[float] = []
            count: List[int] = []
            tail_k: List[float] = []
            for v in range(n):
                best_v, skeys_v = self.BEST[v], self.SKEYS[v]
                for x in self.sources:
                    best_d.append(best_v[x].d)
                    sk = skeys_v.get(x)
                    count.append(len(sk) if sk else 0)
                    tail_k.append(sk[-1][0] if sk else _INF)
            np = _cmod._numpy()
            self._np_best_d = np.array(best_d, dtype=np.float64)
            self._np_count = np.array(count, dtype=np.int64)
            self._np_tail_k = np.array(tail_k, dtype=np.float64)

    @staticmethod
    def _columns_of(nl) -> tuple:
        """One node's column tuple from its list: the
        :func:`~repro.core.node_list.export_entry_columns` layout, then
        the per-source keys and flags, the count-of-counts histogram and
        its maximum."""
        keys, lcol, pcol, flags, scol = _node_list.export_entry_columns(nl)
        skeys: Dict[int, List[_Key]] = {}
        sflags: Dict[int, List[bool]] = {}
        for i, key in enumerate(keys):
            x = key[2]
            sk = skeys.get(x)
            if sk is None:
                sk = skeys[x] = []
                sflags[x] = []
            sk.append(key)
            sflags[x].append(flags[i])
        freq: Dict[int, int] = {}
        top = 0
        for sk in skeys.values():
            c = len(sk)
            freq[c] = freq.get(c, 0) + 1
            if c > top:
                top = c
        return keys, lcol, pcol, flags, scol, skeys, sflags, freq, top

    def _store(self) -> None:
        """Columns -> program state: the stats eagerly, the list parked
        as columns until first access
        (:meth:`~repro.core.pipelined.PipelinedSSPProgram.park_kernel_columns`).
        The ``best`` distances are already in place."""
        for v, p in enumerate(self.net.programs):
            p.max_list_len_seen = self.MAXLEN[v]
            p.max_per_source_seen = self.MAXSRC[v]
            p.last_sp_update_round = self.LASTSP[v]
            p.sends = self.SENDS[v]
            p.park_kernel_columns((
                self.KEYS[v], self.LCOL[v], self.PCOL[v], self.FCOL[v],
                self.SCOL[v], self.SKEYS[v], self.SFLAGS[v], self.CFREQ[v],
                self.CMAX[v]))

    def _flush(self, msg_count: int, words_total: int) -> None:
        """Bulk-accumulated accounting -> RunMetrics (idempotent).  A
        firing node broadcasts over its whole CSR range, so each of its
        channels carried one message per fire since the last flush."""
        metrics = self.net.metrics
        if msg_count:
            metrics.messages += msg_count
            metrics.words += words_total
            if metrics.max_message_words < _PAYLOAD_WORDS:
                metrics.max_message_words = _PAYLOAD_WORDS
        heads = self._heads
        indptr = self._indptr
        chmsg = metrics.channel_messages
        sends = self.SENDS
        flushed = self._flushed_sends
        for v in range(self.n):
            fires = sends[v] - flushed[v]
            if fires:
                flushed[v] = sends[v]
                for u in heads[indptr[v]:indptr[v + 1]]:
                    chmsg[(v, u)] += fires

    # -- count-of-counts histogram (mirrors NodeList._link/_unlink) --------

    def _hist_link(self, v: int, count_after: int) -> None:
        freq = self.CFREQ[v]
        c = count_after - 1
        if c:
            freq[c] -= 1
        freq[count_after] = freq.get(count_after, 0) + 1
        if count_after > self.CMAX[v]:
            self.CMAX[v] = count_after

    def _hist_unlink(self, v: int, count_before: int) -> None:
        freq = self.CFREQ[v]
        freq[count_before] -= 1
        if count_before > 1:
            freq[count_before - 1] = freq.get(count_before - 1, 0) + 1
        if self.CMAX[v] == count_before and freq.get(count_before, 0) == 0:
            self.CMAX[v] = count_before - 1

    # -- send schedule -----------------------------------------------------

    def _next_fire(self, keys: List[_Key], r: int):
        """``(round, index)`` of the earliest fire strictly after round
        *r* under the current positions, or ``(None, 0)``.  The index is
        cached by the caller: the schedule is strictly increasing, so
        the entry found here is exactly the one that fires in that
        round, and any list mutation before then re-runs this bisection
        (the node is necessarily *touched* by the mutating round)."""
        off = 0 if _cmod._CORRUPTION == "send-rank-off-by-one" else 1
        hit = next_send_after(keys, r, pos_offset=off)
        if hit is None:
            return None, 0
        idx, nr = hit
        if self.cutoff is not None and nr > self.cutoff:
            return None, 0
        return nr, idx

    # -- the round loop ----------------------------------------------------

    def run(self, max_rounds: int) -> Any:
        """Execute rounds until quiescence (the network ``run`` contract).

        Observation is bulk too.  With a program-level ``trace``
        recorder, a network ``tracer``, or both, each round's events are
        built in the worklist loop's order and handed over in one
        :meth:`~repro.congest.events.TraceRecorder.emit_events` call:
        the ``send`` of each sender (ascending), one ``net.send`` per
        message (by sender, then CSR edge), the arrival fold's
        ``promote`` / ``insert`` events (receivers ascending, arrivals
        in source order), and ``net.round`` last.  Events of a round
        that raises (Invariant 1) are handed over before the error
        propagates.  ``record_sends`` appends the round to the firing
        entry's ``sent_at`` column.
        """
        net = self.net
        metrics = net.metrics
        registry = net.registry
        profile = _HOT.session
        timed = registry is not None or profile is not None
        round_hist = None if registry is None else registry.histogram(
            "congest.round_wall_s", scale=1e-6)
        if not net._started:
            contexts = net.contexts
            for v, p in enumerate(net.programs):
                p.on_start(contexts[v])
            net._started = True

        if registry is not None:
            registry.counter("columnar.pipelined.impl", impl=self.impl).inc()
        self._load()
        n = self.n
        KEYS = self.KEYS
        SENDS = self.SENDS
        SKEYS = self.SKEYS
        LCOL = self.LCOL
        SCOL = self.SCOL
        node_sends = metrics.node_sends
        indptr = self._indptr
        ptrace = self.trace
        ntrace = net.tracer
        traced = ptrace is not None or ntrace is not None
        record = self.record_sends
        heads = self._heads
        pev = nev = None
        nu_pad = 2 if _cmod._CORRUPTION == "nu-off-by-one" else 1
        pos_off = 0 if _cmod._CORRUPTION == "send-rank-off-by-one" else 1
        cutoff = self.cutoff
        ceil = _ceil  # hot loop: avoid attribute/global lookups

        sched: List[Optional[int]] = [None] * n
        firei: List[int] = [0] * n
        heap: List[Tuple[int, int]] = []
        prev_r = net._round
        for v in range(n):
            nr, idx = self._next_fire(KEYS[v], prev_r)
            if nr is not None:
                sched[v] = nr
                firei[v] = idx
                heap.append((nr, v))
        heapify(heap)

        msg_count = 0
        words_total = 0
        round_fn = self._round_numpy if self._use_np else self._round_python
        try:
            while True:
                while heap and sched[heap[0][1]] != heap[0][0]:
                    heappop(heap)  # lazily deleted (rescheduled) entry
                if not heap:
                    break
                r = heap[0][0]
                if r > max_rounds:
                    self._flush(msg_count, words_total)
                    msg_count = words_total = 0
                    raise RoundLimitExceeded(
                        f"no quiescence by round {max_rounds}; "
                        f"next scheduled activity at round {r}",
                        net._post_mortem("round limit exceeded",
                                         max_rounds, list(sched)))
                if r > prev_r + 1:
                    metrics.skipped_rounds += r - prev_r - 1
                prev_r = r
                net._round = r
                if timed:
                    t_round = _perf()
                if traced:
                    # Program events (send / promote / insert) go to
                    # the programs' recorder, network events to the
                    # tracer; one buffer when they are the same object.
                    pev = [] if ptrace is not None else None
                    nev = None if ntrace is None else (
                        pev if ntrace is ptrace else [])
                    self._pev = pev

                # Step 1: collect the round's senders (ascending node id,
                # matching the object loop's sender order) and their
                # payload columns.  The firing entry is the cached index;
                # nu is two bisects (global run start + per-source rank).
                senders: List[int] = []
                send_d: List[int] = []
                send_l: List[int] = []
                send_x: List[int] = []
                send_nu: List[int] = []
                while heap and heap[0][0] == r:
                    _, v = heappop(heap)
                    if sched[v] != r:
                        continue
                    sched[v] = None
                    keys_v = KEYS[v]
                    i = firei[v]
                    key = keys_v[i]
                    x = key[2]
                    sk = SKEYS[v][x]
                    nu = (bisect_left(sk, key)
                          + (i - bisect_left(keys_v, key)) + nu_pad)
                    senders.append(v)
                    send_d.append(key[1])
                    l_v = LCOL[v][i]
                    send_l.append(l_v)
                    send_x.append(x)
                    send_nu.append(nu)
                    SENDS[v] += 1
                    if record:
                        sent = SCOL[v][i]
                        if sent is None:
                            SCOL[v][i] = [r]
                        else:
                            sent.append(r)
                    if pev is not None:
                        pev.append(_new(_TE, (r, v, "send",
                                              (key[1], l_v, x, nu))))
                if nev is not None:
                    for v in senders:
                        nev.extend([
                            _new(_TE, (r, v, "net.send", (u, _PAYLOAD_WORDS)))
                            for u in heads[indptr[v]:indptr[v + 1]]])

                # Steps 2-13: expand deliveries through the CSR, fold
                # per-destination candidates in ascending-source order.
                total, receivers, changed = round_fn(
                    r, senders, send_d, send_l, send_x, send_nu)

                if total:
                    msg_count += total
                    words_total += _PAYLOAD_WORDS * total
                    metrics.active_rounds += 1
                    if r > metrics.rounds:
                        metrics.rounds = r
                    for v in senders:
                        if indptr[v + 1] > indptr[v]:
                            node_sends[v] += 1

                # Reschedule the senders (they consumed their slot) and
                # the receivers whose lists changed.  A receiver whose
                # arrivals were all rejected keeps its schedule: its
                # positions did not move, and it did not fire this
                # round, so its next fire is still sched[v].  A sender
                # whose list did not change needs no search either: the
                # schedule is strictly increasing, so the entry after
                # the one that fired is next.  The others take the
                # bisection of _next_fire, inlined.
                moved = set(changed)
                touched = dict.fromkeys(senders)
                touched.update(dict.fromkeys(changed))
                for v in touched:
                    keys_v = KEYS[v]
                    nk = len(keys_v)
                    if v in moved:
                        lo, hi = 0, nk
                        while lo < hi:
                            mid = (lo + hi) >> 1
                            if ceil(keys_v[mid][0] + mid + pos_off) <= r:
                                lo = mid + 1
                            else:
                                hi = mid
                    else:
                        lo = firei[v] + 1
                    if lo == nk:
                        nr = None
                    else:
                        nr = ceil(keys_v[lo][0] + lo + pos_off)
                        if cutoff is not None and nr > cutoff:
                            nr = None
                    firei[v] = lo
                    if nr != sched[v]:
                        sched[v] = nr
                        if nr is not None:
                            heappush(heap, (nr, v))

                if traced:
                    if nev is not None:
                        nev.append(_new(_TE, (r, -1, "net.round",
                                              (len(senders), len(receivers)))))
                    self._hand_over(pev, nev)
                    pev = nev = None
                if timed:
                    dt = _perf() - t_round
                    if round_hist is not None:
                        round_hist.observe(dt)
                    if profile is not None:
                        profile.record("columnar.pipelined.round", dt)
        finally:
            self._pev = None
            if traced:
                self._hand_over(pev, nev)
            self._store()
            self._flush(msg_count, words_total)
            if registry is not None:
                from ..obs.registry import publish_run_metrics
                net._published = publish_run_metrics(
                    registry, metrics, state=net._published)
        return metrics

    def _hand_over(self, pev: Optional[list], nev: Optional[list]) -> None:
        """Give a round's buffered events to their recorders."""
        if pev:
            self.trace.emit_events(pev)
        if nev and nev is not pev:
            self.net.tracer.emit_events(nev)

    # -- one round: delivery expansion -------------------------------------

    def _round_python(self, r, senders, send_d, send_l, send_x, send_nu):
        """CSR expansion + per-destination fold, batched pure Python (no
        Envelope or payload objects).  Returns ``(messages_sent,
        receivers, changed)``: *receivers* ascending, and *changed* the
        receivers whose list an arrival altered.

        Most arrivals are Step 13 rejections, and they are dropped at
        expansion by the O(1) quota check on the round-start state,
        which is exact for the reason :meth:`_round_numpy` gives."""
        adj = self._adj
        gamma = self.gamma
        ratio = self.ratio
        if ratio is not None:
            num, den = ratio
        BEST, SKEYS = self.BEST, self.SKEYS
        total = 0
        inboxes: Dict[int, list] = {}
        for si, v in enumerate(senders):
            out = adj[v]
            if not out:
                continue
            total += len(out)
            d_in = send_d[si]
            x = send_x[si]
            nu_in = send_nu[si]
            l_cand = send_l[si] + 1
            for u, w in out:
                box = inboxes.get(u)
                if box is None:
                    # every receiver runs its round epilogue, even one
                    # whose arrivals are all dropped
                    box = inboxes[u] = []
                if w is None:
                    # channel exists only for the reverse edge: message
                    # delivered and counted, nothing to relax
                    continue
                d_cand = d_in + w
                # keys.key_of, inlined
                kappa = (d_cand * gamma + l_cand if ratio is None
                         else (d_cand * num + l_cand * den) / den)
                if d_cand > BEST[u][x].d:
                    # Cannot take flag-d*, so Step 13's quota gate
                    # decides: at least nu_in same-source keys are at or
                    # below the key iff the nu_in-th one is (its kappa
                    # alone decides unless it ties).
                    sk = SKEYS[u].get(x)
                    if sk is not None and len(sk) >= nu_in:
                        t = sk[nu_in - 1]
                        if t[0] < kappa or (t[0] == kappa
                                            and t <= (kappa, d_cand, x)):
                            continue
                box.append((v, d_cand, l_cand, kappa, x, nu_in))
        receivers = sorted(inboxes)
        changed: List[int] = []
        arrival = self._arrival
        KEYS, CMAX = self.KEYS, self.CMAX
        MAXLEN, MAXSRC = self.MAXLEN, self.MAXSRC
        for u in receivers:
            box = inboxes[u]
            if box:
                best_u = BEST[u]
                skeys_u = SKEYS[u]
                dirty = False
                for (y, d, l, kappa, x, nu_in) in box:
                    if d > best_u[x].d:
                        # the same check: an earlier arrival of this
                        # round may have filled the quota
                        sk = skeys_u.get(x)
                        if sk is not None and len(sk) >= nu_in \
                                and sk[nu_in - 1] <= (kappa, d, x):
                            continue
                    if arrival(u, r, y, d, l, kappa, x, nu_in):
                        dirty = True
                if dirty:
                    changed.append(u)
            # the per-receiver stats the reference updates at the end
            # of every on_receive
            ln = len(KEYS[u])
            if ln > MAXLEN[u]:
                MAXLEN[u] = ln
            if CMAX[u] > MAXSRC[u]:
                MAXSRC[u] = CMAX[u]
        return total, receivers, changed

    def _round_numpy(self, r, senders, send_d, send_l, send_x, send_nu):
        """The vectorized expansion: one CSR gather for the round's
        whole edge batch, candidate ``(d', l', kappa')`` as three vector
        ops, a vectorized prefilter that drops the arrivals Step 13
        must reject, stable sort by destination, then the same
        sequential per-destination fold on what is left.

        The prefilter reads each (receiver, source) cell as it stood
        at the start of the round: the best distance, the entry count
        and the ``kappa`` of the largest key.  An arrival with a larger
        distance than the best, whose source already holds at least
        ``nu_in`` entries, all with a smaller ``kappa``, can neither
        take flag-d* nor pass the quota gate.  That still holds at its
        turn in the fold: a best distance only falls, and the number of
        same-source keys at or below a given key never drops -- every
        eviction removes an entry above the one just inserted, and the
        parent-id tie-break swaps an entry for one with the same key.
        So dropping it up front changes nothing; every other arrival
        gets the full fold in :meth:`_arrival`."""
        np = _cmod._numpy()
        sv = np.asarray(senders, dtype=np.int64)
        starts = self._np_indptr[sv]
        counts = self._np_indptr[sv + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return 0, [], []
        offs = np.repeat(starts - np.concatenate(
            ([0], np.cumsum(counts)[:-1])), counts)
        edges = np.arange(total, dtype=np.int64) + offs
        dsts = self._np_heads[edges]
        # Per-message sender-slot index (into the send_* columns).
        slots = np.repeat(np.arange(len(senders), dtype=np.int64), counts)
        cand_d = np.asarray(send_d, dtype=np.int64)[slots] \
            + self._np_weights[edges]
        cand_l = np.asarray(send_l, dtype=np.int64)[slots] + 1
        # The scalar keys.key_of, vectorized -- bit-identical for
        # word-sized integers (a rational key's numerator stays below
        # 2**53, so its float64 division is correctly rounded).
        if self.ratio is None:
            kappa = cand_d.astype(np.float64) * self.gamma + cand_l
        else:
            num, den = self.ratio
            kappa = (cand_d * num + cand_l * den) / den
        k = len(self.sources)
        cells = dsts * k \
            + self._np_xi[np.asarray(send_x, dtype=np.int64)][slots]
        cand_nu = np.asarray(send_nu, dtype=np.int64)[slots]
        rejected = ((cand_d > self._np_best_d[cells])
                    & (self._np_count[cells] >= cand_nu)
                    & (self._np_tail_k[cells] < kappa))
        if not self._all_wok:
            # a channel of the reverse edge only: nothing to relax
            rejected |= ~self._np_wok[edges]
        order = np.argsort(dsts, kind="stable")
        receivers = list(dict.fromkeys(dsts[order].tolist()))
        fold = order[~rejected[order]]
        f_dst = dsts[fold].tolist()
        f_slot = slots[fold].tolist()
        f_d = cand_d[fold].tolist()
        f_l = cand_l[fold].tolist()
        f_k = kappa[fold].tolist()
        arrival = self._arrival
        BEST, SKEYS = self.BEST, self.SKEYS
        KEYS, CMAX = self.KEYS, self.CMAX
        MAXLEN, MAXSRC = self.MAXLEN, self.MAXSRC
        xi = self._xi
        best_d = self._np_best_d
        count = self._np_count
        tail_k = self._np_tail_k
        changed: List[int] = []
        t = 0
        n_fold = len(f_dst)
        for u in receivers:
            dirty = False
            best_u = BEST[u]
            skeys_u = SKEYS[u]
            while t < n_fold and f_dst[t] == u:
                si = f_slot[t]
                x = send_x[si]
                d = f_d[t]
                l = f_l[t]
                kappa = f_k[t]
                nu_in = send_nu[si]
                t += 1
                b = best_u[x]
                if d > b.d:
                    # the exact O(1) quota check of _round_python: the
                    # prefilter read the round-start state only
                    sk = skeys_u.get(x)
                    if sk is not None and len(sk) >= nu_in \
                            and sk[nu_in - 1] <= (kappa, d, x):
                        continue
                if arrival(u, r, senders[si], d, l, kappa, x, nu_in):
                    # keep the prefilter's cell current for later rounds
                    dirty = True
                    c = u * k + xi[x]
                    sk = skeys_u[x]
                    best_d[c] = b.d
                    count[c] = len(sk)
                    tail_k[c] = sk[-1][0]
            if dirty:
                changed.append(u)
            ln = len(KEYS[u])  # the round epilogue, as in _round_python
            if ln > MAXLEN[u]:
                MAXLEN[u] = ln
            if CMAX[u] > MAXSRC[u]:
                MAXSRC[u] = CMAX[u]
        return total, receivers, changed

    # -- one arrival (Steps 8-13 on the columns) ---------------------------

    def _arrival(self, v: int, r: int, y: int, d: int, l: int,
                 kappa: float, x: int, nu_in: int) -> bool:
        """Fold one candidate into node *v*'s columns -- the exact
        Steps 8-13 of the reference ``on_receive``, on columns instead
        of Entry objects.  Returns whether the list changed (False:
        the quota gate rejected the candidate)."""
        b = self.BEST[v][x]
        bd = b.d
        bl = b.l
        promote = False
        if d < bd:
            promote = True
        elif d == bd:
            if l < bl:
                promote = True
            elif l == bl:
                bp = b.parent
                promote = y < (-1 if bp is None else bp)
        key = (kappa, d, x)
        skeys = self.SKEYS[v]
        if not promote:
            # Step 13's quota gate first: most arrivals are rejected
            # here, and a rejection touches no column.
            sk = skeys.get(x)
            j = bisect_right(sk, key) if sk else 0
            if j >= nu_in:
                return False
        keys = self.KEYS[v]
        sflags = self.SFLAGS[v]
        lcol = self.LCOL[v]
        pcol = self.PCOL[v]
        fcol = self.FCOL[v]
        scol = self.SCOL[v]
        if promote:
            # Steps 9-11: new flag-d* holder; inserting the SP entry
            # does not evict by itself.
            gi = bisect_right(keys, key)
            keys.insert(gi, key)
            lcol.insert(gi, l)
            pcol.insert(gi, y)
            fcol.insert(gi, True)
            scol.insert(gi, None)
            sk = skeys.get(x)
            if sk is None:
                sk = skeys[x] = []
                sflags[x] = []
            sf = sflags[x]
            j = bisect_right(sk, key)
            sk.insert(j, key)
            sf.insert(j, True)
            self._hist_link(v, len(sk))
            pos = gi + 1
            had_old = bd != _INF
            if had_old:
                # Demote the previous holder.  Equal sort key: the
                # parent-id tie-break replacement -- the fully dominated
                # twin sits *below* the newcomer and is dropped
                # outright.  Otherwise: evict over the Invariant 2
                # budget (0 under the "always" ablation).
                old_key = (key_of(bd, bl, self.gamma), bd, x)
                j0 = bisect_left(sk, old_key)
                j1 = bisect_right(sk, old_key)
                t_old = -1
                for t in range(j0, j1):
                    if sf[t] and t != j:
                        t_old = t
                        break
                if t_old < 0:  # structurally impossible: SP never evicted
                    raise AssertionError(
                        f"columnar pipelined kernel: lost flag-d* entry "
                        f"for source {x} at node {v}")
                sf[t_old] = False
                g_old = bisect_left(keys, old_key) + (t_old - j0)
                fcol[g_old] = False
                if old_key == key:
                    del keys[g_old]
                    del lcol[g_old]
                    del pcol[g_old]
                    del fcol[g_old]
                    del scol[g_old]
                    del sk[t_old]
                    del sf[t_old]
                    self._hist_unlink(v, len(sk) + 1)
                else:
                    bud = 0 if self.budget is None else self.budget
                    if len(sk) > bud:
                        self._evict_above(v, x, j)
            b.d = d
            b.l = l
            b.parent = y
            if l <= self.h:
                self.LASTSP[v] = r
            ev = self._pev
            if ev is not None:
                # the worklist loop emits promote before the mutation
                # and insert after it; nothing comes between them
                ev.append(_new(_TE, (r, v, "promote", (x, d, l))))
                ev.append(_new(_TE, (r, v, "insert", (d, l, x, kappa, pos))))
            if r >= _ceil(kappa + pos):  # Invariant 1 (Lemma II.12)
                self._inv1_fail(v, r, d, l, kappa, x, y, True, pos)
        else:
            # Step 13: the candidate passed the quota gate above; Insert
            # with eviction of the closest non-SP same-source entry
            # above.
            gi = bisect_right(keys, key)
            keys.insert(gi, key)
            lcol.insert(gi, l)
            pcol.insert(gi, y)
            fcol.insert(gi, False)
            scol.insert(gi, None)
            if sk is None:
                sk = skeys[x] = []
                sflags[x] = []
            sf = sflags[x]
            sk.insert(j, key)  # j: the gate's count, still the spot
            sf.insert(j, False)
            self._hist_link(v, len(sk))
            bud = self.budget
            if bud is None or len(sk) > bud:
                self._evict_above(v, x, j)
            pos = gi + 1
            ev = self._pev
            if ev is not None:
                ev.append(_new(_TE, (r, v, "insert",
                                     (d, l, x, kappa, pos))))
            if r >= _ceil(kappa + pos):  # Invariant 1 (Lemma II.12)
                self._inv1_fail(v, r, d, l, kappa, x, y, False, pos)
        return True

    def _evict_above(self, v: int, x: int, src_index: int) -> None:
        """Remove the closest non-SP entry for source *x* strictly above
        per-source index *src_index*, if any (NodeList._evict_above on
        columns)."""
        sk = self.SKEYS[v][x]
        sf = self.SFLAGS[v][x]
        for t in range(src_index + 1, len(sk)):
            if not sf[t]:
                key = sk[t]
                keys = self.KEYS[v]
                g = bisect_left(keys, key) + (t - bisect_left(sk, key))
                del keys[g]
                del self.LCOL[v][g]
                del self.PCOL[v][g]
                del self.FCOL[v][g]
                del self.SCOL[v][g]
                del sk[t]
                del sf[t]
                self._hist_unlink(v, len(sk) + 1)
                return

    def _inv1_fail(self, v: int, r: int, d: int, l: int, kappa: float,
                   x: int, parent: int, flag_sp: bool, pos: int) -> None:
        """Raise the Invariant 1 (Lemma II.12) violation with the
        reference's exact message (the Entry repr is reproduced from the
        columns).  Callers inline the ``r >= ceil(kappa + pos)`` check
        so the happy path pays no call."""
        star = "*" if flag_sp else ""
        raise AssertionError(
            f"Invariant 1 violated at node {v}, round {r}: "
            f"inserted Entry(k={kappa:.3f}, d={d}, l={l}, "
            f"x={x}{star}, p={parent}) at pos {pos} "
            f"with ceil(kappa+pos)={_ceil(kappa + pos)}")


# Self-registration (see the note at the end of repro/perf/columnar.py).
_cmod.COLUMNAR_KERNELS.append(_PipelinedKernel)

__all__ = ["_PipelinedKernel"]
