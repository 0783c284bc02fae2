"""The synchronous CONGEST network simulator.

This is the substitution substrate documented in DESIGN.md section 5: the
paper assumes an abstract synchronous network of ``n`` processors; we
execute the same per-node programs in lockstep rounds and *count* exactly
the quantities the paper's theorems bound (rounds, per-edge congestion,
message sizes).

Design notes
------------
* Messages sent in round ``r`` are delivered in the receive phase of round
  ``r`` and can influence sends from round ``r + 1`` on (Section I-B /
  Lemma II.12 of the paper).
* The CONGEST constraints are *enforced*, not just measured: a program
  that puts two messages on one directed channel in one round, or packs
  more than ``max_message_words`` words into a message, raises immediately.
  This turns model violations into test failures instead of silently wrong
  round counts.
* Idle rounds are fast-forwarded using ``Program.next_active_round``; the
  round counter still advances through them (``RunMetrics.skipped_rounds``
  records how many were skipped), so measured round complexity is identical
  to naive execution.
* The send schedule is round-bucketed (a dict from round to the nodes
  that asked for it, plus a min-heap of the distinct rounds), so a round
  costs O(active nodes), not O(n): under Algorithm 1's schedule most
  nodes sit idle in most rounds.  :meth:`Network.run` is the only
  object-level round loop; the columnar backend
  (:class:`repro.perf.columnar.ColumnarNetwork`) subclasses it and falls
  back to it for everything its bulk kernels do not cover.
* The fault-free path is the *default* path: fault injection
  (``fault_plan``), invariant monitoring (``monitor``), and event
  recording (``record_window``) all hang off ``None``/zero checks, so a
  network built without them executes round-for-round and
  message-for-message identically to the seed simulator
  (tests/test_golden.py freezes the round counts to prove it).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from time import perf_counter as _perf
from typing import Any, Callable, Dict, List, Optional

from ..obs.profiling import HOT as _HOT
from .message import CongestionError, Envelope, MessageSizeError
from .metrics import RunMetrics
from .node import NodeContext, Program

_SRC = attrgetter("src")


class RoundLimitExceeded(RuntimeError):
    """The execution did not quiesce within ``max_rounds`` rounds.

    Carries a structured :class:`~repro.faults.watchdog.PostMortem` in
    ``post_mortem`` (pending send schedule, in-flight envelopes, channel
    load, fault statistics, and -- when ``Network(record_window=k)`` --
    the last k rounds of per-node events); its rendering is appended to
    the exception text.
    """

    def __init__(self, message: str, post_mortem: Any = None) -> None:
        if post_mortem is not None:
            message = f"{message}\n{post_mortem.render()}"
        super().__init__(message)
        self.post_mortem = post_mortem


class Network:
    """A simulated CONGEST network running one :class:`Program` per node.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.WeightedDigraph` (or any object with the
        same ``n`` / ``out_edges(v)`` / ``in_edges(v)`` /
        ``comm_neighbors(v)`` interface).
    program_factory:
        Called once per node id to create that node's program.  Use a
        shared closure to give different nodes different roles (e.g. the
        source set ``S``).
    max_message_words:
        Per-message word budget (one word = one O(log n)-bit field).
        The paper's messages carry a constant number of fields; 8 leaves
        comfortable room for ``(d, l, x, flag, nu)``-style payloads.
    channel_capacity:
        Messages allowed per directed channel per round (1 in CONGEST).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` (or a prebuilt
        :class:`~repro.faults.plan.FaultInjector`): seeded message
        drops / duplicates / delays / corruption, link failures, and
        node crash windows, applied in the delivery phase.  ``None`` (or
        a trivial plan) keeps the exact fault-free delivery path.
    monitor:
        Optional :class:`~repro.faults.monitor.InvariantMonitor` (any
        object with ``after_round(network, r, touched)``), called after
        each executed round's receive phase with the ids of the nodes
        that sent or received.
    tracer:
        Optional :class:`~repro.obs.Tracer`: the network emits a
        ``net.send`` event per enforced message and a ``net.round``
        summary event per executed round, and the fault injector (when
        present) reports every injected fault as a ``fault`` event.
        ``None`` (the default) keeps the untraced path.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`: per-round
        wall-clock is observed into the ``congest.round_wall_s``
        histogram and the accumulated :class:`RunMetrics` is mirrored
        into ``congest.*`` instruments when ``run`` finishes (also on
        failure), idempotently -- see
        :func:`repro.obs.registry.publish_run_metrics`.
    record_window:
        When > 0, keep the last this-many rounds of per-node send and
        receive events in ``self.trace`` (a bounded
        :class:`~repro.congest.events.RingTraceRecorder`) for the
        post-mortem attached to failures.
    """

    def __init__(self, graph: Any,
                 program_factory: Callable[[int], Program],
                 *,
                 max_message_words: int = 8,
                 channel_capacity: int = 1,
                 fault_plan: Any = None,
                 monitor: Any = None,
                 tracer: Any = None,
                 registry: Any = None,
                 record_window: int = 0) -> None:
        n = getattr(graph, "n", None)
        if not isinstance(n, int) or n < 1:
            raise ValueError(
                f"graph must have at least one node (graph.n >= 1), got "
                f"n={n!r}: a CONGEST network needs processors to simulate")
        if max_message_words < 1:
            raise ValueError(
                f"max_message_words must be >= 1 (a message must be able "
                f"to carry at least one O(log n)-bit word), got "
                f"{max_message_words}")
        if channel_capacity < 1:
            raise ValueError(
                f"channel_capacity must be >= 1 (each directed channel "
                f"carries at least one message per round in CONGEST), got "
                f"{channel_capacity}")
        if record_window < 0:
            raise ValueError(
                f"record_window must be >= 0 rounds, got {record_window}")
        self.graph = graph
        self.n = n
        self.max_message_words = max_message_words
        self.channel_capacity = channel_capacity
        self.monitor = monitor
        self.tracer = tracer
        self.registry = registry
        self.record_window = record_window
        self.fault_injector = self._make_injector(fault_plan)
        if self.fault_injector is not None and tracer is not None:
            self.fault_injector.tracer = tracer
        self.trace = None
        if record_window > 0:
            from .events import RingTraceRecorder
            self.trace = RingTraceRecorder(record_window)
        self.programs: List[Program] = []
        self.contexts: List[NodeContext] = []
        for v in range(self.n):
            self.programs.append(program_factory(v))
            self.contexts.append(NodeContext(
                node=v, n=self.n,
                out_edges=graph.out_edges(v),
                in_edges=graph.in_edges(v),
                comm_neighbors=graph.comm_neighbors(v),
            ))
        self.metrics = RunMetrics()
        self._started = False
        #: Last processed round; ``run`` resumes from here (see its doc).
        self._round = 0
        #: publish_run_metrics state (delta accounting across resumes).
        self._published = None

    @staticmethod
    def _make_injector(fault_plan: Any):
        """Accept a FaultPlan, a prebuilt FaultInjector, or None.

        A trivial plan (all rates zero, no failures) is treated as
        ``None`` so the zero-overhead delivery path is taken.  The
        import is local to keep ``repro.congest`` importable without
        ``repro.faults`` (which itself imports this module's package).
        """
        if fault_plan is None:
            return None
        from ..faults.plan import FaultInjector, FaultPlan
        if isinstance(fault_plan, FaultInjector):
            return None if fault_plan.plan.is_trivial else fault_plan
        if isinstance(fault_plan, FaultPlan):
            return None if fault_plan.is_trivial else FaultInjector(fault_plan)
        raise TypeError(
            f"fault_plan must be a FaultPlan or FaultInjector, got "
            f"{type(fault_plan).__name__}")

    # ------------------------------------------------------------------

    def _post_mortem(self, reason: str, r: int,
                     next_round: Optional[List[Optional[int]]]):
        from ..faults.watchdog import build_post_mortem
        return build_post_mortem(self, reason, r, next_round)

    def run(self, max_rounds: int) -> RunMetrics:
        """Execute rounds until every node is quiescent.

        Returns the accumulated :class:`RunMetrics`.  Raises
        :class:`RoundLimitExceeded` -- with a structured post-mortem
        attached -- if activity continues past *max_rounds*; for the
        paper's algorithms this indicates a bug, since all of them have
        provable round bounds.

        **Re-entry / resumption semantics.**  ``run`` may be called again
        on the same network: execution resumes from the last processed
        round (programs are started exactly once, and the schedule is
        re-derived from that round, not from round 0), and ``metrics``
        keeps accumulating without double-counting.  Calling ``run`` on
        an already-quiescent network is a no-op returning the same
        metrics.  ``max_rounds`` is an *absolute* round number, so
        resuming after a :class:`RoundLimitExceeded` with a larger
        budget continues the interrupted execution.
        """
        n = self.n
        programs, contexts = self.programs, self.contexts
        injector, monitor, recorder = self.fault_injector, self.monitor, self.trace
        tracer, registry = self.tracer, self.registry
        profile = _HOT.session
        timed = registry is not None or profile is not None
        round_hist = None if registry is None else registry.histogram(
            "congest.round_wall_s", scale=1e-6)
        if not self._started:
            for v in range(n):
                programs[v].on_start(contexts[v])
            self._started = True

        # The round-bucketed send schedule, re-derived from the programs
        # at every entry.  sched[v] is the earliest round (> last
        # processed round) at which node v wants its send phase, or
        # None if quiescent.  buckets maps a round to the nodes that
        # asked for it; entries may be stale, and an entry is live iff
        # sched[v] == r.  rounds is a min-heap of the distinct bucket
        # rounds, so a round costs O(active nodes), not O(n).
        sched: List[Optional[int]] = [None] * n
        buckets: Dict[int, List[int]] = {}
        rounds: List[int] = []
        base = self._round
        for v in range(n):
            nr = programs[v].next_active_round(contexts[v], base)
            if nr is not None:
                sched[v] = nr
                bucket = buckets.get(nr)
                if bucket is None:
                    buckets[nr] = [v]
                    rounds.append(nr)
                else:
                    bucket.append(v)
        heapify(rounds)

        metrics = self.metrics
        chmsg = metrics.channel_messages
        word_budget, capacity = self.max_message_words, self.channel_capacity
        # Message totals (``RunMetrics.record_message``, inlined) add up
        # in locals and flush in the ``finally`` block, so an interrupted
        # run still reports exactly the load it offered.
        msg_count = words_total = 0
        max_msg_words = metrics.max_message_words
        prev_r = base
        try:
            while True:
                # The earliest round with a live sender; all-stale
                # buckets are dropped as they surface.
                due: List[int] = []
                while rounds:
                    r = rounds[0]
                    due = [v for v in buckets[r] if sched[v] == r]
                    if due:
                        break
                    heappop(rounds)
                    del buckets[r]
                else:
                    r = None
                if injector is not None:
                    in_flight = injector.earliest_in_flight()
                    if in_flight is not None and (r is None or in_flight < r):
                        r, due = in_flight, []
                if r is None:
                    break  # global quiescence: no sends scheduled, none in flight
                if r > max_rounds:
                    raise RoundLimitExceeded(
                        f"no quiescence by round {max_rounds}; "
                        f"next scheduled activity at round {r}",
                        self._post_mortem("round limit exceeded", max_rounds,
                                          sched))
                if due:
                    heappop(rounds)
                    del buckets[r]
                    due.sort()
                if r > prev_r + 1:
                    metrics.skipped_rounds += r - prev_r - 1
                prev_r = r
                self._round = r
                if timed:
                    t_round = _perf()

                # --- send phase: the nodes due at r, in increasing id ------
                envelopes: List[Envelope] = []
                senders: List[int] = []
                for v in due:
                    if sched[v] != r:
                        continue  # a node queued twice in one bucket
                    sched[v] = None  # consumed; rescheduled below
                    ctx = contexts[v]
                    ctx._begin_round(r)
                    programs[v].on_send(ctx, r)
                    out = ctx._end_send()
                    if out:
                        envelopes.extend(out)
                        metrics.node_sends[v] += 1
                    senders.append(v)

                # --- CONGEST constraint enforcement + delivery -------------
                inboxes: Dict[int, List[Envelope]] = {}
                channel_load: Dict[tuple, int] = {}
                deliveries: List[Envelope] = []
                for env in envelopes:
                    src, dst, _sent, payload, words = env
                    if words > word_budget:
                        raise MessageSizeError(
                            f"round {r}: node {src} sent a {words}-word "
                            f"message (budget {word_budget}): "
                            f"{payload!r}")
                    ch = (src, dst)
                    load = channel_load.get(ch, 0) + 1
                    if load > capacity:
                        raise CongestionError(
                            f"round {r}: channel {ch} carries {load} messages "
                            f"(capacity {capacity})")
                    channel_load[ch] = load
                    msg_count += 1
                    words_total += words
                    if words > max_msg_words:
                        max_msg_words = words
                    chmsg[ch] += 1
                    if recorder is not None:
                        recorder.emit(r, src, "send", dst, payload)
                    if tracer is not None:
                        tracer.emit(r, src, "net.send", dst, words)
                    if injector is None:
                        box = inboxes.get(dst)
                        if box is None:
                            inboxes[dst] = [env]
                        else:
                            box.append(env)
                    else:
                        # The fault model acts after enforcement and
                        # accounting: metrics measure offered load.
                        deliveries.extend(injector.offer(env, r, load - 1))

                if injector is not None:
                    deliveries.extend(injector.take_due(r))
                    for env in deliveries:
                        if injector.deliverable(env, r):
                            inboxes.setdefault(env.dst, []).append(env)
                    if envelopes or deliveries:
                        metrics.active_rounds += 1
                        metrics.rounds = max(metrics.rounds, r)
                elif envelopes:
                    metrics.active_rounds += 1
                    metrics.rounds = max(metrics.rounds, r)

                # --- receive phase ------------------------------------------
                # Inboxes are in ascending sender order: senders run in
                # node order and each inbox is filled in envelope order.
                # Only the injector's delayed and duplicated copies can
                # arrive out of order, so only its path sorts (stably, so
                # a sender's messages keep their send order).
                receivers = sorted(inboxes)
                for v in receivers:
                    inbox = inboxes[v]
                    if injector is not None:
                        inbox.sort(key=_SRC)
                    if recorder is not None:
                        for env in inbox:
                            recorder.emit(r, v, "recv", env.src, env.payload)
                    programs[v].on_receive(contexts[v], r, inbox)

                # --- reschedule ---------------------------------------------
                # Insertion-ordered, not a set: senders in increasing
                # node order, then receivers in increasing node order.
                # ``next_active_round`` is queried in exactly this order
                # on every backend, so a callback with side effects
                # cannot make executions diverge across backends or
                # ``PYTHONHASHSEED``.  A changed round files the node in
                # that round's bucket; its old entry goes stale.
                touched = dict.fromkeys(senders)
                touched.update(dict.fromkeys(receivers))
                for v in touched:
                    nr = programs[v].next_active_round(contexts[v], r)
                    if nr != sched[v]:
                        sched[v] = nr
                        if nr is not None:
                            bucket = buckets.get(nr)
                            if bucket is None:
                                buckets[nr] = [v]
                                heappush(rounds, nr)
                            else:
                                bucket.append(v)

                if tracer is not None:
                    tracer.emit(r, -1, "net.round", len(senders),
                                len(receivers))
                if timed:
                    dt = _perf() - t_round
                    if round_hist is not None:
                        round_hist.observe(dt)
                    if profile is not None:
                        profile.record("network.round", dt)

                if monitor is not None and touched:
                    try:
                        monitor.after_round(self, r, touched)
                    except Exception as exc:
                        # Attach the post-mortem to whatever the monitor
                        # raised (InvariantViolation has a slot for it)
                        # and let it propagate located, not bare.
                        try:
                            exc.post_mortem = self._post_mortem(
                                f"invariant violation: {exc}", r, sched)
                        except AttributeError:
                            pass
                        raise
        finally:
            metrics.messages += msg_count
            metrics.words += words_total
            metrics.max_message_words = max_msg_words
            if injector is not None:
                metrics.set_fault_stats(injector.stats.as_dict())
            if registry is not None:
                # Mirror even on failure (the dashboard should show what
                # a crashed run did get done); delta-based, so resumes
                # and re-publishes cannot double-count.
                from ..obs.registry import publish_run_metrics
                self._published = publish_run_metrics(
                    registry, metrics, state=self._published)

        return metrics

    # ------------------------------------------------------------------

    def core_state(self) -> Dict[str, Any]:
        """The execution-core state needed to resume this run in a fresh
        network: last processed round, the started flag, and the fault
        injector's resumable state (``None`` when fault-free).

        The send schedule is deliberately *not* part of the state --
        :meth:`run` re-derives it from the programs on every (re)entry,
        identically on every backend, so restoring program state plus
        this dict reproduces the interrupted execution exactly.
        Program state and metrics are captured separately by
        :mod:`repro.recovery.checkpoint`.
        """
        inj = self.fault_injector
        return {
            "round": self._round,
            "started": self._started,
            "injector": None if inj is None else inj.state_snapshot(),
        }

    def restore_core_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`core_state` output into this network (built
        with the same graph, factory, and fault plan)."""
        self._round = int(state["round"])
        self._started = bool(state["started"])
        inj_state = state.get("injector")
        if inj_state is not None:
            if self.fault_injector is None:
                raise ValueError(
                    "checkpoint carries fault-injector state but this "
                    "network was built without a fault plan")
            self.fault_injector.restore_state(inj_state)

    def outputs(self) -> List[Any]:
        """Per-node outputs after :meth:`run` (``Program.output``)."""
        return [self.programs[v].output(self.contexts[v]) for v in range(self.n)]

    def output_of(self, v: int) -> Any:
        return self.programs[v].output(self.contexts[v])


def run_program(graph: Any, program_factory: Callable[[int], Program],
                max_rounds: int, **network_kwargs: Any):
    """Convenience wrapper: build a network, run it, return
    ``(outputs, metrics, network)``."""
    net = Network(graph, program_factory, **network_kwargs)
    metrics = net.run(max_rounds)
    return net.outputs(), metrics, net
