"""Node programs and their per-node execution context.

A distributed algorithm in this library is written as a :class:`Program`
subclass: the per-node state machine that the paper's pseudo-code describes
("Algorithm 1 ... at node v for round r").  The :class:`Network` (see
:mod:`repro.congest.network`) instantiates one program object per node and
drives them all in synchronous rounds:

1. **send phase** -- each scheduled node's :meth:`Program.on_send` runs and
   may emit messages through its :class:`NodeContext`;
2. **delivery** -- the network checks the CONGEST constraints (at most
   ``channel_capacity`` messages per directed channel per round, each of at
   most ``max_message_words`` words) and moves the messages to the
   receivers' inboxes;
3. **receive phase** -- each node with a non-empty inbox gets
   :meth:`Program.on_receive`.

This matches the paper's convention (Section I-B and the proof of Lemma
II.12) in which a message sent in round ``r`` is received in round ``r``
and can first influence the receiver's sends in round ``r + 1``.

Programs additionally implement :meth:`Program.next_active_round` so that
the simulator can *fast-forward* over rounds in which no node is scheduled
to send.  The round counter still advances through skipped rounds, so the
measured round complexity is identical to a naive round-by-round execution;
only wall-clock time is saved (per the optimisation-workflow guide: make it
correct first, then speed up the measured bottleneck without changing
semantics).
"""

from __future__ import annotations

from time import perf_counter as _perf
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..obs.profiling import HOT as _HOT
from .message import Envelope, _new, payload_words


class NodeContext:
    """Everything a node is allowed to know and do in the CONGEST model.

    A node knows its own identifier, the total number of nodes ``n`` (the
    usual CONGEST assumption), and its incident edges -- including the
    weights of its incident edges, but nothing else about the topology.
    """

    __slots__ = (
        "node", "n", "out_edges", "in_edges", "comm_neighbors",
        "out_neighbors", "weight_in", "_neighbor_set", "_outbox", "_round",
        "_sending",
    )

    def __init__(self, node: int, n: int,
                 out_edges: Sequence[Tuple[int, int]],
                 in_edges: Sequence[Tuple[int, int]],
                 comm_neighbors: Sequence[int]) -> None:
        self.node = node
        self.n = n
        #: Outgoing directed edges ``(neighbour, weight)`` -- paths leave
        #: this node along these.
        self.out_edges: Tuple[Tuple[int, int], ...] = tuple(out_edges)
        #: Incoming directed edges ``(neighbour, weight)`` -- relaxations
        #: arrive along these.
        self.in_edges: Tuple[Tuple[int, int], ...] = tuple(in_edges)
        #: Neighbours in the underlying undirected communication graph
        #: ``U_G`` (channels are bidirectional even for directed G).
        self.comm_neighbors: Tuple[int, ...] = tuple(comm_neighbors)
        #: Heads of the outgoing edges, in ``out_edges`` order (the
        #: destinations of :meth:`broadcast_out`).
        self.out_neighbors: Tuple[int, ...] = tuple(
            [v for v, _w in self.out_edges])
        #: ``weight_in(src)``: weight of the directed edge ``src ->
        #: self.node``; ``None`` if no such edge exists (a message may
        #: still arrive from ``src`` over the bidirectional channel of
        #: edge ``self.node -> src``).  A bound ``dict.get``, so the
        #: per-message lookup of a receive loop is one C call.
        self.weight_in = {u: w for u, w in self.in_edges}.get
        self._neighbor_set = frozenset(self.comm_neighbors)
        self._outbox: List[Envelope] = []
        self._round = 0
        self._sending = False

    # -- sending ----------------------------------------------------------

    def _begin_round(self, r: int) -> None:
        self._round = r
        self._outbox = []
        self._sending = True

    def _end_send(self) -> List[Envelope]:
        self._sending = False
        out, self._outbox = self._outbox, []
        return out

    def send(self, dst: int, payload: Any) -> None:
        """Send *payload* to the single neighbour *dst* this round.

        Locality is enforced: CONGEST nodes can only talk over incident
        channels, so *dst* must be a communication neighbour."""
        if not self._sending:
            raise RuntimeError(
                "send() may only be called from within Program.on_send")
        if dst not in self._neighbor_set:
            raise ValueError(
                f"node {self.node} has no channel to {dst}: CONGEST "
                "messages may only cross incident edges")
        self._outbox.append(Envelope.make(self.node, dst, self._round, payload))

    def send_many(self, dsts: Iterable[int], payload: Any) -> None:
        """Send the same *payload* to each neighbour in *dsts*.

        The word count is computed once for the shared payload (profiled
        hot path: a broadcast re-walking the payload per neighbour
        dominated Algorithm 1's send phase)."""
        if not self._sending:
            raise RuntimeError(
                "send_many() may only be called from within Program.on_send")
        prof = _HOT.session
        t0 = _perf() if prof is not None else 0.0
        words = None
        append = self._outbox.append
        src, rnd = self.node, self._round
        neighbors = self._neighbor_set
        for dst in dsts:
            if dst not in neighbors:
                raise ValueError(
                    f"node {src} has no channel to {dst}: CONGEST "
                    "messages may only cross incident edges")
            if words is None:
                words = payload_words(payload)
            append(_new(Envelope, (src, dst, rnd, payload, words)))
        if prof is not None:
            prof.record("node.send_many", _perf() - t0)

    def broadcast(self, payload: Any) -> None:
        """Send *payload* to every communication neighbour (the paper's
        'send M to all neighbors')."""
        self.send_many(self.comm_neighbors, payload)

    def broadcast_out(self, payload: Any) -> None:
        """Send *payload* along outgoing directed edges only.

        The basic pipelined algorithm "does not need" the bidirectional-
        channel feature (Section I-B): distance information only needs to
        travel along directed edges, so restricting the broadcast halves
        traffic without changing any result on directed inputs.
        """
        self.send_many(self.out_neighbors, payload)


class Program:
    """Base class for per-node CONGEST state machines."""

    def on_start(self, ctx: NodeContext) -> None:
        """Round-0 local initialisation (the paper's 'Initialization').
        No messages may be sent here."""

    def on_send(self, ctx: NodeContext, r: int) -> None:
        """Send phase of round *r* (r >= 1).  Emit messages via *ctx*."""

    def on_receive(self, ctx: NodeContext, r: int, inbox: List[Envelope]) -> None:
        """Receive phase of round *r*: *inbox* holds the messages sent to
        this node during round *r*, in ascending sender id order, with
        one sender's messages in the order it sent them (deterministic;
        tests/test_inbox_order.py pins it on every backend).  Under a
        fault plan, delayed and duplicated copies are placed by sender
        id only."""

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        """Earliest round ``> r`` in which this node may need its send
        phase executed, assuming it receives no further messages.

        Returning ``None`` declares the node quiescent: it will not send
        again unless a message arrives (after which this method is asked
        again).  The default is maximally conservative -- active every
        round -- which is always correct but disables fast-forwarding and
        quiescence detection; concrete algorithms override it.
        """
        return r + 1

    def output(self, ctx: NodeContext) -> Any:
        """The node's local output after the run (algorithm-specific)."""
        return None
