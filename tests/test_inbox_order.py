"""The inbox-order contract every round loop owes ``Program.on_receive``.

Each inbox is in ascending sender order, and the messages one sender
put on the same channel in one round keep their send order.  The
fault-free loops get this for free -- senders run in ascending node
order and each inbox is filled in envelope order -- so they skip the
per-receiver sort; only the fault injector's delayed and duplicated
copies can arrive out of order, and that path still sorts (stably).
These tests pin the contract on the reference loop, the fast worklist
loop and the columnar backend's worklist fallback, for one and two
messages per channel per round, on directed and undirected graphs, and
under a delay/duplicate fault plan.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.congest import Envelope, NodeContext, Program
from repro.faults import FaultPlan
from repro.graphs import random_graph
from repro.perf import make_network

BACKENDS = ("reference", "fast", "columnar")
#: Rounds in which every node sends.
SEND_ROUNDS = 4


class Chatter(Program):
    """Every node sends ``capacity`` numbered messages to each of its
    communication neighbours in rounds 1..SEND_ROUNDS (so a sender's
    messages to one receiver share a channel), and records every inbox
    it is handed."""

    def __init__(self, v: int, capacity: int) -> None:
        self.v = v
        self.capacity = capacity
        self.inboxes: List[tuple] = []

    def on_send(self, ctx: NodeContext, r: int) -> None:
        for seq in range(self.capacity):
            ctx.broadcast((self.v, r, seq))

    def on_receive(self, ctx: NodeContext, r: int,
                   inbox: List[Envelope]) -> None:
        assert all(type(env) is Envelope for env in inbox)
        self.inboxes.append((r, [(env.src, env.payload) for env in inbox]))

    def next_active_round(self, ctx: NodeContext, r: int) -> Optional[int]:
        return r + 1 if r < SEND_ROUNDS else None

    def output(self, ctx: NodeContext):
        return self.inboxes


def _run(backend, g, capacity, fault_plan=None):
    net = make_network(g, lambda v: Chatter(v, capacity), backend=backend,
                       channel_capacity=capacity, fault_plan=fault_plan)
    net.run(max_rounds=100)
    return net.outputs()


def _graphs():
    for directed in (True, False):
        for seed in (1, 2):
            yield pytest.param(
                random_graph(9, p=0.4, directed=directed, seed=seed),
                id=f"{'directed' if directed else 'undirected'}-{seed}")


@pytest.mark.parametrize("g", list(_graphs()))
@pytest.mark.parametrize("capacity", (1, 2))
@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_free_inboxes_in_sender_then_send_order(backend, g, capacity):
    for v, inboxes in enumerate(_run(backend, g, capacity)):
        assert [r for r, _ in inboxes] == list(range(1, SEND_ROUNDS + 1))
        for r, inbox in inboxes:
            # Exactly the round's messages, in (sender, sequence) order:
            # ascending senders, each sender's messages in send order.
            want = [(u, (u, r, seq)) for u in sorted(g.comm_neighbors(v))
                    for seq in range(capacity)]
            assert inbox == want, (backend, v, r)


@pytest.mark.parametrize("g", list(_graphs()))
@pytest.mark.parametrize("capacity", (1, 2))
def test_faulty_inboxes_sorted_by_sender_and_identical(g, capacity):
    plan = FaultPlan(seed=7, delay_rate=0.3, max_delay=3,
                     duplicate_rate=0.3)
    runs = {b: _run(b, g, capacity, fault_plan=plan) for b in BACKENDS}
    late = 0
    for inboxes in runs["reference"]:
        for r, inbox in inboxes:
            senders = [u for u, _ in inbox]
            assert senders == sorted(senders)
            late += sum(1 for _, (_u, sent, _s) in inbox if sent != r)
    # The plan must actually have reordered something for the sort to
    # be exercised.
    assert late > 0
    assert runs["fast"] == runs["reference"]
    assert runs["columnar"] == runs["reference"]
